"""The README's claims about the package that code can check: it imports
nothing outside the standard library, and its Library example runs and
prints the values its comments give."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import zslen

README = Path(__file__).resolve().parent.parent / "README.md"

# Run in a fresh interpreter without site (-S), so that a third-party module
# cannot be found at all and none is loaded from a .pth file beforehand;
# only the modules these imports add are counted.
IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import zslen, zslen.cli, zslen.verify
print(json.dumps(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_runtime_imports_are_stdlib_only():
    src = str(Path(zslen.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE], env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    added = json.loads(proc.stdout)
    assert "zslen" in added
    assert [m for m in added if m != "zslen" and m not in sys.stdlib_module_names] == []


def library_example() -> str:
    text = README.read_text()
    start = text.index("```python\n", text.index("\n## Library\n")) + len("```python\n")
    return text[start:text.index("```", start)]


def test_readme_library_example_runs_as_commented():
    block = library_example()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = lines[stmt.lineno - 1].split("#", 1)[1].strip()
            assert str(value) == comment, lines[stmt.lineno - 1]
            checked.append(comment)
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == ["{2,3}", "(3, 4, 5, 6)", "0", "lattice node limit of 10 exceeded"]
    assert "# 69 atoms" in block and len(namespace["atoms"]) == 69
    assert "# 5, with a length-5 witness atom" in block
    assert namespace["d"] == 5 and namespace["witness"].length == 5
