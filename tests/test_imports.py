"""What a zslen process imports: `import zslen` loads no submodule, the
command line loads only what its command runs, every module imports only
the standard library, and the package keeps every name it exports."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import zslen

SRC = str(Path(zslen.__file__).resolve().parent.parent)

# the names the package exported when it imported every submodule eagerly
EXPORTS = {
    "errors": ["InvalidArgumentError", "ResourceLimitError"],
    "group": ["FiniteAbelianGroup", "GroupElement", "add", "elements", "make_group", "neg",
              "order_of", "zero"],
    "sequence": ["Sequence", "divides", "enumerate_zero_sum", "is_zero_sum", "mul", "negate",
                 "parse_sequence", "quotient", "sigma"],
    "atoms": ["AtomSet", "davenport", "davenport_star", "enumerate_atoms", "is_atom"],
    "lengths": ["LengthSet", "delta_of", "dilate", "elasticity_of", "exhaustive_length_set",
                "length_set", "shift", "sumset"],
    "invariants": ["SystemOfLengthSets", "UnionOfLengths", "closed_form_system",
                   "compare_with_closed_form", "delta_of_group", "delta_star", "elasticity",
                   "has_two_D_lengthset", "interval_support_check", "is_half_factorial",
                   "lambda_k", "min_distance", "rho_k", "system", "union_k", "unions_range"],
    "structure_fit": ["AAMPFit", "best_aamp", "fit_aamp", "verify_structure_theorem",
                      "verify_unions_structure"],
    "numerical": ["NumericalMonoid", "contains", "make_numerical", "num_elasticity",
                  "num_length_set", "num_min_delta"],
    "transfer": ["KrullInstance", "beta", "check_atom_correspondence", "check_transfer",
                 "direct_length_set", "make_instance"],
    "cache": ["cache_load", "cache_store"],
}
NAMES = [name for names in EXPORTS.values() for name in names]

# the modules that no atom command needs
COMPUTE = ["zslen.invariants", "zslen.lengths", "zslen.verify", "zslen.transfer",
           "zslen.structure_fit", "zslen.numerical", "zslen.cache"]


def loaded_after(code: str) -> list[str]:
    """The modules that running `code` adds, in a fresh interpreter without
    site (-S), so that nothing is loaded from a .pth file beforehand."""
    probe = (
        "import contextlib, io, json, sys\n"
        "before = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "sys.stdout.write(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_zslen_loads_no_submodule():
    added = loaded_after("import zslen")
    assert [m for m in added if m.startswith("zslen")] == ["zslen"]


def test_import_cli_loads_no_compute_module_and_no_hashlib():
    added = loaded_after("import zslen.cli")
    assert "zslen.cli" in added
    assert [m for m in COMPUTE + ["hashlib"] if m in added] == []


def test_atoms_command_loads_no_compute_module():
    added = loaded_after('from zslen import cli\ncli.main(["atoms", "--group", "3"])')
    assert "zslen.atoms" in added
    assert [m for m in COMPUTE + ["hashlib"] if m in added] == []


def test_verify_all_loads_neither_the_cache_nor_hashlib():
    added = loaded_after('from zslen import cli\ncli.main(["verify", "all", "--small"])')
    assert "zslen.verify" in added
    assert [m for m in ("zslen.cache", "hashlib") if m in added] == []


@pytest.mark.parametrize("argv", [["atoms", "--group", "3"], ["verify", "all", "--small"]])
def test_commands_load_neither_dataclasses_nor_inspect(argv):
    # the records are plain classes: no process generates code for them
    added = loaded_after(f"from zslen import cli\ncli.main({argv!r})")
    assert "zslen.group" in added
    assert [m for m in ("dataclasses", "inspect") if m in added] == []


@pytest.mark.parametrize("name", [m.name for m in pkgutil.iter_modules(zslen.__path__)])
def test_every_module_imports_only_the_standard_library(name):
    added = loaded_after(f"import zslen.{name}")
    assert f"zslen.{name}" in added
    outside = {m.split(".")[0] for m in added} - {"zslen"} - set(sys.stdlib_module_names)
    assert outside == set()


def test_every_exported_name_is_the_object_its_module_defines():
    for module, names in EXPORTS.items():
        defining = importlib.import_module(f"zslen.{module}")
        for name in names:
            assert getattr(zslen, name) is getattr(defining, name), name


def test_dir_all_and_star_import_list_every_exported_name():
    assert len(NAMES) == 67
    assert set(NAMES) <= set(zslen.__all__)
    assert set(NAMES) <= set(dir(zslen))
    namespace: dict = {}
    exec("from zslen import *", namespace)
    assert [name for name in NAMES if namespace.get(name) is not getattr(zslen, name)] == []


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'zslen' has no attribute 'nope'"):
        zslen.nope


def test_submodules_are_attributes_of_the_package():
    added = loaded_after("import zslen\nzslen.atoms.enumerate_atoms\nzslen.cli.main")
    assert {"zslen.atoms", "zslen.cli"} <= set(added)
