"""Replay the corpus of pinned `--stable` outputs, stable_outputs.json, in
one process through cli.main, and print each case whose exit code or
stdout sha256 differs from its pin.  With --write, rewrite the file with
what every case prints now; without it the file is left as it is, and the
script exits 1 when a case changed.

The corpus maps each argv to its formats, and each format to the exit code
and the sha256 of stdout.  To add a case, give its format an empty pin,
{}, and run with --write.

    PYTHONPATH=src python tests/pin_stable_outputs.py [--write]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from zslen.cli import main

CORPUS = Path(__file__).with_name("stable_outputs.json")


def load() -> dict[str, dict[str, dict]]:
    return json.loads(CORPUS.read_text())


def cases(corpus) -> list[tuple[str, str]]:
    """(argv, format) for each case, in file order."""
    return [(argv, fmt) for argv, formats in corpus.items() for fmt in formats]


def replay(argv: str, fmt: str) -> dict:
    """The exit code and stdout sha256 of one `--stable` run; stderr, where
    argparse writes its usage, is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv.split(), "--format", fmt, "--stable"])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the pins in the file")
    write = parser.parse_args(argv).write
    corpus = load()
    changed = 0
    for argv_, fmt in cases(corpus):
        pin, got = corpus[argv_][fmt], replay(argv_, fmt)
        if got != pin:
            changed += 1
            print(f"{argv_} --format {fmt}: {pin or 'unpinned'} -> {got}")
            corpus[argv_][fmt] = got
    print(f"{changed} of {len(cases(corpus))} cases changed")
    if write:
        CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    return int(bool(changed) and not write)


if __name__ == "__main__":
    sys.exit(run())
