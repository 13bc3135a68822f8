"""Smoke test of the benchmark contract: perfbench/worker.py imports zslen
from src/ and, with tracing on, rebinds zslen entry points by name
(perfbench/spans.py).  A renamed entry point breaks the traced pass, so
one traced pass of the smallest workload runs here."""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def test_traced_atoms_pass_answers_every_op(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(WORKER), "atoms", "0", "1", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ops"]
    for op in out["ops"]:
        assert "error" not in op, op
        assert "answer" in op, op
    assert out["layers"]["atoms.nodes"] > 0
