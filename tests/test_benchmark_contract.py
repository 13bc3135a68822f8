"""Smoke test of the benchmark contract: perfbench/worker.py imports zslen
from src/ and, with tracing on, rebinds zslen entry points by name
(perfbench/spans.py).  A renamed entry point breaks the traced pass, so
one traced pass of the smallest workload runs here.  A query that no
longer goes through FactorizationEngine.lengths_mask would read as zero
queries, so a traced `lengths` pass pins its counters, and a traced
`sweeps` pass pins the counters of the whole-monoid scans."""

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


def traced_pass(workload: str, seed: int, workdir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), "1", str(workdir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ops"]
    for op in out["ops"]:
        assert "error" not in op, op
        assert "answer" in op, op
    return out


def test_traced_atoms_pass_answers_every_op(tmp_path):
    out = traced_pass("atoms", 0, tmp_path)
    assert out["layers"]["atoms.nodes"] > 0


def test_traced_lengths_pass_counts_every_query(tmp_path):
    layers = traced_pass("lengths", 1, tmp_path)["layers"]
    assert layers["lengths.queries"] == 12200
    assert layers["lengths.memo_entries"] == 38478
    assert layers["sequence.dense_calls"] == 0
    # the Krull instance's walk: 379 H-atoms on top of the 69 + 39 + 253
    # atoms of the three groups
    assert layers["transfer.h_atoms"] == 379
    assert layers["atoms.count"] == 740
    assert layers["atoms.nodes"] == 4305


def test_traced_sweeps_pass_walks_each_system_once(tmp_path):
    layers = traced_pass("sweeps", 1, tmp_path)["layers"]
    # 58,135 queries when the structure fit walked B(C3+C3) a second time
    # for its difference candidates; 52,715 queries and 32,049 memo entries
    # when the U_k walk of C5 queried every product, not one per orbit of
    # the automorphisms (12,269 -> 3,593 memo entries for that op); 39,912
    # queries and 23,373 memo entries when `system` and the U_k walk queried
    # every key and product holding the prime 0
    assert layers["lengths.queries"] == 19069
    assert layers["lengths.memo_entries"] == 11059
    assert layers["structure_fit.fits"] == 16
    assert layers["atoms.nodes"] == 641
