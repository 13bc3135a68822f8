"""Smoke test of the benchmark contract: perfbench/worker.py imports zslen
from src/ and, with tracing on, rebinds zslen entry points by name
(perfbench/spans.py).  A renamed entry point breaks the traced pass, so
one traced pass of the smallest workload runs here.  A query that no
longer goes through FactorizationEngine.lengths_mask would read as zero
queries, so a traced `lengths` pass pins its counters, and a traced
`sweeps` pass pins the counters of the whole-monoid scans."""

import importlib.util
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
    # 4,305 nodes when the atom walk took the letters in element order, not
    # by descending level in the subgroup chain
    assert layers["atoms.nodes"] == 2693


def test_traced_sweeps_pass_walks_each_system_once(tmp_path):
    layers = traced_pass("sweeps", 1, tmp_path)["layers"]
    # 58,135 queries when the structure fit walked B(C3+C3) a second time
    # for its difference candidates; 52,715 queries and 32,049 memo entries
    # when the U_k walk of C5 queried every product, not one per orbit of
    # the automorphisms (12,269 -> 3,593 memo entries for that op); 39,912
    # queries and 23,373 memo entries when `system` and the U_k walk queried
    # every key and product holding the prime 0; 19,069 queries and 11,059
    # memo entries when `system` queried lengths_mask once per zero-sum key;
    # 2,657 queries and 2,219 memo entries when the U_k walk queried every
    # orbit, not only those whose size its union did not yet cover; 440
    # queries and 1,702 memo entries when it formed every size in the order
    # it met them, not only the sizes that can still add a length, largest
    # first.
    # The tracer counts lengths_mask calls and sums the memos of the engines
    # that lengths_mask ran on, so the forward pass of `system`, which calls
    # no lengths_mask, leaves out the C3+C3 and C2+C4 engines: what is left
    # is the U_k walk of C5.  test_sweeps_ops_fill_the_memos_they_did pins
    # all three memos.
    assert layers["lengths.queries"] == 132
    assert layers["lengths.memo_entries"] == 966
    assert layers["structure_fit.fits"] == 16
    assert layers["atoms.nodes"] == 451  # 641 in element order


def test_sweeps_ops_fill_the_memos_they_did(monkeypatch):
    # the in-process ops of a `sweeps` pass, on a fresh atom cache: the
    # forward pass of `system` stores nothing, so the C3+C3 and C2+C4 memos
    # keep their seed entry (4,862 and 3,978 when the pass stored each
    # level, the entries the per-key queries stored), and the U_k walk of C5
    # stores 966 (1,702 when it formed every size in the order it met them,
    # 2,219 when it queried every orbit)
    import zslen.atoms
    from zslen import (
        delta_of_group, enumerate_atoms, make_group, system, unions_range,
        verify_structure_theorem,
    )

    monkeypatch.setattr(zslen.atoms, "_ATOM_SETS", {})
    c33, c24, c5 = make_group([3, 3]), make_group([2, 4]), make_group([5])
    system(c33, None, 10)
    system(c24, None, 11)
    delta_of_group(c33, None, 10)
    unions_range(c5, 6)
    verify_structure_theorem(c33, 9)
    memos = [enumerate_atoms(g).engine.memo_size for g in (c33, c24, c5)]
    assert memos == [1, 1, 966]


def test_reach_rows_read_names_that_exist(monkeypatch):
    # perfbench/reach.py runs under no workload; three tiny rows pin what it
    # reads: AtomSet.nodes_visited, len(system(...)) and UnionOfLengths.rho
    spec = importlib.util.spec_from_file_location("reach", WORKER.parent / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    monkeypatch.setattr(sys, "path", list(sys.path))  # run_row prepends src/
    monkeypatch.setattr(reach, "ROWS", {
        "atoms C3": ("atoms", {"group": [3]}, 10),
        "system C3 b4": ("invariants.system", {"group": [3], "bound": 4}, 10),
        "unions C3 k3": ("invariants.unions", {"group": [3], "k_max": 3}, 10),
    })
    rows = {name: reach.run_row(name) for name in reach.ROWS}
    assert all(row["error"] is None for row in rows.values()), rows
    assert rows["atoms C3"]["counters"]["atoms"] == 4
    assert rows["atoms C3"]["counters"]["nodes"] > 0
    assert rows["system C3 b4"]["counters"]["entries"] > 0
    assert rows["unions C3 k3"]["counters"]["rho"] == {1: 1, 2: 3, 3: 4}
