"""Self-tests of the benchmark.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _passing_result(ops, expected):
    return {"ops": [{"id": op["id"], "seconds": 0.1, "answer": expected[op["id"]]}
                    for op in ops]}


def test_perturbed_answer_is_a_failed_op():
    ops = workloads.operations("sweeps", 0)
    pinned = json.loads(checks.EXPECTED_PATH.read_text())
    expected = {op["id"]: pinned[op["id"]] for op in ops}
    result = _passing_result(ops, expected)
    assert checks.failed_ops(result, ops, expected) == []

    result["ops"][-1]["answer"] = [2, 5]  # accumulated_delta is pinned to [2, 4]
    result["ops"][0] = {"id": ops[0]["id"], "seconds": 0.1, "error": "RuntimeError: boom"}
    del result["ops"][1]  # never reported: the worker timed out or crashed
    assert checks.failed_ops(result, ops, expected) == [ops[0]["id"], ops[1]["id"], ops[-1]["id"]]


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    tree = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["d", 6.0, 8.5, 3],
        ["a", 11.0, 12.0, -1],
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5, 1.0])

    tracer.spans = tree
    agg = tracer.aggregate()
    assert agg["self"] == pytest.approx({"a": 4.0, "b": 3.5, "c": 1.0, "d": 2.5})
    assert agg["total"] == pytest.approx({"a": 11.0, "b": 7.0, "c": 1.0, "d": 2.5})


def test_seed_changes_only_the_lengths_inputs():
    for name in workloads.WORKLOADS:
        first, again, other = (workloads.operations(name, s) for s in (1, 1, 2))
        assert first == again
        assert (first != other) == (name == "lengths")
    for op in workloads.operations("lengths", 7):
        for vec in op.get("queries", ()):
            els = workloads.group_elements(op["group"])
            sums = [sum(m * g[j] for m, g in zip(vec, els)) % n
                    for j, n in enumerate(op["group"])]
            assert sums == [0] * len(op["group"])


def test_reference_lengths_agree_with_the_engine():
    from zslen import Sequence, elements, enumerate_atoms, length_set, make_group

    group = make_group([2, 4])
    atoms = enumerate_atoms(group)
    ref = checks.ReferenceLengths(atoms.vectors())
    rng = random.Random(3)
    for _ in range(30):
        vec = workloads.random_zero_sum(rng, [2, 4], 12)
        seq = Sequence.make(group, {g: m for g, m in zip(elements(group), vec) if m})
        assert ref.values(vec) == list(length_set(seq, atoms).values)
