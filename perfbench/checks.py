"""Expected answers and the checks that count failed ops.

Answers of seed-independent ops are pinned in expected.json (written by
pin.py from the seed code).  The `lengths` queries come from the seed, so
their length sets are recomputed here by an independent reference over
atom lists whose digests are pinned.  Answers are compared, never report
layout, so an additive report-schema change does not fail an op.
"""

from __future__ import annotations

import hashlib
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class ReferenceLengths:
    """L(B) as a bitmask by the recursion L(B) = 1 + union of L(B/A) over the
    atoms A | B that contain B's last nonzero coordinate.

    Written apart from zslen.lengths, which pivots on the first nonzero
    coordinate; both choices are exact because every factorization covers
    each copy of the pivot with exactly one atom."""

    def __init__(self, atom_vectors):
        atoms = [tuple(a) for a in atom_vectors]
        width = len(atoms[0])
        self.by_last = [[a for a in atoms if a[i]] for i in range(width)]
        self.memo = {(0,) * width: 1}

    def mask(self, vec: tuple[int, ...]) -> int:
        got = self.memo.get(vec)
        if got is not None:
            return got
        pivot = max(i for i, x in enumerate(vec) if x)
        out = 0
        for a in self.by_last[pivot]:
            if all(x <= y for x, y in zip(a, vec)):
                out |= self.mask(tuple(y - x for x, y in zip(a, vec))) << 1
        self.memo[vec] = out
        return out

    def values(self, vec) -> list[int]:
        m = self.mask(tuple(vec))
        return [i for i in range(m.bit_length()) if m >> i & 1]


def _atom_vectors(moduli, src: Path) -> list[tuple[int, ...]]:
    """Atom vectors of the full group from zslen, trusted only when their
    digest is the pinned one."""
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from zslen import enumerate_atoms, make_group

    return sorted(enumerate_atoms(make_group(list(moduli))).vectors())


def expected_answers(ops: list[dict], src: Path) -> dict:
    """op id -> expected answer; None where no trusted answer exists."""
    pinned = json.loads(EXPECTED_PATH.read_text())
    out = {}
    references: dict[tuple, ReferenceLengths | None] = {}
    for op in ops:
        if op["kind"] != "lengths":
            out[op["id"]] = pinned.get(op["id"])
            continue
        key = tuple(op["group"])
        if key not in references:
            try:
                vectors = _atom_vectors(key, src)
            except Exception:  # a program that cannot enumerate atoms fails these ops
                traceback.print_exc()
                vectors = []
            pinned_atoms = pinned.get("atoms " + ",".join(map(str, key)), {})
            trusted = digest(vectors) == pinned_atoms.get("sha256")
            references[key] = ReferenceLengths(vectors) if trusted else None
        ref = references[key]
        if ref is None:
            out[op["id"]] = None
            continue
        answers = [ref.values(v) for v in op["queries"]] * op["rounds"]
        out[op["id"]] = {"n": len(answers), "sha256": digest(answers)}
    return out


def failed_ops(pass_result: dict, ops: list[dict], expected: dict) -> list[str]:
    """Ids of ops that raised, never reported (timed out or crashed), or
    answered differently from the expected answer."""
    reported = {r["id"]: r for r in pass_result.get("ops", [])}
    failed = []
    for op in ops:
        r = reported.get(op["id"])
        want = expected.get(op["id"])
        if r is None or "error" in r or want is None or r["answer"] != want:
            failed.append(op["id"])
    return failed


def counter_mismatches(layer_rows: list[dict], names) -> list[str]:
    """Counters that differ between traced passes of the same inputs."""
    return [n for n in names if len({row[n] for row in layer_rows}) > 1]
