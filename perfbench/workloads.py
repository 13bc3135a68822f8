"""The fixed operation list of each workload.

This module imports nothing from zslen, so the runner can rebuild every
input without loading the program.  Only `lengths` reads the seed: its
query sequences are drawn from it.  The other workloads run the same
operations for every seed, so their answers can be pinned.
"""

from __future__ import annotations

import random
from itertools import product

WORKLOADS = ("atoms", "lengths", "sweeps", "cli")

# (group moduli, sequence length, sequences, warm rounds).  The warm pass
# re-queries every cold sequence `rounds` times; the round counts are sized
# so that the warm pass takes about as long as the cold pass at the seed
# commit, which makes per-call cost (argument checks, dense conversion,
# engine lookup) a visible share of the workload.
LENGTH_BATCHES = (
    ((3, 3), 24, 100, 50),
    ((2, 4), 30, 100, 65),
    ((2, 6), 14, 60, 4),
)

CLI_CACHED_ATOMS = ["atoms", "--group", "2,2,4", "--cache-dir", "{cache}"]


def group_elements(moduli) -> list[tuple[int, ...]]:
    """Elements of C_{m1} + ... + C_{mr} in lexicographic order.

    For moduli already in invariant-factor form this is the order of
    zslen.group.elements, so a dense vector over it is a sequence.
    """
    return list(product(*(range(m) for m in moduli)))


def random_zero_sum(rng: random.Random, moduli, length: int) -> list[int]:
    """Dense exponent vector of a zero-sum sequence of exactly `length` terms:
    length-1 uniform draws, then the negative of their sum."""
    els = group_elements(moduli)
    index = {g: i for i, g in enumerate(els)}
    vec = [0] * len(els)
    total = [0] * len(moduli)
    for _ in range(length - 1):
        i = rng.randrange(len(els))
        vec[i] += 1
        total = [(t + a) % m for t, a, m in zip(total, els[i], moduli)]
    vec[index[tuple((-t) % m for t, m in zip(total, moduli))]] += 1
    return vec


def _label(moduli) -> str:
    return ",".join(map(str, moduli))


def operations(workload: str, seed: int) -> list[dict]:
    """The ops of one pass, in order.  Ops with "setup": true run before the
    timed pass starts; every op's answer is checked."""
    if workload == "atoms":
        return [
            {"id": f"atoms {_label(g)}", "kind": "atoms", "group": list(g)}
            for g in ((2, 2, 2, 2), (2, 2, 4), (2, 6))
        ]
    if workload == "lengths":
        rng = random.Random(seed)
        atoms, cold, warm = [], [], []
        for moduli, length, count, rounds in LENGTH_BATCHES:
            label = _label(moduli)
            queries = [random_zero_sum(rng, moduli, length) for _ in range(count)]
            atoms.append({"id": f"atoms {label}", "kind": "atoms", "group": list(moduli)})
            cold.append({"id": f"cold {label}", "kind": "lengths", "group": list(moduli),
                         "queries": queries, "rounds": 1})
            warm.append({"id": f"warm {label}", "kind": "lengths", "group": list(moduli),
                         "queries": queries, "rounds": rounds})
        transfer = {"id": "transfer 2,4", "kind": "transfer", "group": [2, 4],
                    "primes_per_class": 2, "samples": 100, "seed": seed}
        return atoms + cold + warm + [transfer]
    if workload == "sweeps":
        return [
            {"id": "system 3,3 b10", "kind": "system", "group": [3, 3], "bound": 10},
            {"id": "system 2,4 b11", "kind": "system", "group": [2, 4], "bound": 11},
            {"id": "delta 3,3 b10", "kind": "delta", "group": [3, 3], "bound": 10},
            {"id": "unions 5 k6", "kind": "unions", "group": [5], "k_max": 6},
            {"id": "structure 3,3 b9", "kind": "structure", "group": [3, 3], "bound": 9},
            {"id": "accdelta 11,13,29,31 n1000", "kind": "accdelta",
             "gens": [11, 13, 29, 31], "bound": 1000},
        ]
    if workload == "cli":
        return [
            {"id": "cli atoms 2,2,4 cold", "kind": "cli", "argv": CLI_CACHED_ATOMS,
             "setup": True},
            {"id": "cli verify all", "kind": "cli", "argv": ["verify", "all"]},
            {"id": "cli atoms 2,2,4 cached", "kind": "cli", "argv": CLI_CACHED_ATOMS},
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
