"""A long-sequence oracle for Thm 6.3.1: random zero-sum sequences whose
support together with 0 is a subgroup.

`invariants.interval_support_check` reads every such sequence up to a
length bound; these draws reach past it (up to 32 letters on C2^3), so the
acceptance suite checks their length sets too.
"""

import random

from zslen.group import FiniteAbelianGroup, tables
from zslen.sequence import Sequence, index_sum


def subgroup_indices(group: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """All subgroups as sorted element indices, by size and then indices.
    They are found by adding one cyclic subgroup at a time to {0}: for a
    subgroup H, H + <g> is again one."""
    tab = tables(group)
    subgroups = {frozenset([0])}
    frontier = list(subgroups)
    while frontier:
        sub = frontier.pop()
        for g in range(group.order):
            if g not in sub:
                bigger = frozenset(tab.add[h][tab.mult[g][k]] for h in sub for k in range(tab.order[g]))
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    frontier.append(bigger)
    return sorted((tuple(sorted(s)) for s in subgroups), key=lambda s: (len(s), s))


def subgroup_support_draws(group: FiniteAbelianGroup, samples: int, seed: int) -> list[Sequence]:
    """samples random zero-sum sequences A, each with supp(A) | {0} a random
    subgroup of order at least 2 (or {0} for the trivial group): 1-3
    copies of each nonzero element, 0 or 1-2 zeros, up to 8 extra letters,
    and the one letter that makes the sum zero."""
    rng = random.Random(seed)
    # element indices: the zero element 0 leads each subgroup
    subgroups = [s for s in subgroup_indices(group) if len(s) >= 2] or [(0,)]
    tab = tables(group)
    draws = []
    for _ in range(samples):
        sub = rng.choice(subgroups)
        exps = {i: rng.randint(1, 3) for i in sub[1:]}
        if rng.random() < 0.5:
            exps[0] = rng.randint(1, 2)
        for _ in range(rng.randint(0, 8)):
            i = rng.choice(sub)
            if i:
                exps[i] = exps.get(i, 0) + 1
        s = tab.neg[index_sum(tab, exps.items())]
        if s:
            exps[s] = exps.get(s, 0) + 1
        draws.append(Sequence.of_indices(group, exps))
    return draws
