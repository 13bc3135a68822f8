"""Differential tests of the U_k walk.

unions_range skips every product whose span of possible lengths,
[ceil(|B|/M), floor(|B|/m)] for the least and largest sizes m, M of the
atoms that are not prime, the union already holds.  The oracle below is
the walk it replaced: the same orbit walk over the atoms that are not
prime, with no cut, querying the largest key of every orbit at every
level on an engine of its own.  The two must give the same unions over
groups and random subsets G0, over Krull instances and over atom sets
built by hand.
"""

import dataclasses
import math
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen import invariants
from zslen.atoms import AtomSet, enumerate_atoms
from zslen.group import elements, make_group
from zslen.invariants import unions_range
from zslen.lengths import FactorizationEngine, LengthSet
from zslen.transfer import instance_atoms, make_instance


def orbit_walk(atoms: AtomSet, k_max: int) -> dict[int, tuple[int, ...]]:
    """U_1..U_k_max by the orbit walk with no cut: every orbit of products
    of atoms that are not prime is formed and its largest key queried, and
    U_k = U'_k | (1 + U_(k-1)) when there are prime letters."""
    engine = FactorizationEngine(atoms.vectors())
    images = invariants._atom_images(atoms, engine.widen(k_max * max(map(max, atoms.vectors()))))
    level = {0: (0,) * len(images[0])} if images else {}
    union_mask, out = 1, {}
    for k in range(1, k_max + 1):
        nxt = {}
        for b in level.values():
            for a in images:
                top = max(map(add, b, a))
                if top not in nxt:
                    nxt[top] = [*map(add, b, a)]
        level = nxt
        union_mask = union_mask << 1 if atoms.prime_letters else 0
        for key in level:
            union_mask |= engine.lengths_mask(key)
        out[k] = LengthSet.from_mask(union_mask).values
    return out


def affordable(atoms: AtomSet, k_max: int) -> int:
    """The largest k <= k_max with at most 30,000 multisets of k atoms,
    and at least 1: the size of the oracle's last level when no
    automorphism merges orbits."""
    k = 1
    while k < k_max and math.comb(len(atoms) + k, k + 1) <= 30_000:
        k += 1
    return k


def walked(atoms: AtomSet, k_max: int) -> dict[int, tuple[int, ...]]:
    """unions_range on a copy of the atom set with no engine yet."""
    unions = unions_range(atoms.group, k_max, dataclasses.replace(atoms))
    return {k: u.values for k, u in unions.items()}


# (group, largest k); affordable() may lower k further
GROUPS = [((1,), 6), ((2,), 6), ((3,), 6), ((4,), 6), ((5,), 5), ((6,), 5), ((7,), 4),
          ((2, 2), 6), ((2, 4), 4), ((3, 3), 3), ((2, 2, 2), 3)]


@st.composite
def subsets(draw):
    """(group, G0 as element indices or None for all of G, k_max)."""
    mods, top = draw(st.sampled_from(GROUPS))
    group = make_group(list(mods))
    mask = draw(st.integers(0, (1 << group.order) - 1))
    chosen = tuple(i for i in range(group.order) if mask >> i & 1) or None
    return group, chosen, draw(st.integers(1, top))


def atoms_of(group, chosen):
    els = elements(group)
    return enumerate_atoms(group, chosen and [els[i] for i in chosen])


@settings(max_examples=60, deadline=None)
@given(subsets())
def test_cut_walk_equals_orbit_walk_over_subsets(case):
    group, chosen, k_max = case
    atoms = atoms_of(group, chosen)
    k_max = affordable(atoms, k_max)
    assert walked(atoms, k_max) == orbit_walk(atoms, k_max)


@settings(max_examples=25, deadline=None)
@given(subsets(), st.integers(1, 3))
def test_cut_walk_equals_orbit_walk_over_krull_instances(case, primes_per_class):
    group, chosen, k_max = case
    els = elements(group)
    instance = make_instance(group, chosen and [els[i] for i in chosen], primes_per_class)
    atoms = instance_atoms(instance)
    k_max = affordable(atoms, k_max)
    assert walked(atoms, k_max) == orbit_walk(atoms, k_max)


@settings(max_examples=60, deadline=None)
@given(subsets(), st.data())
def test_cut_walk_equals_orbit_walk_over_hand_built_atom_sets(case, data):
    # a nonempty part of A(G0), with some products of two of its atoms
    # added as generators: the atom sizes m, M of the cut then need not be
    # those of any A(G0), and no automorphism merges orbits
    group, chosen, k_max = case
    vectors = atoms_of(group, chosen).vectors()
    kept = data.draw(st.lists(st.sampled_from(vectors), min_size=1, unique=True))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(kept), st.sampled_from(kept)), max_size=3))
    extra = [tuple(map(add, u, v)) for u, v in pairs]
    atoms = AtomSet(group, atoms_of(group, chosen).letters, tuple(dict.fromkeys(kept + extra)))
    k_max = affordable(atoms, k_max)
    assert walked(atoms, k_max) == orbit_walk(atoms, k_max)


def test_identity_only_c2_4_is_pinned():
    # C2^4 has 20,160 automorphisms, past the ceiling of 300,000 // 324
    # atoms, and negation is the identity, so each atom has one image; the
    # orbit walk took about 20 s and 330 MB for k <= 3
    group = make_group([2, 2, 2, 2])
    atoms = enumerate_atoms(group)
    assert {len(a) for a in invariants._atom_images(atoms, 8)} == {1}
    assert walked(atoms, 3) == {1: (1,), 2: tuple(range(2, 6)), 3: tuple(range(2, 8))}


def test_identity_only_krull_c2_c2_is_pinned():
    # two primes per class: 19 H-atoms, the two of class 0 prime, each with
    # the identity as its one image
    atoms = instance_atoms(make_instance(make_group([2, 2]), None, 2))
    assert {len(a) for a in invariants._atom_images(atoms, 8)} == {1}
    expected = {1: (1,), 2: (2, 3), 3: (2, 3, 4), 4: (3, 4, 5, 6), 5: (4, 5, 6, 7),
                6: (4, 5, 6, 7, 8, 9)}
    assert walked(atoms, 6) == expected == orbit_walk(atoms, 6)


@pytest.mark.parametrize("mods, k_max", [((5,), 6), ((3, 3), 3), ((2, 4), 4)])
def test_cut_walk_equals_orbit_walk_over_whole_groups(mods, k_max):
    atoms = enumerate_atoms(make_group(list(mods)))
    assert walked(atoms, k_max) == orbit_walk(atoms, k_max)
