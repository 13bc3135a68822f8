"""Differential tests of the U_k walk.

unions_range forms, at each level k, only the product sizes that can
still add a length: with m and M the least and largest sizes of the
atoms of A(G) other than the prime [0:1], a product of size |B| has its
lengths in [ceil(|B|/M), floor(|B|/m)], and a size is formed only when
that span, or the span of a size built from it by later levels, may hold
a length that U_(k-1), shifted by the levels to go, does not.  A level
queries a product only when its union does not yet hold the span.  The
oracle below is the walk this replaced: the same orbit walk over those
atoms, with no cut, forming every orbit and querying its largest key at
every level on an engine of its own.  The two must give the same unions
over whole groups.  Since the sizes a level forms depend on k_max, the
unions of a walk to K must also agree, level by level, with the walks to
each k <= K.
"""

from operator import add

import pytest

from zslen import invariants
from zslen.atoms import AtomSet, enumerate_atoms
from zslen.group import make_group
from zslen.invariants import unions_range
from zslen.lengths import FactorizationEngine, LengthSet


def orbit_walk(atoms: AtomSet, k_max: int) -> dict[int, tuple[int, ...]]:
    """U_1..U_k_max by the orbit walk with no cut: every orbit of products
    of atoms other than [0:1] is formed and its largest key queried, and
    U_k = U'_k | (1 + U_(k-1))."""
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
        union_mask <<= 1
        for key in level:
            union_mask |= engine.lengths_mask(key)
        out[k] = LengthSet.from_mask(union_mask).values
    return out


def walked(group, k_max: int) -> dict[int, tuple[int, ...]]:
    """unions_range on a fresh engine (the fresh_atom_cache fixture)."""
    unions = unions_range(group, k_max)
    return {k: u.values for k, u in unions.items()}


def test_identity_only_c2_4_is_pinned(fresh_atom_cache):
    # C2^4 has 20,160 automorphisms, past the ceiling of 300,000 // 324
    # atoms, and negation is the identity, so each atom has one image; the
    # orbit walk took about 20 s and 330 MB for k <= 3
    group = make_group([2, 2, 2, 2])
    atoms = enumerate_atoms(group)
    assert {len(a) for a in invariants._atom_images(atoms, 8)} == {1}
    assert walked(group, 3) == {1: (1,), 2: tuple(range(2, 6)), 3: tuple(range(2, 8))}


# the oracle takes about 0.9 s on C2+C4 to k = 6 and 3 s on C7 to k = 6.
# C2^3 to k = 6 has a U_5 that needs the rest of a size whose span the
# union already holds: a walk that stops such a size below k_max reads
# U_5 = {3..9}, not {3..10}.
@pytest.mark.parametrize("mods, k_max", [
    ((5,), 6), ((3, 3), 3), ((2, 4), 4), ((1,), 6), ((2,), 8), ((3,), 8), ((4,), 7),
    ((6,), 6), ((7,), 5), ((2, 2), 7), ((2, 2, 2), 4), ((5,), 8), ((2, 4), 6),
    ((2, 2, 2), 6),
])
def test_cut_walk_equals_orbit_walk_over_whole_groups(fresh_atom_cache, mods, k_max):
    group = make_group(list(mods))
    assert walked(group, k_max) == orbit_walk(enumerate_atoms(group), k_max)


# C7 stops at K = 6: its walk to 7 alone takes about 1.5 s
@pytest.mark.parametrize("mods, top", [
    ((3,), 7), ((4,), 7), ((5,), 7), ((6,), 7), ((7,), 6), ((2, 2), 7), ((2, 4), 7),
    ((2, 2, 2), 7),
])
def test_each_walk_agrees_with_the_walks_to_its_prefixes(fresh_atom_cache, mods, top):
    # a level forms fewer sizes the nearer it is to k_max, so U_k must not
    # depend on how far past k the walk goes
    group = make_group(list(mods))
    full = walked(group, top)
    for k in range(1, top + 1):
        fresh_atom_cache()
        assert walked(group, k)[k] == full[k], k
