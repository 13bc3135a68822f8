"""Differential tests of the whole-monoid scans that factor out the primes.

`system` walks the letters of G0 that are not prime (AtomSet.prime_letters:
the zero element when it is in G0) and `unions_range` the atoms of A(G)
other than [0:1], and both get the rest by shifts, as L(p^c * B) = c + L(B).
The oracles below are the full-alphabet scans they replaced: `system` took
the first key of each length set over all zero-sum keys of G0, and
`unions_range` ran its orbit level walk over every atom.  Entries,
witnesses and U_k must agree.  The U_k oracle also walks the H-atoms of a
Krull instance, whose U_k are those of B(G0) by transfer.
"""

from operator import add

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zslen.atoms import enumerate_atoms
from zslen.group import automorphisms, elements, make_group, tables
from zslen.invariants import MAX_ATOM_IMAGES, system, unions_range
from zslen.lengths import FactorizationEngine, LengthSet
from zslen.sequence import Sequence, enumerate_zero_sum
from zslen.transfer import instance_atoms, make_instance

GROUPS = [(1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (2, 4), (3, 3)]
# the largest bound and k drawn per group, to keep the oracles quick
SYSTEM_TOP = {(2, 4): 8, (3, 3): 7}
UNIONS_TOP = {(6,): 5, (2, 4): 4, (3, 3): 3}


def full_system(group, atoms, bound):
    """The entries of system(G0, bound) from the walk over all of G0: the
    first key of each length mask in (length, lex) order, on a fresh engine."""
    alphabet = atoms.letters
    engine = FactorizationEngine(atoms.vectors())
    bits = engine.widen(bound)
    first = {}
    for b in enumerate_zero_sum(group, alphabet, bound):
        key = sum(x << i * bits for i, x in enumerate(b.dense(alphabet)))
        first.setdefault(engine.lengths_mask(key), key)
    return sorted(
        (
            (LengthSet.from_mask(mask), Sequence.from_dense(group, alphabet, engine.unpack(key)))
            for mask, key in first.items()
        ),
        key=lambda entry: entry[0].values,
    )


def full_atom_images(atoms, field_bits):
    """The packed images of every atom, the prime ones included: under the
    automorphisms of G for A(G), whose letters are the elements in index
    order, and under the identity alone for any other atom set (A(G0) of
    a proper subset, the H-atoms of a Krull instance)."""
    moves = [range(len(atoms.letters))]
    if atoms.letters == elements(atoms.group):
        limit = MAX_ATOM_IMAGES // max(len(atoms), atoms.group.order)
        auts = automorphisms(atoms.group, limit=limit)
        moves = dict.fromkeys(map(tuple, auts or [range(atoms.group.order), tables(atoms.group).neg]))
    offsets = [[j * field_bits for j in move] for move in moves]
    out = []
    for a in atoms.vectors():
        support = [(x, i) for i, x in enumerate(a) if x]
        out.append(tuple(sum(x << off[i] for x, i in support) for off in offsets))
    return out


def full_unions(atoms, k_max):
    """U_1..U_k_max as value tuples from the orbit level walk over every
    atom, on a fresh engine."""
    engine = FactorizationEngine(atoms.vectors())
    images = full_atom_images(atoms, engine.widen(k_max * max(map(max, atoms.vectors()))))
    level = {0: (0,) * len(images[0])}
    out = {}
    for k in range(1, k_max + 1):
        nxt = {}
        for b in level.values():
            for a in images:
                top = max(map(add, b, a))
                if top not in nxt:
                    nxt[top] = [*map(add, b, a)]
        level = nxt
        union_mask = 0
        for key in level:
            union_mask |= engine.lengths_mask(key)
        out[k] = LengthSet.from_mask(union_mask).values
    return out


@st.composite
def scans(draw, tops, default_top):
    """(group, subset or None for all of G, size): subsets with and without
    0, G0 = {0} among them, and sizes from 0."""
    mods = draw(st.sampled_from(GROUPS))
    group = make_group(list(mods))
    els = elements(group)
    mask = draw(st.integers(0, (1 << len(els)) - 1))
    subset = tuple(g for i, g in enumerate(els) if mask >> i & 1) or None
    return group, subset, draw(st.integers(0, tops.get(mods, default_top)))


def values(unions):
    return {k: u.values for k, u in unions.items()}


@settings(max_examples=75, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scans(SYSTEM_TOP, 10), st.booleans())
@example((make_group([1]), None, 0), False)
@example((make_group([3]), (make_group([3]).zero(),), 1), False)  # G0 = {0}
@example((make_group([3, 3]), None, 7), True)
@example((make_group([2, 4]), None, 8), False)
@example((make_group([6]), tuple(make_group([6]).element([c]) for c in (1, 2, 3)), 10), True)
def test_system_matches_the_full_alphabet_walk(fresh_atom_cache, case, fresh):
    # fresh: a new atom set over G0, with its own empty memo; else the set
    # that earlier examples warmed
    group, subset, bound = case
    if fresh:
        fresh_atom_cache()
    oracle = full_system(group, enumerate_atoms(group, subset), bound)
    assert list(system(group, subset, bound).entries) == oracle


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(GROUPS), st.integers(1, 6))
@example((1,), 6)  # A(C1) = {[0:1]}: no atom but the prime
@example((5,), 6)
@example((3, 3), 3)
def test_unions_match_the_full_alphabet_walk(mods, k_max):
    group = make_group(list(mods))
    k_max = min(k_max, UNIONS_TOP.get(mods, 6))
    assert values(unions_range(group, k_max)) == full_unions(enumerate_atoms(group), k_max)


@pytest.mark.parametrize("mods, subset, primes_per_class, k_max", [
    ((3,), None, 2, 5),
    ((2, 2), None, 2, 4),
    ((4,), ((0,), (1,)), 3, 6),
    ((2,), ((0,),), 2, 6),  # only the two primes of class 0
    ((3,), ((1,), (2,)), 2, 5),  # no prime of class 0
])
def test_unions_of_a_krull_instance_match_the_full_alphabet_walk(mods, subset, primes_per_class, k_max):
    # U_k(H) = U_k(B(G0)) by transfer: the oracle's walk over the H-atoms
    # against unions_range for G0 = G, and against its walk over A(G0) for
    # a proper subset, which unions_range does not take
    group = make_group(list(mods))
    subset = subset and [group.element(c) for c in subset]
    atoms = instance_atoms(make_instance(group, subset, primes_per_class))
    assert len(atoms.prime_letters) == (primes_per_class if subset is None or group.zero() in subset else 0)
    if subset is None:
        expected = values(unions_range(group, k_max))
    else:
        expected = full_unions(enumerate_atoms(group, subset), k_max)
    assert full_unions(atoms, k_max) == expected
