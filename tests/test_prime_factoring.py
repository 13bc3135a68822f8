"""Differential tests of the whole-monoid scans that factor out the primes.

`system` and `unions_range` walk the letters that are not prime
(AtomSet.prime_letters: the zero element of B(G0), the class-0 primes of
a Krull instance) and get the rest by shifts, as L(p^c * B) = c + L(B).
The oracles below are the full-alphabet scans they replaced, copied as
they were: `system` took the first key of each length set over all
zero-sum keys of G0, and `unions_range` ran its orbit level walk over
every atom.  Entries, witnesses and U_k must agree.
"""

import dataclasses
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zslen.atoms import AtomSet, enumerate_atoms
from zslen.group import GroupElement, automorphisms, elements, make_group, tables
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
    """The packed images of every atom, the prime ones included, under the
    automorphisms that map the letters onto themselves."""
    letters = atoms.letters
    if all(isinstance(g, GroupElement) for g in letters):
        tab = tables(atoms.group)
        classes = [tab.index[g] for g in letters]
        position = {c: i for i, c in enumerate(classes)}
        limit = MAX_ATOM_IMAGES // max(len(atoms), atoms.group.order)
        auts = automorphisms(atoms.group, classes, limit)
        if auts is None:
            auts = [range(atoms.group.order)]
            if all(tab.neg[c] in position for c in classes):
                auts.append(tab.neg)
        moves = list(dict.fromkeys(tuple(position[s[c]] for c in classes) for s in auts))
    else:
        moves = [range(len(letters))]
    offsets = [[j * field_bits for j in move] for move in moves]
    out = []
    for a in atoms.vectors():
        support = [(x, i) for i, x in enumerate(a) if x]
        out.append(tuple(sum(x << off[i] for x, i in support) for off in offsets))
    keys = {images[0] for images in out}
    if any(key not in keys for images in out for key in images):
        return [images[:1] for images in out]
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


@settings(max_examples=75, deadline=None)
@given(scans(SYSTEM_TOP, 10), st.booleans())
@example((make_group([1]), None, 0), False)
@example((make_group([3]), (make_group([3]).zero(),), 1), False)  # G0 = {0}
@example((make_group([3, 3]), None, 7), True)
@example((make_group([2, 4]), None, 8), False)
@example((make_group([6]), tuple(make_group([6]).element([c]) for c in (1, 2, 3)), 10), True)
def test_system_matches_the_full_alphabet_walk(case, given_atoms):
    # given_atoms: a separate atom set over G0, with its own empty memo
    group, subset, bound = case
    atoms = dataclasses.replace(enumerate_atoms(group, subset)) if given_atoms else None
    oracle = full_system(group, enumerate_atoms(group, subset), bound)
    assert list(system(group, subset, bound, atoms).entries) == oracle


@settings(max_examples=60, deadline=None)
@given(scans(UNIONS_TOP, 6), st.integers(-1, 30))
@example((make_group([2]), (make_group([2]).zero(),), 6), -1)  # G0 = {0}
@example((make_group([5]), None, 6), -1)
@example((make_group([3, 3]), None, 3), 0)  # without the prime [0:1]
@example((make_group([3]), None, 6), 2)  # A(C3) without [1:3]
def test_unions_match_the_full_alphabet_walk(case, drop):
    # drop: the position of an atom left out of a given atom set, or -1 for
    # A(G0) itself; a set left with no atoms has no engine, so none is dropped
    group, subset, k_max = case
    k_max = max(k_max, 1)
    atoms = enumerate_atoms(group, subset)
    if len(atoms) > 1 and 0 <= drop < len(atoms):
        vectors = atoms.vectors()[:drop] + atoms.vectors()[drop + 1 :]
        atoms = AtomSet(group, atoms.letters, vectors)
    assert values(unions_range(group, k_max, atoms)) == full_unions(atoms, k_max)


@pytest.mark.parametrize("mods, subset, primes_per_class, k_max", [
    ((3,), None, 2, 5),
    ((2, 2), None, 2, 4),
    ((4,), ((0,), (1,)), 3, 6),
    ((2,), ((0,),), 2, 6),  # only the two primes of class 0
    ((3,), ((1,), (2,)), 2, 5),  # no prime of class 0
])
def test_unions_of_a_krull_instance_match_the_full_alphabet_walk(mods, subset, primes_per_class, k_max):
    group = make_group(list(mods))
    instance = make_instance(group, subset and [group.element(c) for c in subset], primes_per_class)
    atoms = instance_atoms(instance)
    assert len(atoms.prime_letters) == (primes_per_class if subset is None or (0,) in subset else 0)
    assert values(unions_range(group, k_max, atoms)) == full_unions(atoms, k_max)
