"""Differential tests of the forward pass of `system`.

`system` builds the products of atoms level by level in |B| with
FactorizationEngine.product_levels.  The oracle below is the scan it
replaced: the zero-sum walk of G0 without 0 (sequence.enumerate_zero_sum,
each sequence packed into an engine key), one lengths_mask query per key,
the first key of each length mask, then the shifts past the prime 0.
Entries, witnesses and the engine's final memo (its key -> mask pairs)
must agree on a fresh engine, on one warmed by length_set queries and on
one that a larger-bound `system` filled; so must the memo limit (set by
atoms.limits) at which a run is refused.  A bound up to the largest one
run on an engine is read from the engine's table: that read must give
the answer of a fresh atom set and leave the memo as it was.

`system` runs on the engine of the cached A(G0), so each example first
empties the atom cache (the fresh_atom_cache fixture); the oracle runs on
a copy of A(G0) with no engine of its own yet.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from zslen.atoms import DEFAULT_MEMO_LIMIT, enumerate_atoms, limits
from zslen.errors import ResourceLimitError
from zslen.group import elements, make_group
from zslen.invariants import system
from zslen.lengths import LengthSet, engine_for, length_set
from zslen.sequence import Sequence, enumerate_zero_sum

GROUPS = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]


def walk_system(group, bound, atoms, memo_limit=DEFAULT_MEMO_LIMIT):
    """The entries of system(G0, bound) by the zero-sum walk of G0, without
    0 when 0 is prime, and one lengths_mask query per sequence, packed at
    the engine's field width, on the atom set's engine, under memo_limit."""
    alphabet = atoms.letters
    engine = engine_for(atoms)
    bits = engine.widen(bound)
    lead = int(0 in atoms.prime_letters)
    first = {}
    with limits(memo_limit=memo_limit):
        for b in enumerate_zero_sum(group, alphabet[lead:], bound):
            key = sum(x << i * bits for i, x in enumerate(b.dense(alphabet)))
            first.setdefault(engine.lengths_mask(key), key)
    if lead:
        shifted = []
        for mask, key in first.items():
            size = sum(engine.unpack(key))
            shifted += [(size + c, c, mask << c, key + c) for c in range(bound - size + 1)]
        first = {}
        for _, _, mask, key in sorted(shifted):
            first.setdefault(mask, key)
    return sorted(
        (
            (LengthSet.from_mask(mask), Sequence.from_dense(group, alphabet, engine.unpack(key)))
            for mask, key in first.items()
        ),
        key=lambda entry: entry[0].values,
    )


def fresh_atoms(group, subset):
    """A copy of A(G0) with no engine of its own yet, for the oracle."""
    return dataclasses.replace(enumerate_atoms(group, subset))


def fresh_system(renew, group, subset, bound, memo_limit=DEFAULT_MEMO_LIMIT):
    """system(G0, bound) on a fresh atom cache, a new A(G0) and engine,
    under memo_limit."""
    renew()
    with limits(memo_limit=memo_limit):
        return system(group, subset, bound)


# the examples empty the atom cache themselves
FIXTURE_OK = dict(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


def memo_of(atoms):
    return dict(engine_for(atoms)._memo)


@st.composite
def cases(draw):
    """(group, subset or None for all of G, bound): subsets with and
    without 0, G0 = {0} among them, and bounds 0..10."""
    group = make_group(list(draw(st.sampled_from(GROUPS))))
    els = elements(group)
    mask = draw(st.integers(0, (1 << len(els)) - 1))
    subset = tuple(g for i, g in enumerate(els) if mask >> i & 1) or None
    return group, subset, draw(st.integers(0, 10))


@st.composite
def warm_ups(draw):
    """("fresh",), ("queried", products, wide) or ("larger", extra): the
    queries are products of up to four atoms, by position in the atom set,
    and wide adds a power of a one-letter atom with an entry of at least
    256, which widens the engine's field to two bytes."""
    kind = draw(st.sampled_from(["fresh", "queried", "larger"]))
    if kind == "queried":
        products = draw(st.lists(st.lists(st.integers(0, 10**6), min_size=1, max_size=4), max_size=5))
        return kind, products, draw(st.booleans())
    if kind == "larger":
        return kind, draw(st.integers(1, 2))
    return (kind,)


def warm(atoms, warm_up, bound, scan):
    """Apply a warm-up to the atom set's engine; scan(bound, atoms) is the
    system run on that set that the larger-bound warm-up uses."""
    kind = warm_up[0]
    if kind == "queried":
        _, products, wide = warm_up
        words = atoms.atoms
        for picks in products:
            word = Sequence.empty(atoms.group)
            for j in picks:
                word = word * words[j % len(words)]
            length_set(word, atoms)
        if wide:
            widen_field(atoms)
    elif kind == "larger":
        scan(bound + warm_up[1], atoms)


def widen_field(atoms):
    """Query a power of a one-letter atom with an entry of at least 256,
    which widens the engine's field to two bytes."""
    u = next(w for w in atoms.atoms if len(w.items) == 1)
    length_set(u ** (256 // u.items[0][1] + 1), atoms)


@settings(max_examples=300, **FIXTURE_OK)
@given(cases(), warm_ups())
@example((make_group([3, 3]), None, 10), ("fresh",))
@example((make_group([2, 4]), None, 10), ("queried", [[0, 5], [3, 3, 7]], True))
@example((make_group([2, 2, 2]), None, 10), ("larger", 2))
@example((make_group([3]), (make_group([3]).zero(),), 4), ("queried", [[0]], True))  # G0 = {0}
@example((make_group([8]), None, 0), ("fresh",))
def test_system_matches_the_walk(fresh_atom_cache, case, warm_up):
    group, subset, bound = case
    fresh_atom_cache()
    ours, oracle = enumerate_atoms(group, subset), fresh_atoms(group, subset)
    warm(ours, warm_up, bound, lambda b, atoms: system(group, subset, b))
    warm(oracle, warm_up, bound, lambda b, atoms: walk_system(group, b, atoms))
    assert list(system(group, subset, bound).entries) == walk_system(group, bound, oracle)
    assert memo_of(ours) == memo_of(oracle)


@settings(max_examples=150, **FIXTURE_OK)
@given(cases(), st.integers(0, 10), st.booleans(), st.integers(1, 2))
@example((make_group([3, 3]), None, 10), 9, False, 1)  # G0 holds 0: the shifted sets
@example((make_group([2, 4]), tuple(elements(make_group([2, 4]))[1:]), 10), 6, True, 2)  # no 0
@example((make_group([5]), None, 6), 6, True, 1)  # the same bound
def test_system_reads_smaller_bounds_from_its_table(fresh_atom_cache, case, smaller, wide, extra):
    # a bound at most the largest run is read from the engine's table: the
    # fresh answer, and the memo is left as it was, also after a query
    # widened its field; a larger bound runs the pass again
    group, subset, bound = case
    smaller, larger = min(smaller, bound), bound + extra
    expected = [fresh_system(fresh_atom_cache, group, subset, b) for b in (smaller, larger)]
    fresh_atom_cache()
    ours = enumerate_atoms(group, subset)
    system(group, subset, bound)
    if wide:
        widen_field(ours)
    memo = list(memo_of(ours).items())
    assert system(group, subset, smaller) == expected[0]
    assert list(memo_of(ours).items()) == memo
    assert system(group, subset, larger) == expected[1]


@pytest.mark.parametrize("mods,bound,needed", [
    ([3, 3], 6, 339),
    ([2, 4], 7, 429),
    ([5], 8, 99),
])
def test_memo_limit_thresholds(fresh_atom_cache, mods, bound, needed):
    # on a fresh engine a run succeeds exactly when its final memo fits:
    # at limit = the walk's final memo size it passes, one below it refuses
    group = make_group(mods)
    oracle = fresh_atoms(group, None)
    walk_system(group, bound, oracle)
    assert engine_for(oracle).memo_size == needed
    fresh_system(fresh_atom_cache, group, None, bound, memo_limit=needed)
    assert memo_of(enumerate_atoms(group)) == memo_of(oracle)
    ours = lambda b, limit: fresh_system(fresh_atom_cache, group, None, b, memo_limit=limit)  # noqa: E731
    walk = lambda b, limit: walk_system(group, b, fresh_atoms(group, None), limit)  # noqa: E731
    for run in (ours, walk):
        with pytest.raises(ResourceLimitError):
            run(bound, needed - 1)
        # a run that stores nothing is not refused, even past the limit:
        # the empty product is in the memo from the start
        assert len(run(1, 0)) == 2  # {0}, {1}


@settings(max_examples=100, **FIXTURE_OK)
@given(cases())
def test_memo_limit_refuses_where_the_walk_does(fresh_atom_cache, case):
    group, subset, bound = case
    oracle = fresh_atoms(group, subset)
    walk_system(group, bound, oracle)
    needed = engine_for(oracle).memo_size
    smaller = sorted({bound // 2, bound})
    expected = [fresh_system(fresh_atom_cache, group, subset, b) for b in smaller]
    fresh_atom_cache()
    ours = enumerate_atoms(group, subset)
    with limits(memo_limit=needed):
        limited = system(group, subset, bound)
        assert len(limited) == len(walk_system(group, bound, oracle))
        # the engine is at its limit; a read of its table stores nothing
        assert engine_for(ours).memo_size == needed
        for b, fresh in zip(smaller, expected):
            assert system(group, subset, b) == fresh
    if needed > 1:  # the empty product is in every memo from the start
        with pytest.raises(ResourceLimitError):
            fresh_system(fresh_atom_cache, group, subset, bound, memo_limit=needed - 1)
        assert engine_for(enumerate_atoms(group, subset)).memo_size <= needed - 1
