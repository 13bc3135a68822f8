"""Differential tests of the forward pass of `system`.

`system` builds the products of atoms level by level in |B| with
FactorizationEngine.product_levels.  The oracle below is the scan it
replaced: the zero-sum walk of G0 without 0 (sequence.enumerate_zero_sum,
each sequence packed into an engine key), one lengths_mask query per key,
the first key of each length mask, then the shifts past the prime 0.
Entries, witnesses and the engine's final memo (its key -> mask pairs)
must agree on a fresh engine, on one warmed by length_set queries and on
one that a larger-bound `system` filled; so must the memo limit at which
a run is refused.  A bound up to the largest one run on an engine is
read from the engine's table: that read must give the answer of a fresh
atom set and leave the memo as it was.
"""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zslen.atoms import enumerate_atoms
from zslen.errors import ResourceLimitError
from zslen.group import elements, make_group
from zslen.invariants import system
from zslen.lengths import DEFAULT_MEMO_LIMIT, LengthSet, engine_for, length_set
from zslen.sequence import Sequence, enumerate_zero_sum

GROUPS = [(2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]


def walk_system(group, bound, atoms, memo_limit=DEFAULT_MEMO_LIMIT):
    """The entries of system(G0, bound) by the zero-sum walk of G0, without
    0 when 0 is prime, and one lengths_mask query per sequence, packed at
    the engine's field width, on the atom set's engine."""
    alphabet = atoms.letters
    engine = engine_for(atoms, memo_limit)
    bits = engine.widen(bound)
    lead = int(0 in atoms.prime_letters)
    first = {}
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
    """A(G0) with no engine of its own yet."""
    return dataclasses.replace(enumerate_atoms(group, subset))


def memo_of(atoms, memo_limit=DEFAULT_MEMO_LIMIT):
    return dict(engine_for(atoms, memo_limit)._memo)


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
    """Apply a warm-up to the atom set's engine; scan is the system run
    that the larger-bound warm-up uses."""
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


@settings(max_examples=300, deadline=None)
@given(cases(), warm_ups())
@example((make_group([3, 3]), None, 10), ("fresh",))
@example((make_group([2, 4]), None, 10), ("queried", [[0, 5], [3, 3, 7]], True))
@example((make_group([2, 2, 2]), None, 10), ("larger", 2))
@example((make_group([3]), (make_group([3]).zero(),), 4), ("queried", [[0]], True))  # G0 = {0}
@example((make_group([8]), None, 0), ("fresh",))
def test_system_matches_the_walk(case, warm_up):
    group, subset, bound = case
    ours, oracle = fresh_atoms(group, subset), fresh_atoms(group, subset)
    warm(ours, warm_up, bound, lambda b, atoms: system(group, subset, b, atoms))
    warm(oracle, warm_up, bound, lambda b, atoms: walk_system(group, b, atoms))
    assert list(system(group, subset, bound, ours).entries) == walk_system(group, bound, oracle)
    assert memo_of(ours) == memo_of(oracle)


@settings(max_examples=150, deadline=None)
@given(cases(), st.integers(0, 10), st.booleans(), st.integers(1, 2))
@example((make_group([3, 3]), None, 10), 9, False, 1)  # G0 holds 0: the shifted sets
@example((make_group([2, 4]), tuple(elements(make_group([2, 4]))[1:]), 10), 6, True, 2)  # no 0
@example((make_group([5]), None, 6), 6, True, 1)  # the same bound
def test_system_reads_smaller_bounds_from_its_table(case, smaller, wide, extra):
    # a bound at most the largest run is read from the engine's table: the
    # fresh answer, and the memo is left as it was, also after a query
    # widened its field; a larger bound runs the pass again
    group, subset, bound = case
    smaller = min(smaller, bound)
    ours = fresh_atoms(group, subset)
    system(group, subset, bound, ours)
    if wide:
        widen_field(ours)
    memo = list(memo_of(ours).items())
    assert system(group, subset, smaller, ours) == system(group, subset, smaller, fresh_atoms(group, subset))
    assert list(memo_of(ours).items()) == memo
    larger = bound + extra
    assert system(group, subset, larger, ours) == system(group, subset, larger, fresh_atoms(group, subset))


def test_tables_do_not_leak_between_engines():
    # C4's atoms without [1:4], built by hand, keep a table of their own:
    # to bound 10 they miss the sets {2,4}, {3,5} and {4,6} that need
    # [1:4][3:4], which A(C4) has
    group = make_group([4])
    full = fresh_atoms(group, None)
    partial = dataclasses.replace(full, atom_vectors=tuple(v for v in full.atom_vectors if v != (0, 4, 0, 0)))

    def fresh(atoms, bound):
        return system(group, None, bound, dataclasses.replace(atoms))

    system(group, None, 12, full)
    assert system(group, None, 10, partial) == fresh(partial, 10)
    assert len(fresh(partial, 10)) == 17 and len(fresh(full, 10)) == 20
    read = system(group, None, 6, partial)
    assert read == fresh(partial, 6) and len(read) == 8
    assert system(group, None, 10, full) == fresh(full, 10)
    assert system(group, None, 6, full) == fresh(full, 6)
    # an engine of another memo limit has no table yet, so it runs the pass
    with pytest.raises(ResourceLimitError):
        system(group, None, 6, full, 5)


@pytest.mark.parametrize("mods,bound,needed", [
    ([3, 3], 6, 339),
    ([2, 4], 7, 429),
    ([5], 8, 99),
])
def test_memo_limit_thresholds(mods, bound, needed):
    # on a fresh engine a run succeeds exactly when its final memo fits:
    # at limit = the walk's final memo size it passes, one below it refuses
    group = make_group(mods)
    oracle = fresh_atoms(group, None)
    walk_system(group, bound, oracle)
    assert engine_for(oracle).memo_size == needed
    ours = fresh_atoms(group, None)
    system(group, None, bound, ours, needed)
    assert memo_of(ours, needed) == memo_of(oracle)
    walk = lambda g, s, b, atoms, limit: walk_system(g, b, atoms, limit)  # noqa: E731
    for run in (system, walk):
        with pytest.raises(ResourceLimitError):
            run(group, None, bound, fresh_atoms(group, None), needed - 1)
        # a run that stores nothing is not refused, even past the limit:
        # the empty product is in the memo from the start
        assert len(run(group, None, 1, fresh_atoms(group, None), 0)) == 2  # {0}, {1}


@settings(max_examples=100, deadline=None)
@given(cases())
def test_memo_limit_refuses_where_the_walk_does(case):
    group, subset, bound = case
    oracle = fresh_atoms(group, subset)
    walk_system(group, bound, oracle)
    needed = engine_for(oracle).memo_size
    ours = fresh_atoms(group, subset)
    assert len(system(group, subset, bound, ours, needed)) == len(walk_system(group, bound, oracle))
    # the engine is at its limit; a read of its table stores nothing
    assert engine_for(ours, needed).memo_size == needed
    for smaller in {bound // 2, bound}:
        read = system(group, subset, smaller, ours, needed)
        assert read == system(group, subset, smaller, fresh_atoms(group, subset))
    if needed > 1:  # the empty product is in every memo from the start
        refused = fresh_atoms(group, subset)
        with pytest.raises(ResourceLimitError):
            system(group, subset, bound, refused, needed - 1)
        assert engine_for(refused, needed - 1).memo_size <= needed - 1
