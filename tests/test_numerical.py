import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen import numerical
from zslen.atoms import limits
from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.lengths import LengthSet, elasticity_of
from zslen.numerical import (
    _length_masks,
    accumulated_delta,
    contains,
    make_numerical,
    num_elasticity,
    num_length_set,
    num_min_delta,
)


def exhaustive_lengths(gens, n):
    """Oracle: enumerate every (k_1,...,k_t) with sum k_i*g_i = n."""
    out = set()

    def rec(i, remaining, count):
        if i == len(gens):
            if remaining == 0:
                out.add(count)
            return
        g = gens[i]
        for k in range(remaining // g + 1):
            rec(i + 1, remaining - k * g, count + k)

    rec(0, n, 0)
    return out


def test_make_numerical_redundancy():
    assert make_numerical([2, 3, 4]).generators == (2, 3)
    assert make_numerical([3, 5, 7]).generators == (3, 5, 7)
    assert make_numerical([1, 6, 11]).generators == (1,)


def test_frobenius_bounds():
    # brute-force membership scan oracle for <2,3>
    members = {2 * a + 3 * b for a in range(8) for b in range(8)}
    assert max(x for x in range(10) if x not in members) == 1
    assert make_numerical([2, 3]).frobenius_bound == 1
    assert make_numerical([3, 5, 7]).frobenius_bound == 4
    assert make_numerical([1]).frobenius_bound == -1


def test_gcd_validation():
    with pytest.raises(InvalidArgumentError):
        make_numerical([4, 6])
    with pytest.raises(InvalidArgumentError):
        make_numerical([])
    with pytest.raises(InvalidArgumentError):
        make_numerical([0, 3])


@pytest.mark.parametrize("gens", [[True, 3], [True], [2, 3.0]])
def test_generators_must_be_ints_not_bools(gens):
    # make_numerical([True, 3]) returned the monoid <True>, as make_group
    # refuses a bool modulus
    with pytest.raises(InvalidArgumentError, match="positive integers"):
        make_numerical(gens)


def test_contains():
    h = make_numerical([2, 3])
    assert not contains(h, 1)
    assert contains(h, 7)
    assert all(contains(h, n) for n in range(2, 40))
    assert not contains(h, -2)


def test_membership_memory_linear_in_n():
    """Building <2,20001> and rejecting its Frobenius number take one boolean
    per integer, not a length bitmask per integer (~12 MB of ints here)."""
    tracemalloc.start()
    try:
        h = make_numerical([2, 20001])
        member = contains(h, 19999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h.generators == (2, 20001) and h.frobenius_bound == 19999
    assert not member
    assert peak < 1_000_000


def representable(gens, limit):
    """Oracle: reach[n] says whether n <= limit is a sum of the generators."""
    reach = [True] + [False] * limit
    for n in range(1, limit + 1):
        reach[n] = any(g <= n and reach[n - g] for g in gens)
    return reach


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(1, 30), min_size=1, max_size=6).filter(lambda g: math.gcd(*g) == 1),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=3),
)
def test_apery_table_matches_representability_oracle(gens, pairs):
    # sums of two drawn generators are redundant ones; draws may repeat
    gens = gens + [gens[i % len(gens)] + gens[j % len(gens)] for i, j in pairs]
    h = make_numerical(gens)
    distinct = sorted(set(gens))
    minimal = tuple(
        g for g in distinct if not representable([x for x in distinct if x != g], g)[g]
    )
    assert h.generators == minimal
    n1, nt = distinct[0], distinct[-1]
    # Schur: the Frobenius number is at most (n1 - 1)(nt - 1) - 1
    reach = representable(distinct, (n1 - 1) * (nt - 1) + n1)
    frobenius = max((n for n, r in enumerate(reach) if not r), default=-1)
    assert all(reach[frobenius + 1:frobenius + 1 + n1])
    assert h.frobenius_bound == frobenius
    for n in range(-2, frobenius + n1 + 1):
        assert contains(h, n) == (n >= 0 and reach[n]), n


def test_frobenius_bound_of_two_generators_is_sylvester():
    assert make_numerical([6007, 9011]).frobenius_bound == 6007 * 9011 - 6007 - 9011


def test_membership_reads_the_apery_table():
    """Deciding 9 * 10**6 builds no table over the integers below it
    (one boolean per integer took 68 MiB)."""
    h = make_numerical([3001, 3011])
    tracemalloc.start()
    try:
        member = contains(h, 9_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert member
    assert peak < 1_000_000


def test_length_table_memory_is_windowed():
    """L(n) tabulates one period of the table, not one mask per integer up
    to n (~30 MB for <3,5> at n = 20000): 21 rows, then the progression."""
    h = make_numerical([3, 5])
    tracemalloc.start()
    try:
        ls = num_length_set(h, 20000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 20000 = 3a + 5b with b = 4000, 3997, ..., 1: lengths 4000, 4002, ..., 6666
    assert ls == LengthSet.of(range(4000, 6667, 2))
    assert peak < 1_000_000


def test_length_set_examples():
    h = make_numerical([2, 3])
    assert num_length_set(h, 6) == LengthSet.of([2, 3])
    assert num_length_set(h, 2) == LengthSet.of([1])
    assert num_length_set(h, 12) == LengthSet.of([4, 5, 6])
    assert num_length_set(h, 0) == LengthSet.of([0])
    with pytest.raises(InvalidArgumentError):
        num_length_set(h, 1)


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (4, 9, 11), (5, 7)])
def test_length_sets_match_exhaustive(gens):
    h = make_numerical(list(gens))
    for n in range(1, 61):
        if contains(h, n):
            assert set(num_length_set(h, n).values) == exhaustive_lengths(
                h.generators, n
            ), n


def test_closed_forms():
    h = make_numerical([2, 3])
    assert num_elasticity(h) == Fraction(3, 2)
    assert num_min_delta(h) == 1
    h = make_numerical([3, 5, 7])
    assert num_elasticity(h) == Fraction(7, 3)
    assert num_min_delta(h) == 2
    h = make_numerical([1])
    assert num_elasticity(h) == 1
    assert num_min_delta(h) is None


@given(st.sets(st.integers(min_value=2, max_value=15), min_size=2, max_size=4))
@settings(max_examples=50, deadline=None)
def test_elasticity_bounds_lengths(gens):
    gens = sorted(gens)
    if math.gcd(*gens) != 1:
        gens.append(gens[-1] + 1)
    h = make_numerical(gens)
    n1, nt = h.generators[0], h.generators[-1]
    for n in range(1, 101):
        if not contains(h, n):
            continue
        ls = num_length_set(h, n)
        assert elasticity_of(ls) <= Fraction(nt, n1)
        assert ls.max <= n // n1
        assert ls.min >= math.ceil(n / nt)


@pytest.mark.parametrize("gens", [(2, 3), (3, 5, 7), (4, 9, 11)])
def test_min_delta_stabilizes_to_closed_form(gens):
    h = make_numerical(list(gens))
    if len(h.generators) == 1:
        return
    bound = 4 * h.generators[0] * h.generators[-1]
    delta = accumulated_delta(h, bound)
    assert delta
    assert min(delta) == math.gcd(*delta)
    assert min(delta) == num_min_delta(h)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 15), min_size=1, max_size=4), st.integers(0, 150))
def test_accumulated_delta_matches_per_member_tables(gens, bound):
    gens = gens + [max(gens) + 1]  # consecutive generators force gcd 1
    h = make_numerical(gens)
    expected = set()
    for n in range(bound + 1):
        if n and contains(h, n):
            vals = num_length_set(h, n).values
            expected.update(b - a for a, b in zip(vals, vals[1:]))
        # every prefix bound, so a gap first seen at n = bound counts too
        assert accumulated_delta(h, n) == tuple(sorted(expected))


def test_elasticity_approached_at_lcm_multiples():
    h = make_numerical([2, 3])
    n = 2 * 3 * 4
    assert elasticity_of(num_length_set(h, n)) == Fraction(3, 2)


def shift_start(h):
    """(P, N): L(m + P) = (n1 + L(m)) | (nk + L(m)) for every m >= N."""
    gens = h.generators
    n1, nk = gens[0], gens[-1]
    return n1 * nk, n1 * nk + (len(gens) - 2) * (nk - n1) * nk


@pytest.mark.parametrize("gens", [
    (1,), (2, 3), (3, 5, 7), (4, 9, 11), (6, 10, 15),
    pytest.param((11, 13, 29, 31), marks=pytest.mark.slow),  # 10,230 rows, ~10 s
    (5, 7), (7, 9, 11, 13), (3, 4, 5), (8, 9, 10, 11),
    pytest.param((10, 11, 17), marks=pytest.mark.slow),
    (4, 6, 9), (5, 8, 9, 12), (6, 7, 8),
], ids=lambda gens: ",".join(map(str, gens)))
def test_shift_identity_matches_the_full_table(gens):
    """Every member n up to max(30*n1*nk, N + 3P): below N + P the answer
    is the table's own row, from N + P on the progression is added with
    q >= 1."""
    h = make_numerical(list(gens))
    period, start = shift_start(h)
    for n, mask in enumerate(_length_masks(h, max(30 * period, start + 3 * period))):
        if mask:
            assert num_length_set(h, n).to_mask() == mask, n


@settings(max_examples=120, deadline=None)
@given(st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True)
       .filter(lambda g: math.gcd(*g) == 1), st.data())
def test_shift_identity_matches_the_table_on_drawn_monoids(gens, data):
    h = make_numerical(gens)
    period, start = shift_start(h)
    n = data.draw(st.integers(0, start + 4 * period))
    for mask in _length_masks(h, n):
        pass
    if mask:
        assert num_length_set(h, n).to_mask() == mask
    else:
        with pytest.raises(InvalidArgumentError):
            num_length_set(h, n)


@pytest.mark.parametrize("n, need", [
    (200, 201),        # n < N = 225: the table's 201 rows (span 20)
    (1000, 281),       # n0 = 225 + 775 % 90 = 280: 281 rows (span 100)
    (400000, 40000),   # n0 = 310: the span 66666 - 26667 + 1 binds
])
def test_numerical_table_is_held_to_the_memo_cap(monkeypatch, n, need):
    """<6,10,15>: the larger of the rows built and the answer's span is
    held to the memo cap before any row is built, and nothing is charged."""
    h = make_numerical([6, 10, 15])
    with limits(memo_limit=need) as work:
        num_length_set(h, n)
    assert work == {"atom_lattice_nodes": 0, "memo_entries": 0}

    def no_table(monoid, bound):
        raise AssertionError("tabulated past the cap")

    monkeypatch.setattr(numerical, "_length_masks", no_table)
    with limits(memo_limit=need - 1), pytest.raises(ResourceLimitError) as refused:
        num_length_set(h, n)
    assert (refused.value.bound_name, refused.value.limit, refused.value.reached) == (
        "numerical table", need - 1, need)


def test_accumulated_delta_folds_each_distinct_mask_once(monkeypatch):
    """<11,13,29,31> to 1000: 965 members share 136 length sets."""
    folded = []
    gaps = numerical.mask_gaps

    def spy(mask):
        folded.append(mask)
        return gaps(mask)

    monkeypatch.setattr(numerical, "mask_gaps", spy)
    h = make_numerical([11, 13, 29, 31])
    assert accumulated_delta(h, 1000) == (2, 4)
    assert len(folded) == len(set(folded)) == 136
