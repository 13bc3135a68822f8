import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen import structure_fit
from zslen.errors import InvalidArgumentError
from zslen.group import make_group
from zslen.invariants import closed_form_system, delta_of_group, system
from zslen.lengths import FactorizationEngine, LengthSet
from zslen.structure_fit import (
    best_aamp,
    fit_aamp,
    verify_structure_theorem,
    verify_unions_structure,
)


def L(*values):
    return LengthSet.of(values)


def test_pure_progression():
    fit = fit_aamp(L(2, 3, 4, 5), 1, (0, 1))
    assert (fit.bound, fit.shift, fit.length) == (0, 2, 3)
    assert not fit.degenerate
    assert fit.reconstruct() == L(2, 3, 4, 5)


def test_multiperiodic_worked_example():
    # multiples-of-a-prime pattern in [0, 12] for 12 = 2^2 * 3: period
    # {0,2,3,4,6} with difference 6 tiles it exactly
    n, d = 12, 6
    a = sorted({x for x in range(n + 1) if x == 0 or math.gcd(x, n) > 1})
    period = tuple(x for x in a if x <= d)
    fit = fit_aamp(LengthSet.of(a), d, period)
    assert fit is not None
    assert fit.bound == 0
    assert fit.shift == 0
    assert fit.reconstruct() == LengthSet.of(a)


def test_trivial_fit_always_exists():
    ls = L(2, 5, 11, 12)
    fit = fit_aamp(ls, 1, (0, 1))
    assert fit is not None
    assert fit.bound <= ls.max - ls.min
    assert fit.reconstruct() == ls


def test_fit_none_when_residues_cannot_match():
    # {0, 3} inside y + {0,2} + 2Z is impossible: 3 - 0 is odd
    assert fit_aamp(L(0, 3), 2, (0, 2)) is None


def test_invalid_period():
    with pytest.raises(InvalidArgumentError):
        fit_aamp(L(1, 2), 2, (0, 1))  # missing d
    with pytest.raises(InvalidArgumentError):
        fit_aamp(L(1, 2), 2, (0, 2, 5))  # outside [0, d]


@pytest.mark.parametrize("call", [
    lambda: best_aamp(L(1, 2), [1.5]),
    lambda: best_aamp(L(1, 2), [True]),
    lambda: fit_aamp(L(1, 2), 1.5, (0, 1.5)),
    lambda: fit_aamp(L(1, 2), True, (0, True)),
    lambda: fit_aamp(L(1, 2), 2, (0, 1.0, 2)),
    lambda: fit_aamp(L(1, 2), 2, (0, 2, "1")),
], ids=["best-float", "best-bool", "fit-float-d", "fit-bool-d", "fit-float-period",
        "fit-str-period"])
def test_non_int_difference_or_period_is_invalid(call):
    # best_aamp(L(1, 2), [1.5]) returned a fit with difference 1.5 and
    # length 0.0
    with pytest.raises(InvalidArgumentError, match="integer"):
        call()


def test_degenerate_singleton():
    fit = fit_aamp(L(4), 1, (0, 1))
    assert fit.bound == 0
    assert fit.length == 0
    assert fit.degenerate


def test_two_element_sets():
    fit = fit_aamp(L(7, 9), 2, (0, 2))
    assert fit.bound == 0
    assert fit.length == 1
    assert not fit.degenerate


def test_wide_windows_cost_the_lengths_not_the_span():
    # the window [0, 10**7] holds 10**7 + 1 pattern points but two lengths
    tracemalloc.start()
    try:
        fit = fit_aamp(L(0, 10**7), 1, [0, 1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (fit.shift, fit.central, fit.end, fit.bound) == (0, (0,), (10**7,), 10**7)
    assert fit.degenerate
    assert peak < 1_000_000
    fit = fit_aamp(L(0, 10**7), 10**7, [0, 10**7])
    assert (fit.central, fit.length, fit.bound) == ((0, 10**7), 1, 0)


def test_best_aamp_examples():
    fit = best_aamp(L(2, 3, 4), [1])
    assert (fit.difference, fit.bound) == (1, 0)
    fit = best_aamp(L(4, 6, 8), [1, 2])
    assert (fit.difference, fit.bound) == (2, 0)
    for n in (4, 5, 6, 7):
        fit = best_aamp(L(2, n), list(range(1, n - 1)))
        assert (fit.difference, fit.bound) == (n - 2, 0)


finite_sets = st.sets(st.integers(min_value=0, max_value=24), min_size=1, max_size=8)


def subset_search(lengths, candidate_d):
    """The search best_aamp replaced: every period {0, d} | R' for R' a
    subset of the nonzero residues of (L - min L) mod d, least
    (bound, d, |D|) first."""
    best_key = best_fit = None
    for d in sorted(set(candidate_d)):
        nonzero = sorted({(x - lengths.min) % d for x in lengths.values} - {0})
        for mask in range(1 << len(nonzero)):
            rsub = [r for j, r in enumerate(nonzero) if mask >> j & 1]
            fit = fit_aamp(lengths, d, {0, d, *rsub})
            if fit is None:
                continue
            key = (fit.bound, d, len(fit.period))
            if best_key is None or key < best_key:
                best_key, best_fit = key, fit
    return best_fit


@given(
    st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=10),
    st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
)
@settings(max_examples=150, deadline=None)
def test_best_aamp_equals_subset_search(values, cands):
    ls = LengthSet.of(values)
    assert best_aamp(ls, cands) == subset_search(ls, cands)


@given(
    st.sets(st.integers(min_value=0, max_value=40), min_size=1, max_size=10),
    st.integers(min_value=2, max_value=9),
)
@settings(max_examples=150, deadline=None)
def test_no_proper_subset_of_the_residues_fits(values, d):
    # L - y has as many residues mod d as L - min L, so a period missing
    # one of them fits no shift y
    ls = LengthSet.of(values)
    nonzero = sorted({(x - ls.min) % d for x in values} - {0})
    for size in range(len(nonzero)):
        for rsub in itertools.combinations(nonzero, size):
            assert fit_aamp(ls, d, {0, d, *rsub}) is None
    assert fit_aamp(ls, d, {0, d, *nonzero}) is not None


def test_one_fit_per_candidate_difference(monkeypatch):
    # 40 lengths that meet every residue mod d <= 9: the subset search
    # tried 2^(d-1) periods per d, 511 in all
    ls = LengthSet.of(random.Random(1).sample(range(200), 40))
    cands = range(1, 10)
    assert all(len({x % d for x in ls.values}) == d for d in cands)
    calls = []
    original = structure_fit.fit_aamp

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(structure_fit, "fit_aamp", counted)
    fit = best_aamp(ls, cands)
    assert len(calls) == 9
    assert [d for _, d, _ in calls] == list(cands)
    assert fit == subset_search(ls, cands)
    assert fit.reconstruct() == ls


@given(finite_sets, st.integers(min_value=1, max_value=6))
@settings(max_examples=120, deadline=None)
def test_round_trip_property(values, d):
    ls = LengthSet.of(values)
    fit = best_aamp(ls, [d])
    assert fit.reconstruct() == ls


@given(finite_sets, st.sets(st.integers(min_value=1, max_value=6), min_size=1, max_size=3))
@settings(max_examples=80, deadline=None)
def test_monotone_in_candidates(values, cands):
    ls = LengthSet.of(values)
    small = best_aamp(ls, [min(cands)])
    full = best_aamp(ls, sorted(cands))
    assert full.bound <= small.bound


@pytest.mark.parametrize("mods,bound", [([3], 12), ([2, 2], 12), ([4], 10), ([2, 2, 2], 10)])
def test_prop62_systems_fit_flat(mods, bound):
    group = make_group(mods)
    report = verify_structure_theorem(group, bound)
    assert report.ok
    assert report.max_bound == 0
    assert all(d in (1, 2) for (d, _, _), _ in report.histogram)


def test_closed_form_sets_fit_with_their_delta(c4):
    delta = delta_of_group(c4, None, 10).distances
    for ls in closed_form_system(c4, 10):
        fit = best_aamp(ls, delta)
        assert fit.bound == 0
        assert fit.reconstruct() == ls


def test_unions_structure_c3(c3):
    report = verify_unions_structure(c3, 10)
    assert report.ok
    assert report.all_intervals
    assert set(report.aap_bounds) == {0}
    assert report.density_target == Fraction(5, 6)
    assert report.settles_by is not None and report.settles_by <= 10


def test_unions_structure_c22(c22):
    report = verify_unions_structure(c22, 6)
    assert report.ok
    for u in report.unions:
        if u.k % 2 == 0:
            assert u.rho == 3 * (u.k // 2)


def test_density_rows_c3(c3):
    report = verify_unions_structure(c3, 10)
    rows = dict(report.density_rows)
    # frozen from the closed forms rho_2k = 3k, rho_2k+1 = 3k+1
    assert rows[10] == Fraction(9, 10)
    assert rows[8] == Fraction(7, 8)
    target = Fraction(5, 6)
    assert all(abs(rows[2 * k] - target) <= Fraction(1, 10) for k in (4, 5))


@pytest.fixture
def walks(monkeypatch, fresh_atom_cache):
    """The forward passes (FactorizationEngine.product_levels calls) made
    on a fresh atom cache: the module's cached sets hold engines that
    earlier tests ran to other bounds."""
    calls = []
    original = FactorizationEngine.product_levels

    def counted(engine, *args):
        calls.append(args)
        return original(engine, *args)

    monkeypatch.setattr(FactorizationEngine, "product_levels", counted)
    return calls


def test_structure_fit_walks_its_system_once(walks):
    # the difference candidates come from the fitted system, not a second walk
    c33 = make_group([3, 3])
    report = verify_structure_theorem(c33, 9)
    assert report.ok and report.candidates == (1,)
    assert len(walks) == 1
    # every bound up to 9 is read from the engine's table
    delta_of_group(c33, None, 9)
    for bound in range(10):
        system(c33, None, bound)
    assert len(walks) == 1
    system(c33, None, 10)
    assert len(walks) == 2


def test_sweeps_scans_walk_once(walks):
    # the order of the benchmark's `sweeps` ops on C3+C3
    c33 = make_group([3, 3])
    system(c33, None, 10)
    delta_of_group(c33, None, 10)
    verify_structure_theorem(c33, 9)
    assert len(walks) == 1
