"""Acceptance gate: every desk-scale claim, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s; pytest -v
shows the same verdicts as test outcomes).  All tolerances are zero unless
a criterion states otherwise; the only non-exact check is the density
trend in criterion 9, pinned at 0.1.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

from zslen.atoms import davenport, davenport_star, enumerate_atoms
from zslen.group import make_group
from zslen.invariants import (
    compare_with_closed_form,
    delta_of_group,
    has_two_D_lengthset,
    system,
    unions_range,
)
from zslen.lengths import (
    LengthSet,
    delta_of,
    exhaustive_length_set,
    length_set,
)
from zslen.numerical import (
    contains,
    make_numerical,
    num_elasticity,
    num_length_set,
    num_min_delta,
)
from zslen.sequence import Sequence, enumerate_zero_sum, parse_sequence
from zslen.structure_fit import verify_structure_theorem, verify_unions_structure
from zslen.transfer import check_atom_correspondence, check_transfer, make_instance
from zslen.verify import _is_cyclic, _is_elementary_2

from subgroup_sampler import subgroup_support_draws


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def test_criterion_01_atom_lists():
    with criterion(1, "atoms of C3 and C2+C2 match the published lists exactly"):
        c3 = make_group([3])
        assert set(enumerate_atoms(c3).atoms) == {
            parse_sequence(c3, "[0:1]"),
            parse_sequence(c3, "[1:3]"),
            parse_sequence(c3, "[2:3]"),
            parse_sequence(c3, "[1:1,2:1]"),
        }
        c22 = make_group([2, 2])
        assert set(enumerate_atoms(c22).atoms) == {
            parse_sequence(c22, "[(0,0):1]"),
            parse_sequence(c22, "[(0,1):2]"),
            parse_sequence(c22, "[(1,0):2]"),
            parse_sequence(c22, "[(1,1):2]"),
            parse_sequence(c22, "[(0,1):1,(1,0):1,(1,1):1]"),
        }


def test_criterion_02_davenport_equals_star():
    groups = ([2], [3], [4], [5], [6], [7], [8],
              [2, 2], [2, 2, 2], [2, 2, 2, 2], [3, 3], [2, 4])
    with criterion(2, "D(G) = D*(G) for the twelve p-groups and rank <= 2 groups"):
        for mods in groups:
            group = make_group(mods)
            assert davenport(group)[0] == davenport_star(group), str(group)


def _check_system_against_closed_form(mods, bound):
    group = make_group(mods)
    cmp = compare_with_closed_form(group, bound)
    assert cmp.ok, (
        str(group),
        [str(x) for x in cmp.computed_not_in_family],
        [str(x) for x in cmp.missing_at_frontier],
    )


def test_criterion_03_systems_match_closed_forms_fast():
    with criterion(3, "system = closed form (frontier rule) for C3/C2+C2 at 12, "
                      "C4 and C2^3 at 10; system(C3) = system(C2+C2)"):
        _check_system_against_closed_form([3], 12)
        _check_system_against_closed_form([2, 2], 12)
        _check_system_against_closed_form([4], 10)
        _check_system_against_closed_form([2, 2, 2], 10)
        c3, c22 = make_group([3]), make_group([2, 2])
        assert set(system(c3, None, 12).length_sets()) == set(
            system(c22, None, 12).length_sets()
        )


def test_criterion_03_system_c33():
    with criterion(3, "system(C3+C3, bound 10) matches its closed form"):
        _check_system_against_closed_form([3, 3], 10)


def test_criterion_04_unions():
    with criterion(4, "rho_2k = k*D (k<=3), rho_3(C3) = 4, U_k intervals, "
                      "lambda/rho chain for k+l <= 8"):
        for mods in ([3], [4], [2, 2], [5]):
            group = make_group(mods)
            d, _ = davenport(group)
            unions = unions_range(group, 8)
            for k in (1, 2, 3):
                assert unions[2 * k].rho == k * d, (str(group), k)
            assert all(u.is_interval() for u in unions.values()), str(group)
            for k in range(1, 8):
                for l in range(1, 8 - k + 1):
                    assert unions[k + l].lam <= unions[k].lam + unions[l].lam
                    assert unions[k].lam + unions[l].lam <= k + l
                    assert k + l <= unions[k].rho + unions[l].rho
                    assert unions[k].rho + unions[l].rho <= unions[k + l].rho
        assert unions_range(make_group([3]), 3)[3].rho == 4


TESTED_GROUPS = ([3], [2, 2], [4], [5], [2, 2, 2], [2, 4], [3, 3])


def test_criterion_05_distance_sets():
    with criterion(5, "Delta(C3) = {1}; empty for |G| <= 2; max gap <= D-2 "
                      "for every computed length set"):
        assert delta_of_group(make_group([3]), None, 12).distances == (1,)
        for mods in ([1], [2]):
            assert delta_of_group(make_group(mods), None, 10).distances == ()
        for mods in TESTED_GROUPS:
            group = make_group(mods)
            d, _ = davenport(group)
            for ls in system(group, None, 9).length_sets():
                gaps = delta_of(ls)
                assert not gaps or max(gaps) <= d - 2, (str(group), str(ls))


def test_criterion_06_min_equals_gcd():
    with criterion(6, "min Delta = gcd Delta for all tested groups and "
                      "numerical monoids"):
        for mods in TESTED_GROUPS:
            report = delta_of_group(make_group(mods), None, 9)
            if report.distances:
                assert min(report.distances) == math.gcd(*report.distances), mods
        for gens in ([2, 3], [3, 5, 7], [4, 9, 11], [5, 8, 11]):
            h = make_numerical(gens)
            acc = set()
            for n in range(1, 4 * h.generators[0] * h.generators[-1]):
                if contains(h, n):
                    acc.update(delta_of(num_length_set(h, n)))
            if acc:
                assert min(acc) == math.gcd(*acc), gens


def test_criterion_07_two_davenport_membership():
    with criterion(7, "{2, D(G)} occurs for C5, C6, C7, C2^3, C2^4 and not "
                      "for C2+C4, C3+C3, C2+C8, C4+C4, C2+C2+C4"):
        for mods in ([5], [6], [7], [2, 2, 2], [2, 2, 2, 2]):
            group = make_group(mods)
            report = has_two_D_lengthset(group)
            assert report.davenport >= 4 and report.found, str(group)
            assert _is_cyclic(group) or _is_elementary_2(group)
        for mods in ([2, 4], [3, 3], [2, 8], [4, 4], [2, 2, 4]):
            group = make_group(mods)
            report = has_two_D_lengthset(group)
            assert report.davenport >= 4 and not report.found, str(group)


def test_criterion_08_pair_power_family():
    with criterion(8, "L((-U)^k U^k) = 2k + {nu(n-2)} for n in 3..5, k in 1..3"):
        for n in (3, 4, 5):
            group = make_group([n])
            atoms = enumerate_atoms(group)
            g, h = group.element([1]), group.element([n - 1])
            for k in (1, 2, 3):
                b = Sequence.make(group, {g: n * k, h: n * k})
                expected = LengthSet.of(2 * k + nu * (n - 2) for nu in range(k + 1))
                assert length_set(b, atoms) == expected, (n, k)


def test_criterion_09_structure_fits():
    with criterion(9, "Prop 6.2 systems fit with M = 0 and d in {1,2}; all U_k "
                      "are AAPs with bound 0; |U_2k(C3)|/2k within 0.1 of 5/6 "
                      "by k = 5"):
        for mods, bound in (([3], 12), ([2, 2], 12), ([4], 10), ([2, 2, 2], 10),
                            ([3, 3], 10)):
            report = verify_structure_theorem(make_group(mods), bound)
            assert report.ok and report.max_bound == 0, mods
            assert all(d in (1, 2) for (d, _, _), _ in report.histogram), mods
        for mods in ([3], [4], [2, 2]):
            unions_report = verify_unions_structure(make_group(mods), 8)
            assert unions_report.ok, mods
            assert set(unions_report.aap_bounds) == {0}, mods
        density = verify_unions_structure(make_group([3]), 10)
        rows = dict(density.density_rows)
        target = Fraction(5, 6)
        settled = None
        for k in (1, 2, 3, 4, 5):
            if all(abs(rows[2 * j] - target) <= Fraction(1, 10)
                   for j in range(k, 6)):
                settled = k
                break
        assert settled is not None and settled <= 5, rows


def test_criterion_10_transfer():
    with criterion(10, "transfer checks pass 100/100 over C3, C4, C2+C2 with "
                       "2 primes per class; atom correspondence exact"):
        for mods in ([3], [4], [2, 2]):
            instance = make_instance(make_group(mods), None, 2)
            report = check_transfer(instance, 100, 10, seed=42)
            assert report.passes == 100, (mods, report.failures[:1])
            assert check_atom_correspondence(instance).ok, mods


def test_criterion_11_numerical():
    with criterion(11, "<2,3> and <3,5,7> closed forms; length sets match "
                       "exhaustive enumeration for n <= 60"):
        h23 = make_numerical([2, 3])
        assert num_elasticity(h23) == Fraction(3, 2)
        assert num_min_delta(h23) == 1
        h357 = make_numerical([3, 5, 7])
        assert num_elasticity(h357) == Fraction(7, 3)
        assert num_min_delta(h357) == 2
        for h in (h23, h357):
            for n in range(1, 61):
                if not contains(h, n):
                    continue
                lengths = set()

                def rec(i, remaining, count):
                    if i == len(h.generators):
                        if remaining == 0:
                            lengths.add(count)
                        return
                    g = h.generators[i]
                    for c in range(remaining // g + 1):
                        rec(i + 1, remaining - c * g, count + c)

                rec(0, n, 0)
                assert set(num_length_set(h, n).values) == lengths, (h, n)


def test_criterion_12_oracle_equivalence():
    with criterion(12, "length_set matches the exhaustive-factorization oracle "
                       "for all |B| <= 8 over C3, C4, C2+C2"):
        for mods in ([3], [4], [2, 2]):
            group = make_group(mods)
            atoms = enumerate_atoms(group)
            for b in enumerate_zero_sum(group, None, 8):
                assert length_set(b, atoms) == exhaustive_length_set(b, atoms), str(b)


def test_criterion_13_subgroup_support_intervals():
    with criterion(13, "200 subgroup-support samples per group over C4, C6, "
                       "C2^3: every length set is an interval"):
        for mods in ([4], [6], [2, 2, 2]):
            group = make_group(mods)
            atoms = enumerate_atoms(group)
            draws = subgroup_support_draws(group, 200, seed=2024)
            assert len(draws) == 200
            for a in draws:
                assert length_set(a, atoms).is_interval(), (mods, str(a))
