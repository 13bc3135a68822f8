"""Named verification suites bundling the library's cross-checks.

Each suite returns a list of verdicts (name, pass flag, witness text); the
CLI turns any failed verdict into exit code 1.  The flag is None when a
bounded scan was too small to decide the claim: undecided, not failed.  Witnesses always carry the
concrete inputs so a failure can be replayed by hand.  `suites.SUITES`
names each suite's function here and the options it reads with their
defaults; the CLI builds each suite's options from it.
"""

from __future__ import annotations

import math

from .atoms import davenport
from .errors import InvalidArgumentError
from .group import FiniteAbelianGroup, make_group
from .invariants import (
    compare_with_closed_form,
    delta_of_group,
    has_two_D_lengthset,
    interval_support_check,
    system,
    unions_range,
)
from .numerical import accumulated_delta, make_numerical
from .record import Record
from .structure_fit import verify_structure_theorem, verify_unions_structure
from .suites import SUITES
from .transfer import check_atom_correspondence, check_transfer, make_instance


class Verdict(Record):
    __slots__ = ("name", "passed", "witness")

    def as_dict(self) -> dict:
        return {"name": self.name, "pass": self.passed, "witness": self.witness}


def _is_elementary_2(group: FiniteAbelianGroup) -> bool:
    return all(n == 2 for n in group.invariant_factors)


def _is_cyclic(group: FiniteAbelianGroup) -> bool:
    return len(group.invariant_factors) <= 1


def verify_prop_2_3(group: FiniteAbelianGroup, bound: int) -> list[Verdict]:
    """min Delta = gcd Delta for accumulated distance sets, including the
    canned numerical monoids."""
    out = []
    report = delta_of_group(group, None, bound)
    if report.distances:
        ok = min(report.distances) == math.gcd(*report.distances)
        out.append(Verdict(
            f"prop2.3 min=gcd over {group} (bound {bound})", ok,
            f"distances {list(report.distances)}"))
    elif group.order <= 2:
        out.append(Verdict(
            f"prop2.3 over {group} (bound {bound})", True,
            "empty distance set (half-factorial group)"))
    else:
        # |G| >= 3 is not half-factorial: the bound reached no two lengths
        out.append(Verdict(
            f"prop2.3 over {group} (bound {bound})", None,
            "empty distance set: bound too small to decide"))
    for gens in ((2, 3), (3, 5, 7), (4, 9, 11)):
        monoid = make_numerical(list(gens))
        delta = accumulated_delta(monoid, 4 * gens[0] * gens[-1])
        if delta:
            ok = min(delta) == math.gcd(*delta)
            out.append(Verdict(
                f"prop2.3 min=gcd over {monoid}", ok, f"distances {list(delta)}"))
    return out


def verify_prop_6_1(group: FiniteAbelianGroup, k_max: int, bound: int) -> list[Verdict]:
    """Interval shape of U_k, the rho_k closed forms, the lambda/rho chain,
    and the distance-set bounds."""
    out = []
    dav, _ = davenport(group)
    unions = unions_range(group, k_max)
    ok = all(u.is_interval() for u in unions.values())
    out.append(Verdict(
        f"prop6.1 U_k intervals, k<={k_max}, {group}", ok,
        "; ".join(f"U_{k}={list(u.values)}" for k, u in sorted(unions.items()))))
    # a k range too short to hold a case decides nothing
    if group.order >= 3:
        rho_even = {k: unions[2 * k].rho for k in range(1, k_max // 2 + 1)}
        ok = all(v == k * dav for k, v in rho_even.items()) if rho_even else None
        out.append(Verdict(
            f"prop6.1 rho_2k = k*D for {group}", ok, f"{rho_even}, D={dav}"))
        odd = {
            k: unions[2 * k + 1].rho
            for k in range(1, (k_max - 1) // 2 + 1)
        }
        ok = all(1 + k * dav <= v <= k * dav + dav // 2 for k, v in odd.items()) if odd else None
        out.append(Verdict(
            f"prop6.1 rho_2k+1 bounds for {group}", ok, f"{odd}, D={dav}"))
    chain_ok = True if k_max >= 2 else None
    chain_witness = "all pairs" if k_max >= 2 else "no pairs"
    for k in range(1, k_max):
        for l in range(1, k_max - k + 1):
            lam_k, rho_kk = unions[k].lam, unions[k].rho
            lam_l, rho_ll = unions[l].lam, unions[l].rho
            lam_s, rho_s = unions[k + l].lam, unions[k + l].rho
            if not (lam_s <= lam_k + lam_l <= k + l <= rho_kk + rho_ll <= rho_s):
                chain_ok = False
                chain_witness = f"k={k}, l={l}"
    out.append(Verdict(
        f"prop6.1 lambda/rho chain, k+l<={k_max}, {group}", chain_ok, chain_witness))
    report = delta_of_group(group, None, bound)
    if group.order <= 2:
        out.append(Verdict(
            f"prop6.1 Delta empty for {group}", not report.distances,
            f"distances {list(report.distances)}"))
    else:
        d = report.distances
        # a bound too small to reach two lengths in one set decides nothing
        ok = (d[0] == 1 and d == tuple(range(1, d[-1] + 1)) and d[-1] <= dav - 2) if d else None
        out.append(Verdict(
            f"prop6.1 Delta interval from 1, max <= D-2, {group} (bound {bound})",
            ok, f"distances {list(d)}, D={dav}"))
    return out


def verify_prop_6_2(group: FiniteAbelianGroup, bound: int) -> list[Verdict]:
    """Brute-force system against the closed form, plus the C3 = C2+C2
    coincidence when applicable."""
    out = []
    sys = system(group, None, bound)
    cmp = compare_with_closed_form(group, bound)
    witness = (
        f"frontier {cmp.frontier}; "
        f"not in family: {[str(ls) for ls in cmp.computed_not_in_family]}; "
        f"missing: {[str(ls) for ls in cmp.missing_at_frontier]}"
    )
    out.append(Verdict(f"prop6.2 system vs closed form, {group} (bound {bound})",
                       cmp.ok, witness))
    if group.invariant_factors in ((3,), (2, 2)):
        other = make_group([2, 2] if group.invariant_factors == (3,) else [3])
        mine = set(sys.length_sets())
        theirs = set(system(other, None, bound).length_sets())
        diff = mine.symmetric_difference(theirs)
        out.append(Verdict(
            f"prop6.2 system({group}) = system({other}) at bound {bound}",
            not diff, f"symmetric difference {[str(ls) for ls in diff]}"))
    return out


def verify_prop_6_5(group: FiniteAbelianGroup) -> list[Verdict]:
    """{2, D(G)} occurs iff the group is cyclic or an elementary 2-group."""
    report = has_two_D_lengthset(group)
    if report.davenport < 4:
        return [Verdict(
            f"prop6.5 scope for {group}", True,
            f"D(G)={report.davenport} < 4; criterion out of scope")]
    expected = _is_cyclic(group) or _is_elementary_2(group)
    witness = (
        f"D={report.davenport}, found={report.found}, expected={expected}, "
        f"witness={report.witness}, atoms={report.atoms_scanned}"
    )
    return [Verdict(f"prop6.5 {{2,D}} membership for {group}",
                    report.found == expected, witness)]


def verify_thm_2_6(group: FiniteAbelianGroup, k_max: int) -> list[Verdict]:
    """Unions are AAPs with difference min Delta (intervals here), and the
    density ratio settles near (rho - 1/rho)/d on ranges long enough to tell."""
    report = verify_unions_structure(group, k_max)
    out = [Verdict(
        f"thm2.6 U_k AAP bound 0 (interval), k<={k_max}, {group}", report.ok,
        f"aap bounds {list(report.aap_bounds)}")]
    if k_max >= 10:
        ok = report.settles_by is not None
        out.append(Verdict(
            f"thm2.6 density trend toward {report.density_target}, {group}", ok,
            f"|U_k|/k = {[(k, str(r)) for k, r in report.density_rows]}, "
            f"settles by {report.settles_by} (tolerance {report.tolerance})"))
    return out


def verify_thm_5_3(group: FiniteAbelianGroup, bound: int) -> list[Verdict]:
    """Every computed length set fits as an AAMP over the accumulated
    distances.  The pass flag checks that each fit reconstructs its set,
    which holds by construction of the fit; the content is the largest
    bound M reported."""
    report = verify_structure_theorem(group, bound)
    fits = sum(count for _, count in report.histogram)
    witness = (
        f"{fits - len(report.round_trip_failures)}/{fits} fits reconstruct their set, "
        "as a fit does by construction; "
        f"max M = {report.max_bound} at {report.witness}; "
        f"histogram (d,|D|,M)->count: {dict(report.histogram)}"
    )
    return [Verdict(f"thm5.3 AAMP fits, {group} (bound {bound})", report.ok, witness)]


def verify_thm_6_3_1(group: FiniteAbelianGroup, bound: int) -> list[Verdict]:
    """L(A) is an interval for every A with |A| <= bound whose support
    together with 0 is a subgroup."""
    report = interval_support_check(group, bound)
    witness = f"|A| <= {bound}: {report.checked} checked, failures {len(report.failures)}"
    if report.failures:
        a, ls = report.failures[0]
        witness += f"; first failure {a} -> {ls}"
    return [Verdict(f"thm6.3.1 subgroup-support intervals, {group}", report.ok, witness)]


def verify_lemma_4_2(
    group: FiniteAbelianGroup, primes_per_class: int, samples: int, seed: int
) -> list[Verdict]:
    instance = make_instance(group, None, primes_per_class)
    report = check_transfer(instance, samples, 10, seed)
    out = [Verdict(
        f"lemma4.2 length preservation, {group}, {primes_per_class} primes/class",
        report.ok, f"{report.passes}/{report.samples} samples equal, seed {seed}")]
    corr = check_atom_correspondence(instance)
    out.append(Verdict(
        f"lemma4.2 atom correspondence, {group}", corr.ok,
        f"{corr.h_atom_count} H-atoms onto {corr.b_atom_count} B-atoms"))
    return out


def _run_all(small: bool, seed: int) -> list[Verdict]:
    c2 = make_group([2])
    c3 = make_group([3])
    c4 = make_group([4])
    c22 = make_group([2, 2])
    c5 = make_group([5])
    c222 = make_group([2, 2, 2])
    c24 = make_group([2, 4])
    c33 = make_group([3, 3])
    out: list[Verdict] = []
    out += verify_prop_2_3(c3, 10)
    out += verify_prop_2_3(c4, 8 if small else 10)
    out += verify_prop_6_1(c3, 6, 10)
    out += verify_prop_6_1(c4, 6, 10)
    out += verify_prop_6_1(c22, 6, 10)
    if not small:
        out += verify_prop_6_1(c5, 6, 10)
    out += verify_prop_6_2(c3, 9 if small else 12)
    out += verify_prop_6_2(c4, 8 if small else 10)
    out += verify_prop_6_2(c222, 8 if small else 10)
    if not small:
        out += verify_prop_6_2(c33, 10)
    out += verify_prop_6_5(c5)
    out += verify_prop_6_5(c24)
    out += verify_thm_2_6(c3, 6 if small else 10)
    out += verify_thm_5_3(c3, 10)
    out += verify_thm_5_3(c4, 8 if small else 10)
    out += verify_thm_6_3_1(c4, 12)
    out += verify_thm_6_3_1(c2, 12)
    if not small:
        out += verify_thm_6_3_1(c222, 9)
    out += verify_lemma_4_2(c3, 2, 25 if small else 100, seed)
    if not small:
        out += verify_lemma_4_2(c22, 2, 100, seed)
    return out


def run_suite(name: str, group: FiniteAbelianGroup | None = None, **options) -> list[Verdict]:
    """Run a named suite; `all` runs the bundled acceptance set.  An option
    left out takes the suite's default, a given one (0 included) is used as
    given, and one the suite does not read is an error."""
    suite = SUITES.get(name)
    if suite is None:
        raise InvalidArgumentError(f"unknown suite {name!r}; choose from {tuple(SUITES)}")
    unread = sorted(set(options) - set(suite.options))
    if unread:
        raise InvalidArgumentError(f"suite {name!r} does not read {unread}")
    if suite.on_group != (group is not None):
        need = "requires" if suite.on_group else "takes no"
        raise InvalidArgumentError(f"suite {name!r} {need} group")
    options = {**suite.options, **options}
    run = globals()[suite.run]
    return run(group, **options) if suite.on_group else run(**options)
