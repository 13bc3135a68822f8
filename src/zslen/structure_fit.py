"""Almost arithmetical (multi)progression fits for length sets.

A fit decomposes L as y + (L' | L* | L'') inside y + D + dZ, where the
central part L* is the full periodic pattern on a window [0, max L*], the
initial part sits in [-M, -1] and the end part in max L* + [1, M].  A set
too short to put d itself into the central part still fits with the window
{0}; such fits are reported with length 0 and flagged degenerate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import InvalidArgumentError
from .group import FiniteAbelianGroup
from .invariants import UnionOfLengths, elasticity, system, unions_range
from .lengths import LengthSet

# |U_k|/k has settled once every later ratio is this close to its limit
DENSITY_TOLERANCE = Fraction(1, 10)


@dataclass(frozen=True)
class AAMPFit:
    """A valid decomposition of a concrete finite set."""

    shift: int  # y
    difference: int  # d
    period: tuple[int, ...]  # D, with 0 and d included
    length: int  # maximal l with l*d in the central part; 0 when degenerate
    bound: int  # M
    initial: tuple[int, ...]  # L', relative to the shift
    central: tuple[int, ...]  # L*, relative to the shift
    end: tuple[int, ...]  # L'', relative to the shift
    degenerate: bool

    def reconstruct(self) -> LengthSet:
        parts = self.initial + self.central + self.end
        return LengthSet.of(self.shift + x for x in parts)


def _validate_period(d: int, period: Iterable[int]) -> tuple[int, ...]:
    dset = tuple(sorted(set(period)))
    if d < 1:
        raise InvalidArgumentError(f"difference must be positive: {d}")
    if 0 not in dset or d not in dset:
        raise InvalidArgumentError(f"period must contain 0 and {d}: {dset}")
    if any(x < 0 or x > d for x in dset):
        raise InvalidArgumentError(f"period must lie in [0, {d}]: {dset}")
    return dset


def fit_aamp(lengths: LengthSet, d: int, period: Iterable[int]) -> AAMPFit | None:
    """Best fit of the set for a fixed difference and period, minimizing the
    bound M, tie-broken by maximal length then minimal shift.  None when no
    shift places the set inside y + D + dZ.
    """
    dset = _validate_period(d, period)
    residues = {x % d for x in dset}
    vals = lengths.values
    best: tuple[int, int, int] | None = None  # (M, -l, y)
    best_fit: AAMPFit | None = None
    for y in vals:
        rel = [x - y for x in vals]
        if any(x % d not in residues for x in rel):
            continue
        # every x in rel lies on the pattern, so a candidate window [0, m]
        # is covered exactly when it holds as many lengths as pattern points
        below = sum(1 for x in rel if x < 0)
        for j, m in enumerate(rel[below:], 1):  # j lengths in [0, m]
            points = m // d * (len(dset) - 1) + bisect_right(dset, m % d)
            if points != j:
                continue
            bound = max(0, -rel[0], rel[-1] - m)
            ell = m // d
            key = (bound, -ell, y)
            if best is None or key < best:
                best = key
                best_fit = AAMPFit(
                    shift=y,
                    difference=d,
                    period=dset,
                    length=ell,
                    bound=bound,
                    initial=tuple(rel[:below]),
                    central=tuple(rel[below:below + j]),
                    end=tuple(rel[below + j:]),
                    degenerate=ell == 0,
                )
    return best_fit


def best_aamp(lengths: LengthSet, candidate_d: Iterable[int]) -> AAMPFit:
    """The fit of least (bound M, difference d) over the candidate
    differences, each with the period D = {0, d} | R, where R is the set of
    all nonzero residues of (L - min L) mod d.

    This is the result of trying every D = {0, d} | R' with R' a subset of
    R: a fit with shift y needs every residue of L - y mod d in D mod d,
    and L - y has as many residues mod d as L - min L, namely |R| + 1
    (0 included), so a proper subset R' fits no shift, while the full R
    fits at y = min L (the window [0, 0] is covered).  One fit_aamp call
    per difference therefore returns what the subset search returned.
    """
    cands = sorted(set(candidate_d))
    if not cands or any(d < 1 for d in cands):
        raise InvalidArgumentError(f"candidate differences must be positive: {cands}")
    base = lengths.min
    fits = (
        fit_aamp(lengths, d, {0, d, *((x - base) % d for x in lengths.values)})
        for d in cands
    )
    return min(fits, key=lambda fit: (fit.bound, fit.difference))


# -- whole-system verification -------------------------------------------------


@dataclass(frozen=True)
class StructureFitReport:
    """verify_structure_theorem output: the fits of every computed length set."""

    group: FiniteAbelianGroup
    bound: int
    candidates: tuple[int, ...]
    max_bound: int
    witness: LengthSet | None
    witness_fit: AAMPFit | None
    histogram: tuple[tuple[tuple[int, int, int], int], ...]  # (d, |D|, M) -> count
    round_trip_failures: tuple[LengthSet, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.round_trip_failures


def verify_structure_theorem(group: FiniteAbelianGroup, bound: int) -> StructureFitReport:
    """Fit every L in system(G, bound) as an AAMP with difference drawn from
    the same system's distances, and report the largest bound M needed."""
    sys = system(group, None, bound)
    candidates = sys.distances() or (1,)
    max_bound = -1
    witness = None
    witness_fit = None
    hist: dict[tuple[int, int, int], int] = {}
    bad_round_trips = []
    for ls in sys.length_sets():
        fit = best_aamp(ls, candidates)
        if fit.reconstruct() != ls:
            bad_round_trips.append(ls)
        key = (fit.difference, len(fit.period), fit.bound)
        hist[key] = hist.get(key, 0) + 1
        if fit.bound > max_bound:
            max_bound = fit.bound
            witness = ls
            witness_fit = fit
    return StructureFitReport(
        group,
        bound,
        candidates,
        max(max_bound, 0),
        witness,
        witness_fit,
        tuple(sorted(hist.items())),
        tuple(bad_round_trips),
    )


@dataclass(frozen=True)
class UnionsStructureReport:
    """verify_unions_structure output: AAP shape of each U_k plus the density
    trend toward (rho - 1/rho)/d."""

    group: FiniteAbelianGroup
    ks: tuple[int, ...]
    difference: int
    unions: tuple[UnionOfLengths, ...]
    aap_bounds: tuple[int, ...]
    all_intervals: bool
    density_target: Fraction
    density_rows: tuple[tuple[int, Fraction], ...]  # (k, |U_k|/k)
    settles_by: int | None  # least k from which ratios stay within tolerance
    tolerance: Fraction

    @property
    def ok(self) -> bool:
        return self.all_intervals and all(m == 0 for m in self.aap_bounds)


def verify_unions_structure(group: FiniteAbelianGroup, k_max: int) -> UnionsStructureReport:
    """Check each U_k is an AAP with difference min Delta (an interval for a
    finite abelian group), and track |U_k|/k against the limit density.

    The density check is a trend statement on the computed range: it
    records the first k from which every later computed ratio stays within
    DENSITY_TOLERANCE of the limit value.
    """
    unions = unions_range(group, k_max)
    # min Delta(G) = 1 whenever B(G) is not half-factorial (|G| >= 3); for
    # |G| <= 2 all unions are singletons and d = 1 fits them degenerately.
    d = 1
    aap_bounds = []
    for k in sorted(unions):
        aap_bounds.append(fit_aamp(LengthSet.of(unions[k].values), d, (0, d)).bound)
    rho = elasticity(group)
    target = (rho - 1 / rho) / d
    rows = tuple(
        (k, Fraction(len(unions[k].values), k)) for k in sorted(unions)
    )
    settles_by = None
    for i, (k, ratio) in enumerate(rows):
        if all(abs(r - target) <= DENSITY_TOLERANCE for _, r in rows[i:]):
            settles_by = k
            break
    return UnionsStructureReport(
        group=group,
        ks=tuple(sorted(unions)),
        difference=d,
        unions=tuple(unions[k] for k in sorted(unions)),
        aap_bounds=tuple(aap_bounds),
        all_intervals=all(u.is_interval() for u in unions.values()),
        density_target=target,
        density_rows=rows,
        settles_by=settles_by,
        tolerance=DENSITY_TOLERANCE,
    )
