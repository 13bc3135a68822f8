"""Numerical monoids: cofinite additive submonoids of the nonnegative integers.

Length sets are tabulated bottom-up as bitmasks, L(n) = 1 + union of L(n - g)
over the minimal generators g: O(n * #generators) bitwise ors, of which only
the last max(generators) masks are kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import InvalidArgumentError
from .lengths import LengthSet, mask_gaps


@dataclass(frozen=True)
class NumericalMonoid:
    """<n1,...,nt> with gcd 1, generators minimal and sorted ascending."""

    generators: tuple[int, ...]
    frobenius_bound: int  # largest integer outside the monoid; -1 for N0

    def __str__(self):
        return "<" + ",".join(str(n) for n in self.generators) + ">"


def _reachable(target: int, gens: tuple[int, ...]) -> bool:
    table = [False] * (target + 1)
    table[0] = True
    for n in range(1, target + 1):
        table[n] = any(n >= g and table[n - g] for g in gens)
    return table[target]


def make_numerical(raw_gens) -> NumericalMonoid:
    """Build the monoid, dropping redundant generators and computing the
    Frobenius bound by an Apery-style sweep modulo the least generator."""
    gens = sorted(set(raw_gens))
    if not gens:
        raise InvalidArgumentError("at least one generator required")
    if any(not isinstance(g, int) or g <= 0 for g in gens):
        raise InvalidArgumentError(f"generators must be positive integers: {raw_gens}")
    if math.gcd(*gens) != 1:
        raise InvalidArgumentError(f"gcd of generators must be 1: {gens}")
    minimal: list[int] = []
    for i, g in enumerate(gens):
        others = tuple(h for j, h in enumerate(gens) if j != i)
        if not others or not _reachable(g, others):
            minimal.append(g)
    gens = tuple(minimal)

    n1 = gens[0]
    if n1 == 1:
        return NumericalMonoid((1,), -1)
    # apery[r] = least element of the monoid congruent to r mod n1
    INF = math.inf
    apery = [INF] * n1
    apery[0] = 0
    # relax residue classes until stable; bounded by n1 rounds
    for _ in range(n1):
        changed = False
        for r in range(n1):
            if apery[r] == INF:
                continue
            for g in gens[1:]:
                cand = apery[r] + g
                rr = cand % n1
                if cand < apery[rr]:
                    apery[rr] = cand
                    changed = True
        if not changed:
            break
    frobenius = int(max(apery)) - n1
    return NumericalMonoid(gens, frobenius)


def contains(monoid: NumericalMonoid, n: int) -> bool:
    if n < 0:
        return False
    return n > monoid.frobenius_bound or _reachable(n, monoid.generators)


def num_length_set(monoid: NumericalMonoid, n: int) -> LengthSet:
    """Exact L(n) = { sum k_i : sum k_i*g_i = n }; L(0) = {0}."""
    if not contains(monoid, n):
        raise InvalidArgumentError(f"{n} is not in {monoid}")
    for mask in _length_masks(monoid, n):
        pass
    return LengthSet.from_mask(mask)


def _length_masks(monoid: NumericalMonoid, bound: int) -> Iterator[int]:
    """The bitmask of L(m) for m = 0, 1, ..., bound in turn; 0 marks m
    outside the monoid."""
    gens = monoid.generators
    top = gens[-1]
    # window[-g] is the mask of m - g; the leading zeros stand for m - g < 0
    window = [0] * (top - 1) + [1]
    yield 1
    for _ in range(bound):
        mask = 0
        for g in gens:
            mask |= window[-g]
        window.append(mask << 1)
        if len(window) > 2 * top:
            del window[:top]
        yield window[-1]


def num_elasticity(monoid: NumericalMonoid) -> Fraction:
    """Closed form n_t/n_1."""
    gens = monoid.generators
    return Fraction(gens[-1], gens[0])


def num_min_delta(monoid: NumericalMonoid) -> int | None:
    """Closed form gcd of consecutive generator differences; None when the
    monoid is free (single generator, empty distance set)."""
    gens = monoid.generators
    if len(gens) == 1:
        return None
    return math.gcd(*(b - a for a, b in zip(gens, gens[1:])))


def accumulated_delta(monoid: NumericalMonoid, bound: int) -> tuple[int, ...]:
    """Union of Delta(L(n)) over members n <= bound, read off one length
    table (the bottom-up recursion of Barron, O'Neill and Pelayo)."""
    gaps: set[int] = set()
    for mask in _length_masks(monoid, bound):
        if mask:
            gaps |= mask_gaps(mask)
    return tuple(sorted(gaps))
