"""Numerical monoids: cofinite additive submonoids of the nonnegative integers.

Membership, minimal generators and the Frobenius bound are read off one
Apery set: apery[r] is the least element congruent to r modulo the least
generator n1, built by one round-robin pass per generator (Boecker and
Liptak, "A fast and simple algorithm for the money changing problem"), so
n lies in the monoid iff n >= apery[n % n1].

Length sets are tabulated bottom-up as bitmasks, L(n) = 1 + union of L(n - g)
over the minimal generators g: O(n * #generators) bitwise ors, of which only
the last max(generators) masks are kept.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .errors import InvalidArgumentError
from .lengths import LengthSet, mask_gaps
from .record import Record


class NumericalMonoid(Record):
    """<n1,...,nt> with gcd 1, generators minimal and sorted ascending.  The
    frobenius_bound is the largest integer outside the monoid (-1 for N0);
    apery[r], the least member congruent to r mod n1, is not compared."""

    __slots__ = ("generators", "frobenius_bound", "apery")
    _fields = __slots__[:2]

    def __str__(self):
        return "<" + ",".join(str(n) for n in self.generators) + ">"


def _apery(gens: list[int]) -> list[int]:
    """The Apery set of <gens> with respect to its least generator n1: one
    round-robin pass per further generator g walks each cycle r, r + g, ...
    of residues mod n1 from the cycle's least entry."""
    n1 = gens[0]
    apery = [0] + [math.inf] * (n1 - 1)
    for g in gens[1:]:
        d = math.gcd(n1, g)
        for p in range(d):
            n = min(apery[p::d])
            if n == math.inf:
                continue
            for _ in range(n1 // d - 1):
                n += g
                r = n % n1
                n = apery[r] = min(n, apery[r])
    return apery


def make_numerical(raw_gens) -> NumericalMonoid:
    """Build the monoid from its Apery set, dropping redundant generators:
    g is redundant iff g - h is a member for a smaller generator h."""
    gens = sorted(set(raw_gens))
    if not gens:
        raise InvalidArgumentError("at least one generator required")
    if any(not isinstance(g, int) or isinstance(g, bool) or g <= 0 for g in gens):
        raise InvalidArgumentError(f"generators must be positive integers: {raw_gens}")
    if math.gcd(*gens) != 1:
        raise InvalidArgumentError(f"gcd of generators must be 1: {gens}")
    apery = tuple(_apery(gens))
    n1 = gens[0]
    minimal = tuple(
        g for g in gens if not any(g - h >= apery[(g - h) % n1] for h in gens if h < g)
    )
    return NumericalMonoid(minimal, max(apery) - n1, apery)


def contains(monoid: NumericalMonoid, n: int) -> bool:
    apery = monoid.apery
    return n >= 0 and n >= apery[n % len(apery)]


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
