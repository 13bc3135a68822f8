"""Finite abelian groups in invariant-factor form, with element arithmetic.

Every group is canonicalized at construction to C_{n1} + ... + C_{nr} with
1 < n1 | n2 | ... | nr, so structural equality coincides with isomorphism
and groups can serve as cache keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, product, repeat

from .errors import InvalidArgumentError, ResourceLimitError

# All downstream enumeration is exponential in the group order; this cap
# keeps the toolkit at desk scale.  Pass max_order=None to lift it.
DEFAULT_MAX_ORDER = 64


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """Prime-power decomposition of n >= 2 as (prime, exponent) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """C_{n1} + ... + C_{nr}; the empty factor tuple is the trivial group."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        facs = self.invariant_factors
        if any(n <= 1 for n in facs):
            raise InvalidArgumentError(f"invariant factors must exceed 1: {facs}")
        if any(facs[i + 1] % facs[i] != 0 for i in range(len(facs) - 1)):
            raise InvalidArgumentError(f"divisibility chain violated: {facs}")

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    def element(self, coords) -> "GroupElement":
        """Build an element, reducing each coordinate modulo its factor."""
        coords = tuple(coords)
        if len(coords) != self.rank:
            raise InvalidArgumentError(
                f"expected {self.rank} coordinates, got {len(coords)}"
            )
        reduced = tuple(a % n for a, n in zip(coords, self.invariant_factors))
        return GroupElement(self, reduced)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def __str__(self):
        if not self.invariant_factors:
            return "C1"
        return "+".join(f"C{n}" for n in self.invariant_factors)


@dataclass(frozen=True)
class GroupElement:
    """An element of its group, coordinates reduced modulo the factors."""

    group: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self):
        facs = self.group.invariant_factors
        if len(self.coords) != len(facs):
            raise InvalidArgumentError("coordinate count does not match group rank")
        if any(not (0 <= a < n) for a, n in zip(self.coords, facs)):
            raise InvalidArgumentError(f"coordinates not reduced: {self.coords}")

    def __hash__(self):
        # equal elements have equal coords; equality still compares the group
        return hash(self.coords)

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return add(self, other)

    def __neg__(self) -> "GroupElement":
        return neg(self)

    def __str__(self):
        if len(self.coords) == 1:
            return str(self.coords[0])
        return "(" + ",".join(str(a) for a in self.coords) + ")"


def make_group(moduli, max_order: int | None = DEFAULT_MAX_ORDER) -> FiniteAbelianGroup:
    """Canonicalize the direct sum of cyclic groups C_m for m in moduli.

    The moduli are split into prime powers and greedily recombined into a
    divisibility chain; factors equal to 1 are dropped.
    """
    by_prime: dict[int, list[int]] = {}
    for m in moduli:
        if not isinstance(m, int) or isinstance(m, bool) or m <= 0:
            raise InvalidArgumentError(f"modulus must be a positive integer: {m!r}")
        for p, e in _prime_powers(m):
            by_prime.setdefault(p, []).append(e)
    depth = max((len(v) for v in by_prime.values()), default=0)
    chain = []
    for j in range(depth):
        f = 1
        for p, exps in by_prime.items():
            exps_desc = sorted(exps, reverse=True)
            if j < len(exps_desc):
                f *= p ** exps_desc[j]
        chain.append(f)
    group = FiniteAbelianGroup(tuple(reversed(chain)))
    if max_order is not None and group.order > max_order:
        raise ResourceLimitError("group order", max_order, group.order)
    return group


def add(a: GroupElement, b: GroupElement) -> GroupElement:
    if a.group != b.group:
        raise InvalidArgumentError("elements belong to different groups")
    facs = a.group.invariant_factors
    return GroupElement(
        a.group, tuple((x + y) % n for x, y, n in zip(a.coords, b.coords, facs))
    )


def neg(a: GroupElement) -> GroupElement:
    facs = a.group.invariant_factors
    return GroupElement(a.group, tuple((-x) % n for x, n in zip(a.coords, facs)))


def zero(group: FiniteAbelianGroup) -> GroupElement:
    return group.zero()


def order_of(g: GroupElement) -> int:
    """Least k >= 1 with k*g = 0: lcm over coordinates of n_i/gcd(a_i, n_i)."""
    facs = g.group.invariant_factors
    return math.lcm(1, *(n // math.gcd(a, n) for a, n in zip(g.coords, facs)))


@lru_cache(maxsize=None)
def elements(group: FiniteAbelianGroup) -> tuple[GroupElement, ...]:
    """All elements in lexicographic coordinate order; first is zero."""
    ranges = [range(n) for n in group.invariant_factors]
    return tuple(GroupElement(group, coords) for coords in product(*ranges))


class _Tables:
    """Index-based arithmetic tables for the enumeration engines."""

    __slots__ = ("index", "add", "neg", "order", "exp", "mult")

    def __init__(self, group: FiniteAbelianGroup):
        els = elements(group)
        self.index = {g: i for i, g in enumerate(els)}
        self.add = add_t = tuple(
            tuple(self.index[add(a, b)] for b in els) for a in els
        )
        self.neg = tuple(self.index[neg(a)] for a in els)
        self.order = tuple(order_of(a) for a in els)
        # mult[i][k] = k * element i for k < exp(G): m copies sum to mult[i][m % exp]
        self.exp = max(group.invariant_factors, default=1)
        self.mult = tuple(
            tuple(accumulate(repeat(i, self.exp - 1), lambda x, y: add_t[x][y], initial=0))
            for i in range(len(els))
        )


@lru_cache(maxsize=None)
def tables(group: FiniteAbelianGroup) -> _Tables:
    return _Tables(group)


def automorphisms(
    group: FiniteAbelianGroup, fixing=None, limit: int | None = None
) -> list[tuple[int, ...]] | None:
    """The automorphisms of the group that map the set `fixing` of element
    indices (into elements(group)) onto itself, all of them when it is
    None.  Each is a permutation s of element indices, s[i] the index of
    the image of element i; the identity comes first.  None when there
    are more than `limit`: the search stops there, as C2^5 alone has about
    10M.

    An automorphism is fixed by the images g_t of the basis e_t of the
    invariant factors, so they are chosen by backtracking: g_t needs
    n_t * g_t = 0 and no multiple j * g_t, 0 < j < n_t, in the image of
    the span of e_1..e_(t-1), which is then a subgroup of the same order.
    A branch is dropped as soon as a newly spanned element and its image
    differ in a signature that every automorphism fixing the set keeps:
    membership, and how many members sum with the element into the set.
    """
    tab = tables(group)
    add, size = tab.add, group.order
    inside = [fixing is None] * size
    for i in fixing or ():
        inside[i] = True
    members = [y for y in range(size) if inside[y]]
    # kept by every automorphism that fixes the set: whether x is in it, and
    # how many y in it have x + y in it
    signature = [(inside[x], sum(inside[add[x][y]] for y in members)) for x in range(size)]
    strides, stride = [], size
    for n in group.invariant_factors:
        stride //= n
        strides.append(stride)
    image = [0] * size
    used = [False] * size  # the image of the span so far
    used[0] = True
    span = [0]  # indices of the span of e_1..e_t, the zero element first
    found: list[tuple[int, ...]] = []

    def rec(t: int) -> bool:
        # False once more than `limit` have been found
        if t == group.rank:
            found.append(tuple(image))
            return limit is None or len(found) <= limit
        n, step, base = group.invariant_factors[t], strides[t], len(span)
        for g in range(1, size):
            mult, ok = tab.mult[g], True
            if mult[n % tab.exp] or any(used[mult[j]] for j in range(1, n)):
                continue  # n * g != 0, or some j * g, 0 < j < n, is hit
            for j in range(1, n):
                for h in span[:base]:
                    i = h + j * step
                    y = image[i] = add[image[i - step]][g]
                    if signature[i] != signature[y]:
                        ok = False
                        break
                    used[y] = True
                    span.append(i)
                if not ok:
                    break
            if ok and not rec(t + 1):
                return False
            for i in span[base:]:
                used[image[i]] = False
            del span[base:]
        return True

    if not rec(0):
        return None
    identity = tuple(range(size))
    found.sort(key=lambda s: s != identity)  # stable: the identity first
    return found
