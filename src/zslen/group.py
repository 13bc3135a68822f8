"""Finite abelian groups in invariant-factor form, with element arithmetic.

Every group is canonicalized at construction to C_{n1} + ... + C_{nr} with
1 < n1 | n2 | ... | nr, so structural equality coincides with isomorphism
and groups can serve as cache keys.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, product, repeat

from .errors import InvalidArgumentError, ResourceLimitError
from .record import Record, _set

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


class FiniteAbelianGroup(Record):
    """C_{n1} + ... + C_{nr}; the empty factor tuple is the trivial group.

    Equality compares the factor tuples and the hash is stored at
    construction: every tables(group) lookup pays one of each."""

    __slots__ = ("invariant_factors", "_hash")
    _fields = _args = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...]):
        facs = invariant_factors
        if any(n <= 1 for n in facs):
            raise InvalidArgumentError(f"invariant factors must exceed 1: {facs}")
        if any(facs[i + 1] % facs[i] != 0 for i in range(len(facs) - 1)):
            raise InvalidArgumentError(f"divisibility chain violated: {facs}")
        _set(self, "invariant_factors", facs)
        _set(self, "_hash", hash(facs))

    def __eq__(self, other):
        if other.__class__ is FiniteAbelianGroup:
            return self.invariant_factors == other.invariant_factors
        return NotImplemented

    def __ne__(self, other):
        if other.__class__ is FiniteAbelianGroup:
            return self.invariant_factors != other.invariant_factors
        return NotImplemented

    def __hash__(self):
        return self._hash

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


class GroupElement(Record):
    """An element of its group, coordinates reduced modulo the factors.

    Equality compares the coordinates, then the groups' factor tuples, and
    the hash, of the coordinates alone, is stored at construction."""

    __slots__ = ("group", "coords", "_hash")
    _fields = _args = ("group", "coords")

    def __init__(self, group: FiniteAbelianGroup, coords: tuple[int, ...]):
        facs = group.invariant_factors
        if len(coords) != len(facs):
            raise InvalidArgumentError("coordinate count does not match group rank")
        if any(not (0 <= a < n) for a, n in zip(coords, facs)):
            raise InvalidArgumentError(f"coordinates not reduced: {coords}")
        _set(self, "group", group)
        _set(self, "coords", coords)
        _set(self, "_hash", hash(coords))

    def __eq__(self, other):
        if other.__class__ is GroupElement:
            return (self.coords == other.coords
                    and self.group.invariant_factors == other.group.invariant_factors)
        return NotImplemented

    def __hash__(self):
        return self._hash

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
    """Index-based arithmetic tables for the enumeration engines.

    Element i of elements(group) has the mixed-radix digits of i as its
    coordinates (the last factor varies fastest), so the tables are built
    one factor at a time by integer arithmetic on indices, with no
    GroupElement arithmetic.  level[i] places element i in a chain of
    subgroups {0} = H_0 < H_1 < ... < H_t = G of prime indices: it is the
    least j with element i in H_j.  H_(j+1) = H_j + <g>, g the first element
    outside H_j whose order modulo H_j is least; that order is the least
    prime p dividing [G : H_j], as G/H_j has an element of order p."""

    __slots__ = ("index", "add", "neg", "order", "exp", "mult", "level")

    def __init__(self, group: FiniteAbelianGroup):
        self.index = {g: i for i, g in enumerate(elements(group))}
        add_t, neg_t, order_t = [(0,)], [0], [1]
        for n in group.invariant_factors:
            cyclic = [[(c + d) % n for d in range(n)] for c in range(n)]
            add_t = [
                tuple([b * n + e for b in row for e in crow]) for row in add_t for crow in cyclic
            ]
            neg_t = [b * n + (-c) % n for b in neg_t for c in range(n)]
            order_t = [math.lcm(o, n // math.gcd(c, n)) for o in order_t for c in range(n)]
        self.add, self.neg, self.order = tuple(add_t), tuple(neg_t), tuple(order_t)
        # mult[i][k] = k * element i for k < exp(G): m copies sum to mult[i][m % exp]
        self.exp = exp = max(group.invariant_factors, default=1)
        self.mult = tuple(
            tuple(accumulate(repeat(i, exp - 1), lambda x, y: add_t[x][y], initial=0))
            for i in range(len(add_t))
        )
        size = len(add_t)
        level = [0] + [-1] * (size - 1)  # -1: not yet in the chain
        span, j = [0], 0  # span: the elements of H_j
        for p, e in _prime_powers(size):
            for _ in range(e):
                g = next(
                    x for x in range(size) if level[x] < 0 and level[self.mult[x][p % exp]] >= 0
                )
                j += 1
                step = self.mult[g]
                new = [add_t[h][step[k]] for k in range(1, p) for h in span]
                for x in new:
                    level[x] = j
                span += new
        self.level = tuple(level)


@lru_cache(maxsize=None)
def tables(group: FiniteAbelianGroup) -> _Tables:
    return _Tables(group)


def automorphisms(group: FiniteAbelianGroup, *, limit: int | None = None) -> list[tuple[int, ...]] | None:
    """The automorphisms of the group, each a permutation s of element
    indices (into elements(group)), s[i] the index of the image of element
    i; the identity comes first.  None when there are more than `limit`:
    the search stops there, as C2^5 alone has about 10M.

    An automorphism is fixed by the images g_t of the basis e_t of the
    invariant factors, so they are chosen by backtracking: g_t needs
    n_t * g_t = 0 and no multiple j * g_t, 0 < j < n_t, in the image of
    the span of e_1..e_(t-1), which is then a subgroup of the same order.
    """
    tab = tables(group)
    add, size = tab.add, group.order
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
            mult = tab.mult[g]
            if mult[n % tab.exp] or any(used[mult[j]] for j in range(1, n)):
                continue  # n * g != 0, or some j * g, 0 < j < n, is hit
            for j in range(1, n):
                for h in span[:base]:
                    i = h + j * step
                    y = image[i] = add[image[i - step]][g]
                    used[y] = True
                    span.append(i)
            if not rec(t + 1):
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
