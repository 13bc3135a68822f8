"""Numerical monoids: cofinite additive submonoids of the nonnegative integers.

Membership, minimal generators and the Frobenius bound are read off one
Apery set: apery[r] is the least element congruent to r modulo the least
generator n1, built by one round-robin pass per generator (Boecker and
Liptak, "A fast and simple algorithm for the money changing problem"), so
n lies in the monoid iff n >= apery[n % n1].

Length sets are tabulated bottom-up as bitmasks, L(m) = 1 + union of L(m - g)
over the minimal generators g, keeping only the last max(generators) masks.
Row m costs #generators ors of masks about m/n1 bits wide, so a table to n is
quadratic in n.  num_length_set runs it to at most N + n1*nk rows, where N
is the point past which L(m + n1*nk) = (n1 + L(m)) | (nk + L(m)), and adds
the rest of n as an arithmetic progression in O(log n) shifted ors as wide
as the answer.  accumulated_delta reads the whole table to its bound, and
is the oracle the shift identity is tested against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Iterator

from .atoms import CAPS
from .errors import InvalidArgumentError, ResourceLimitError
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
    """Exact L(n) = { sum k_i : sum k_i*g_i = n }; L(0) = {0}.

    With t generators n1 < ... < nk (k = t), P = n1*nk and
    N = P + (t-2)*(nk-n1)*nk, every m >= N has

        L(m + P) = (n1 + L(m)) | (nk + L(m)).

    Proof.  ⊇: a factorization of m gains n1*nk either as nk copies of n1
    (nk more atoms) or as n1 copies of nk (n1 more).  ⊆: take a
    factorization of m + P with a_i copies of n_i.  While a middle
    generator n_i (1 < i < t) has nk - n1 copies or more, trade nk - n1 of
    them for nk - n_i copies of n1 and n_i - n1 copies of nk: the value,
    (nk-n1)*n_i = (nk-n_i)*n1 + (n_i-n1)*nk, and the length, nk - n1, stay,
    and the middle count drops, so the trading ends.  Then each middle
    generator has fewer than nk - n1 copies, so the middle part is worth
    less than (t-2)*(nk-n1)*nk when t > 2 and nothing when t = 2, and
    a_1*n1 + a_t*nk >= m + P - (t-2)*(nk-n1)*nk >= N + P - (t-2)*(nk-n1)*nk
    = 2P.  If a_1 < nk and a_t < n1 this sum would be at most
    (nk-1)*n1 + (n1-1)*nk < 2P; so a_1 >= nk, and dropping nk copies of n1
    leaves a factorization of m, the length being in nk + L(m); or
    a_t >= n1, and dropping n1 copies of nk puts it in n1 + L(m).  For
    t = 1 (the monoid N0 = <1>) N = 1 and both sides are 1 + L(m).

    By induction on q, with d = nk - n1 and m >= N,
    L(m + q*P) = L(m) + {q*n1 + i*d : 0 <= i <= q}.  So n >= N is
    written n = n0 + q*P with N <= n0 < N + P: the table runs only to n0,
    which is a member as n0 >= P exceeds the Frobenius number, and the
    progression is added to its mask by O(log q) shifted ors.

    The table's rows, n0 + 1, and the answer's span,
    n // n1 - ceil(n / nk) + 1, are each held to the memo cap in force
    (atoms.limits): one that passes it is refused with ResourceLimitError
    before any row is built.  Nothing is charged."""
    if not contains(monoid, n):
        raise InvalidArgumentError(f"{n} is not in {monoid}")
    gens = monoid.generators
    n1, nk = gens[0], gens[-1]
    period = n1 * nk
    start = period + (len(gens) - 2) * (nk - n1) * nk
    q, n0 = 0, n
    if n >= start:
        q, n0 = divmod(n - start, period)
        n0 += start
    cap = CAPS.get()[1]
    need = max(n0 + 1, n // n1 + (-n // nk) + 1)
    if need > cap:
        raise ResourceLimitError("numerical table", cap, need)
    for mask in _length_masks(monoid, n0):
        pass
    return LengthSet.from_mask(_add_progression(mask, q + 1, nk - n1) << q * n1)


def _add_progression(mask: int, count: int, step: int) -> int:
    """mask + {0, step, ..., (count - 1)*step} in O(log count) shifted ors:
    block is mask plus the first size terms, size doubling, and each set
    bit of count ors one block in at the next offset."""
    out, offset, block, size = 0, 0, mask, 1
    while count:
        if count & 1:
            out |= block << offset
            offset += size * step
        count >>= 1
        if count:
            block |= block << size * step
            size *= 2
    return out


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
    table (the bottom-up recursion of Barron, O'Neill and Pelayo).

    Many members share a length set, and the rows are read in blocks of
    nk: the gaps of a mask are read once per block, and not at all when
    the block before held it.  The repeats lie that close on every monoid
    tested (<11,13,29,31> to 1000: 965 members, 136 masks, 136 reads);
    one further back is only read again, and memory stays that of the
    table's window."""
    rows = _length_masks(monoid, bound)
    gaps: set[int] = set()
    last: set[int] = set()
    while block := set(islice(rows, monoid.generators[-1])):
        block.discard(0)
        gaps.update(*map(mask_gaps, block - last))
        last = block
    return tuple(sorted(gaps))
