"""Sets of lengths and the memoized factorization engine.

L(B) is computed by the recursion L(B) = union over atoms A | B containing
a fixed pivot element of 1 + L(B/A), with L(empty) = {0}.  Restricting to
atoms that cover the pivot loses no lengths (every factorization covers
each copy of the pivot with exactly one atom) and removes permutation
blowup.  Length sets are carried as integer bitmasks inside the engine, so
the union is a bitwise or and "1 +" is a shift.

The atoms dividing B are found with one DominanceIndex per pivot bucket:
bit j of the AND over letters of below[i][B[i]] marks bucket atom j
dividing B, and a letter whose count in B reaches the bucket's largest
entry for it constrains nothing, so it is skipped.  The recursion runs on
an explicit stack of (vector, divisor bits still to visit, bucket, partial
mask) frames, so its depth does not depend on the length of B.  Bits are
visited low to high, which is bucket order: the children, and the memo
entries stored, are those of the plain recursion.

engine_for keeps one engine per memo limit on the AtomSet itself, so the
memo lives as long as the atom set and there is no module-level table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Iterable

from .atoms import AtomSet, DominanceIndex
from .errors import InvalidArgumentError, ResourceLimitError
from .sequence import Sequence, is_zero_sum

DEFAULT_MEMO_LIMIT = 10**7


@dataclass(frozen=True)
class LengthSet:
    """A finite nonempty set of nonnegative integers, stored sorted."""

    values: tuple[int, ...]

    def __post_init__(self):
        vals = self.values
        if not vals:
            raise InvalidArgumentError("a length set is nonempty")
        if any(not isinstance(x, int) or x < 0 for x in vals):
            raise InvalidArgumentError(f"lengths must be nonnegative integers: {vals}")
        if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
            raise InvalidArgumentError(f"lengths must be strictly increasing: {vals}")

    @classmethod
    def of(cls, values: Iterable[int]) -> "LengthSet":
        return cls(tuple(sorted(set(values))))

    @classmethod
    def from_mask(cls, mask: int) -> "LengthSet":
        if mask <= 0:
            raise InvalidArgumentError("empty bitmask")
        return cls(tuple(i for i in range(mask.bit_length()) if mask >> i & 1))

    def to_mask(self) -> int:
        return sum(1 << v for v in self.values)

    @property
    def min(self) -> int:
        return self.values[0]

    @property
    def max(self) -> int:
        return self.values[-1]

    def is_interval(self) -> bool:
        return self.max - self.min + 1 == len(self.values)

    def __contains__(self, x: int) -> bool:
        return x in set(self.values)

    def __len__(self):
        return len(self.values)

    def __str__(self):
        return "{" + ",".join(str(v) for v in self.values) + "}"


def delta_of(lengths: LengthSet) -> tuple[int, ...]:
    """The set of successive gaps, empty iff the set is a singleton."""
    vals = lengths.values
    return tuple(sorted({b - a for a, b in zip(vals, vals[1:])}))


def mask_gaps(mask: int) -> set[int]:
    """delta_of for a length set given as a bitmask: the gaps between
    successive set bits."""
    if mask <= 0:
        raise InvalidArgumentError("empty bitmask")
    gaps = set()
    low = mask & -mask
    mask ^= low
    while mask:
        nxt = mask & -mask
        gaps.add(nxt.bit_length() - low.bit_length())
        mask ^= nxt
        low = nxt
    return gaps


def elasticity_of(lengths: LengthSet):
    """max/min as an exact Fraction; {0} maps to 1, other 0-sets to infinity."""
    if lengths.min == 0:
        return Fraction(1) if lengths.max == 0 else math.inf
    return Fraction(lengths.max, lengths.min)


def sumset(a: LengthSet, b: LengthSet) -> LengthSet:
    return LengthSet.of(x + y for x in a.values for y in b.values)


def shift(lengths: LengthSet, m: int) -> LengthSet:
    if lengths.min + m < 0:
        raise InvalidArgumentError(f"shift by {m} leaves nonnegative range")
    return LengthSet.of(x + m for x in lengths.values)


def dilate(k: int, lengths: LengthSet) -> LengthSet:
    if not isinstance(k, int) or k < 0:
        raise InvalidArgumentError(f"dilation factor must be nonnegative: {k!r}")
    return LengthSet.of(k * x for x in lengths.values)


class FactorizationEngine:
    """Memoized set-of-lengths computation over a fixed atom list.

    The memo is keyed by dense exponent vectors and shared across calls, so
    whole-system scans reuse subproblems.
    """

    def __init__(self, atom_vectors: Iterable[tuple[int, ...]], memo_limit: int = DEFAULT_MEMO_LIMIT):
        vectors = [tuple(v) for v in atom_vectors]
        if not vectors:
            raise InvalidArgumentError("engine needs at least one atom")
        width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise InvalidArgumentError("atom vectors of mixed width")
        self.width = width
        self.memo_limit = memo_limit
        self._by_pivot = [
            [v for v in vectors if v[i] > 0] for i in range(width)
        ]
        self._divisors = [_divisor_rows(bucket, width) for bucket in self._by_pivot]
        self._memo: dict[tuple[int, ...], int] = {(0,) * width: 1}

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def _dividing(self, vec: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
        """Bits of the pivot bucket atoms dividing a nonzero vec, and the bucket."""
        pivot = 0
        while not vec[pivot]:
            pivot += 1
        bits, rows = self._divisors[pivot]
        for i, row, cap in rows:
            v = vec[i]
            if v < cap:
                bits &= row[v]
                if not bits:
                    break
        return bits, self._by_pivot[pivot]

    def lengths_mask(self, vec: tuple[int, ...]) -> int:
        """Bitmask of L(vec); 0 when no factorization exists.

        Every frame on the stack is a vector not yet in the memo that will
        be stored there, so a new frame is refused once the memo and the
        stack together would pass memo_limit: the limit then bounds the
        stack too, and fires for exactly the queries that would overflow
        the memo.
        """
        memo = self._memo
        cached = memo.get(vec)
        if cached is not None:
            return cached
        limit = self.memo_limit
        if len(memo) >= limit:
            raise ResourceLimitError("memo table", limit)
        dividing = self._dividing
        stack: list[tuple[tuple[int, ...], int, list[tuple[int, ...]], int]] = []
        bits, bucket = dividing(vec)
        mask = 0
        while True:
            while bits:
                low = bits & -bits
                bits ^= low
                child = tuple(map(sub, vec, bucket[low.bit_length() - 1]))
                child_mask = memo.get(child)
                if child_mask is None:
                    if len(memo) + len(stack) + 1 >= limit:
                        raise ResourceLimitError("memo table", limit)
                    stack.append((vec, bits, bucket, mask))
                    vec = child
                    bits, bucket = dividing(vec)
                    mask = 0
                else:
                    mask |= child_mask << 1
            memo[vec] = mask
            if not stack:
                return mask
            child_mask = mask
            vec, bits, bucket, mask = stack.pop()
            mask |= child_mask << 1


def _divisor_rows(bucket: list[tuple[int, ...]], width: int):
    """All bits of a bucket's DominanceIndex, and (letter, below row, cap)
    for the letters some bucket atom uses; a count at or above the cap
    passes every atom."""
    caps = [max((a[i] for a in bucket), default=0) for i in range(width)]
    index = DominanceIndex(caps)
    for a in bucket:
        index.add(a)
    rows = [(i, row, caps[i]) for i, row in enumerate(index.below) if caps[i]]
    return (1 << index.size) - 1, rows


def engine_for(atoms: AtomSet, memo_limit: int = DEFAULT_MEMO_LIMIT) -> FactorizationEngine:
    """The atom set's engine for this memo limit; memo tables persist across calls."""
    engine = atoms.engines.get(memo_limit)
    if engine is None:
        engine = atoms.engines[memo_limit] = FactorizationEngine(atoms.vectors(), memo_limit)
    return engine


def length_set(b: Sequence, atoms: AtomSet, memo_limit: int = DEFAULT_MEMO_LIMIT) -> LengthSet:
    """Exact L(B) for a zero-sum sequence B over the atom set's subset."""
    if not is_zero_sum(b):
        raise InvalidArgumentError(f"sequence {b} is not zero-sum")
    vec = b.dense_at(atoms.positions)  # raises if support leaves the subset
    mask = engine_for(atoms, memo_limit).lengths_mask(vec)
    if mask == 0:
        raise InvalidArgumentError(f"{b} has no factorization over the given atoms")
    return LengthSet.from_mask(mask)


def exhaustive_length_set(b: Sequence, atoms: AtomSet) -> LengthSet:
    """Independent oracle: walk every ordered factorization into atoms.

    No memoization and no pivot restriction; exponential, for cross-checks
    on short sequences only.
    """
    if not is_zero_sum(b):
        raise InvalidArgumentError(f"sequence {b} is not zero-sum")
    vectors = atoms.vectors()
    start = b.dense(atoms.subset)

    def walk(vec: tuple[int, ...]) -> set[int]:
        if not any(vec):
            return {0}
        out: set[int] = set()
        for a in vectors:
            if all(x <= y for x, y in zip(a, vec)):
                child = tuple(y - x for x, y in zip(a, vec))
                out.update(1 + k for k in walk(child))
        return out

    lengths = walk(start)
    if not lengths:
        raise InvalidArgumentError(f"{b} has no factorization over the given atoms")
    return LengthSet.of(lengths)
