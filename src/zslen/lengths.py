"""Sets of lengths and the memoized factorization engine.

L(B) is computed by the recursion L(B) = union over atoms A | B containing
a fixed pivot element of 1 + L(B/A), with L(empty) = {0}.  Restricting to
atoms that cover the pivot loses no lengths (every factorization covers
each copy of the pivot with exactly one atom) and removes permutation
blowup.  Length sets are carried as integer bitmasks inside the engine, so
the union is a bitwise or and "1 +" is a shift.

The pivot is B's lowest nonzero letter.  An atom dividing B is zero below
it and covers it, so the atoms are bucketed by their own lowest nonzero
letter, and the bucket of B's pivot holds every candidate and no atom
that needs a letter below it.  Each bucket has one set of below_rows: bit
j of the AND over letters of rows[i][B[i]] marks bucket atom j dividing
B, and a letter whose count in B reaches the bucket's largest entry for
it constrains nothing, so it is skipped.  A child B/A that keeps B's
pivot divides B, so its divisor bits are B's ANDed with the rows of only
the letters A uses; the full AND runs only when the pivot moves.  The
recursion runs on an explicit stack of frames, so its depth does not
depend on the length of B.  Bits are visited low to high, which is bucket
order: the children, and the memo entries stored, are those of the plain
recursion.

The memo is keyed by one packed int per vector: letter i sits in an
unsigned field of a fixed number of bytes, starting at 8 bits, which holds
every atom entry (ord(g) <= 64).  A child is vec minus the packed atom,
which cannot borrow because the atom divides vec; the pivot is the lowest
nonzero field, and a count is read as vec >> offset & field mask.  A query
is packed with int.from_bytes(bytes(vec)); bytes() raising on an entry
above 255 is the signal to widen the field, which re-keys the memo once in
insertion order, so any nonnegative entry is answered exactly.  A query of
the wrong width or with a negative or non-integer entry raises
InvalidArgumentError and stores nothing.

The whole-monoid scans work on packed keys, not tuples.  A scan first
calls widen(top) with the largest entry it will form, which re-keys the
memo at most once and returns the field width in bits.  It then builds
its keys at that width and unpacks only the witnesses it reports.
`system` asks no query at all: product_levels extends the products of
atoms forward, level by level in length, and stores each level's masks
in the memo.  The engine keeps the system of the largest bound run on it
(system_table), and `system` reads every smaller bound from that table
with no second pass and nothing stored.  The U_k walk queries sums of
atom keys that it shifts into the fields itself.  Fixing the width first
is what keeps those keys valid: a key query never widens the field.  A
key that is negative or has a bit beyond the width's fields raises
InvalidArgumentError and stores nothing.

engine_for keeps the one engine of an AtomSet on the set itself, so the
memo lives as long as the atom set and there is no module-level table.
The engine holds no ceiling: a miss in lengths_mask, and each pass of
product_levels, reads the memo cap in force (atoms.limits), so a memo hit
or a system_table read is answered under any cap.  length_set checks the
group, then packs B's key from its items and reads the memo: a positive
mask makes B a product of atoms, hence zero-sum.  Only without one does
it run the zero-sum fold, engine_for and the miss path.  Each query
passes once through lengths_mask, and the engine hands out one LengthSet
per distinct mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .atoms import CAPS, AtomSet, below_rows
from .errors import InvalidArgumentError, ResourceLimitError
from .sequence import Sequence, index_sum


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
        """The set of bit positions of a positive mask.  Its values are
        sorted, distinct and nonnegative by construction, so __post_init__
        is not run."""
        if mask <= 0:
            raise InvalidArgumentError("empty bitmask")
        values = []
        while mask:
            low = mask & -mask
            values.append(low.bit_length() - 1)
            mask ^= low
        out = object.__new__(cls)
        object.__setattr__(out, "values", tuple(values))
        return out

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
        return x in self.values

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
    # a run of r zeros between two set bits is a gap of r + 1; one pass over
    # the binary text is linear in the width, where popping bits is not
    return {len(run) + 1 for run in bin(mask).rstrip("0").split("1")[1:-1]}


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

    The memo is keyed by packed exponent vectors and shared across calls,
    so whole-system scans reuse subproblems.
    """

    def __init__(self, atom_vectors: Iterable[tuple[int, ...]]):
        vectors = [tuple(v) for v in atom_vectors]
        if not vectors:
            raise InvalidArgumentError("engine needs at least one atom")
        width = len(vectors[0])
        if any(len(v) != width for v in vectors):
            raise InvalidArgumentError("atom vectors of mixed width")
        if any(not isinstance(x, int) or x < 0 for v in vectors for x in v):
            raise InvalidArgumentError("atom entries must be nonnegative integers")
        if not all(map(any, vectors)):
            raise InvalidArgumentError("atom vectors must be nonzero")
        self.width = width
        # each atom in the bucket of its lowest nonzero letter
        self._by_pivot = [[] for _ in range(width)]
        for v in vectors:
            self._by_pivot[next(i for i, x in enumerate(v) if x)].append(v)
        self._index = [_divisor_rows(bucket, width) for bucket in self._by_pivot]
        self._memo: dict[int, int] = {0: 1}
        self._length_sets: dict[int, LengthSet] = {}
        # the system of the largest bound run on this engine (invariants.system)
        self.system_table = None
        self._field_bytes = 0
        self._set_field(_bytes_for(max((x for v in vectors for x in v), default=0)))

    @property
    def memo_size(self) -> int:
        return len(self._memo)

    def _set_field(self, nbytes: int) -> None:
        """Use fields of nbytes bytes: re-pack the atoms, the letter offsets,
        the pivot masks and every memo key, keeping the memo's insertion
        order.  A bucket is (all bits, letter rows, packed atoms, each atom's
        letter rows, mask of the fields up to the pivot)."""
        old = self._field_bytes
        if old:
            self._memo = {
                _pack(_unpack(key, self.width, old), nbytes): mask
                for key, mask in self._memo.items()
            }
        self._field_bytes = nbytes
        self._field_bits = bits = 8 * nbytes
        self._field_mask = (1 << bits) - 1
        self._key_bits = bits * self.width
        self._divisors = [
            (all_bits, [(i * bits, row, cap) for i, row, cap in rows],
             [_pack(a, nbytes) for a in bucket],
             [[(i * bits, row, cap) for i, row, cap in own] for own in atom_rows],
             (1 << (pivot + 1) * bits) - 1)
            for pivot, ((all_bits, rows, atom_rows), bucket)
            in enumerate(zip(self._index, self._by_pivot))
        ]

    def widen(self, top: int) -> int:
        """Widen the field, if needed, so that entries up to top fit; the
        field width in bits, at which a scan then packs its keys."""
        if not isinstance(top, int) or top < 0:
            raise InvalidArgumentError(f"largest entry must be a nonnegative integer: {top!r}")
        nbytes = _bytes_for(top)
        if nbytes > self._field_bytes:
            self._set_field(nbytes)
        return self._field_bits

    def unpack(self, key: int) -> tuple[int, ...]:
        """The vector of a packed key at the current field width."""
        return _unpack(key, self.width, self._field_bytes)

    def _key(self, vec: tuple[int, ...]) -> int:
        """The packed key of a query vector, widening the field if an entry
        does not fit in it."""
        if len(vec) != self.width:
            raise InvalidArgumentError(
                f"vector of width {len(vec)} for an engine of width {self.width}"
            )
        try:
            return _pack(vec, self._field_bytes)
        except (TypeError, ValueError, OverflowError):
            pass
        if any(not isinstance(x, int) or x < 0 for x in vec):
            raise InvalidArgumentError(f"vector entries must be nonnegative integers: {vec}")
        self._set_field(_bytes_for(max(vec)))
        return _pack(vec, self._field_bytes)

    def _dividing(self, vec: int) -> tuple[int, tuple]:
        """Bits of the pivot bucket atoms dividing a nonzero packed vec, and
        the bucket.  The pivot is the lowest nonzero field."""
        bucket = self._divisors[((vec & -vec).bit_length() - 1) // self._field_bits]
        bits, fmask = bucket[0], self._field_mask
        for off, row, cap in bucket[1]:
            v = vec >> off & fmask
            if v < cap:
                bits &= row[v]
                if not bits:
                    break
        return bits, bucket

    def product_key(self, pairs, positions) -> int | None:
        """The key of the vector with m at position positions[i] for each
        pair (i, m) if the memo holds a positive mask for it (a sum of atoms);
        else None, as when a letter is not in positions or m overflows."""
        bits, fmask = self._field_bits, self._field_mask
        key = 0
        try:
            for i, m in pairs:
                if m > fmask:
                    return None
                key |= m << positions[i] * bits
        except KeyError:
            return None
        return key if self._memo.get(key) else None

    def set_of(self, mask: int) -> LengthSet:
        """The LengthSet of a positive mask; one object per distinct mask."""
        sets = self._length_sets
        return sets.get(mask) or sets.setdefault(mask, LengthSet.from_mask(mask))

    def product_levels(self, top: int, avoid: tuple[int, ...]):
        """Yield, for n = 0..top, the dict key -> length mask of the
        products of length n of the atoms that use no letter in avoid,
        each level once it is final and stored in the memo.

        The pass runs forward from level 0 = {0: 1}: each product B of a
        final level n gives B + A the mask of B shifted by one, for every
        atom A with |A| <= top - n whose pivot (lowest nonzero letter) is
        at or below B's; for B = 0 every atom qualifies.  That is one edge
        of the pivot recursion of lengths_mask per pair: pivot(B + A) =
        pivot(A) exactly when pivot(A) <= pivot(B), and A divides B + A.
        Conversely, for an atom A of the pivot bucket of C dividing C,
        B = C - A is zero below pivot(C) = pivot(A), so the pass forms the
        edge (C, A) from B, once.  A level is final once every shorter level
        has been extended, so its masks are those of the recursion, found
        with no divisor test.  Every atom dividing a product uses no letter
        in avoid, as the product does not, so none is left out and the
        masks are exact.  The keys are packed at the width widen(top) sets,
        so no query may widen the field while the levels are read.

        A level that adds entries is refused with ResourceLimitError, before
        it is stored, if the memo would then pass the memo cap, read once
        per pass (atoms.limits).  As with
        lengths_mask, a pass is refused exactly when it would store more
        entries than the limit leaves room for.
        """
        bits = self.widen(top)
        width, memo, limit = self.width, self._memo, CAPS.get()[1]
        # grow[p]: (length, packed atoms) of the atoms whose pivot is at or
        # below p, by length ascending
        by_length = [[[] for _ in range(top + 1)] for _ in range(width)]
        for p, (bucket, (_, _, packed, _, _)) in enumerate(zip(self._by_pivot, self._divisors)):
            for vec, key in zip(bucket, packed):
                size = sum(vec)
                if size <= top and not any(vec[i] for i in avoid):
                    for q in range(p, width):
                        by_length[q][size].append(key)
        grow = [[(size, keys) for size, keys in enumerate(row) if keys] for row in by_length]
        pending: list[dict[int, int]] = [{} for _ in range(top + 1)]
        pending[0][0] = 1
        for n in range(top + 1):
            level, pending[n] = pending[n], {}
            if len(memo) + len(level) > limit:
                new = sum(key not in memo for key in level)
                if new and len(memo) + new > limit:
                    raise ResourceLimitError("memo table", limit)
            memo.update(level)
            room = top - n
            for key, mask in level.items():
                mask <<= 1
                pivot = ((key & -key).bit_length() - 1) // bits if key else width - 1
                for size, keys in grow[pivot]:
                    if size > room:
                        break
                    nxt = pending[n + size]
                    get = nxt.get
                    for a in keys:
                        c = key + a
                        nxt[c] = get(c, 0) | mask
            yield level

    def lengths_mask(self, vec: tuple[int, ...] | int) -> int:
        """Bitmask of L(vec); 0 when no factorization exists.

        vec is either a tuple of the engine's width with nonnegative
        integer entries, or a key packed at the current field width.
        A miss reads the memo cap (atoms.limits); a hit reads nothing.
        Every frame on the stack is a vector not yet in the memo that will
        be stored there, so a new frame is refused once the memo and the
        stack together would pass the cap: the cap then bounds the stack
        too, and fires for exactly the queries that would overflow the
        memo.
        """
        if type(vec) is int:  # cheaper than isinstance on the tuple path
            if vec < 0 or vec >> self._key_bits:
                raise InvalidArgumentError(
                    f"key {vec} is not {self.width} fields of {self._field_bits} bits"
                )
        else:
            vec = self._key(vec)
        memo = self._memo
        cached = memo.get(vec)
        if cached is not None:
            return cached
        limit = CAPS.get()[1]
        if len(memo) >= limit:
            raise ResourceLimitError("memo table", limit)
        dividing, fmask = self._dividing, self._field_mask
        stack: list[tuple] = []
        divisors, bucket = dividing(vec)
        _, _, packed, atom_rows, pivot = bucket
        bits, mask = divisors, 0
        while True:
            while bits:
                low = bits & -bits
                bits ^= low
                j = low.bit_length() - 1
                # the atom divides vec, so no field borrows
                child = vec - packed[j]
                child_mask = memo.get(child)
                if child_mask is None:
                    if len(memo) + len(stack) + 1 >= limit:
                        raise ResourceLimitError("memo table", limit)
                    stack.append((vec, bits, divisors, bucket, mask))
                    vec, mask = child, 0
                    if child & pivot:
                        # same pivot: only the letters of atom j went down
                        for off, row, cap in atom_rows[j]:
                            v = child >> off & fmask
                            if v < cap:
                                divisors &= row[v]
                    else:
                        divisors, bucket = dividing(child)
                        _, _, packed, atom_rows, pivot = bucket
                    bits = divisors
                else:
                    mask |= child_mask << 1
            memo[vec] = mask
            if not stack:
                return mask
            child_mask = mask
            vec, bits, divisors, bucket, mask = stack.pop()
            _, _, packed, atom_rows, pivot = bucket
            mask |= child_mask << 1


def _divisor_rows(bucket: list[tuple[int, ...]], width: int):
    """All bits of a bucket; (letter, below row, cap) for the letters some
    bucket atom uses, where a count at or above the cap passes every atom;
    and for each atom the entries of the letters it uses."""
    caps = [max(col) for col in zip(*bucket)] or [0] * width
    by_letter = [(i, row, caps[i]) for i, row in enumerate(below_rows(bucket, caps))]
    rows = [entry for entry in by_letter if entry[2]]
    atom_rows = [[by_letter[i] for i, x in enumerate(a) if x] for a in bucket]
    return (1 << len(bucket)) - 1, rows, atom_rows


def _bytes_for(top: int) -> int:
    """Bytes per field for entries up to top; at least one."""
    return max(1, (top.bit_length() + 7) // 8)


def _pack(vec, nbytes: int) -> int:
    """Letter i of vec in the unsigned field of nbytes bytes at byte i*nbytes;
    raises ValueError or OverflowError for an entry that does not fit and
    TypeError for a non-integer entry."""
    if nbytes == 1:
        return int.from_bytes(bytes(vec), "little")
    return int.from_bytes(b"".join(int.to_bytes(x, nbytes, "little") for x in vec), "little")


def _unpack(key: int, width: int, nbytes: int) -> tuple[int, ...]:
    data = key.to_bytes(width * nbytes, "little")
    return tuple(
        int.from_bytes(data[i : i + nbytes], "little") for i in range(0, len(data), nbytes)
    )


def engine_for(atoms: AtomSet) -> FactorizationEngine:
    """The atom set's one engine, built on first use."""
    if atoms.engine is None:  # the set is frozen; its engine slot is set once
        object.__setattr__(atoms, "engine", FactorizationEngine(atoms.vectors()))
    return atoms.engine


def _query(b: Sequence, atoms: AtomSet) -> tuple[int, ...]:
    """The dense vector of a zero-sum B over the atom set's group and letters
    (so a nonempty B raises against a Krull instance's primes)."""
    # element indices of other groups overlap, so the groups are compared
    if b.group.invariant_factors != atoms.group.invariant_factors:
        raise InvalidArgumentError(f"sequence over {b.group} queried against atoms over {atoms.group}")
    if index_sum(atoms.tables, b.items):  # the zero element has index 0
        raise InvalidArgumentError(f"sequence {b} is not zero-sum")
    return b.dense_at(atoms.positions)


def length_set(b: Sequence, atoms: AtomSet) -> LengthSet:
    """Exact L(B) for a zero-sum sequence B over the atom set's letters."""
    if b.group.invariant_factors == atoms.group.invariant_factors:
        engine = atoms.engine
        key = engine and engine.product_key(b.items, atoms.positions)
        if key is not None:  # B is a product of atoms, so zero-sum
            return engine.set_of(engine.lengths_mask(key))
    vec = _query(b, atoms)  # before engine_for: a refused query builds no engine
    engine = engine_for(atoms)
    mask = engine.lengths_mask(vec)
    if mask == 0:
        raise InvalidArgumentError(f"{b} has no factorization over the given atoms")
    return engine.set_of(mask)


def exhaustive_length_set(b: Sequence, atoms: AtomSet) -> LengthSet:
    """Independent oracle: walk every ordered factorization into atoms.

    No memoization and no pivot restriction; exponential, for cross-checks
    on short sequences only.
    """
    start = _query(b, atoms)
    vectors = atoms.vectors()

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
