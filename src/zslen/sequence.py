"""Sequences over a subset G0 of a finite abelian group.

A sequence is a finite multiset of group elements, i.e. an element of the
free abelian monoid F(G0), stored sparsely as (element index, multiplicity)
pairs.  Indices point into elements(group) and tables(group), whose
lexicographic order is the canonical element order, so sums fold over the
index tables and dense vectors are read off int positions.  Elements appear
only at the boundary: make/from_dense/dense take them, support/exponents/
v/sigma return them, and the text encoding "[g:mult,...]" lists them.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping

from .errors import InvalidArgumentError
from .group import FiniteAbelianGroup, GroupElement, elements, tables
from .record import Record, _set

# Multiplicities are mathematically unbounded; this guard keeps encodings
# and k-fold powers sane.
_MAX_MULTIPLICITY = 2**63


def _indices(group: FiniteAbelianGroup, elems: Iterable[GroupElement]) -> list[int]:
    """The element index of each element; one outside the group raises."""
    index = tables(group).index
    try:
        return [index[g] for g in elems]
    except KeyError as exc:
        raise InvalidArgumentError(f"element {exc.args[0]} not in group {group}") from None


def _positions(group: FiniteAbelianGroup, order: tuple[GroupElement, ...]) -> dict[int, int]:
    """The element index -> position map of an order; a repeated letter raises."""
    pos = {i: p for p, i in enumerate(_indices(group, order))}
    if len(pos) != len(order):
        raise InvalidArgumentError("element order repeats a letter")
    return pos


class Sequence(Record):
    """A multiset over group elements with strictly positive multiplicities,
    held as (element index, multiplicity) pairs in index order."""

    __slots__ = ("group", "items")

    def __init__(self, group: FiniteAbelianGroup, items: tuple[tuple[int, int], ...]):
        last, size = -1, group.order
        for i, m in items:
            if type(i) is not int or not 0 <= i < size:
                raise InvalidArgumentError(f"element index {i!r} outside {group}")
            if not isinstance(m, int) or m <= 0:
                raise InvalidArgumentError(f"multiplicity must be positive: {m!r}")
            if m >= _MAX_MULTIPLICITY:
                raise InvalidArgumentError(f"multiplicity overflow: {m}")
            if i <= last:
                raise InvalidArgumentError("items not in canonical element order")
            last = i
        _set(self, "group", group)
        _set(self, "items", items)

    @classmethod
    def make(cls, group: FiniteAbelianGroup, exponents: Mapping[GroupElement, int]) -> "Sequence":
        return cls.of_indices(group, dict(zip(_indices(group, exponents), exponents.values())))

    @classmethod
    def of_indices(cls, group: FiniteAbelianGroup, exponents: Mapping[int, int]) -> "Sequence":
        """make for exponents keyed by element index; zeros are dropped."""
        return cls(group, tuple(sorted((i, m) for i, m in exponents.items() if m != 0)))

    @classmethod
    def from_dense(
        cls, group: FiniteAbelianGroup, order: tuple[GroupElement, ...], vec
    ) -> "Sequence":
        """Inverse of dense: the sequence with exponent vec[i] at order[i]."""
        if len(vec) != len(order):
            raise InvalidArgumentError(f"vector of width {len(vec)} over {len(order)} letters")
        return cls.of_indices(group, {i: vec[p] for i, p in _positions(group, order).items()})

    @classmethod
    def empty(cls, group: FiniteAbelianGroup) -> "Sequence":
        return cls(group, ())

    @property
    def length(self) -> int:
        return sum(m for _, m in self.items)

    @property
    def support(self) -> tuple[GroupElement, ...]:
        els = elements(self.group)
        return tuple(els[i] for i, _ in self.items)

    @property
    def exponents(self) -> dict[GroupElement, int]:
        els = elements(self.group)
        return {els[i]: m for i, m in self.items}

    def v(self, g: GroupElement) -> int:
        return dict(self.items).get(tables(self.group).index.get(g), 0)

    def dense(self, order: tuple[GroupElement, ...]) -> tuple[int, ...]:
        """Exponent vector relative to an element order covering the support."""
        return self.dense_at(_positions(self.group, order))

    def dense_at(self, pos: Mapping) -> tuple[int, ...]:
        """dense for an order given as its element index -> position map."""
        vec = [0] * len(pos)
        try:
            for i, m in self.items:
                vec[pos[i]] = m
        except KeyError as exc:
            letter = elements(self.group)[exc.args[0]]
            raise InvalidArgumentError(f"support element {letter} outside alphabet") from None
        return tuple(vec)

    def __mul__(self, other: "Sequence") -> "Sequence":
        return mul(self, other)

    def __pow__(self, k: int) -> "Sequence":
        if not isinstance(k, int) or k < 0:
            raise InvalidArgumentError(f"power must be a nonnegative integer: {k!r}")
        return Sequence(self.group, tuple((i, m * k) for i, m in self.items) if k else ())

    def __str__(self):
        return encode_sequence(self)


def index_sum(tab, pairs: Iterable[tuple[int, int]]) -> int:
    """Element index of the sum of m copies of element i over the (i, m)
    pairs, folded over the index tables tab = tables(group)."""
    add, mult, exp = tab.add, tab.mult, tab.exp
    x = 0
    for i, m in pairs:
        x = add[x][mult[i][m % exp]]
    return x


def sigma(s: Sequence) -> GroupElement:
    """Sum of the sequence; the empty sequence sums to zero."""
    return elements(s.group)[index_sum(tables(s.group), s.items)]


def is_zero_sum(s: Sequence) -> bool:
    return not index_sum(tables(s.group), s.items)  # the zero element has index 0


def negate(s: Sequence) -> Sequence:
    neg = tables(s.group).neg
    return Sequence.of_indices(s.group, {neg[i]: m for i, m in s.items})


def mul(s: Sequence, t: Sequence) -> Sequence:
    if s.group != t.group:  # element indices of other groups overlap
        raise InvalidArgumentError("sequences over different groups")
    return Sequence.of_indices(s.group, Counter(dict(s.items)) + Counter(dict(t.items)))


def divides(t: Sequence, s: Sequence) -> bool:
    """True iff t | s, i.e. v_g(t) <= v_g(s) for all g."""
    if t.group != s.group:
        raise InvalidArgumentError("sequences over different groups")
    exps = dict(s.items)
    return all(exps.get(i, 0) >= m for i, m in t.items)


def quotient(s: Sequence, t: Sequence) -> Sequence:
    """s with t removed; requires divides(t, s)."""
    if not divides(t, s):
        raise InvalidArgumentError("quotient requires divisibility")
    return Sequence.of_indices(s.group, Counter(dict(s.items)) - Counter(dict(t.items)))


def canonical_subset(group: FiniteAbelianGroup, subset: Iterable[GroupElement] | None) -> tuple[GroupElement, ...]:
    """Deduplicate and sort a subset of group elements into canonical order;
    None means all of the group."""
    els = elements(group)  # already canonical
    if subset is None:
        return els
    return tuple(els[i] for i in sorted(set(_indices(group, subset))))


def enumerate_zero_sum(
    group: FiniteAbelianGroup,
    subset: Iterable[GroupElement] | None,
    max_length: int,
) -> list[Sequence]:
    """All zero-sum sequences over the subset with length <= max_length.

    Order: length ascending, then lexicographic on the dense exponent
    vector over the subset's canonical element order.  Each length is
    walked depth-first over the letters with multiplicities ascending,
    pruned by an exact-length reach table: exact[i][r] is a bitmask over
    element indices of the sums of exactly r terms from letters i onward.
    A branch is entered only when its partial sum can still return to
    zero, so every leaf is a result.  The last letter's count is forced,
    so the walk stops one letter early and builds its leaves there, as it
    does a branch with no terms left to place.  A leaf's items are the
    stack of (element index, count) pairs fixed on the way down.
    """
    letters = _indices(group, canonical_subset(group, subset))
    if max_length < 0:
        raise InvalidArgumentError(f"max_length must be nonnegative: {max_length}")
    tab = tables(group)
    add, neg = tab.add, tab.neg
    m = len(letters)
    exact = [[0] * (max_length + 1) for _ in range(m + 1)]
    exact[m][0] = 1  # the empty sum is the zero element, index 0
    for i in range(m - 1, -1, -1):
        w, row, rest = letters[i], exact[i], exact[i + 1]
        row[0] = 1
        for r in range(1, max_length + 1):
            # no copy of letter i, or one copy plus exactly r-1 more terms
            sums, moved = row[r - 1], 0
            while sums:
                low = sums & -sums
                moved |= 1 << add[low.bit_length() - 1][w]
                sums ^= low
            row[r] = rest[r] | moved
    out: list[Sequence] = []
    items: list[tuple[int, int]] = []

    def rec(i: int, r: int, x: int) -> None:
        # invariant: 0 <= i <= m - 2, r > 0 and neg[x] is in exact[i][r]
        w, rest = letters[i], exact[i + 1]
        for k in range(r + 1):
            if k:
                x = add[x][w]
                items.append((w, k))
            if rest[r - k] >> neg[x] & 1:
                if k == r:
                    out.append(Sequence(group, tuple(items)))
                elif i == m - 2:
                    out.append(Sequence(group, (*items, (letters[-1], r - k))))
                else:
                    rec(i + 1, r - k, x)
            if k:
                items.pop()

    for length in range(max_length + 1):
        if not exact[0][length] & 1:
            continue
        if not length:
            out.append(Sequence(group, ()))
        elif m == 1:
            out.append(Sequence(group, ((letters[0], length),)))
        else:
            rec(0, length, 0)
    return out


# -- text encoding ------------------------------------------------------------


def encode_sequence(s: Sequence) -> str:
    els = elements(s.group)
    return "[" + ",".join(f"{els[i]}:{m}" for i, m in s.items) + "]"


def encode_dense(codes: list[str], vec) -> str:
    """The text "[code:m,...]" of the vector vec over letters encoded as
    codes, zeros dropped: encode_sequence for letters in canonical element
    order, a word of F(P) for a Krull instance's primes."""
    return "[" + ",".join(f"{c}:{m}" for c, m in zip(codes, vec) if m) + "]"


def split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise InvalidArgumentError(f"unbalanced parentheses in {text!r}")
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise InvalidArgumentError(f"unbalanced parentheses in {text!r}")
    parts.append("".join(cur))
    return parts


def parse_element(group: FiniteAbelianGroup, text: str) -> GroupElement:
    text = text.strip()
    try:
        if text.startswith("("):
            if not text.endswith(")"):
                raise ValueError
            inner = text[1:-1].strip()
            coords = [int(t) for t in inner.split(",")] if inner else []
        else:
            coords = [int(text)]
    except ValueError:
        raise InvalidArgumentError(f"cannot parse group element {text!r}") from None
    return group.element(coords)


def parse_sequence(group: FiniteAbelianGroup, text: str) -> Sequence:
    """Parse the canonical "[g:mult,...]" encoding."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise InvalidArgumentError(f"sequence must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return Sequence.empty(group)
    exps: dict[GroupElement, int] = {}
    for part in split_top_level(body):
        if ":" not in part:
            raise InvalidArgumentError(f"missing ':' in sequence item {part!r}")
        el_text, _, mult_text = part.rpartition(":")
        g = parse_element(group, el_text)
        try:
            m = int(mult_text.strip())
        except ValueError:
            raise InvalidArgumentError(f"bad multiplicity in {part!r}") from None
        if m <= 0:
            raise InvalidArgumentError(f"multiplicity must be positive in {part!r}")
        exps[g] = exps.get(g, 0) + m
    return Sequence.make(group, exps)
