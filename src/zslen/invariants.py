"""Whole-monoid invariants of B(G0): systems of length sets, unions U_k,
elasticities, distance sets, half-factoriality and the small-group closed
forms used as oracles.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .atoms import AtomSet, build_atoms, davenport, enumerate_atoms
from .errors import InvalidArgumentError, ResourceLimitError
from .group import FiniteAbelianGroup, GroupElement, automorphisms, elements, tables
from .lengths import LengthSet, delta_of, engine_for, length_set
from .sequence import Sequence, index_sum, negate

# ceiling on the atom products one unions_range call forms
PRODUCT_LIMIT = 10**8
DEFAULT_SUBSET_SCAN_MAX_ORDER = 12
# The U_k walk keeps each atom's images under the automorphisms; past this
# many images, or this many entries in the automorphisms' tables, it uses
# only the identity and negation.  See the README's performance notes.
MAX_ATOM_IMAGES = 300_000


# -- systems of sets of lengths ------------------------------------------------


@dataclass(frozen=True)
class SystemOfLengthSets:
    """Deduplicated { L(B) : |B| <= bound } with one witness per entry.

    Witnesses are the first sequences found in the deterministic
    enumeration order, hence of minimal length for their length set.
    """

    group: FiniteAbelianGroup
    subset: tuple[GroupElement, ...]
    bound: int
    entries: tuple[tuple[LengthSet, Sequence], ...]

    def length_sets(self) -> tuple[LengthSet, ...]:
        return tuple(ls for ls, _ in self.entries)

    def witness(self, ls: LengthSet) -> Sequence:
        for cand, wit in self.entries:
            if cand == ls:
                return wit
        raise KeyError(str(ls))

    def __contains__(self, ls: LengthSet) -> bool:
        return any(cand == ls for cand, _ in self.entries)

    def __len__(self):
        return len(self.entries)

    def distances(self) -> tuple[int, ...]:
        """The union of Delta(L) over the entries, sorted."""
        return tuple(sorted(set().union(*(delta_of(ls) for ls, _ in self.entries))))


def system(group: FiniteAbelianGroup, subset=None, bound: int = 8) -> SystemOfLengthSets:
    """Exact { L(B) : B in B(G0), |B| <= bound }: the one bounded scan of
    B(G0), read by the distance sets and the structure fits.  It runs on
    the engine of enumerate_atoms(group, subset).

    The engine's forward pass (FactorizationEngine.product_levels) builds
    the products of atoms level by level in |B|, each with its length
    mask, and stores them in the memo.  Each distinct mask keeps its first
    key in (length, lex) order: per level, the lex-least key of each mask
    not seen at a shorter length.  Only those keys are unpacked, into the
    witnesses.

    When 0 is in G0 it is letter 0 and the one prime of B(G0)
    (AtomSet.prime_letters), so B(G0) = F({0}) x B(G0 - {0}) and
    L(0^c B) = c + L(B).  The pass then uses the atoms without 0 only
    (it avoids the prime letters), so it forms the zero-free sequences.  Each length mask m keeps its first
    zero-free key B_m, and gives the sets m << c for c <= bound - |B_m|,
    witnessed by 0^c B_m.  A set keeps the witness of least (length, c):
    letter 0 comes first in the (length, lex) order over all of G0, so
    that is the key met first there.

    The engine keeps the system of the largest bound run on it
    (FactorizationEngine.system_table), and a bound b' up to that one is
    read from it: the entries whose witness has length <= b', with no
    product formed and nothing stored, so no memo cap refuses a read.  That
    is exact: a witness is the first product with its length set in
    (length, lex) order, or with 0 the least (length, c) candidate, and
    the products of length <= b' are a prefix of that order."""
    if type(bound) is not int or bound < 0:
        raise InvalidArgumentError(f"bound must be a nonnegative integer: {bound!r}")
    atoms = enumerate_atoms(group, subset)
    alphabet = atoms.letters
    engine = engine_for(atoms)
    table = engine.system_table
    if table is not None and bound <= table.bound:
        entries = tuple(entry for entry in table.entries if entry[1].length <= bound)
        return SystemOfLengthSets(group, alphabet, bound, entries)
    lead = int(0 in atoms.prime_letters)  # the zero element is letter 0
    if engine.widen(bound) == 8:
        # one byte per letter: lex order, letter 0 first, is the numeric
        # order of the byte-reversed key
        width = engine.width

        def lex(key: int) -> int:
            return int.from_bytes(key.to_bytes(width, "little"), "big")
    else:
        lex = engine.unpack
    first: dict[int, int] = {}  # length mask -> first key
    for level in engine.product_levels(bound, atoms.prime_letters):
        fresh: dict[int, tuple] = {}  # new mask -> (lex order, key)
        for key, mask in level.items():
            if mask not in first:
                order = lex(key)
                seen = fresh.get(mask)
                if seen is None or order < seen[0]:
                    fresh[mask] = (order, key)
        first.update((mask, key) for mask, (_, key) in fresh.items())
    if lead:
        shifted = []
        for mask, key in first.items():
            size = sum(engine.unpack(key))
            shifted += [(size + c, c, mask << c, key + c) for c in range(bound - size + 1)]
        first = {}
        for _, _, mask, key in sorted(shifted):
            first.setdefault(mask, key)
    entries = sorted(
        (
            (LengthSet.from_mask(mask), Sequence.from_dense(group, alphabet, engine.unpack(key)))
            for mask, key in first.items()
        ),
        key=lambda entry: entry[0].values,
    )
    engine.system_table = SystemOfLengthSets(group, alphabet, bound, tuple(entries))
    return engine.system_table


# -- closed-form systems for the five small groups ------------------------------


def _intervals(lo: int, hi: int) -> LengthSet:
    return LengthSet.of(range(lo, hi + 1))


def closed_form_system(group: FiniteAbelianGroup, max_element: int) -> frozenset[LengthSet]:
    """Every length set of the named small group whose maximum is at most
    max_element, generated from the explicit parametrizations.

    Supported groups: C3, C2+C2, C4, C2^3, C3+C3.  Overlapping families are
    deduplicated by construction of the result set.
    """
    if max_element < 0:
        raise InvalidArgumentError("max_element must be nonnegative")
    facs = group.invariant_factors
    out: set[LengthSet] = set()
    if facs in ((3,), (2, 2)):
        # { y + 2k + [0, k] }
        for k in range(max_element // 3 + 1):
            for y in range(max_element - 3 * k + 1):
                out.add(LengthSet.of(range(y + 2 * k, y + 3 * k + 1)))
    elif facs == (4,):
        # { y + k+1 + [0, k] }  and  { y + 2k + 2*[0, k] }
        for k in range((max_element + 1) // 2 + 1):
            for y in range(max_element - (2 * k + 1) + 1):
                out.add(LengthSet.of(range(y + k + 1, y + 2 * k + 2)))
        for k in range(max_element // 4 + 1):
            for y in range(max_element - 4 * k + 1):
                out.add(LengthSet.of(y + 2 * k + 2 * nu for nu in range(k + 1)))
    elif facs == (2, 2, 2):
        # { y + k+1 + [0, k] : k in [0, 2] }, { y + k + [0, k] : k >= 3 },
        # and { y + 2k + 2*[0, k] }
        for k in range(3):
            for y in range(max_element - (2 * k + 1) + 1):
                out.add(LengthSet.of(range(y + k + 1, y + 2 * k + 2)))
        for k in range(3, max_element // 2 + 1):
            for y in range(max_element - 2 * k + 1):
                out.add(LengthSet.of(range(y + k, y + 2 * k + 1)))
        for k in range(max_element // 4 + 1):
            for y in range(max_element - 4 * k + 1):
                out.add(LengthSet.of(y + 2 * k + 2 * nu for nu in range(k + 1)))
    elif facs == (3, 3):
        # { [2k, l] : l in [2k, 5k] } + { [2k+1, l] : k >= 1, l in [2k+1, 5k+2] }
        # + { {1} }
        out.add(LengthSet.of([1]))
        for k in range(max_element // 2 + 1):
            for l in range(2 * k, min(5 * k, max_element) + 1):
                out.add(_intervals(2 * k, l))
        for k in range(1, (max_element - 1) // 2 + 1):
            for l in range(2 * k + 1, min(5 * k + 2, max_element) + 1):
                out.add(_intervals(2 * k + 1, l))
    else:
        raise InvalidArgumentError(
            f"no closed-form system for {group}; supported: C3, C2+C2, C4, C2^3, C3+C3"
        )
    return frozenset(ls for ls in out if ls.max <= max_element)


@dataclass(frozen=True)
class SystemComparison:
    """Result of checking brute force against a closed-form system."""

    group: FiniteAbelianGroup
    bound: int
    frontier: int  # closed-form sets with D(G)*min L <= frontier must appear
    computed_not_in_family: tuple[LengthSet, ...]
    missing_at_frontier: tuple[LengthSet, ...]

    @property
    def ok(self) -> bool:
        return not self.computed_not_in_family and not self.missing_at_frontier


def compare_with_closed_form(
    group: FiniteAbelianGroup, bound: int, sys: SystemOfLengthSets | None = None
) -> SystemComparison:
    """Two-sided check of system(G, bound) against the closed form.

    Soundness needs no frontier: each computed L(B) is complete, so it must
    be a member of the family.  Completeness is only demanded of family
    sets guaranteed a witness within the bound: a set L has a witness of
    length at most D(G)*min L, and a D(G) margin is kept to stay clear of
    the truncation frontier.  A given system must be over all of G and to
    the same bound.
    """
    if sys is None:
        sys = system(group, None, bound)
    elif sys.subset != elements(group):
        raise InvalidArgumentError(f"system does not match B({group})")
    elif sys.bound != bound:
        raise InvalidArgumentError(f"system to bound {sys.bound} does not match bound {bound}")
    dav, _ = davenport(group)
    computed = set(sys.length_sets())
    family = closed_form_system(group, max(bound, max((ls.max for ls in computed), default=0)))
    frontier = bound - dav
    not_in_family = tuple(
        sorted((ls for ls in computed if ls not in family), key=lambda ls: ls.values)
    )
    missing = tuple(
        sorted(
            (
                ls
                for ls in family
                if dav * ls.min <= frontier and ls not in computed
            ),
            key=lambda ls: ls.values,
        )
    )
    return SystemComparison(group, bound, frontier, not_in_family, missing)


# -- unions of sets of lengths ---------------------------------------------------


@dataclass(frozen=True)
class UnionOfLengths:
    """U_k with its extremes rho_k = max and lambda_k = min."""

    k: int
    values: tuple[int, ...]

    @property
    def rho(self) -> int:
        return self.values[-1]

    @property
    def lam(self) -> int:
        return self.values[0]

    def is_interval(self) -> bool:
        return self.rho - self.lam + 1 == len(self.values)


def unions_range(group: FiniteAbelianGroup, k_max: int) -> dict[int, UnionOfLengths]:
    """U_k(G) for all k in [1, k_max], on the engine of
    enumerate_atoms(group).

    U_k is the union of L(B) over products B of exactly k atoms, which is
    complete because any B with k in L(B) is such a product.  Products are
    engine keys: the field is first widened to hold k_max times the
    largest atom entry, so a product of packed atoms is the sum of their
    keys.

    The zero element, letter 0, is the one prime of B(G), and its atom
    [0:1] is factored out: a product of c copies of it and k - c other
    atoms has the lengths c + L(rest), so U_k = union over c of
    (c + U'_(k-c)) = U'_k | (1 + U_(k-1)), where U'_j is the union over
    products of j atoms other than [0:1] and U_0 = U'_0 = {0}.  The level
    walk runs over those atoms only.

    An automorphism s of G maps atoms to atoms and keeps lengths, L(sB) =
    L(B), so a level keeps one product per orbit of the automorphisms (see
    _atom_images): the orbit's largest key, the only one the engine is asked
    about.  Level k+1 is (level k) x atoms, reduced the same way; it meets
    every orbit, since sB * A = s(B * s^-1 A).  s permutes the key's fields,
    which never carry, so s(BA) = sB + sA: a level holds, for each orbit,
    the keys of one product's images, and a product's images are the sums of
    its factors' images.  s keeps sizes, so the level stores the orbit's
    size |B| next to the images.  A pair (product, atom) whose identity key
    the level has already formed is the same product again, so its images
    and maximum are formed at most once per identity key; the keys that are
    their orbit's largest image are the level's own keys, so only the others
    are kept in a set, which the identity alone leaves empty.

    The walk skips the products that cannot add a length.  No atom but [0:1]
    holds 0, so the atoms that divide a product B of atoms other than [0:1]
    are themselves not [0:1].  With m and M the least and largest size of
    those atoms, each factorization of B into l atoms has l*m <= |B| <= l*M,
    so L(B) lies in the span [ceil(|B|/M), floor(|B|/m)].  Level k starts
    the union at its base 1 + U_(k-1) and ORs in the length set of each
    product it queries; when the union already holds the whole span of |B|,
    L(B) adds nothing to U_k, and B is not queried.  The union only grows
    within a level, so a size once covered stays covered; the table of
    covered sizes is rebuilt when the union changes.  Products are queried
    as the level is formed, so the union fills early.  Below k_max every
    product is still formed, as the next level is built from it; at k_max a
    pair whose size is covered is dropped before its images are formed.

    Each level forms len(previous level) products per atom other than
    [0:1]; their running total is charged against PRODUCT_LIMIT before
    the level is formed, the cut at k_max notwithstanding.
    """
    if type(k_max) is not int or k_max < 1:
        raise InvalidArgumentError(f"k_max must be a positive integer: {k_max!r}")
    atoms = enumerate_atoms(group)
    engine = engine_for(atoms)
    images = _atom_images(atoms, engine.widen(k_max * max(map(max, atoms.vectors()))))
    factors = [(sum(engine.unpack(a[0])), a) for a in images]  # (size, images)
    least = min((size for size, _ in factors), default=1)
    most = max((size for size, _ in factors), default=1)
    # spans[s]: the mask of [ceil(s/most), floor(s/least)], holding L(B) for |B| = s
    spans = [(2 << s // least) - (1 << -(-s // most)) for s in range(k_max * most + 1)]
    lengths_mask = engine.lengths_mask
    out: dict[int, UnionOfLengths] = {}
    # (size, images) of one product per orbit; none when [0:1] is the one atom
    level = [(0, (0,) * len(images[0]))] if images else []
    union_mask = 1  # U_0 = {0}
    formed = 0
    for k in range(1, k_max + 1):
        formed += len(level) * len(images)
        if formed > PRODUCT_LIMIT:
            raise ResourceLimitError("atom products", PRODUCT_LIMIT, formed)
        last = k == k_max  # the last level needs only the keys
        union_mask <<= 1
        covered = [union_mask & span == span for span in spans]
        # the identity keys formed at this level: those that are their
        # orbit's largest image are the keys of nxt, the rest are in seen
        seen: set[int] = set()
        nxt: dict[int, tuple | None] = {}  # largest image -> (size, images)
        for size_b, b in level:
            b0 = b[0]
            for size_a, a in factors:
                size = size_b + size_a
                ident = b0 + a[0]
                if last and covered[size] or ident in nxt or ident in seen:
                    continue
                top = max(map(add, b, a))
                if top != ident:
                    seen.add(ident)
                if top in nxt:
                    continue
                nxt[top] = None if last else (size, [*map(add, b, a)])
                if not covered[size]:
                    mask = union_mask | lengths_mask(top)
                    if mask != union_mask:
                        union_mask = mask
                        covered = [mask & span == span for span in spans]
        level = nxt.values()
        out[k] = UnionOfLengths(k, LengthSet.from_mask(union_mask).values)
    return out


def _atom_images(atoms: AtomSet, field_bits: int) -> list[tuple[int, ...]]:
    """The keys, at field_bits bits per letter, of the images of each atom
    of A(G) other than [0:1] under the automorphisms of G
    (group.automorphisms), in one order for all atoms with the identity
    first.  The letters of A(G) are the elements in index order, so an
    automorphism s moves letter i to letter s[i].

    Only the identity and negation are used when there are too many
    automorphisms: more than MAX_ATOM_IMAGES in the images, or in the
    automorphisms' tables of |G| entries each."""
    vectors = [a for a in atoms.vectors() if not a[0]]
    order = atoms.group.order
    auts = automorphisms(atoms.group, limit=MAX_ATOM_IMAGES // max(len(vectors), order))
    if auts is None:
        auts = [range(order), atoms.tables.neg]
    # negation is the identity on an elementary 2-group
    moves = dict.fromkeys(map(tuple, auts))
    offsets = [[j * field_bits for j in move] for move in moves]
    out = []
    for a in vectors:
        support = [(x, i) for i, x in enumerate(a) if x]
        out.append(tuple(sum(x << off[i] for x, i in support) for off in offsets))
    return out


def union_k(group: FiniteAbelianGroup, k: int) -> UnionOfLengths:
    return unions_range(group, k)[k]


def rho_k(group: FiniteAbelianGroup, k: int) -> int:
    return union_k(group, k).rho


def lambda_k(group: FiniteAbelianGroup, k: int) -> int:
    return union_k(group, k).lam


def elasticity(group: FiniteAbelianGroup) -> Fraction:
    """rho(G) = D(G)/2 for |G| >= 3; half-factorial groups have elasticity 1.
    The witness (-U)U of a longest atom U attains it."""
    if group.order <= 2:
        return Fraction(1)
    return Fraction(davenport(group)[0], 2)


# -- distance sets ----------------------------------------------------------------


@dataclass(frozen=True)
class DeltaReport:
    """Observed distances of B(G0) up to a bound, with a stability flag."""

    group: FiniteAbelianGroup
    subset: tuple[GroupElement, ...]
    bound: int
    distances: tuple[int, ...]
    exact: bool  # B(G0) half-factorial, or interval from 1 stable across a D(G)-wide window


def delta_of_group(group: FiniteAbelianGroup, subset=None, bound: int = 8) -> DeltaReport:
    """Union of Delta(L) over the entries of system(G0, bound); a lower
    approximation of the distance set, exact if B(G0) is half-factorial
    (_non_unit_atom) or under the stability heuristic (G0 = G only).

    The heuristic asks the largest distance to show up already within a
    D(G) margin below the bound.  Each witness is the first vector in
    (length, lex) order, so the shortest sequence with its length set: an
    entry is seen within the margin iff its witness is that short.
    """
    sys = system(group, subset, bound)
    atoms = enumerate_atoms(group, subset)
    distances = sys.distances()
    exact = _non_unit_atom(atoms) is None  # half-factorial: Delta(G0) is empty
    if not exact and sys.subset == elements(group):
        dav, _ = davenport(group, atoms)
        acc_margin = set().union(
            *(delta_of(ls) for ls, wit in sys.entries if wit.length <= bound - dav)
        )
        is_interval_from_1 = bool(distances) and distances == tuple(range(1, distances[-1] + 1))
        stable = bool(acc_margin) and max(acc_margin) == distances[-1]
        exact = is_interval_from_1 and stable
    return DeltaReport(group, sys.subset, bound, distances, exact)


def min_distance(vectors) -> int:
    """min Delta of the monoid whose atoms have these exponent vectors: the
    gcd of |x| - |y| over the pairs of factorizations x, y of one element
    (min Delta = gcd Delta, Prop. 2.3), 0 when it is half-factorial.

    x - y runs over the integer relations z with sum_a z_a * a = 0.
    Row-reducing [vectors | 1] over Z, column by column with Euclid steps,
    leaves the rows that are zero on the atom columns as a basis of those
    relations, and the last entry of each is its sum_a z_a = |x| - |y|.
    """
    rows = [[*v, 1] for v in vectors]
    for col in range(len(rows[0]) - 1 if rows else 0):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            pivot = min(live, key=lambda r: abs(r[col]))
            rest = [pivot]
            for r in live:
                if r is not pivot:
                    q = r[col] // pivot[col]
                    r = [x - q * y for x, y in zip(r, pivot)]
                    (rest if r[col] else rows).append(r)
            live = rest
    return math.gcd(*(r[-1] for r in rows))


@dataclass(frozen=True)
class DeltaStarReport:
    """The set of minimal distances Delta*(G) = {min Delta(G0) : G0 a
    subset of G with Delta(G0) nonempty}, exact."""

    group: FiniteAbelianGroup
    values: tuple[int, ...]
    subsets_scanned: int


def delta_star(group: FiniteAbelianGroup) -> DeltaStarReport:
    """Delta*(G): the nonzero min_distance of the atoms of each zero-free
    subset G0, sorted.  A subset with 0 has the Delta of the same subset
    without it, as 0 is a prime of B(G0), so every nonempty subset is
    covered.

    The scan is 2^|G|, so the group order is capped at
    DEFAULT_SUBSET_SCAN_MAX_ORDER.  Each subset's atom set, built uncached,
    is dropped after use.  The node cap bounds each subset's walk, not
    the scan's total.
    """
    els = elements(group)
    if len(els) > DEFAULT_SUBSET_SCAN_MAX_ORDER:
        raise ResourceLimitError("subset scan group order", DEFAULT_SUBSET_SCAN_MAX_ORDER, len(els))
    nonzero = els[1:]  # elements(group) starts with 0
    values: set[int] = set()
    for mask in range(1, 1 << len(nonzero)):
        subset = tuple(g for i, g in enumerate(nonzero) if mask >> i & 1)
        values.add(min_distance(build_atoms(group, subset, subset).vectors()))
    values.discard(0)  # half-factorial: Delta(G0) is empty
    return DeltaStarReport(group, tuple(sorted(values)), (1 << len(els)) - 1)


# -- half-factoriality and the {2, D(G)} criterion --------------------------------


@dataclass(frozen=True)
class HalfFactorialVerdict:
    """Exact; the witness of a "no-with-witness" verdict has two or more lengths."""

    kind: str  # "yes-exact" | "no-with-witness"
    witness: Sequence | None = None
    witness_lengths: LengthSet | None = None

    @property
    def is_half_factorial(self) -> bool:
        return self.kind == "yes-exact"


def _non_unit_atom(atoms: AtomSet) -> tuple[int, ...] | None:
    """The first atom vector of A(G0), in the set's (length, vector) order,
    whose cross number k(U) = sum_g v_g(U)/ord(g) is not 1; None when every
    atom has cross number 1, which holds iff B(G0) is half-factorial
    (Skula, Sliwa and Zaks; Geroldinger and Halter-Koch, 2006).  In
    integers, k(U) = 1 iff sum_g v_g(U) * exp(G)/ord(g) = exp(G)."""
    tab = atoms.tables
    weights = [tab.exp // tab.order[tab.index[g]] for g in atoms.letters]
    return next(
        (v for v in atoms.vectors() if sum(x * w for x, w in zip(v, weights)) != tab.exp), None
    )


def is_half_factorial(group: FiniteAbelianGroup, subset=None) -> HalfFactorialVerdict:
    """Exact half-factoriality of B(G0), G0 = subset (default: all of G), by
    the cross-number criterion (_non_unit_atom).  For the first atom U with
    k(U) != 1 and N the lcm of the orders of its support, the witness U^N
    is N atoms U and also N*k(U) != N atoms g^ord(g), so two lengths."""
    atoms = enumerate_atoms(group, subset)
    vec = _non_unit_atom(atoms)
    if vec is None:
        return HalfFactorialVerdict("yes-exact")
    u = Sequence.from_dense(group, atoms.letters, vec)
    witness = u ** math.lcm(*(atoms.tables.order[i] for i, _ in u.items))
    return HalfFactorialVerdict("no-with-witness", witness, length_set(witness, atoms))


@dataclass(frozen=True)
class TwoDavenportReport:
    """Search result for a length set equal to {2, D(G)}."""

    group: FiniteAbelianGroup
    davenport: int
    found: bool
    witness: Sequence | None
    atoms_scanned: int


def has_two_D_lengthset(group: FiniteAbelianGroup) -> TwoDavenportReport:
    """Decide exactly whether {2, D(G)} is a length set of B(G): only
    U(-U), for an atom U with |U| = D(G), can be a witness (the proof of
    Prop. 6.5).  A witness is a product UV of two atoms with D(G) in L(UV),
    as min {2, D(G)} = 2.  If U or V is the atom 0, L(UV) = 1 + L(V) = {2},
    a witness only if D(G) = 2 (G = C2), and then so is every product.
    Otherwise all D(G) factors have length >= 2 and |UV| <= 2D(G), so
    |U| = |V| = D(G) and UV is D(G) pairs g(-g).  An atom of length >= 3
    holds no pair g(-g) and at most one copy of an element of order 2, so
    -U divides V, and V = -U.  One query per longest atom, in the set's
    order, thus finds the first witness a scan of all pairs finds, or
    certifies there is none."""
    atoms = enumerate_atoms(group)
    dav, _ = davenport(group, atoms)
    target = LengthSet.of([2, dav])
    longest = [v for v in atoms.vectors() if sum(v) == dav]
    for scanned, v in enumerate(longest, 1):
        u = Sequence.from_dense(group, atoms.letters, v)
        witness = u * negate(u)
        if length_set(witness, atoms) == target:
            return TwoDavenportReport(group, dav, True, witness, scanned)
    return TwoDavenportReport(group, dav, False, None, len(longest))


# -- interval criterion sampling (subgroup support) --------------------------------


def _subgroup_indices(group: FiniteAbelianGroup) -> list[tuple[int, ...]]:
    """All subgroups as sorted element indices, by size and then indices.
    They are found by adding one cyclic subgroup at a time to {0}: for a
    subgroup H, H + <g> is again one."""
    tab = tables(group)
    subgroups = {frozenset([0])}
    frontier = list(subgroups)
    while frontier:
        sub = frontier.pop()
        for g in range(group.order):
            if g not in sub:
                bigger = frozenset(tab.add[h][tab.mult[g][k]] for h in sub for k in range(tab.order[g]))
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    frontier.append(bigger)
    return sorted((tuple(sorted(s)) for s in subgroups), key=lambda s: (len(s), s))


@dataclass(frozen=True)
class IntervalSupportReport:
    group: FiniteAbelianGroup
    samples: int
    seed: int
    failures: tuple[tuple[Sequence, LengthSet], ...]

    @property
    def ok(self) -> bool | None:
        return not self.failures if self.samples else None  # None: undecided


def interval_support_check(
    group: FiniteAbelianGroup, samples: int = 100, seed: int = 0
) -> IntervalSupportReport:
    """Sample zero-sum sequences whose support together with 0 is a subgroup
    and check every L(A) is an interval.  A failure would expose an
    implementation bug, not a gap in the underlying theory."""
    if samples < 0:
        raise InvalidArgumentError(f"sample count must be nonnegative: {samples}")
    rng = random.Random(seed)
    # element indices: the zero element 0 leads each subgroup
    subgroups = [s for s in _subgroup_indices(group) if len(s) >= 2] or [(0,)]
    tab = tables(group)
    atoms = enumerate_atoms(group)
    failures: list[tuple[Sequence, LengthSet]] = []
    for _ in range(samples):
        sub = rng.choice(subgroups)
        exps = {i: rng.randint(1, 3) for i in sub[1:]}
        if rng.random() < 0.5:
            exps[0] = rng.randint(1, 2)
        for _ in range(rng.randint(0, 8)):  # up to 8 extra letters
            i = rng.choice(sub)
            if i:
                exps[i] = exps.get(i, 0) + 1
        s = tab.neg[index_sum(tab, exps.items())]
        if s:
            exps[s] = exps.get(s, 0) + 1
        a = Sequence.of_indices(group, exps)
        ls = length_set(a, atoms)
        if not ls.is_interval():
            failures.append((a, ls))
    return IntervalSupportReport(group, samples, seed, tuple(failures))
