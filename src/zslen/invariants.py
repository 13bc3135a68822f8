"""Whole-monoid invariants of B(G0): systems of length sets, unions U_k,
elasticities, distance sets, half-factoriality and the small-group closed
forms used as oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add

from .atoms import AtomSet, build_atoms, davenport, enumerate_atoms
from .errors import InvalidArgumentError, ResourceLimitError
from .group import FiniteAbelianGroup, automorphisms, elements, tables
from .lengths import LengthSet, delta_of, engine_for, length_set
from .record import Record
from .sequence import Sequence, negate

# ceiling on the atom products one unions_range call forms
PRODUCT_LIMIT = 10**8
DEFAULT_SUBSET_SCAN_MAX_ORDER = 12
# The U_k walk keeps each atom's images under the automorphisms; past this
# many images, or this many entries in the automorphisms' tables, it uses
# only the identity and negation.  See the README's performance notes.
MAX_ATOM_IMAGES = 300_000


# -- systems of sets of lengths ------------------------------------------------


class SystemOfLengthSets(Record):
    """Deduplicated { L(B) : |B| <= bound } with one witness per entry.

    Witnesses are the first sequences found in the deterministic
    enumeration order, hence of minimal length for their length set.
    """

    __slots__ = ("group", "subset", "bound", "entries")

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
    mask, and stores none of them in the memo.  Each distinct mask keeps
    its first key in (length, lex) order: per level, the key of each mask
    not seen at a shorter length whose unpacked vector is lex-least.

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
    first: dict[int, int] = {}  # length mask -> first key
    for level in engine.product_levels(bound, atoms.prime_letters):
        fresh: dict[int, tuple] = {}  # new mask -> (vector, key)
        for key, mask in level.items():
            if mask not in first:
                order = engine.unpack(key)  # tuples compare in lex order
                seen = fresh.get(mask)
                if seen is None or order < seen[0]:
                    fresh[mask] = (order, key)
        first.update((mask, key) for mask, (_, key) in fresh.items())
    if lead:
        by_size: list[list[tuple[int, int]]] = [[] for _ in range(bound + 1)]
        for mask, key in first.items():
            by_size[sum(engine.unpack(key))].append((mask, key))
        # per length, c ascending: the first candidate to reach a set has
        # the least (length, c), and only the output is held
        first = {}
        for length in range(bound + 1):
            for c in range(length + 1):
                for mask, key in by_size[length - c]:
                    first.setdefault(mask << c, key + c)
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


class SystemComparison(Record):
    """Result of checking brute force against a closed-form system.  Every
    closed-form set L with D(G)*min L <= frontier must appear."""

    __slots__ = ("group", "bound", "frontier", "computed_not_in_family", "missing_at_frontier")

    @property
    def ok(self) -> bool:
        return not self.computed_not_in_family and not self.missing_at_frontier


def compare_with_closed_form(group: FiniteAbelianGroup, bound: int) -> SystemComparison:
    """Two-sided check of system(G, bound) against the closed form.

    Soundness needs no frontier: each computed L(B) is complete, so it must
    be a member of the family.  Completeness is only demanded of family
    sets guaranteed a witness within the bound: a set L has a witness of
    length at most D(G)*min L, and a D(G) margin is kept to stay clear of
    the truncation frontier.
    """
    sys = system(group, None, bound)
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


class UnionOfLengths(Record):
    """U_k with its extremes rho_k = max and lambda_k = min."""

    __slots__ = ("k", "values")

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
    about.  Level k+1 is built from (level k) x atoms, reduced the same way;
    it meets every orbit it builds, since sB * A = s(B * s^-1 A).  s
    permutes the key's fields, which never carry, so s(BA) = sB + sA: a
    level holds, for each orbit, the keys of one product's images, and a
    product's images are the sums of its factors' images.  s keeps sizes,
    so a level maps each size |B| to the images of its products.  A pair
    (product, atom) whose identity key the size has already formed is the
    same product again, so its images and maximum are formed at most once
    per identity key; the keys that are their orbit's largest image are the
    level's own keys, so only the others are kept in a set, which the
    identity alone leaves empty.

    The walk forms only the sizes that can still add a length.  No atom but
    [0:1] holds 0, so the atoms that divide a product B of atoms other than
    [0:1] are themselves not [0:1].  With m and M the least and largest
    size of those atoms, each factorization of B into l atoms has
    l*m <= |B| <= l*M, so L(B) lies in the span [ceil(|B|/M), floor(|B|/m)].
    Level j starts its union at the base 1 + U_(j-1), and since [0:1] is a
    prime, U_(j-1) holds (j-k) + U_(k-1) for j >= k: before level k, a
    product of size S at a level j >= k is known to add no length when its
    span lies in (j-k+1) + U_(k-1).  A size S of level k is needed when
    that fails for S itself or for some size S + z of a level j > k built
    from it, z a sum of t = j - k atom sizes.  Shifted back by j - k + 1,
    each of those spans holds k - 1, as (k+t)*m <= S + z <= (k+t)*M, so
    together they make the one interval
    [ceil((S - d)/M) - 1, floor((S + d)/m) - 1], d = (k_max - k)(M - m),
    whose ends z = t*m and z = t*M reach at t = k_max - k.  S is needed
    exactly when U_(k-1) does not hold that interval, a test of O(1) per
    size, and level k forms only its needed sizes.  That is exact: a
    skipped size adds no length at its level and builds no needed product
    above it.  A needed size less one atom's size is needed at level k - 1
    (U_(k-1) holds 1 + U_(k-2), and the interval one level down is wider),
    so the level meets every orbit of a needed size.

    A level visits its sizes largest first and ORs the length set of each
    product it queries into its union, which so fills early.  A product is
    queried only when the union does not yet hold its span, and at k_max a
    size stops being formed once the union holds its span.  A size is
    formed by rows, one product of size S - |A| of the level below times
    the atoms A of size |A|; each row adds the pairs (product, atom) it
    formed to a count, and the walk is refused once the count passes
    PRODUCT_LIMIT, less than one row past it.  A span is worked out when
    its size is visited, so nothing is held per size up to k_max * M.
    """
    if type(k_max) is not int or k_max < 1:
        raise InvalidArgumentError(f"k_max must be a positive integer: {k_max!r}")
    atoms = enumerate_atoms(group)
    engine = engine_for(atoms)
    images = _atom_images(atoms, engine.widen(k_max * max(map(max, atoms.vectors()))))
    factors: dict[int, list] = {}  # size -> images of the atoms of that size
    for a in images:
        factors.setdefault(sum(engine.unpack(a[0])), []).append(a)
    least, most = min(factors, default=1), max(factors, default=1)
    lengths_mask = engine.lengths_mask
    out: dict[int, UnionOfLengths] = {}
    # size -> images of one product per orbit; none when [0:1] is the one atom
    level = {0: [(0,) * len(images[0])]} if images else {}
    union_mask = 1  # U_0 = {0}
    formed = 0
    for k in range(1, k_max + 1):
        last = k == k_max  # the last level needs only the keys
        base = union_mask  # U_(k-1)
        lam, rho = (base & -base).bit_length() - 1, base.bit_length() - 1
        slack = (k_max - k) * (most - least)
        union_mask <<= 1
        nxt = {}
        for size in sorted({s + a for s in level for a in factors}, reverse=True):
            # the spans of size and of the sizes built from it, shifted back
            lo, hi = -(-(size - slack) // most) - 1, (size + slack) // least - 1
            if lam <= lo and hi <= rho and base >> lo & (full := (2 << hi - lo) - 1) == full:
                continue  # no product of this size can add a length
            span = (2 << size // least) - (1 << -(-size // most))
            if last and union_mask & span == span:
                continue
            # the identity keys formed at this size: those that are their
            # orbit's largest image are the keys of tops, the rest are in seen
            seen: set[int] = set()
            tops: dict[int, list | None] = {}  # largest image -> images
            rows = ((b, fs) for a, fs in factors.items() for b in level.get(size - a, ()))
            done = False  # the rest of the size adds nothing
            for b, fs in rows:
                b0, n = b[0], len(fs)
                for a in fs:
                    ident = b0 + a[0]
                    if ident in tops or ident in seen:
                        continue
                    top = max(map(add, b, a))
                    if top != ident:
                        seen.add(ident)
                    if top in tops:
                        continue
                    tops[top] = None if last else [*map(add, b, a)]
                    if union_mask & span != span:
                        union_mask |= lengths_mask(top)
                        done = last and union_mask & span == span
                        if done:
                            n = fs.index(a) + 1
                            break
                formed += n
                if formed > PRODUCT_LIMIT:
                    raise ResourceLimitError("atom products", PRODUCT_LIMIT, formed)
                if done:
                    break
            nxt[size] = list(tops.values())
        level = nxt
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


class DeltaReport(Record):
    """Observed distances of B(G0) up to a bound.  exact: B(G0) is
    half-factorial, or the distances are an interval from 1 that is stable
    across a D(G)-wide window."""

    __slots__ = ("group", "subset", "bound", "distances", "exact")


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


class DeltaStarReport(Record):
    """The set of minimal distances Delta*(G) = {min Delta(G0) : G0 a
    subset of G with Delta(G0) nonempty}, exact."""

    __slots__ = ("group", "values", "subsets_scanned")


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


class HalfFactorialVerdict(Record):
    """Exact: kind "yes-exact", or "no-with-witness" with a witness of two or more lengths."""

    __slots__ = ("kind", "witness", "witness_lengths")

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
        return HalfFactorialVerdict("yes-exact", None, None)
    u = Sequence.from_dense(group, atoms.letters, vec)
    witness = u ** math.lcm(*(atoms.tables.order[i] for i, _ in u.items))
    return HalfFactorialVerdict("no-with-witness", witness, length_set(witness, atoms))


class TwoDavenportReport(Record):
    """Search result for a length set equal to {2, D(G)}."""

    __slots__ = ("group", "davenport", "found", "witness", "atoms_scanned")


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


# -- Thm 6.3.1: subgroup supports give intervals ---------------------------------


class IntervalSupportReport(Record):
    """interval_support_check output: the number of zero-sum sequences
    checked, and each zero-free product whose length set is not an interval,
    with that set."""

    __slots__ = ("group", "bound", "checked", "failures")

    @property
    def ok(self) -> bool:
        return not self.failures


def interval_support_check(group: FiniteAbelianGroup, bound: int = 10) -> IntervalSupportReport:
    """Check Thm 6.3.1 on every A in B(G) with |A| <= bound: L(A) is an
    interval when supp(A) | {0} is a subgroup.  It reads the forward pass of
    system (FactorizationEngine.product_levels) over A(G), which yields
    every zero-free product B of length n with its length mask.  B stands
    for the bound - n + 1 sequences A = 0^c B with |A| <= bound, as L(A) =
    c + L(B) and supp(A) | {0} = supp(B) | {0}.  A finite set that holds 0
    and is closed under + is a subgroup; that test is made once per
    support.  L(B) is an interval when its mask, shifted down to bit 0, is
    2^k - 1.  A failure would expose an implementation bug, not a gap in
    the theorem."""
    if type(bound) is not int or bound < 0:
        raise InvalidArgumentError(f"bound must be a nonnegative integer: {bound!r}")
    atoms = enumerate_atoms(group)
    engine = engine_for(atoms)
    add = tables(group).add
    closed: dict[int, bool] = {}  # support bitmask over element indices -> closed under +
    checked = 0
    failures: list[tuple[Sequence, LengthSet]] = []
    for n, level in enumerate(engine.product_levels(bound, atoms.prime_letters)):
        for key, mask in level.items():
            vec = engine.unpack(key)
            # letter i is element i, and 0 is letter 0
            support = 1 | sum(1 << i for i, x in enumerate(vec) if x)
            ok = closed.get(support)
            if ok is None:
                members = [i for i in range(len(vec)) if support >> i & 1]
                ok = closed[support] = all(
                    support >> add[a][b] & 1 for a in members for b in members)
            if ok:
                checked += bound - n + 1
                low = mask >> (mask & -mask).bit_length() - 1
                if low & low + 1:
                    failures.append(
                        (Sequence.from_dense(group, atoms.letters, vec), engine.set_of(mask)))
    return IntervalSupportReport(group, bound, checked, tuple(failures))
