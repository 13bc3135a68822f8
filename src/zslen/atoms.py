"""Minimal zero-sum sequences: atom enumeration and Davenport constants.

The enumerator walks the exponent lattice over a weighted alphabet
depth-first and keeps only Dickson-minimal nonzero zero-sum vectors.  Two
prunes make this tractable: a subtree is discarded as soon as the partial
vector dominates an already-found atom, and as soon as the running sum can
no longer return to zero within the per-letter multiplicity caps.  The cap
v(letter) <= ord(class(letter)) is safe: any vector exceeding it is
divisible by the proper zero-sum power letter^ord.  The letters are taken
by descending level in a chain of subgroups of prime index (tables.level),
so past the letters above level j the rest lie in H_j and the second
prune cuts every prefix whose sum is outside H_j; in element order a few
last letters generate most of G and it seldom cuts.

The dominance test is in complement form over big-int bitsets whose bit
j marks found atom j: above[i][k] holds the atoms with entry i greater
than k, and within[i] those whose last nonzero letter is at most i.  A
node at depth i with partial vector v lies above an atom iff some bit of
within[i] is in no above[l][v[l]], l <= i.  The OR of those rows over
the fixed prefix l < i is carried down the recursion, so a test costs
two big-int operations however many letters and atoms there are, and a
new atom is ORed only into the rows below its own nonzero entries.
below_rows builds the direct form (one AND per letter), which checks that
an atom list is an antichain (divisible_pairs, for the cache validation)
and finds the atoms dividing an element in the factorization engine.

An AtomSet holds the walk's vectors over letters with classes, and owns
the one engine built over it.  Letters are labels: the elements of G0 for
B(G0), prime names for a Krull instance.  build_atoms, the one builder,
caches nothing; the owner of an atom set decides how long its memo lives.
enumerate_atoms keeps one set per (group, G0), so repeated length queries
and the verify suites reuse one memo; a KrullInstance owns its H-atoms,
which die with it; delta_star owns nothing and drops each subset's set.
Only a walk proves a list of atoms complete, so the whole-monoid scans of
B(G0) take no atom set: each resolves A(G0) by enumerate_atoms itself.

The two ceilings are set once, by `with limits(...)`, and read only where
work is charged: the node cap once per walk, by minimal_nonzero_vectors,
and the memo cap by the factorization engine on a memo miss.  They bound
one walk and one engine's held entries, not a command's total.  No cache
is keyed by a ceiling: held_to_node_cap holds a cached set to the node
cap in force, as a fresh walk under it would raise.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

from .errors import InvalidArgumentError, ResourceLimitError
from .group import FiniteAbelianGroup, GroupElement, elements, tables
from .sequence import Sequence, canonical_subset, index_sum, is_zero_sum

DEFAULT_NODE_LIMIT = 10**8
DEFAULT_MEMO_LIMIT = 10**7  # memo entries of a factorization engine (lengths.engine_for)
# (lattice nodes of one atom walk, memo entries of one engine), set by limits
CAPS: ContextVar[tuple[int, int]] = ContextVar(
    "zslen_caps", default=(DEFAULT_NODE_LIMIT, DEFAULT_MEMO_LIMIT))


@contextmanager
def limits(*, node_limit: int | None = None, memo_limit: int | None = None):
    """Set the node cap of each atom walk and the memo cap of each
    factorization engine for the calls in the block; a cap left out keeps
    its current value, and each is restored on exit.  A cap that is not an
    int (a bool included) is refused on entry; a cap below 1 refuses any
    work it charges."""
    node, memo = CAPS.get()
    for name, value in (("node limit", node_limit), ("memo limit", memo_limit)):
        if value is not None and type(value) is not int:
            raise InvalidArgumentError(f"{name} must be an integer: {value!r}")
    token = CAPS.set((node if node_limit is None else node_limit,
                      memo if memo_limit is None else memo_limit))
    try:
        yield
    finally:
        CAPS.reset(token)


def below_rows(vectors, caps) -> list[list[int]]:
    """rows[i][k] has bit j set when vectors[j][i] <= k, for k up to
    caps[i]: the AND over letters of rows[i][v[i]] marks the vectors below
    v, for v within caps.  They serve divisible_pairs and the factorization
    engine's divisor buckets; the atom walk keeps its own complement-form
    rows (minimal_nonzero_vectors)."""
    rows = [[0] * (c + 1) for c in caps]
    for j, vec in enumerate(vectors):
        bit = 1 << j
        for row, f in zip(rows, vec):
            for k in range(f, len(row)):
                row[k] |= bit
    return rows


def divisible_pairs(vectors) -> list[tuple[int, int]]:
    """Position pairs (j, l), j != l, with vectors[j] <= vectors[l]
    componentwise; empty iff the vectors form an antichain without repeats."""
    rows = below_rows(vectors, [max(col, default=0) for col in zip(*vectors)])
    full, pairs = (1 << len(vectors)) - 1, []
    for l, v in enumerate(vectors):
        mask = full ^ (1 << l)
        for row, x in zip(rows, v):
            if not mask:
                break
            mask &= row[x]
        while mask:
            low = mask & -mask
            pairs.append((low.bit_length() - 1, l))
            mask ^= low
    return pairs


def minimal_nonzero_vectors(
    group: FiniteAbelianGroup, letter_classes: tuple[int, ...]
) -> tuple[list[tuple[int, ...]], int]:
    """Dickson-minimal nonzero vectors v with sum_i v[i]*class_i = 0.

    letter_classes gives the element index (into elements(group)) of each
    alphabet letter.  Returns the minimal vectors over the letter order,
    sorted by (total, vector), together with the number of lattice nodes
    visited.  The walk raises ResourceLimitError at the first node past
    the node cap (limits).
    """
    node_limit = CAPS.get()[0]
    tab = tables(group)
    add, neg_t, level = tab.add, tab.neg, tab.level
    m = len(letter_classes)
    # depth -> letter: by descending chain level, ties in letter order, so
    # the zero element comes last
    walk = sorted(range(m), key=lambda i: -level[letter_classes[i]])
    classes = [letter_classes[p] for p in walk]
    caps = [tab.order[c] for c in classes]

    # reach[i] = sums achievable by the letters at depth i.. within their caps;
    # past the letters of level above j it lies in H_j
    reach: list[set[int]] = [set() for _ in range(m + 1)]
    reach[m] = {0}
    for i in range(m - 1, -1, -1):
        span = set(tab.mult[classes[i]])  # the multiples of the letter at depth i
        reach[i] = {add[s][mu] for s in reach[i + 1] for mu in span}

    found: list[tuple[int, ...]] = []
    # Bit j of a mask stands for found[j].  above[i][k]: the atoms with entry
    # i greater than k (row caps[i] stays 0).  within[i]: the atoms whose last
    # letter, the depth where the walk found them, is at most i.  Both are
    # indexed by depth; vec, and so each atom, is over the letter order.
    above = [[0] * (c + 1) for c in caps]
    within = [0] * m
    vec = [0] * m
    path: list[int] = []  # the depths whose entry is nonzero on the current path
    nodes = 0

    def rec(i: int, s: int, excl: int):
        # excl = OR of above[l][vec[walk[l]]] over depths l < i: the atoms the
        # fixed prefix does not reach.  It stays exact for the whole
        # subtree, as every atom found below shares the prefix.
        nonlocal nodes
        if i == m:
            return
        w, row, p = classes[i], above[i], walk[i]
        if neg_t[s] in reach[i + 1]:
            rec(i + 1, s, excl | row[0])
        # a node (i, k) lies above an atom iff a bit of candidates is not in
        # row[k]; atoms found below have their last letter past i, so
        # within[i], and with it candidates, stays put during the loop
        candidates = within[i] & ~excl
        x = s
        path.append(i)
        for k in range(1, caps[i] + 1):
            nodes += 1
            if nodes > node_limit:
                raise ResourceLimitError("lattice node", node_limit)
            x = add[x][w]
            vec[p] = k
            if candidates & ~row[k]:
                break  # dominated: so are larger k and every extension
            if x == 0:
                bit = 1 << len(found)
                found.append(tuple(vec))
                for l in path:
                    rows = above[l]
                    for r in range(vec[walk[l]]):
                        rows[r] |= bit
                for l in range(i, m):
                    within[l] |= bit
                break  # larger k and any extension dominate this atom
            if neg_t[x] in reach[i + 1]:
                rec(i + 1, x, excl | row[k])
        path.pop()
        vec[p] = 0

    if 0 in reach[0]:
        rec(0, 0, 0)
    found.sort(key=lambda v: (sum(v), v))
    return found, nodes


@dataclass(frozen=True)
class AtomSet:
    """The atoms of a monoid of class-sum-zero words (B(G0), or the H of a
    Krull instance), held as dense exponent vectors over the letter order.
    `engine` is this set's one FactorizationEngine, built by
    lengths.engine_for on first use; calls under any memo cap share its
    memo."""

    group: FiniteAbelianGroup
    letters: tuple  # labels: elements of G0, or prime names
    atom_vectors: tuple[tuple[int, ...], ...]
    nodes_visited: int = field(default=0, compare=False)
    engine: object = field(default=None, init=False, compare=False, repr=False)

    def __len__(self):
        return len(self.atom_vectors)

    @cached_property
    def atoms(self) -> tuple[Sequence, ...]:
        """The atoms as Sequences over G0, built on first use; an atom set
        over a Krull instance's primes has none, and raises."""
        return tuple(Sequence.from_dense(self.group, self.letters, v) for v in self.atom_vectors)

    @cached_property
    def prime_letters(self) -> tuple[int, ...]:
        """Positions of the letters whose unit vector is an atom that no
        other atom uses: the zero element of B(G0), the primes of class 0
        of a Krull instance.  Such a letter p is a prime of the monoid, so
        L(p^c * B) = c + L(B); the whole-monoid scans factor it out."""
        vectors = self.atom_vectors
        units = sorted({v.index(1) for v in vectors if sum(v) == 1})
        return tuple(i for i in units if sum(1 for v in vectors if v[i]) == 1)

    @cached_property
    def positions(self) -> dict:
        """Position of each letter in the letter order, keyed by element
        index for B(G0); a Krull instance's prime names key themselves, so
        the element indices of a Sequence miss them."""
        return {self.tables.index.get(g, g): i for i, g in enumerate(self.letters)}

    @cached_property
    def tables(self):
        """tables(group), kept for the queries against this set."""
        return tables(self.group)

    def vectors(self) -> tuple[tuple[int, ...], ...]:
        """Dense exponent vectors of the atoms over the letter order."""
        return self.atom_vectors


def build_atoms(group: FiniteAbelianGroup, letters: tuple, classes: tuple) -> AtomSet:
    """The atom set over letters whose classes (elements of the group) are
    given in letter order.  Walks afresh on every call."""
    index = tables(group).index
    vectors, nodes = minimal_nonzero_vectors(group, tuple(index[g] for g in classes))
    return AtomSet(group, letters, tuple(vectors), nodes)


def held_to_node_cap(atoms: AtomSet | None) -> AtomSet | None:
    """A cached atom set (None: none yet) held to the node cap: it raises
    where a fresh walk would, as a walk raises iff it visits more nodes
    than the cap."""
    node_limit = CAPS.get()[0]
    if atoms is not None and atoms.nodes_visited > node_limit:
        raise ResourceLimitError("lattice node", node_limit)
    return atoms


# A(G0) per (group, G0); atom sets are immutable, so sharing them is safe
_ATOM_SETS: dict[tuple[FiniteAbelianGroup, tuple[GroupElement, ...]], AtomSet] = {}


def enumerate_atoms(group: FiniteAbelianGroup, subset=None) -> AtomSet:
    """Enumerate A(G0) for G0 a subset of the group (default: all of it).

    One set is cached per (group, subset), and with it its engine's memo;
    a walk that the node cap refuses caches nothing.
    """
    alphabet = canonical_subset(group, subset)
    if not alphabet:
        raise InvalidArgumentError("subset must be nonempty")
    atoms = held_to_node_cap(_ATOM_SETS.get((group, alphabet)))
    if atoms is None:
        atoms = _ATOM_SETS[group, alphabet] = build_atoms(group, alphabet, alphabet)
    return atoms


def is_atom(s: Sequence) -> bool:
    """Exact atomicity test by scanning the exponent lattice below s.

    Cost is the product of (multiplicity+1) over the support, so keep this
    to sequences of modest length; enumeration should use enumerate_atoms.
    """
    if s.length == 0 or not is_zero_sum(s):
        return False
    tab, letters = tables(s.group), [i for i, _ in s.items]
    k = len(letters)
    sub = [0] * k

    def rec(i: int) -> bool:
        # True iff a proper nonempty zero-sum divisor exists below items[i:]
        if i == k:
            total = sum(sub)
            if total == 0 or total == s.length:
                return False
            return not index_sum(tab, zip(letters, sub))
        for c in range(s.items[i][1] + 1):
            sub[i] = c
            if rec(i + 1):
                return True
        sub[i] = 0
        return False

    return not rec(0)


def davenport(group: FiniteAbelianGroup, atoms: AtomSet | None = None) -> tuple[int, Sequence]:
    """D(G) = max atom length, with a witness atom of that length.  A given
    atom set must be A(G): one over another alphabet raises, but only the
    walk proves a set complete, so one that lacks an atom is trusted."""
    if atoms is None:
        atoms = enumerate_atoms(group)
    elif atoms.letters != elements(group):  # elements compare their groups too
        raise InvalidArgumentError(f"atom set does not match the alphabet of B(G) over {group}")
    # every nonempty G0 carries at least the atom g^ord(g); max keeps the
    # first longest vector, the first longest atom in (length, vector) order
    best = max(atoms.vectors(), key=sum)
    return sum(best), Sequence.from_dense(atoms.group, atoms.letters, best)


def davenport_star(group: FiniteAbelianGroup) -> int:
    """D*(G) = 1 + sum over invariant factors of (n_i - 1); trivial group -> 1."""
    return 1 + sum(n - 1 for n in group.invariant_factors)

