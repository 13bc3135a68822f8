"""Concrete reduced Krull monoids H inside a free abelian monoid of primes,
the class-replacement map beta: H -> B(G0), and randomized checks that beta
preserves sets of lengths.

A word of F(P) is a tuple of ints, its exponent vector over
instance.primes, as an H-atom is.  Membership folds the class indices
(class_by_prime) over it; only class_image and beta build a Sequence.
The direct engine never consults beta: H is the monoid of class-sum-zero
words over the primes, as B(G0) is over G0, so its atoms come from the
builder of A(G0) (atoms.build_atoms, with the prime names as letters and
the class map as their classes) and its lengths from the same engine_for,
which takes a word as it is.
A KrullInstance owns its one atom set, and with it the set's engine and
memo: they die with the instance and never enter the enumerate_atoms
cache.  The set is held to the node cap as enumerate_atoms holds its own
(atoms.held_to_node_cap).
"""

from __future__ import annotations

import random
from functools import cached_property

from .atoms import AtomSet, build_atoms, enumerate_atoms, held_to_node_cap
from .errors import InvalidArgumentError
from .group import FiniteAbelianGroup, GroupElement, tables
from .lengths import LengthSet, engine_for, length_set
from .record import Record, _set
from .sequence import Sequence, canonical_subset, encode_dense, index_sum, is_zero_sum


class KrullInstance(Record):
    """A finite prime set P with a class map onto G0; H = class-sum-zero words.
    `atom_set` is the atom set of H (instance_atoms), with its engine, built
    on first use and not compared."""

    __slots__ = ("group", "subset", "primes", "classes", "atom_set", "__dict__",
                 "__weakref__")
    _fields = _args = __slots__[:4]

    def __init__(self, group: FiniteAbelianGroup, subset: tuple[GroupElement, ...],
                 primes: tuple[str, ...], classes: tuple[GroupElement, ...]):
        # subset is G0 in canonical order; classes[i] is the class of primes[i]
        if len(primes) != len(classes):
            raise InvalidArgumentError("one class per prime required")
        if len(set(primes)) != len(primes):
            raise InvalidArgumentError("prime labels must be distinct")
        if any(g.group != group for g in classes):
            raise InvalidArgumentError("class from a different group")
        if set(classes) != set(subset):
            raise InvalidArgumentError("class map must be surjective onto G0")
        super().__init__(group, subset, primes, classes)
        _set(self, "atom_set", None)

    @cached_property
    def class_by_prime(self) -> tuple[int, ...]:
        """The element index (into elements(group)) of each prime's class,
        in prime order."""
        index = tables(self.group).index
        return tuple(index[g] for g in self.classes)


def make_instance(
    group: FiniteAbelianGroup,
    subset=None,
    primes_per_class: int = 2,
) -> KrullInstance:
    """An instance with the given number of primes over every class of G0."""
    if primes_per_class < 1:
        raise InvalidArgumentError("need at least one prime per class")
    g0 = canonical_subset(group, subset)
    pairs = [(f"p{i}.{j}", g) for i, g in enumerate(g0) for j in range(primes_per_class)]
    return KrullInstance(group, g0, tuple(p for p, _ in pairs), tuple(g for _, g in pairs))


def _check(instance: KrullInstance, word: tuple[int, ...]) -> None:
    """Raise unless the word is one nonnegative int per prime."""
    if len(word) != len(instance.primes) or any(type(m) is not int or m < 0 for m in word):
        raise InvalidArgumentError(
            f"word {word!r} is not {len(instance.primes)} nonnegative ints, one per prime")


def class_image(instance: KrullInstance, word: tuple[int, ...]) -> Sequence:
    """Replace every prime of a word of F(P) by its class."""
    _check(instance, word)
    exps: dict[int, int] = {}
    for i, m in zip(instance.class_by_prime, word):
        exps[i] = exps.get(i, 0) + m
    return Sequence.of_indices(instance.group, exps)


def in_monoid(instance: KrullInstance, word: tuple[int, ...]) -> bool:
    _check(instance, word)
    return not index_sum(tables(instance.group), zip(instance.class_by_prime, word))


def beta(instance: KrullInstance, word: tuple[int, ...]) -> Sequence:
    """Replace every prime by its class; defined exactly on H."""
    image = class_image(instance, word)
    if not is_zero_sum(image):
        raise InvalidArgumentError(f"word {encode_dense(instance.primes, word)} is not in the Krull monoid")
    return image


def instance_atoms(instance: KrullInstance) -> AtomSet:
    """Atoms of H, the Dickson-minimal nonzero class-sum-zero prime vectors,
    as the instance's atom set over its primes; walked once per instance."""
    atoms = held_to_node_cap(instance.atom_set)
    if atoms is None:
        atoms = build_atoms(instance.group, instance.primes, instance.classes)
        _set(instance, "atom_set", atoms)  # the instance is frozen
    return atoms


def direct_length_set(instance: KrullInstance, word: tuple[int, ...]) -> LengthSet:
    """L_H(word) computed inside H, with no use of beta."""
    if not in_monoid(instance, word):  # before instance_atoms: a refused word walks nothing
        raise InvalidArgumentError(f"word {encode_dense(instance.primes, word)} is not in the Krull monoid")
    engine = engine_for(instance_atoms(instance))
    return engine.set_of(engine.lengths_mask(word))


def random_word(instance: KrullInstance, rng: random.Random, max_length: int) -> tuple[int, ...]:
    """A random element of H of length at most max_length: draw primes
    uniformly, then append one prime fixing the class sum.  When no class
    can fix the sum (possible for proper subsets G0) the draw is retried;
    the empty word is the final fallback."""
    classes, tab = instance.class_by_prime, tables(instance.group)
    primes = range(len(classes))
    for _ in range(64):
        target = rng.randint(0, max(0, max_length - 1))
        word = [0] * len(classes)
        total = 0  # the index of the class sum; 0 is the zero element
        for _ in range(target):
            p = rng.choice(primes)
            word[p] += 1
            total = tab.add[total][classes[p]]
        if total == 0:
            return tuple(word)
        fixers = [p for p in primes if classes[p] == tab.neg[total]]
        if fixers:
            word[rng.choice(fixers)] += 1
            return tuple(word)
    return (0,) * len(classes)


class TransferCheckReport(Record):
    __slots__ = ("instance", "samples", "seed", "max_word_length", "failures")

    @property
    def passes(self) -> int:
        return self.samples - len(self.failures)

    @property
    def ok(self) -> bool | None:
        return not self.failures if self.samples else None  # None: undecided


def check_transfer(
    instance: KrullInstance,
    sample_count: int = 100,
    max_word_length: int = 10,
    seed: int = 0,
) -> TransferCheckReport:
    """Sample words of H and compare the direct length set against the length
    set of the class image; any mismatch is an implementation bug.  Below
    a word length of 2, random_word draws only the empty word, so such a
    check would pass having checked nothing: it is refused."""
    if sample_count < 0 or max_word_length < 0:
        raise InvalidArgumentError(
            f"sample count and word length must be nonnegative: {sample_count}, {max_word_length}")
    if max_word_length < 2:
        raise InvalidArgumentError(
            f"word length must be at least 2, below it only the empty word is drawn: {max_word_length}")
    rng = random.Random(seed)
    b_atoms = enumerate_atoms(instance.group, instance.subset)
    failures = []
    for _ in range(sample_count):
        a = random_word(instance, rng, max_word_length)
        direct = direct_length_set(instance, a)
        transferred = length_set(beta(instance, a), b_atoms)
        if direct != transferred:
            failures.append((a, direct, transferred))
    return TransferCheckReport(instance, sample_count, seed, max_word_length, tuple(failures))


class AtomCorrespondenceReport(Record):
    """image_mismatch: beta images outside A(G0); unlifted: atoms of A(G0)
    that no H-atom maps to."""

    __slots__ = ("instance", "h_atom_count", "b_atom_count", "image_mismatch", "unlifted")

    @property
    def ok(self) -> bool:
        return not self.image_mismatch and not self.unlifted


def check_atom_correspondence(instance: KrullInstance) -> AtomCorrespondenceReport:
    """Cross-enumerate: beta maps atoms of H exactly onto A(G0).  The
    images are summed onto A(G0)'s letters as vectors; only a reported
    mismatch becomes a Sequence."""
    h_atoms = instance_atoms(instance)
    b_atoms = enumerate_atoms(instance.group, instance.subset)
    b_set = set(b_atoms.vectors())
    at = [b_atoms.positions[c] for c in instance.class_by_prime]  # each prime's letter in A(G0)
    images = set()
    for v in h_atoms.vectors():
        image = [0] * len(b_atoms.letters)
        for i, m in zip(at, v):
            image[i] += m
        images.add(tuple(image))

    def sequences(vectors):
        seqs = (Sequence.from_dense(instance.group, b_atoms.letters, v) for v in vectors)
        return tuple(sorted(seqs, key=str))

    mismatch, unlifted = sequences(images - b_set), sequences(b_set - images)
    return AtomCorrespondenceReport(instance, len(h_atoms), len(b_atoms), mismatch, unlifted)
