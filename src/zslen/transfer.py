"""Concrete reduced Krull monoids H inside a free abelian monoid of primes,
the class-replacement map beta: H -> B(G0), and randomized checks that beta
preserves sets of lengths.

The direct engine never consults beta: H is the monoid of class-sum-zero
words over the primes, as B(G0) is over G0, so its atoms come from the
builder of A(G0) (atoms.build_atoms, with the prime names as letters and
the class map as their classes) and its lengths from the same engine_for.
A KrullInstance owns its atom set per node limit, and with it the engines
and their memos: they die with the instance and never enter the
enumerate_atoms cache.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .atoms import DEFAULT_NODE_LIMIT, AtomSet, build_atoms, enumerate_atoms
from .errors import InvalidArgumentError
from .group import FiniteAbelianGroup, GroupElement, tables
from .lengths import DEFAULT_MEMO_LIMIT, LengthSet, engine_for, length_set
from .sequence import Sequence, canonical_subset, is_zero_sum


@dataclass(frozen=True)
class KrullInstance:
    """A finite prime set P with a class map onto G0; H = class-sum-zero words."""

    group: FiniteAbelianGroup
    subset: tuple[GroupElement, ...]  # G0, in canonical order
    primes: tuple[str, ...]
    classes: tuple[GroupElement, ...]  # class of each prime, aligned with primes
    # the atom set of H per node limit (instance_atoms), with its engines
    atom_sets: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if len(self.primes) != len(self.classes):
            raise InvalidArgumentError("one class per prime required")
        if len(set(self.primes)) != len(self.primes):
            raise InvalidArgumentError("prime labels must be distinct")
        if any(g.group != self.group for g in self.classes):
            raise InvalidArgumentError("class from a different group")
        if set(self.classes) != set(self.subset):
            raise InvalidArgumentError("class map must be surjective onto G0")

    @cached_property
    def class_by_prime(self) -> dict[str, int]:
        """The element index (into elements(group)) of each prime's class."""
        index = tables(self.group).index
        return {p: index[g] for p, g in zip(self.primes, self.classes)}


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


@dataclass(frozen=True)
class PrimeWord:
    """An element of F(P), stored as sorted (prime, multiplicity) pairs."""

    items: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if any(m <= 0 for _, m in self.items):
            raise InvalidArgumentError("multiplicities must be positive")
        if tuple(sorted(self.items)) != self.items:
            raise InvalidArgumentError("items not sorted")
        if len({p for p, _ in self.items}) != len(self.items):
            raise InvalidArgumentError("duplicate prime")

    @classmethod
    def make(cls, exponents: Mapping[str, int]) -> "PrimeWord":
        return cls(tuple(sorted((p, m) for p, m in exponents.items() if m != 0)))

    @property
    def length(self) -> int:
        return sum(m for _, m in self.items)

    # both hold (letter, multiplicity) items: one fold for words and sequences
    dense_at = Sequence.dense_at

    def letter(self, p: str) -> str:
        return p

    @classmethod
    def from_dense(cls, primes: tuple[str, ...], vec) -> "PrimeWord":
        return cls.make({p: m for p, m in zip(primes, vec) if m})

    def __mul__(self, other: "PrimeWord") -> "PrimeWord":
        return PrimeWord.make(Counter(dict(self.items)) + Counter(dict(other.items)))

    def __str__(self):
        return "[" + ",".join(f"{p}:{m}" for p, m in self.items) + "]"


def class_image(instance: KrullInstance, word: PrimeWord) -> Sequence:
    """Replace every prime of a word of F(P) by its class."""
    exps: dict[int, int] = {}
    for p, m in word.items:
        i = instance.class_by_prime.get(p)
        if i is None:
            raise InvalidArgumentError(f"prime {p!r} is not in the instance")
        exps[i] = exps.get(i, 0) + m
    return Sequence.of_indices(instance.group, exps)


def in_monoid(instance: KrullInstance, word: PrimeWord) -> bool:
    return is_zero_sum(class_image(instance, word))


def beta(instance: KrullInstance, word: PrimeWord) -> Sequence:
    """Replace every prime by its class; defined exactly on H."""
    image = class_image(instance, word)
    if not is_zero_sum(image):
        raise InvalidArgumentError(f"word {word} is not in the Krull monoid")
    return image


def instance_atoms(
    instance: KrullInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> AtomSet:
    """Atoms of H, the Dickson-minimal nonzero class-sum-zero prime vectors,
    as the instance's atom set over its primes; walked once per node limit."""
    atoms = instance.atom_sets.get(node_limit)
    if atoms is None:
        atoms = instance.atom_sets[node_limit] = build_atoms(
            instance.group, instance.primes, instance.classes, node_limit
        )
    return atoms


def direct_length_set(
    instance: KrullInstance,
    word: PrimeWord,
    node_limit: int = DEFAULT_NODE_LIMIT,
    memo_limit: int = DEFAULT_MEMO_LIMIT,
) -> LengthSet:
    """L_H(word) computed inside H, with no use of beta.

    As in length_set, a word whose key the memo holds with a positive mask
    is a product of atoms, hence in H, and is read from the memo; only
    other words pay the class-sum check and the query."""
    atoms = instance.atom_sets.get(node_limit)  # a refused word walks no atoms
    engine = atoms.engines.get(memo_limit) if atoms is not None else None
    key = engine and engine.product_key(word.items, atoms.positions)
    if key is not None:
        return engine.set_of(engine.lengths_mask(key))
    if not in_monoid(instance, word):
        raise InvalidArgumentError(f"word {word} is not in the Krull monoid")
    atoms = instance_atoms(instance, node_limit)
    engine = engine_for(atoms, memo_limit)
    return engine.set_of(engine.lengths_mask(word.dense_at(atoms.positions)))


def random_word(instance: KrullInstance, rng: random.Random, max_length: int) -> PrimeWord:
    """A random element of H of length at most max_length: draw primes
    uniformly, then append one prime fixing the class sum.  When no class
    can fix the sum (possible for proper subsets G0) the draw is retried;
    the empty word is the final fallback."""
    by_prime, tab = instance.class_by_prime, tables(instance.group)
    for _ in range(64):
        target = rng.randint(0, max(0, max_length - 1))
        exps: dict[str, int] = {}
        total = 0  # the index of the class sum; 0 is the zero element
        for _ in range(target):
            p = rng.choice(instance.primes)
            exps[p] = exps.get(p, 0) + 1
            total = tab.add[total][by_prime[p]]
        if total == 0:
            return PrimeWord.make(exps)
        fixers = [p for p in instance.primes if by_prime[p] == tab.neg[total]]
        if fixers:
            p = rng.choice(fixers)
            exps[p] = exps.get(p, 0) + 1
            return PrimeWord.make(exps)
    return PrimeWord.make({})


@dataclass(frozen=True)
class TransferCheckReport:
    instance: KrullInstance
    samples: int
    seed: int
    max_word_length: int
    failures: tuple[tuple[PrimeWord, LengthSet, LengthSet], ...]

    @property
    def passes(self) -> int:
        return self.samples - len(self.failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def check_transfer(
    instance: KrullInstance,
    sample_count: int = 100,
    max_word_length: int = 10,
    seed: int = 0,
    node_limit: int = DEFAULT_NODE_LIMIT,
    memo_limit: int = DEFAULT_MEMO_LIMIT,
) -> TransferCheckReport:
    """Sample words of H and compare the direct length set against the length
    set of the class image; any mismatch is an implementation bug."""
    rng = random.Random(seed)
    b_atoms = enumerate_atoms(instance.group, instance.subset, node_limit)
    failures = []
    for _ in range(sample_count):
        a = random_word(instance, rng, max_word_length)
        direct = direct_length_set(instance, a, node_limit, memo_limit)
        transferred = length_set(beta(instance, a), b_atoms, memo_limit)
        if direct != transferred:
            failures.append((a, direct, transferred))
    return TransferCheckReport(
        instance, sample_count, seed, max_word_length, tuple(failures)
    )


@dataclass(frozen=True)
class AtomCorrespondenceReport:
    instance: KrullInstance
    h_atom_count: int
    b_atom_count: int
    image_mismatch: tuple[Sequence, ...]  # beta images that are not atoms of B(G0)
    unlifted: tuple[Sequence, ...]  # atoms of B(G0) missed by beta(atoms of H)

    @property
    def ok(self) -> bool:
        return not self.image_mismatch and not self.unlifted


def check_atom_correspondence(
    instance: KrullInstance, node_limit: int = DEFAULT_NODE_LIMIT
) -> AtomCorrespondenceReport:
    """Cross-enumerate: beta maps atoms of H exactly onto A(G0)."""
    h_atoms = instance_atoms(instance, node_limit)
    b_atoms = enumerate_atoms(instance.group, instance.subset, node_limit)
    b_set = set(b_atoms.atoms)
    images = {beta(instance, PrimeWord.from_dense(instance.primes, v)) for v in h_atoms.vectors()}
    mismatch = tuple(sorted((s for s in images - b_set), key=str))
    unlifted = tuple(sorted((s for s in b_set - images), key=str))
    return AtomCorrespondenceReport(
        instance, len(h_atoms), len(b_atoms), mismatch, unlifted
    )
