import hashlib
import random

import pytest

from zslen import transfer
from zslen.atoms import AtomSet, enumerate_atoms, is_atom
from zslen.errors import InvalidArgumentError
from zslen.group import make_group, zero
from zslen.lengths import LengthSet, length_set
from zslen.sequence import parse_sequence, sigma
from zslen.transfer import (
    beta,
    class_image,
    check_atom_correspondence,
    check_transfer,
    direct_length_set,
    in_monoid,
    instance_atoms,
    make_instance,
    random_word,
)


def word_product(a, b):
    """The product of two words of F(P): the sum of their vectors."""
    return tuple(x + y for x, y in zip(a, b))


def test_beta_basics(c3):
    inst = make_instance(c3, [c3.element([1]), c3.element([2])], 1)
    image = beta(inst, (1, 1))
    assert image == parse_sequence(c3, "[1:1,2:1]")
    assert beta(inst, (0, 0)) == parse_sequence(c3, "[]")
    with pytest.raises(InvalidArgumentError, match=r"word \[p0\.0:1\] is not in the Krull monoid"):
        beta(inst, (1, 0))


WORD_FUNCTIONS = [beta, in_monoid, class_image, direct_length_set]


@pytest.mark.parametrize("fn", WORD_FUNCTIONS)
def test_prime_outside_instance_is_invalid_argument(c3, fn):
    # an exponent past the instance's primes makes the vector too wide
    inst = make_instance(c3, None, 1)
    with pytest.raises(InvalidArgumentError, match="one per prime"):
        fn(inst, (3, 0, 0, 1))
    assert inst.atom_set is None


@pytest.mark.parametrize("fn", WORD_FUNCTIONS)
@pytest.mark.parametrize("word", [(3, 0), (3, -1, 1), (3, 0, 0.0), (3, True, 1)])
def test_malformed_word_is_invalid_argument(c3, fn, word):
    # too short, negative, float and bool entries
    inst = make_instance(c3, None, 1)
    with pytest.raises(InvalidArgumentError, match="one per prime"):
        fn(inst, word)
    assert inst.atom_set is None


def test_beta_images_are_zero_sum(c4):
    inst = make_instance(c4, None, 2)
    rng = random.Random(5)
    for _ in range(50):
        a = random_word(inst, rng, 9)
        assert in_monoid(inst, a)
        assert sigma(beta(inst, a)) == zero(c4)


def test_beta_is_homomorphism(c3):
    inst = make_instance(c3, None, 2)
    rng = random.Random(11)
    for _ in range(40):
        a, b = random_word(inst, rng, 6), random_word(inst, rng, 6)
        from zslen.sequence import mul

        assert beta(inst, word_product(a, b)) == mul(beta(inst, a), beta(inst, b))


def test_direct_lengths_one_prime_per_class(c3):
    # (pq)^3 with classes g, -g behaves like L(V^3) = {2,3}
    inst = make_instance(c3, [c3.element([1]), c3.element([2])], 1)
    assert direct_length_set(inst, (3, 3)) == LengthSet.of([2, 3])
    for atom in instance_atoms(inst).vectors():
        assert direct_length_set(inst, atom) == LengthSet.of([1])


def test_direct_vs_exhaustive_small(c3):
    inst = make_instance(c3, None, 2)
    b_atoms = enumerate_atoms(c3)
    rng = random.Random(3)
    for _ in range(60):
        a = random_word(inst, rng, 8)
        assert direct_length_set(inst, a) == length_set(beta(inst, a), b_atoms)


def test_warm_direct_length_set_reads_the_memo(c4, monkeypatch):
    # the warm call folds the class sum, builds no class image, stores no
    # memo entry and hands out the same LengthSet
    inst = make_instance(c4, None, 2)
    rng = random.Random(7)
    words = [random_word(inst, rng, 8) for _ in range(20)]
    cold = [direct_length_set(inst, a) for a in words]
    engine = inst.atom_set.engine
    size = engine.memo_size
    images = []
    original = transfer.class_image

    def counted(*args):
        images.append(args)
        return original(*args)

    monkeypatch.setattr(transfer, "class_image", counted)
    warm = [direct_length_set(inst, a) for a in words]
    assert images == []
    assert engine.memo_size == size
    assert all(w is c for w, c in zip(warm, cold))


def test_sampled_words_are_pinned():
    # seeds 0-4 x 100 words on C3, C2+C4 and C2+C2 (2 primes per class,
    # length <= 10), each as sorted (prime name, multiplicity) pairs: the
    # digest pins the sampler's draws, and with them every seeded
    # check_transfer report
    words = []
    for mods in ([3], [2, 4], [2, 2]):
        inst = make_instance(make_group(mods), None, 2)
        for seed in range(5):
            rng = random.Random(seed)
            drawn = [random_word(inst, rng, 10) for _ in range(100)]
            words.append([tuple(sorted((p, m) for p, m in zip(inst.primes, w) if m))
                          for w in drawn])
    digest = hashlib.sha256(repr(words).encode()).hexdigest()
    assert digest == "266377a0fc013e45abf5a2a6cb6e10b9e65fa6e32257142e6211ff8bdc84175a"


@pytest.mark.parametrize("counts", [(-5, 10), (10, -1)])
def test_negative_counts_are_invalid_argument(c3, counts):
    inst = make_instance(c3, None, 2)
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        check_transfer(inst, *counts)
    assert inst.atom_set is None


@pytest.mark.parametrize("length", [0, 1])
def test_word_lengths_below_two_are_refused_before_any_walk(c3, length):
    # below length 2 the sampler draws only the empty word, so the check
    # would pass without checking a nonempty word
    inst = make_instance(c3, None, 2)
    rng = random.Random(0)
    assert {random_word(inst, rng, length) for _ in range(50)} == {(0,) * len(inst.primes)}
    with pytest.raises(InvalidArgumentError, match="at least 2"):
        check_transfer(inst, 10, length)
    assert inst.atom_set is None
    assert any(map(any, (random_word(inst, rng, 2) for _ in range(50))))


@pytest.mark.parametrize("mods", [[3], [4], [2, 2]])
def test_check_transfer_full(mods):
    group = make_group(mods)
    inst = make_instance(group, None, 2)
    report = check_transfer(inst, 100, 10, seed=42)
    assert report.ok
    assert report.passes == 100


@pytest.mark.parametrize("mods", [[3], [4], [2, 2]])
def test_atom_correspondence(mods):
    group = make_group(mods)
    inst = make_instance(group, None, 2)
    report = check_atom_correspondence(inst)
    assert report.ok
    # beta images of H-atoms are exactly the atoms of B(G0)
    images = {beta(inst, w) for w in instance_atoms(inst).vectors()}
    assert images == set(enumerate_atoms(group).atoms)
    assert all(is_atom(s) for s in images)


def corrupted_correspondence(group, vectors):
    """check_atom_correspondence on an instance with one prime per class,
    so that H is B(G0), whose H-atoms are replaced by the given vectors."""
    inst = make_instance(group, None, 1)
    object.__setattr__(inst, "atom_set", AtomSet(group, inst.primes, tuple(vectors)))
    return check_atom_correspondence(inst)


def test_atom_correspondence_reports_a_dropped_atom(c4):
    atoms = instance_atoms(make_instance(c4, None, 1)).vectors()
    dropped = parse_sequence(c4, "[1:2,2:1]")
    report = corrupted_correspondence(c4, [a for a in atoms if a != (0, 2, 1, 0)])
    assert not report.ok
    assert report.image_mismatch == ()
    assert report.unlifted == (dropped,)
    assert report.h_atom_count == report.b_atom_count - 1


def test_atom_correspondence_reports_a_product_of_atoms(c4):
    atoms = instance_atoms(make_instance(c4, None, 1)).vectors()
    products = [word_product((0, 1, 0, 1), (0, 0, 2, 0)), word_product((0, 4, 0, 0), (1, 0, 0, 0))]
    report = corrupted_correspondence(c4, [*atoms, *products])
    assert not report.ok
    # Sequences, in the order of their text
    assert report.image_mismatch == (parse_sequence(c4, "[0:1,1:4]"),
                                     parse_sequence(c4, "[1:1,2:2,3:1]"))
    assert report.unlifted == ()


def zero_sum_divisors(image):
    """All zero-sum sub-multisets of a sequence."""
    import itertools

    from zslen.sequence import Sequence, is_zero_sum

    items = list(image.exponents.items())
    out = []
    for combo in itertools.product(*(range(m + 1) for _, m in items)):
        cand = Sequence.make(image.group, {g: c for (g, _), c in zip(items, combo) if c})
        if is_zero_sum(cand):
            out.append(cand)
    return out


def split_word(inst, word, part):
    """Lift a zero-sum divisor of beta(word): greedily assign, class by
    class, enough primes of the word to cover the divisor's multiplicities.
    Returns (b, c) with word = b*c and beta(b) = part."""
    need = dict(part.items)
    b = []
    for i, m in zip(inst.class_by_prime, word):
        b.append(min(m, need.get(i, 0)))
        need[i] = need.get(i, 0) - b[-1]
    return tuple(b), tuple(m - x for m, x in zip(word, b))


def test_lifting_splits(c4):
    # beta(a) = B*C lifts to a = b*c with beta(b) = B, for random splits
    inst = make_instance(c4, None, 2)
    rng = random.Random(9)
    for _ in range(40):
        a = random_word(inst, rng, 8)
        image = beta(inst, a)
        part = rng.choice(zero_sum_divisors(image))
        b, c = split_word(inst, a, part)
        assert word_product(b, c) == a
        assert beta(inst, b) == part
        assert in_monoid(inst, b) and in_monoid(inst, c)


def test_instance_validation(c3):
    with pytest.raises(InvalidArgumentError):
        make_instance(c3, None, 0)
    els = [c3.element([1])]
    inst = make_instance(c3, els, 3)
    assert len(inst.primes) == 3
    assert set(inst.classes) == set(els)


def test_seed_reproducibility(c3):
    inst = make_instance(c3, None, 2)
    a = check_transfer(inst, 20, 8, seed=7)
    b = check_transfer(inst, 20, 8, seed=7)
    assert a == b


def test_checked_instance_is_not_kept_alive(c4):
    import gc
    import weakref

    inst = make_instance(c4, None, 2)
    assert check_transfer(inst, 10, 8, 0).ok
    # the instance holds its atom set, and the atom set its engine
    atoms = inst.atom_set
    assert atoms.engine is not None
    refs = [weakref.ref(inst), weakref.ref(atoms)]
    del inst, atoms
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_instance_walks_its_atoms_once(c22, monkeypatch):
    import zslen.atoms

    enumerate_atoms(c22)  # B(G0) comes from the enumerate_atoms cache
    walks = []
    walk = zslen.atoms.minimal_nonzero_vectors

    def counted(*args, **kwargs):
        walks.append(args)
        return walk(*args, **kwargs)

    monkeypatch.setattr(zslen.atoms, "minimal_nonzero_vectors", counted)
    inst = make_instance(c22, None, 2)
    assert check_transfer(inst, 20, 8, 1).ok
    assert check_atom_correspondence(inst).ok
    assert len(walks) == 1
    assert len(walks[0][1]) == len(inst.primes)  # the walk over H, not B(G0)
    # an equal instance owns its own atom set, engine and memo
    other = make_instance(c22, None, 2)
    assert other == inst and other.atom_set is None
    assert instance_atoms(other) == instance_atoms(inst)
    assert instance_atoms(other) is not instance_atoms(inst)
    assert len(walks) == 2


def test_sequence_query_against_instance_atoms_is_invalid_argument(c3):
    # the instance's letters are primes, so a sequence's elements miss them
    inst = make_instance(c3, None, 1)
    atoms = instance_atoms(inst)
    with pytest.raises(InvalidArgumentError, match="outside alphabet"):
        length_set(parse_sequence(c3, "[1:3]"), atoms)
    assert atoms.engine is None
