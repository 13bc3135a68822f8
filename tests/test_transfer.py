import random

import pytest

from zslen.atoms import enumerate_atoms, is_atom
from zslen.errors import InvalidArgumentError
from zslen.group import make_group, zero
from zslen.lengths import LengthSet, length_set
from zslen.sequence import parse_sequence, sigma
from zslen.transfer import (
    PrimeWord,
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


def h_atom_words(inst):
    """The atoms of H as words of F(P)."""
    return [PrimeWord.from_dense(inst.primes, v) for v in instance_atoms(inst).vectors()]


def test_beta_basics(c3):
    inst = make_instance(c3, [c3.element([1]), c3.element([2])], 1)
    p, q = inst.primes
    a = PrimeWord.make({p: 1, q: 1})
    image = beta(inst, a)
    assert image == parse_sequence(c3, "[1:1,2:1]")
    assert beta(inst, PrimeWord.make({})) == parse_sequence(c3, "[]")
    with pytest.raises(InvalidArgumentError):
        beta(inst, PrimeWord.make({p: 1}))


@pytest.mark.parametrize("fn", [beta, in_monoid, class_image, direct_length_set])
def test_prime_outside_instance_is_invalid_argument(c3, fn):
    inst = make_instance(c3, None, 1)
    with pytest.raises(InvalidArgumentError, match="not in the instance"):
        fn(inst, PrimeWord.make({inst.primes[0]: 3, "q": 1}))


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

        assert beta(inst, a * b) == mul(beta(inst, a), beta(inst, b))


def test_direct_lengths_one_prime_per_class(c3):
    # (pq)^3 with classes g, -g behaves like L(V^3) = {2,3}
    inst = make_instance(c3, [c3.element([1]), c3.element([2])], 1)
    p, q = inst.primes
    a = PrimeWord.make({p: 3, q: 3})
    assert direct_length_set(inst, a) == LengthSet.of([2, 3])
    for atom in h_atom_words(inst):
        assert direct_length_set(inst, atom) == LengthSet.of([1])


def test_direct_vs_exhaustive_small(c3):
    inst = make_instance(c3, None, 2)
    b_atoms = enumerate_atoms(c3)
    rng = random.Random(3)
    for _ in range(60):
        a = random_word(inst, rng, 8)
        assert direct_length_set(inst, a) == length_set(beta(inst, a), b_atoms)


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
    images = {beta(inst, w) for w in h_atom_words(inst)}
    assert images == set(enumerate_atoms(group).atoms)
    assert all(is_atom(s) for s in images)


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
    b_exps, c_exps = {}, {}
    for p, m in word.items:
        i = inst.class_by_prime[p]
        b_exps[p] = take = min(m, need.get(i, 0))  # make drops the zeros
        c_exps[p] = m - take
        need[i] = need.get(i, 0) - take
    return PrimeWord.make(b_exps), PrimeWord.make(c_exps)


def test_lifting_splits(c4):
    # beta(a) = B*C lifts to a = b*c with beta(b) = B, for random splits
    inst = make_instance(c4, None, 2)
    rng = random.Random(9)
    for _ in range(40):
        a = random_word(inst, rng, 8)
        image = beta(inst, a)
        part = rng.choice(zero_sum_divisors(image))
        b, c = split_word(inst, a, part)
        assert b * c == a
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
    (atoms,) = inst.atom_sets.values()
    assert atoms.engines
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
    # an equal instance owns its own atom set, engines and memos
    other = make_instance(c22, None, 2)
    assert other == inst and not other.atom_sets
    assert instance_atoms(other) == instance_atoms(inst)
    assert instance_atoms(other) is not instance_atoms(inst)
    assert len(walks) == 2


def test_sequence_query_against_instance_atoms_is_invalid_argument(c3):
    # the instance's letters are primes, so a sequence's elements miss them
    inst = make_instance(c3, None, 1)
    atoms = instance_atoms(inst)
    with pytest.raises(InvalidArgumentError, match="outside alphabet"):
        length_set(parse_sequence(c3, "[1:3]"), atoms)
    assert not atoms.engines
