import dataclasses
import functools
import hashlib
import importlib.util
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen import lengths
from zslen.atoms import enumerate_atoms, limits
from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.group import FiniteAbelianGroup, elements, make_group
from zslen.invariants import system
from zslen.lengths import (
    FactorizationEngine,
    LengthSet,
    delta_of,
    dilate,
    elasticity_of,
    exhaustive_length_set,
    length_set,
    mask_gaps,
    shift,
    sumset,
)
from zslen.sequence import Sequence, enumerate_zero_sum, mul, parse_sequence
from zslen.transfer import beta, instance_atoms, make_instance, random_word

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def L(*values):
    return LengthSet.of(values)


# -- LengthSet basics ---------------------------------------------------------


def test_lengthset_validation():
    with pytest.raises(InvalidArgumentError):
        LengthSet(())
    with pytest.raises(InvalidArgumentError):
        LengthSet((-1, 2))
    with pytest.raises(InvalidArgumentError):
        LengthSet((2, 2))
    assert LengthSet.of([3, 1, 1]) == LengthSet((1, 3))


def test_delta_examples():
    assert delta_of(L(2, 3)) == (1,)
    assert delta_of(L(2, 4, 7)) == (2, 3)
    assert delta_of(L(5)) == ()


@given(st.sets(st.integers(0, 200), min_size=1))
def test_mask_gaps_matches_delta_of(values):
    ls = LengthSet.of(values)
    assert mask_gaps(ls.to_mask()) == set(delta_of(ls))


def pop_loop_gaps(mask):
    """The bit-popping gap scan mask_gaps used before it read the binary text."""
    gaps = set()
    low = mask & -mask
    mask ^= low
    while mask:
        nxt = mask & -mask
        gaps.add(nxt.bit_length() - low.bit_length())
        mask ^= nxt
        low = nxt
    return gaps


@given(
    st.one_of(
        st.integers(1, 2**64),
        st.integers(1, 2**5000),  # dense wide masks
        st.sets(st.integers(0, 100_000), min_size=1, max_size=30).map(
            lambda bits: sum(1 << b for b in bits)  # sparse wide masks
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_mask_gaps_matches_pop_loop_oracle(mask):
    assert mask_gaps(mask) == pop_loop_gaps(mask)


def test_mask_gaps_rejects_empty_mask():
    with pytest.raises(InvalidArgumentError):
        mask_gaps(0)


def test_elasticity_examples():
    assert elasticity_of(L(2, 3)) == Fraction(3, 2)
    assert elasticity_of(L(0)) == 1
    assert elasticity_of(L(2, 7)) == Fraction(7, 2)
    assert elasticity_of(L(0, 1)) == math.inf


def test_sumset_shift_dilate():
    assert sumset(L(2, 3), L(2, 3)) == L(4, 5, 6)
    assert shift(L(0, 1), 3) == L(3, 4)
    assert dilate(2, L(0, 1, 2)) == L(0, 2, 4)
    with pytest.raises(InvalidArgumentError):
        shift(L(0, 1), -1)
    with pytest.raises(InvalidArgumentError):
        dilate(-2, L(1))


# -- the factorization engine ---------------------------------------------------


def test_lv3_and_zero_padding(c3):
    atoms = enumerate_atoms(c3)
    v3 = parse_sequence(c3, "[1:3,2:3]")
    assert length_set(v3, atoms) == L(2, 3)
    for y in range(4):
        for k in range(4):
            b = Sequence.make(
                c3, {c3.zero(): y, c3.element([1]): 3 * k, c3.element([2]): 3 * k}
            )
            expected = LengthSet.of(range(y + 2 * k, y + 3 * k + 1))
            assert length_set(b, atoms) == expected


def test_atoms_have_length_one(c4):
    atoms = enumerate_atoms(c4)
    for a in atoms.atoms:
        assert length_set(a, atoms) == L(1)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_pair_power_family(n, k):
    # L((-U)^k U^k) = 2k + {nu*(n-2) : nu in [0,k]} for U = g^n
    group = make_group([n])
    atoms = enumerate_atoms(group)
    b = Sequence.make(group, {group.element([1]): n * k, group.element([n - 1]): n * k})
    expected = LengthSet.of(2 * k + nu * (n - 2) for nu in range(k + 1))
    assert length_set(b, atoms) == expected


def test_two_n_family():
    for n in (3, 4, 5, 6):
        group = make_group([n])
        atoms = enumerate_atoms(group)
        b = Sequence.make(group, {group.element([1]): n, group.element([n - 1]): n})
        assert length_set(b, atoms) == L(2, n)


def test_rejects_non_zero_sum(c3):
    atoms = enumerate_atoms(c3)
    with pytest.raises(InvalidArgumentError):
        length_set(parse_sequence(c3, "[1:1]"), atoms)


def test_rejects_support_outside_subset(c3):
    atoms = enumerate_atoms(c3, [c3.element([1]), c3.element([2])])
    b = parse_sequence(c3, "[0:1,1:3]")
    with pytest.raises(InvalidArgumentError, match="outside alphabet"):
        length_set(b, atoms)
    assert length_set(parse_sequence(c3, "[1:3,2:3]"), atoms) == L(2, 3)


def test_memo_limit(c33):
    atoms = enumerate_atoms(c33)
    engine = FactorizationEngine(atoms.vectors())
    big = parse_sequence(c33, "[(1,0):3,(2,0):3,(0,1):3,(0,2):3]")
    with limits(memo_limit=4), pytest.raises(ResourceLimitError):
        engine.lengths_mask(big.dense(atoms.letters))


@pytest.mark.parametrize("mods", [[3], [4], [2, 2]])
def test_oracle_equivalence(mods):
    group = make_group(mods)
    atoms = enumerate_atoms(group)
    for b in enumerate_zero_sum(group, None, 8):
        assert length_set(b, atoms) == exhaustive_length_set(b, atoms), str(b)


def zero_sum_strategy(group, max_length=8):
    pool = enumerate_zero_sum(group, None, max_length)
    return st.sampled_from(pool)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_superadditivity(data):
    group = make_group(data.draw(st.sampled_from([[3], [4], [2, 2]])))
    atoms = enumerate_atoms(group)
    a = data.draw(zero_sum_strategy(group, 6))
    b = data.draw(zero_sum_strategy(group, 6))
    la, lb = length_set(a, atoms), length_set(b, atoms)
    lab = length_set(mul(a, b), atoms)
    assert set(sumset(la, lb).values) <= set(lab.values)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_zero_padding_property(data):
    group = make_group(data.draw(st.sampled_from([[3], [4], [2, 2]])))
    atoms = enumerate_atoms(group)
    b = data.draw(zero_sum_strategy(group, 6))
    y = data.draw(st.integers(min_value=1, max_value=4))
    padded = mul(b, Sequence.make(group, {group.zero(): y}))
    assert length_set(padded, atoms) == shift(length_set(b, atoms), y)


def test_min_delta_is_gcd_accumulated(c4):
    atoms = enumerate_atoms(c4)
    acc = set()
    for b in enumerate_zero_sum(c4, None, 10):
        acc.update(delta_of(length_set(b, atoms)))
    assert acc and min(acc) == math.gcd(*acc)


# -- the divisor index and the explicit stack -----------------------------------

DIFFERENTIAL_GROUPS = [[2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3]]


@st.composite
def random_zero_sum(draw, max_length=10):
    group = make_group(draw(st.sampled_from(DIFFERENTIAL_GROUPS)))
    els = list(elements(group))
    n = draw(st.integers(min_value=0, max_value=max_length - 1))
    terms = [els[draw(st.integers(0, len(els) - 1))] for _ in range(n)]
    total = group.zero()
    for g in terms:
        total = total + g
    return Sequence.make(group, Counter(terms + [-total]))


@given(random_zero_sum())
@settings(max_examples=80, deadline=None)
def test_engine_matches_exhaustive_oracle(b):
    atoms = enumerate_atoms(b.group)
    engine = FactorizationEngine(atoms.vectors())
    mask = engine.lengths_mask(b.dense(atoms.letters))
    assert LengthSet.from_mask(mask) == exhaustive_length_set(b, atoms), str(b)


def brute_lengths(atoms, vec):
    """Every k such that vec is a sum of k of the atoms (with repetition),
    by trying every multiplicity vector."""
    ranges = [
        range(min(y // x for x, y in zip(a, vec) if x) + 1) for a in atoms
    ]
    out = set()
    for counts in itertools.product(*ranges):
        total = [sum(c * a[i] for c, a in zip(counts, atoms)) for i in range(len(vec))]
        if total == list(vec):
            out.add(sum(counts))
    return out


@st.composite
def vector_monoid(draw):
    width = draw(st.integers(1, 3))
    entry = st.integers(0, 3)
    atom = st.tuples(*[entry] * width).filter(any)
    atoms = draw(st.lists(atom, min_size=1, max_size=4))
    queries = draw(st.lists(st.tuples(*[st.integers(0, 6)] * width), max_size=6))
    return atoms, queries


@given(vector_monoid())
@settings(max_examples=80, deadline=None)
def test_engine_on_arbitrary_vectors_matches_brute_force(case):
    # the transfer instances feed vectors that are not zero-sum atoms
    atoms, queries = case
    engine = FactorizationEngine(atoms)
    for vec in queries:
        mask = engine.lengths_mask(vec)
        assert {k for k in range(mask.bit_length()) if mask >> k & 1} == brute_lengths(
            atoms, vec
        ), (atoms, vec)


def test_system_memo_size_pinned(c33, fresh_atom_cache):
    # a fresh engine: memo_size after system(C3+C3, 9) is the number of
    # distinct vectors the recursion visits; 5,420 when the walk queried the
    # keys holding the prime 0 too, now 2,710 as only zero-free keys are
    atoms = enumerate_atoms(c33)
    assert atoms.engine is None
    system(c33, None, 9)
    assert lengths.engine_for(atoms).memo_size == 2710


def test_cold_walk_pinned():
    # a fresh engine per group answers the seed-1 cold batches of the
    # benchmark's lengths workload; the memo's size and its (key, mask)
    # entries in insertion order are those of the plain recursion
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    walks = {}
    for op in workloads.operations("lengths", 1):
        if op["id"].startswith("cold"):
            engine = FactorizationEngine(enumerate_atoms(make_group(op["group"])).vectors())
            for query in op["queries"]:
                engine.lengths_mask(tuple(query))
            entries = ",".join(f"{key}:{mask}" for key, mask in engine._memo.items())
            walks[op["id"]] = engine.memo_size, hashlib.sha256(entries.encode()).hexdigest()
    assert walks == {
        "cold 3,3": (14876, "58e9a6a1e572fb5cf3c2b5ab14d89251b2aab4aa19f1159c5c8ebfb04f900b91"),
        "cold 2,4": (21716, "d419a2bdeaf4e1fca9ec643e6ae2ef219d64e8ca41fc653285ad149133a6b13c"),
        "cold 2,6": (1477, "0186284737a42ce13f504b90dd5bcf59825477ae325fac601cc99c13fc093182"),
    }


@functools.cache
def krull_case(mods, primes_per_class):
    """A Krull instance, its H-atoms and the atoms of B(G0)."""
    inst = make_instance(make_group(list(mods)), None, primes_per_class)
    return inst, instance_atoms(inst), enumerate_atoms(inst.group)


def test_instance_case_sizes():
    # the largest alphabet the differential test below draws from
    _, h_atoms, _ = krull_case((2, 4), 2)
    assert (len(h_atoms), len(h_atoms.letters)) == (379, 16)


@given(
    st.sampled_from([((3,), 1), ((3,), 3), ((4,), 2), ((2, 2), 2), ((2, 4), 2)]),
    st.lists(st.integers(0, 2**32), min_size=2, max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_engine_on_repeated_classes_matches_exhaustive_oracle(case, seeds):
    # letters with repeated classes (several primes per class); L_H(a) is
    # L(beta(a)) over B(G0), which the oracle walks.  Between the halves of
    # the queries a power of one letter's single-letter atom with an entry
    # above 255 widens the field while the memo already holds entries.
    inst, h_atoms, b_atoms = krull_case(*case)
    engine = FactorizationEngine(h_atoms.vectors())
    words = [random_word(inst, random.Random(seed), 8) for seed in seeds]
    half = len(words) // 2
    for word in words[:half]:
        mask = engine.lengths_mask(word)
        assert LengthSet.from_mask(mask) == exhaustive_length_set(beta(inst, word), b_atoms)
    unit = next(a for a in h_atoms.vectors() if sum(1 for x in a if x) == 1)
    k = 256 // max(unit) + 1
    assert engine.lengths_mask(tuple(k * x for x in unit)) == 1 << k
    assert engine.widen(0) == 16
    for word in words:
        mask = engine.lengths_mask(word)
        assert LengthSet.from_mask(mask) == exhaustive_length_set(beta(inst, word), b_atoms)


def test_depth_does_not_depend_on_length(c3):
    atoms = enumerate_atoms(c3)
    assert length_set(parse_sequence(c3, "[1:3000]"), atoms) == L(1000)


def test_memo_limit_fires_exactly_at_overflow(c3):
    # [0:30] stores 30 vectors besides the zero vector
    atoms = enumerate_atoms(c3)
    vec = parse_sequence(c3, "[0:30]").dense(atoms.letters)
    with limits(memo_limit=31):
        assert FactorizationEngine(atoms.vectors()).lengths_mask(vec) == 1 << 30
    engine = FactorizationEngine(atoms.vectors())
    with limits(memo_limit=30), pytest.raises(ResourceLimitError):
        engine.lengths_mask(vec)
    # the pending frames count against the limit, so the stack stays small
    deep = FactorizationEngine(atoms.vectors())
    with limits(memo_limit=100), pytest.raises(ResourceLimitError):
        deep.lengths_mask(parse_sequence(c3, "[1:30000]").dense(atoms.letters))
    assert deep.memo_size <= 100


# -- packed keys: input checks, field width and the warm path -------------------


@pytest.mark.parametrize(
    "vec",
    [(0, 3, 0, 0), (0, 3, -3), (0, -1, 2)],
    ids=["too-wide", "negative-entry-raised-indexerror", "negative-entry-stored-0"],
)
def test_engine_rejects_malformed_vectors(c3, vec):
    engine = FactorizationEngine(enumerate_atoms(c3).vectors())
    with pytest.raises(InvalidArgumentError):
        engine.lengths_mask(vec)
    assert engine.memo_size == 1


def test_engine_rejects_zero_atoms():
    # a zero atom has no lowest letter to bucket it by, and is no atom
    with pytest.raises(InvalidArgumentError):
        FactorizationEngine([(1, 0), (0, 0)])


@pytest.mark.parametrize("mods", [[3, 3], [2, 4], [2, 2, 2]])
def test_engine_buckets_atoms_by_their_lowest_letter(mods):
    # an atom dividing a vector is zero below the vector's pivot and covers
    # it, so the pivot's bucket needs no atom with a lower letter
    vectors = enumerate_atoms(make_group(mods)).vectors()
    engine = FactorizationEngine(vectors)
    for pivot, bucket in enumerate(engine._by_pivot):
        assert bucket == [v for v in vectors if v[pivot] and not any(v[:pivot])]


def test_widened_engine_still_rejects_malformed_vectors(c3):
    engine = FactorizationEngine(enumerate_atoms(c3).vectors())
    assert engine.lengths_mask((300, 0, 0)) == 1 << 300
    size = engine.memo_size
    for vec in [(0, 3, -3), (0, 1.5, 0), (1, 2), (0, 3, 0, 0)]:
        with pytest.raises(InvalidArgumentError):
            engine.lengths_mask(vec)
    assert engine.memo_size == size
    assert engine.lengths_mask((0, 3, 0)) == 1 << 1


@pytest.mark.parametrize(
    "text, expected", [("[0:255]", L(255)), ("[0:256]", L(256)), ("[1:768]", L(256))]
)
def test_field_width_boundary(c3, text, expected):
    # 255 fills an 8-bit field; 256 and 768 need a wider one
    atoms = enumerate_atoms(c3)
    engine = FactorizationEngine(atoms.vectors())
    mask = engine.lengths_mask(parse_sequence(c3, text).dense(atoms.letters))
    assert LengthSet.from_mask(mask) == expected


def test_widening_keeps_answers_and_memo(c3):
    atoms = enumerate_atoms(c3)
    small = parse_sequence(c3, "[0:2,1:6,2:3]").dense(atoms.letters)
    wide = parse_sequence(c3, "[0:1,1:300,2:300]").dense(atoms.letters)
    engine = FactorizationEngine(atoms.vectors())
    answers = [engine.lengths_mask(v) for v in (small, wide, small)]
    fresh = [FactorizationEngine(atoms.vectors()).lengths_mask(v) for v in (small, wide, small)]
    assert answers == fresh
    both = FactorizationEngine(atoms.vectors())
    both.lengths_mask(wide)
    both.lengths_mask(small)
    assert engine.memo_size == both.memo_size


def test_widen_fixes_the_field_once(c3):
    engine = FactorizationEngine(enumerate_atoms(c3).vectors())
    assert engine.widen(0) == engine.widen(255) == 8
    engine.lengths_mask((0, 3, 0))
    assert engine.widen(256) == 16
    assert engine.widen(3) == 16  # never narrows
    assert engine.lengths_mask((0, 3, 0)) == 1 << 1
    assert engine.memo_size == 2
    with pytest.raises(InvalidArgumentError):
        engine.widen(-1)


@pytest.mark.parametrize("top", [0, 300])
def test_engine_rejects_malformed_keys(c3, top):
    engine = FactorizationEngine(enumerate_atoms(c3).vectors())
    bits = engine.widen(top)
    for key in (-1, -(1 << bits), 1 << 3 * bits, (1 << 3 * bits) | 3, 1 << 4 * bits):
        with pytest.raises(InvalidArgumentError):
            engine.lengths_mask(key)
        assert engine.memo_size == 1
    # the last field's bits are all read: [2:3] is an atom, and [2:128] and
    # [2:32768] (the field's top bit) have no factorization
    assert engine.lengths_mask(3 << 2 * bits) == 1 << 1
    assert engine.lengths_mask(1 << 3 * bits - 1) == 0


@pytest.mark.parametrize("top", [0, 300])
def test_key_query_matches_tuple_query(c33, top):
    atoms = enumerate_atoms(c33)
    by_key = FactorizationEngine(atoms.vectors())
    by_tuple = FactorizationEngine(atoms.vectors())
    bits = by_key.widen(top)
    for vec in (b.dense(atoms.letters) for b in enumerate_zero_sum(c33, atoms.letters, 7)):
        key = sum(x << i * bits for i, x in enumerate(vec))
        assert by_key.unpack(key) == vec
        assert by_key.lengths_mask(key) == by_tuple.lengths_mask(vec)
    assert by_key.memo_size == by_tuple.memo_size


def test_warm_length_set_builds_no_elements_or_length_sets(c33, monkeypatch):
    # a warm query folds element indices: it builds no element, length set
    # or sequence, and hashes no element
    # or group; it compares no group either
    from zslen.group import GroupElement

    atoms = enumerate_atoms(c33)
    b = parse_sequence(c33, "[(0,1):1,(0,2):1,(1,0):3,(1,1):1,(2,2):1]")
    expected = length_set(b, atoms)
    built = {
        "elements": 0, "length_sets": 0, "sequences": 0, "element_hashes": 0,
        "group_hashes": 0, "group_eqs": 0,
    }
    element_init = GroupElement.__post_init__
    lengthset_init = LengthSet.__post_init__
    sequence_init = Sequence.__post_init__
    element_hash = GroupElement.__hash__
    group_hash = FiniteAbelianGroup.__hash__
    group_eq = FiniteAbelianGroup.__eq__

    def count_element(self):
        built["elements"] += 1
        element_init(self)

    def count_length_set(self):
        built["length_sets"] += 1
        lengthset_init(self)

    def count_sequence(self):
        built["sequences"] += 1
        sequence_init(self)

    def count_hash(self):
        built["element_hashes"] += 1
        return element_hash(self)

    def count_group_hash(self):
        built["group_hashes"] += 1
        return group_hash(self)

    def count_group_eq(self, other):
        built["group_eqs"] += 1
        return group_eq(self, other)

    monkeypatch.setattr(GroupElement, "__post_init__", count_element)
    monkeypatch.setattr(LengthSet, "__post_init__", count_length_set)
    monkeypatch.setattr(Sequence, "__post_init__", count_sequence)
    monkeypatch.setattr(GroupElement, "__hash__", count_hash)
    monkeypatch.setattr(FiniteAbelianGroup, "__hash__", count_group_hash)
    monkeypatch.setattr(FiniteAbelianGroup, "__eq__", count_group_eq)
    for _ in range(3):
        assert length_set(b, atoms) is expected
    assert set(built.values()) == {0}
    # the counters do see a hash and a comparison
    assert hash(c33.zero()) == element_hash(c33.zero())
    assert hash(c33) == group_hash(c33)
    assert c33 == make_group([3, 3])
    assert (built["element_hashes"], built["group_hashes"], built["group_eqs"]) == (1, 1, 1)


def test_warm_calls_with_one_mask_share_one_length_set(c3):
    atoms = dataclasses.replace(enumerate_atoms(c3))  # no engine yet
    first = length_set(parse_sequence(c3, "[1:3]"), atoms)
    assert length_set(parse_sequence(c3, "[2:3]"), atoms) is first
    assert length_set(parse_sequence(c3, "[1:3]"), atoms) is first
    assert length_set(parse_sequence(c3, "[1:3,2:3]"), atoms) == L(2, 3)


def test_warm_path_packs_no_count_the_field_cannot_hold(c2):
    # 512 copies of 0 in an 8-bit field would carry into the next field and
    # read as the key of the atom [1:2], which the memo holds
    atoms = dataclasses.replace(enumerate_atoms(c2))
    assert length_set(parse_sequence(c2, "[1:2]"), atoms) == L(1)
    assert length_set(parse_sequence(c2, "[0:512]"), atoms) == L(512)
    assert length_set(parse_sequence(c2, "[1:2]"), atoms) == L(1)


def test_stored_mask_0_still_leaves_the_zero_sum_check(c3):
    # the warm path answers only from a positive mask: a vector whose
    # mask 0 an engine query stored is still refused as not zero-sum
    atoms = dataclasses.replace(enumerate_atoms(c3))
    b = parse_sequence(c3, "[1:1]")
    engine = lengths.engine_for(atoms)
    assert engine.lengths_mask(b.dense(atoms.letters)) == 0
    size = engine.memo_size
    for _ in range(2):
        with pytest.raises(InvalidArgumentError, match=r"^sequence \[1:1\] is not zero-sum$"):
            length_set(b, atoms)
    assert engine.memo_size == size


@pytest.mark.parametrize("mods", [[6], [2, 2]])
def test_query_against_atoms_of_another_group_is_invalid_argument(c3, mods):
    # element indices of C3 are indices of C6 and of C2+C2 too, and the
    # indices of [1:2,2:2] sum to zero there as well: the groups themselves
    # must be compared
    atoms = enumerate_atoms(make_group(mods))
    for text in ("[1:2,2:2]", "[0:1]", "[1:1]"):
        with pytest.raises(InvalidArgumentError):
            length_set(parse_sequence(c3, text), atoms)
        with pytest.raises(InvalidArgumentError):
            exhaustive_length_set(parse_sequence(c3, text), atoms)


def test_from_mask_is_trusted_but_rejects_empty_masks():
    assert LengthSet.from_mask(0b101100) == LengthSet((2, 3, 5))
    for mask in (0, -1, -8):
        with pytest.raises(InvalidArgumentError):
            LengthSet.from_mask(mask)
