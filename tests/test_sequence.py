import hashlib
import itertools
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen.errors import InvalidArgumentError
from zslen.group import elements, make_group, zero
from zslen.sequence import (
    Sequence,
    divides,
    encode_element,
    encode_sequence,
    enumerate_zero_sum,
    is_zero_sum,
    mul,
    negate,
    parse_sequence,
    quotient,
    sigma,
    zero_sum_keys,
)


def seq(group, text):
    return parse_sequence(group, text)


def test_sigma_examples(c3, c4):
    assert sigma(seq(c3, "[1:3]")) == zero(c3)
    assert sigma(Sequence.empty(c3)) == zero(c3)
    assert sigma(seq(c4, "[1:1,2:1]")) == c4.element([3])


def test_zero_sum_and_negate(c3):
    v = seq(c3, "[1:1,2:1]")
    assert is_zero_sum(v)
    assert negate(seq(c3, "[1:2]")) == seq(c3, "[2:2]")


def test_divides_quotient(c3):
    g1, g2 = seq(c3, "[1:1]"), seq(c3, "[1:2]")
    assert divides(g1, g2)
    assert quotient(g2, g1) == g1
    with pytest.raises(InvalidArgumentError):
        quotient(g1, g2)


def test_mul_lengths(c5):
    u = seq(c5, "[1:3]")
    w = mul(u, seq(c5, "[4:3]"))
    assert w.length == 6
    assert is_zero_sum(w)


def random_sequences(group):
    els = elements(group)
    return st.lists(st.sampled_from(els), min_size=0, max_size=6).map(
        lambda terms: Sequence.make(group, Counter(terms))
    )


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sigma_is_additive(data):
    group = make_group(data.draw(st.sampled_from([[3], [4], [2, 2], [2, 4]])))
    s = data.draw(random_sequences(group))
    t = data.draw(random_sequences(group))
    assert sigma(mul(s, t)) == sigma(s) + sigma(t)
    assert sigma(negate(s)) == -sigma(s)


ZERO_SUM_GROUPS = [[2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3]]


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_is_zero_sum_matches_sigma(data):
    # is_zero_sum folds coordinates; the reference adds group elements
    group = make_group(data.draw(st.sampled_from(ZERO_SUM_GROUPS)))
    exps = data.draw(st.dictionaries(st.sampled_from(elements(group)), st.integers(1, 20)))
    s = Sequence.make(group, exps)
    total = zero(group)
    for g, m in s.exponents.items():
        for _ in range(m):
            total = total + g
    assert sigma(s) == total
    assert is_zero_sum(s) == (sigma(s) == group.zero()) == (total == zero(group))
    if exps:
        # complete to a zero-sum sequence with one more term
        fixed = Sequence.make(group, {**s.exponents, -total: s.v(-total) + 1})
        assert is_zero_sum(fixed)


def model_sum(group, model):
    total = zero(group)
    for g, m in model.items():
        for _ in range(m):
            total = total + g
    return total


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sequence_matches_element_keyed_model(data):
    # a Sequence holds element indices; every element-facing result must be
    # that of a plain {GroupElement: multiplicity} dict
    group = make_group(data.draw(st.sampled_from(ZERO_SUM_GROUPS)))
    els = elements(group)
    models = st.dictionaries(st.sampled_from(els), st.integers(1, 9), max_size=5)
    a, b = data.draw(models), data.draw(models)
    s, t = Sequence.make(group, a), Sequence.make(group, b)
    canonical = sorted(a.items(), key=lambda it: it[0].coords)
    assert s.exponents == a
    assert s.support == tuple(g for g, _ in canonical)
    assert [s.v(g) for g in els] == [a.get(g, 0) for g in els]
    assert s.length == sum(a.values())
    order = tuple(data.draw(st.permutations(els)))
    assert s.dense(order) == tuple(a.get(g, 0) for g in order)
    assert Sequence.from_dense(group, order, s.dense(order)) == s
    assert mul(s, t).exponents == dict(Counter(a) + Counter(b))
    assert divides(t, s) == all(a.get(g, 0) >= m for g, m in b.items())
    assert divides(s, mul(s, t)) and quotient(mul(s, t), t) == s
    assert negate(s).exponents == {-g: m for g, m in a.items()}
    k = data.draw(st.integers(0, 3))
    assert (s**k).exponents == {g: m * k for g, m in a.items() if k}
    assert sigma(s) == model_sum(group, a)
    assert is_zero_sum(s) == (model_sum(group, a) == zero(group))
    text = encode_sequence(s)
    assert text == "[" + ",".join(f"{encode_element(g)}:{m}" for g, m in canonical) + "]"
    assert parse_sequence(group, text) == s


def test_operations_across_groups_are_invalid_argument(c3):
    # element index 1 is valid in C3 and C6 alike, so the groups are compared
    s, t = seq(c3, "[1:2]"), seq(make_group([6]), "[1:2]")
    for op in (mul, divides, quotient):
        with pytest.raises(InvalidArgumentError):
            op(s, t)
    assert s != t


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_quotient_round_trip(data):
    group = make_group(data.draw(st.sampled_from([[3], [2, 2], [6]])))
    t = data.draw(random_sequences(group))
    extra = data.draw(random_sequences(group))
    s = mul(t, extra)
    assert divides(t, s)
    assert mul(quotient(s, t), t) == s


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_encode_parse_round_trip(data):
    group = make_group(data.draw(st.sampled_from([[3], [2, 4], [2, 2, 2], [1]])))
    s = data.draw(random_sequences(group))
    assert parse_sequence(group, encode_sequence(s)) == s


def test_enumerate_zero_sum_examples(c2=make_group([2])):
    e = c2.element([1])
    out = enumerate_zero_sum(c2, [e], 4)
    assert out == [
        Sequence.empty(c2),
        Sequence.make(c2, {e: 2}),
        Sequence.make(c2, {e: 4}),
    ]
    z = c2.zero()
    out = enumerate_zero_sum(c2, [z], 2)
    assert [s.length for s in out] == [0, 1, 2]


def brute_zero_sum_count(group, max_length):
    """Independent full scan over all exponent vectors."""
    els = elements(group)
    facs = group.invariant_factors
    count = 0
    for vec in itertools.product(*(range(max_length + 1) for _ in els)):
        if sum(vec) > max_length:
            continue
        total = tuple(
            sum(v * g.coords[i] for v, g in zip(vec, els)) % facs[i]
            for i in range(len(facs))
        )
        if all(x == 0 for x in total):
            count += 1
    return count


def test_enumerate_zero_sum_count_c3(c3):
    out = enumerate_zero_sum(c3, None, 3)
    assert len(out) == 8  # 1 + 1 + 2 + 4 by full exponent-vector scan
    assert len(out) == brute_zero_sum_count(c3, 3)
    assert all(is_zero_sum(s) and s.length <= 3 for s in out)


@pytest.mark.parametrize("mods,max_length", [([3], 6), ([2, 2], 6), ([6], 5), ([2, 2, 2], 4)])
def test_enumerate_zero_sum_against_full_scan(mods, max_length):
    group = make_group(mods)
    out = enumerate_zero_sum(group, None, max_length)
    assert len(out) == len(set(out))
    assert len(out) == brute_zero_sum_count(group, max_length)
    lengths = [s.length for s in out]
    assert lengths == sorted(lengths)


@st.composite
def walker_instances(draw):
    """A group, an alphabet in any order (0 and single letters included) and
    a bound kept small enough for a full scan of the exponent box."""
    group = make_group(draw(st.sampled_from(
        [[2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3]]
    )))
    els = elements(group)
    alphabet = tuple(draw(st.lists(st.sampled_from(els), min_size=1, max_size=6, unique=True)))
    top = max(b for b in range(7) if (b + 1) ** len(alphabet) <= 50_000)
    return group, alphabet, draw(st.integers(0, top))


def zero_sum_vectors(group, alphabet, max_length):
    """The walk's keys unpacked into dense exponent vectors, in its order."""
    bits = max(1, max_length.bit_length())
    keys = []
    zero_sum_keys(group, alphabet, max_length, bits, keys.append)
    fmask = (1 << bits) - 1
    return [tuple(key >> i * bits & fmask for i in range(len(alphabet))) for key in keys]


def brute_zero_sum_vectors(group, alphabet, max_length):
    """Every exponent vector in the box, filtered, sorted by (length, vector)."""
    facs = group.invariant_factors
    out = []
    for vec in itertools.product(range(max_length + 1), repeat=len(alphabet)):
        total = [sum(v * g.coords[i] for v, g in zip(vec, alphabet)) % facs[i] for i in range(len(facs))]
        if sum(vec) <= max_length and not any(total):
            out.append(vec)
    return sorted(out, key=lambda v: (sum(v), v))


@settings(max_examples=120, deadline=None)
@given(walker_instances())
def test_zero_sum_vectors_match_brute_force(instance):
    group, alphabet, max_length = instance
    assert zero_sum_vectors(group, alphabet, max_length) == brute_zero_sum_vectors(
        group, alphabet, max_length
    )


@pytest.mark.parametrize("field_bits", [3, 8, 16])
def test_zero_sum_keys_unpack_to_the_vectors(c33, field_bits):
    alphabet = elements(c33)
    fmask = (1 << field_bits) - 1
    keys = []
    zero_sum_keys(c33, alphabet, 5, field_bits, keys.append)
    unpacked = [tuple(key >> i * field_bits & fmask for i in range(len(alphabet))) for key in keys]
    assert unpacked == zero_sum_vectors(c33, alphabet, 5)
    with pytest.raises(InvalidArgumentError):
        zero_sum_keys(c33, alphabet, 8, 3, keys.append)


# sha256 of the key list as JSON, taken from the generator-chain walk: the
# scans read keys in this (length, lex) order, so it must not move
PINNED_KEY_ORDERS = [
    ([2, 2, 2, 2], 8, 46431, "fe8dd446928289ec8f47b0697352d28894f40fc76ae3845d2ffd5c10e7815339"),
    ([3, 3], 10, 10282, "4b100c8580e814e6f3fa4a85af2d9e583414f962c87331d4032f18185970b33a"),
]
# the same over G0 without 0, the alphabet system walks when 0 is in G0;
# taken from the walk that buffered its keys per branch
PINNED_ZERO_FREE_KEY_ORDERS = [
    ([3, 3], 10, 4862, "1bcd07c321973674f23a1fab1bf5f9523188099888a934856ea5fd9eb5327c22"),
    ([2, 2, 2, 2], 8, 30954, "9e58df00e2b161f8a9d9becaa248cf8d1d7148e169195e360ebf8e9f473721f3"),
    ([2, 4], 11, 3978, "0ac229cbe52d8c546f38ed8c4b64aa75809430558380588ab611df18a8eed1ca"),
]


def key_order(group, alphabet, max_length):
    """The number of keys the walk emits and the sha256 of their JSON list."""
    keys = []
    zero_sum_keys(group, alphabet, max_length, max_length.bit_length(), keys.append)
    return len(keys), hashlib.sha256(json.dumps(keys).encode()).hexdigest()


@pytest.mark.parametrize("mods,max_length,count,digest", PINNED_KEY_ORDERS)
def test_zero_sum_key_order_is_pinned(mods, max_length, count, digest):
    group = make_group(mods)
    assert key_order(group, elements(group), max_length) == (count, digest)


@pytest.mark.parametrize("mods,max_length,count,digest", PINNED_ZERO_FREE_KEY_ORDERS)
def test_zero_free_key_order_is_pinned(mods, max_length, count, digest):
    group = make_group(mods)
    assert key_order(group, elements(group)[1:], max_length) == (count, digest)


def test_zero_sum_vectors_edges(c3, c33):
    assert zero_sum_vectors(c3, (), 3) == [()]
    assert zero_sum_vectors(c3, (c3.zero(),), 2) == [(0,), (1,), (2,)]
    assert zero_sum_vectors(c3, (c3.element([1]),), 7) == [(0,), (3,), (6,)]
    full = elements(c33)
    assert zero_sum_vectors(c33, full, 2) == brute_zero_sum_vectors(c33, full, 2)
    with pytest.raises(InvalidArgumentError):
        zero_sum_vectors(c3, elements(c3), -1)


def test_from_dense_inverts_dense(c3, c4):
    order = elements(c4)
    s = seq(c4, "[1:2,2:1]")
    assert Sequence.from_dense(c4, order, s.dense(order)) == s
    with pytest.raises(InvalidArgumentError):
        Sequence.from_dense(c4, order, (1, 2))
    # an order that repeats a letter has no one position for it
    g1, g2 = c3.element([1]), c3.element([2])
    with pytest.raises(InvalidArgumentError):
        seq(c3, "[1:3]").dense((g1, g1, g2))
    with pytest.raises(InvalidArgumentError):
        Sequence.from_dense(c3, (g1, g1), (1, 2))


def test_enumerate_order_is_deterministic(c3):
    a = enumerate_zero_sum(c3, None, 4)
    b = enumerate_zero_sum(c3, None, 4)
    assert a == b


def test_parse_rejects_garbage(c3):
    for text in ("1:3", "[1:", "[1]", "[1:0]", "[1:-2]", "[x:1]"):
        with pytest.raises(InvalidArgumentError):
            parse_sequence(c3, text)


def test_parse_rank2(c22):
    s = parse_sequence(c22, "[(0,1):2, (1,1):1]")
    assert s.length == 3
    assert encode_sequence(s) == "[(0,1):2,(1,1):1]"
