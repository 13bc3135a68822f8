import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.group import add, elements, make_group, neg, order_of, zero

moduli_lists = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=4
).filter(lambda ms: math.prod(ms) <= 64)


def test_canonicalization_examples():
    assert make_group([2, 2]).invariant_factors == (2, 2)
    assert make_group([2, 3]).invariant_factors == (6,)
    assert make_group([1]).invariant_factors == ()
    assert make_group([1]).order == 1
    assert make_group([4, 6]).invariant_factors == (2, 12)
    assert make_group([2, 2]).order == 4


def test_invalid_moduli():
    with pytest.raises(InvalidArgumentError):
        make_group([0])
    with pytest.raises(InvalidArgumentError):
        make_group([-3])
    with pytest.raises(InvalidArgumentError):
        make_group(["3"])


def test_order_cap():
    with pytest.raises(ResourceLimitError):
        make_group([5, 25])
    assert make_group([5, 25], max_order=None).order == 125


@given(moduli_lists)
@settings(max_examples=60, deadline=None)
def test_canonicalization_idempotent(mods):
    g = make_group(mods)
    again = make_group(list(g.invariant_factors) or [1])
    assert again == g


def test_arithmetic_examples(c4, c22):
    a, b = c4.element([3]), c4.element([2])
    assert add(a, b) == c4.element([1])
    assert neg(c22.element([1, 1])) == c22.element([1, 1])
    g = c4.element([3])
    assert add(g, zero(c4)) == g


def test_group_mismatch(c3, c4):
    with pytest.raises(InvalidArgumentError):
        add(c3.element([1]), c4.element([1]))


def test_order_of_examples(c3):
    c6 = make_group([6])
    assert order_of(c6.element([2])) == 3
    assert order_of(zero(c6)) == 1
    # verify by repeated addition
    c24 = make_group([2, 4])
    g = c24.element([1, 2])
    total, k = g, 1
    while total != zero(c24):
        total = add(total, g)
        k += 1
    assert k == 2
    assert order_of(g) == 2


@given(moduli_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_order_divides_group_order(mods, data):
    g = make_group(mods)
    el = data.draw(st.sampled_from(elements(g)))
    k = order_of(el)
    assert g.order % k == 0
    total = zero(g)
    for _ in range(k):
        total = add(total, el)
    assert total == zero(g)


def test_elements_enumeration(c3, c22):
    assert [e.coords for e in elements(c3)] == [(0,), (1,), (2,)]
    assert [e.coords for e in elements(c22)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert [e.coords for e in elements(make_group([1]))] == [()]
    for mods in ([2, 4], [3, 3], [8]):
        g = make_group(mods)
        assert len(set(elements(g))) == g.order


def test_element_reduction(c4):
    assert c4.element([7]).coords == (3,)
    with pytest.raises(InvalidArgumentError):
        c4.element([1, 2])


@given(moduli_lists, st.data())
@settings(max_examples=60, deadline=None)
def test_equal_elements_hash_equal(mods, data):
    group = make_group(mods)
    coords = data.draw(st.sampled_from(elements(group))).coords
    a, b = group.element(coords), group.element(coords)
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1


def test_same_coords_in_different_groups_are_unequal():
    c4, c6, c22 = make_group([4]), make_group([6]), make_group([2, 2])
    assert c4.element([1]) != c6.element([1])
    assert c22.element([1, 1]) != make_group([2, 4]).element([1, 1])
    # the hash reads coords only, so such elements share a hash but not a key
    table = {c4.element([1]): "C4", c6.element([1]): "C6"}
    assert table[c4.element([1])] == "C4" and table[c6.element([1])] == "C6"
