import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.group import (
    FiniteAbelianGroup,
    add,
    automorphisms,
    elements,
    make_group,
    neg,
    order_of,
    tables,
    zero,
)

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


def _factor_chains(limit, least=2):
    """Every divisibility chain n1 | n2 | ... with n1 >= least and product
    at most limit, the empty chain first."""
    yield ()
    for n in range(least, limit + 1):
        for rest in _factor_chains(limit // n, n):
            if not rest or rest[0] % n == 0:
                yield (n,) + rest


# every group of order <= 64, C1 and C2 included
SMALL_GROUPS = [FiniteAbelianGroup(f) for f in _factor_chains(64)]


def test_small_groups_are_every_group_of_order_at_most_64():
    # the number of abelian groups of order n is the product of the
    # partition counts of its prime exponents: 1 + 1 + 1 + 2 (order 4) ...
    assert len(SMALL_GROUPS) == len(set(SMALL_GROUPS))
    assert sum(g.order == 64 for g in SMALL_GROUPS) == 11
    assert sum(g.order == 36 for g in SMALL_GROUPS) == 4
    assert max(g.order for g in SMALL_GROUPS) == 64
    assert FiniteAbelianGroup(()) in SMALL_GROUPS and make_group([2]) in SMALL_GROUPS


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_tables_match_element_arithmetic(group):
    # the integer tables against GroupElement arithmetic, the oracle
    tab, els = tables(group), elements(group)
    index = tab.index
    for i, a in enumerate(els):
        assert tab.add[i] == tuple(index[add(a, b)] for b in els)
        assert tab.neg[i] == index[neg(a)]
        assert tab.order[i] == order_of(a)
        multiple = zero(group)
        for k in range(tab.exp):
            assert tab.mult[i][k] == index[multiple]
            multiple = add(multiple, a)


@pytest.mark.parametrize("group", SMALL_GROUPS, ids=str)
def test_levels_form_a_chain_of_prime_index(group):
    tab = tables(group)
    level, add_t = tab.level, tab.add
    assert [x for x in range(group.order) if level[x] == 0] == [0]
    top, sizes = max(level), []
    for j in range(top + 1):
        members = [x for x in range(group.order) if level[x] <= j]
        assert all(level[add_t[x][y]] <= j for x in members for y in members)
        sizes.append(len(members))
    assert sizes[-1] == group.order
    for small, large in zip(sizes, sizes[1:]):
        index = large // small
        assert large == small * index and index > 1
        assert all(index % d for d in range(2, index))  # prime


@pytest.mark.parametrize("mods", [[], [2], [3, 3], [2, 4], [2, 2, 6]])
def test_group_equality_and_hash_survive_pickle(mods):
    group = make_group(mods)
    copy = pickle.loads(pickle.dumps(group))
    assert copy is not group and copy == group and not copy != group
    assert hash(copy) == hash(group) == hash(make_group(mods))
    assert {group: 1}[copy] == 1
    assert tables(copy) is tables(group)
    other = make_group([5])
    assert copy != other and not copy == other
    assert group != group.invariant_factors  # no tuple stands in for a group


AUTOMORPHISM_COUNTS = [
    ([2], 1), ([3], 2), ([4], 2), ([2, 2], 6), ([5], 4), ([6], 2),
    ([2, 4], 8), ([3, 3], 48), ([2, 2, 2], 168), ([2, 6], 12), ([4, 4], 96),
]


@pytest.mark.parametrize("mods, count", AUTOMORPHISM_COUNTS)
def test_automorphisms_are_the_additive_bijections(mods, count):
    group = make_group(mods)
    add_t, n = tables(group).add, group.order
    auts = automorphisms(group)
    assert len(auts) == len(set(auts)) == count
    assert auts[0] == tuple(range(n))
    for s in auts:
        assert sorted(s) == list(range(n))
        assert all(s[add_t[x][y]] == add_t[s[x]][s[y]] for x in range(n) for y in range(n))


def test_automorphisms_take_no_fixing_set():
    # the U_k walk of the whole group fixes no subset; a stale fixing set
    # must not become the limit
    c5 = make_group([5])
    with pytest.raises(TypeError):
        automorphisms(c5, [1, 4])
    with pytest.raises(TypeError):
        automorphisms(c5, fixing=[1, 4])


def test_automorphisms_past_the_limit_are_none():
    c33 = make_group([3, 3])
    assert automorphisms(c33, limit=47) is None
    assert len(automorphisms(c33, limit=48)) == 48


def test_automorphisms_of_large_groups_stop_at_the_limit():
    # GL(4,2) has 20,160 elements, GL(5,2) about 10M and Aut(C3^3) 11,232
    for mods in ([2, 2, 2, 2], [2, 2, 2, 2, 2], [3, 3, 3]):
        assert automorphisms(make_group(mods), limit=1000) is None
