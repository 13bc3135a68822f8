import functools
import hashlib
import json
import math
import operator
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from zslen import atoms as atoms_module
from zslen import invariants
from zslen.atoms import build_atoms, davenport, enumerate_atoms, minimal_nonzero_vectors
from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.group import elements, make_group, order_of, tables
from zslen.invariants import (
    closed_form_system,
    compare_with_closed_form,
    delta_of_group,
    delta_star,
    elasticity,
    has_two_D_lengthset,
    interval_support_check,
    is_half_factorial,
    lambda_k,
    min_distance,
    rho_k,
    system,
    union_k,
    unions_range,
)
from zslen.lengths import FactorizationEngine, LengthSet, engine_for, exhaustive_length_set, length_set, mask_gaps
from zslen.sequence import (
    Sequence,
    canonical_subset,
    enumerate_zero_sum,
    is_zero_sum,
    parse_sequence,
)
from zslen.transfer import (
    check_atom_correspondence,
    check_transfer,
    direct_length_set,
    instance_atoms,
    make_instance,
)
from zslen.verify import verify_thm_6_3_1

from subgroup_sampler import subgroup_indices


def L(*values):
    return LengthSet.of(values)


# -- system --------------------------------------------------------------------


def test_system_c3_contents(c3):
    sys_ = system(c3, None, 6)
    sets = set(sys_.length_sets())
    assert L(2, 3) in sets
    for m in range(4):
        assert L(m) in sets
    # witnesses replay to their length sets
    atoms = enumerate_atoms(c3)
    for ls, witness in sys_.entries:
        assert length_set(witness, atoms) == ls
        assert witness.length <= 6


def test_system_c33_pinned(c33):
    """Entries and witnesses as found by the Sequence-building scan that the
    dense-vector walker replaced."""
    sys_ = system(c33, None, 9)
    text = json.dumps([[list(ls.values), str(w)] for ls, w in sys_.entries])
    assert len(sys_) == 16
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8516068b5c730d63de3da7303025fd7f82273f5cb6ec7df187dcd61127ef0cf7"
    )


def test_system_half_factorial_groups():
    for mods in ([1], [2]):
        group = make_group(mods)
        sys_ = system(group, None, 8)
        assert all(len(ls) == 1 for ls in sys_.length_sets())


def test_system_c22_has_u2_witness(c22):
    sys_ = system(c22, None, 6)
    assert L(2, 3) in set(sys_.length_sets())
    w = sys_.witness(L(2, 3))
    assert w.length == 6  # U^2 = V0 V1 V2


# -- closed forms ----------------------------------------------------------------


def test_closed_form_c3_window(c3):
    fam = closed_form_system(c3, 5)
    assert L(2, 3) in fam
    assert L(3, 4) in fam
    assert L(4, 5, 6) not in fam  # max 6 exceeds the window
    assert all(ls.max <= 5 for ls in fam)


def test_closed_form_c4(c4):
    fam = closed_form_system(c4, 8)
    assert L(4, 6, 8) in fam  # y=0, k=2 in the dilated family
    assert L(2, 4) in fam
    assert L(2, 3) in fam


def test_closed_form_c33(c33):
    fam = closed_form_system(c33, 7)
    assert LengthSet.of(range(2, 6)) in fam  # [2,5]
    assert L(1) in fam
    assert L(0) in fam
    assert all(len(ls) == 1 or ls.is_interval() for ls in fam)


def test_closed_form_rejects_unsupported():
    with pytest.raises(InvalidArgumentError):
        closed_form_system(make_group([5]), 6)


@pytest.mark.parametrize("mods,bound", [([3], 12), ([2, 2], 12), ([4], 10), ([2, 2, 2], 10)])
def test_compare_with_closed_form(mods, bound):
    group = make_group(mods)
    cmp = compare_with_closed_form(group, bound)
    assert cmp.ok, (cmp.computed_not_in_family, cmp.missing_at_frontier)


def test_systems_c3_c22_equal(c3, c22):
    a = set(system(c3, None, 12).length_sets())
    b = set(system(c22, None, 12).length_sets())
    assert a == b


# -- unions -----------------------------------------------------------------------


def test_union_1(c3, c4):
    assert union_k(c3, 1).values == (1,)
    assert union_k(c4, 1).values == (1,)


def test_union_2_c3_brute(c3):
    # oracle: all pairs of atoms, exhaustive factorization
    atoms = enumerate_atoms(c3)
    acc = set()
    for i, u in enumerate(atoms.atoms):
        for v in atoms.atoms[i:]:
            from zslen.sequence import mul

            acc.update(exhaustive_length_set(mul(u, v), atoms).values)
    assert tuple(sorted(acc)) == (2, 3)
    assert union_k(c3, 2).values == (2, 3)


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [5]])
def test_rho_2k_equals_k_davenport(mods):
    group = make_group(mods)
    d, _ = davenport(group)
    unions = unions_range(group, 6)
    for k in (1, 2, 3):
        assert unions[2 * k].rho == k * d
    assert all(u.is_interval() for u in unions.values())


def test_rho_3_c3(c3):
    assert rho_k(c3, 3) == 4
    assert lambda_k(c3, 3) == 2


def test_elasticity_examples(c3, c22):
    assert elasticity(c3) == Fraction(3, 2)
    assert elasticity(make_group([2])) == 1
    assert elasticity(make_group([2, 4])) == Fraction(5, 2)


def test_elasticity_cross_check():
    # the closed form D(G)/2 against a bounded scan: no L(B) exceeds it
    for mods in ([3], [4], [2, 2], [5]):
        group = make_group(mods)
        dav, _ = davenport(group)
        rho = elasticity(group)
        for ls in system(group, None, min(2 * dav, 10)).length_sets():
            assert not ls.min or Fraction(ls.max, ls.min) <= rho, (group, ls)


def _word(g):
    """An instance with one prime per class of g, and the word of all its primes."""
    inst = make_instance(g, None, 1)
    return inst, (1,) * len(inst.primes)


CEILING_CALLS = {
    "minimal_nonzero_vectors-positional": lambda g: minimal_nonzero_vectors(g, (0, 1), 10),
    "minimal_nonzero_vectors-node_limit": lambda g: minimal_nonzero_vectors(g, (0, 1), node_limit=10),
    "build_atoms-positional": lambda g: build_atoms(g, elements(g), elements(g), 10),
    "build_atoms-node_limit": lambda g: build_atoms(g, elements(g), elements(g), node_limit=10),
    "enumerate_atoms-positional": lambda g: enumerate_atoms(g, None, 10),
    "enumerate_atoms-node_limit": lambda g: enumerate_atoms(g, node_limit=10),
    "FactorizationEngine-positional": lambda g: FactorizationEngine([(1,)], 10),
    "FactorizationEngine-memo_limit": lambda g: FactorizationEngine([(1,)], memo_limit=10),
    "engine_for-positional": lambda g: engine_for(enumerate_atoms(g), 10),
    "engine_for-memo_limit": lambda g: engine_for(enumerate_atoms(g), memo_limit=10),
    "length_set-positional":
        lambda g: length_set(parse_sequence(g, "[1:3]"), enumerate_atoms(g), 10),
    "length_set-memo_limit":
        lambda g: length_set(parse_sequence(g, "[1:3]"), enumerate_atoms(g), memo_limit=10),
    "system-node_limit": lambda g: system(g, None, 4, node_limit=10),
    "system-memo_limit": lambda g: system(g, None, 4, memo_limit=10),
    "system-positional_limits": lambda g: system(g, None, 4, 10**8, 10**7),
    "unions_range-node_limit": lambda g: unions_range(g, 2, node_limit=10),
    "unions_range-memo_limit": lambda g: unions_range(g, 2, memo_limit=10),
    "delta_of_group-node_limit": lambda g: delta_of_group(g, None, 4, node_limit=10),
    "delta_of_group-memo_limit": lambda g: delta_of_group(g, None, 4, memo_limit=10),
    "delta_star-positional": lambda g: delta_star(g, 10),
    "delta_star-node_limit": lambda g: delta_star(g, node_limit=10),
    "instance_atoms-positional": lambda g: instance_atoms(make_instance(g, None, 1), 10),
    "instance_atoms-node_limit": lambda g: instance_atoms(make_instance(g, None, 1), node_limit=10),
    "direct_length_set-positional": lambda g: direct_length_set(*_word(g), 10),
    "direct_length_set-positional_both": lambda g: direct_length_set(*_word(g), 10, 10),
    "direct_length_set-node_limit": lambda g: direct_length_set(*_word(g), node_limit=10),
    "direct_length_set-memo_limit": lambda g: direct_length_set(*_word(g), memo_limit=10),
    "check_transfer-positional":
        lambda g: check_transfer(make_instance(g, None, 1), 1, 10, 0, 10**8),
    "check_transfer-positional_both":
        lambda g: check_transfer(make_instance(g, None, 1), 1, 10, 0, 10**8, 10**7),
    "check_transfer-node_limit":
        lambda g: check_transfer(make_instance(g, None, 1), 1, node_limit=10),
    "check_transfer-memo_limit":
        lambda g: check_transfer(make_instance(g, None, 1), 1, memo_limit=10),
    "check_atom_correspondence-positional":
        lambda g: check_atom_correspondence(make_instance(g, None, 1), 10),
    "check_atom_correspondence-node_limit":
        lambda g: check_atom_correspondence(make_instance(g, None, 1), node_limit=10),
}


@pytest.mark.parametrize(
    "call",
    [
        lambda g: elasticity(g, None),
        lambda g: elasticity(g, cross_check=True),
        lambda g: has_two_D_lengthset(g, None),
        lambda g: has_two_D_lengthset(g, memo_limit=10),
        lambda g: interval_support_check(g, 1, 0, 10),
        lambda g: interval_support_check(g, samples=1),
        lambda g: interval_support_check(g, seed=0),
        lambda g: davenport(g, None, 10),
        lambda g: unions_range(g, 2, product_limit=10),
        lambda g: union_k(g, 2, memo_limit=10),
        lambda g: rho_k(g, 2, memo_limit=10),
        lambda g: lambda_k(g, 2, memo_limit=10),
        lambda g: union_k(g, 2, None),
        lambda g: rho_k(g, 2, atoms=None),
        lambda g: lambda_k(g, 2, atoms=None),
        # the whole-monoid scans walk A(G0) themselves: a given atom set, by
        # keyword or in the old position, and a positional ceiling fail at
        # the call instead of reaching the walk as a node limit
        lambda g: system(g, None, 4, atoms=enumerate_atoms(g)),
        lambda g: system(g, None, 4, enumerate_atoms(g)),
        lambda g: system(g, None, 4, 10**8),
        lambda g: delta_of_group(g, None, 4, atoms=enumerate_atoms(g)),
        lambda g: delta_of_group(g, None, 4, enumerate_atoms(g)),
        lambda g: delta_of_group(g, None, 4, 10**8),
        lambda g: unions_range(g, 2, atoms=enumerate_atoms(g)),
        lambda g: unions_range(g, 2, enumerate_atoms(g)),
        lambda g: unions_range(g, 2, 10**8),
        # the comparison resolves its own system over all of G
        lambda g: compare_with_closed_form(g, 6, system(g, None, 6)),
        lambda g: compare_with_closed_form(g, 6, sys=system(g, None, 6)),
        # the ceilings are set by atoms.limits: a ceiling passed to a call,
        # by keyword or in its old position, fails at the call
        *CEILING_CALLS.values(),
    ],
    ids=[
        "elasticity-atoms", "elasticity-cross_check", "two_D-atoms", "two_D-memo_limit",
        "interval_support-memo_limit", "interval_support-samples", "interval_support-seed",
        "davenport-node_limit",
        "unions_range-product_limit", "union_k-kw", "rho_k-kw", "lambda_k-kw",
        "union_k-atoms", "rho_k-atoms", "lambda_k-atoms",
        "system-atoms", "system-positional_atoms", "system-positional_limit",
        "delta_of_group-atoms", "delta_of_group-positional_atoms",
        "delta_of_group-positional_limit",
        "unions_range-atoms", "unions_range-positional_atoms", "unions_range-positional_limit",
        "compare_with_closed_form-positional_sys", "compare_with_closed_form-sys",
        *CEILING_CALLS,
    ],
)
def test_removed_parameters_are_type_errors(call, c3):
    with pytest.raises(TypeError):
        call(c3)


def test_atoms_over_is_gone():
    # the scans resolve A(G0) by enumerate_atoms; davenport checks its alphabet
    assert not hasattr(atoms_module, "atoms_over")
    assert not hasattr(invariants, "atoms_over")


@pytest.mark.parametrize("call", [
    lambda g: system(g, None, 2.5),
    lambda g: system(g, None, True),
    lambda g: system(g, None, None),
    lambda g: system(g, None, -1),
    lambda g: delta_of_group(g, None, 2.0),
    lambda g: unions_range(g, 2.0),
    lambda g: unions_range(g, True),
    lambda g: unions_range(g, 0),
], ids=["system-float", "system-bool", "system-none", "system-negative", "delta-float",
        "unions-float", "unions-bool", "unions-zero"])
def test_scans_refuse_a_bound_that_is_not_an_int_before_walking(call, c3, monkeypatch,
                                                               fresh_atom_cache):
    def walk(*args):
        raise AssertionError("walked A(G) for a bound that is refused")

    monkeypatch.setattr(atoms_module, "minimal_nonzero_vectors", walk)
    with pytest.raises(InvalidArgumentError, match=r"^(bound|k_max) must be a"):
        call(c3)


def test_union_resource_limit(c33, monkeypatch):
    monkeypatch.setattr(invariants, "PRODUCT_LIMIT", 10)
    with pytest.raises(ResourceLimitError) as info:
        unions_range(c33, 8)
    assert info.value.limit == 10


def test_union_limit_charges_products_formed(c4, monkeypatch):
    # A(C4) has 6 atoms besides the prime [0:1]; each size of a level
    # charges the (product, atom) pairs it forms, one product per orbit of
    # the identity and negation: 726 pairs for k <= 7.  740 when a size at
    # k_max whose span the union came to hold on the last atom of a row
    # went on to form the rest of its rows; 1,812 when every level formed
    # all its orbits and was charged len(level) x 6 pairs.
    assert len(enumerate_atoms(c4)) == 7
    expected = unions_range(c4, 7)
    monkeypatch.setattr(invariants, "PRODUCT_LIMIT", 726)
    assert unions_range(c4, 7) == expected
    monkeypatch.setattr(invariants, "PRODUCT_LIMIT", 725)
    with pytest.raises(ResourceLimitError) as info:
        unions_range(c4, 7)
    assert info.value.reached == 726


def test_union_limit_is_met_before_memory_grows_with_k(c5, fresh_atom_cache, monkeypatch):
    # the walk holds nothing of size k_max * D before it forms a product: a
    # table of the spans of every size up to k_max * D, each up to
    # k_max * D / 2 bits wide, peaked at 14.4 MB for k_max = 4000
    enumerate_atoms(c5)
    monkeypatch.setattr(invariants, "PRODUCT_LIMIT", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            unions_range(c5, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


@functools.lru_cache(maxsize=None)
def reference_unions(mods: tuple[int, ...], k_max: int) -> dict[int, tuple[int, ...]]:
    """The level walk unions_range ran before it packed keys and kept one
    product per automorphism orbit: each level a set of exponent tuples,
    each tuple queried on a fresh engine."""
    group = make_group(list(mods))
    atoms = enumerate_atoms(group)
    engine = FactorizationEngine(atoms.vectors())
    level = {(0,) * len(atoms.letters)}
    out = {}
    for k in range(1, k_max + 1):
        level = {tuple(map(operator.add, b, a)) for b in level for a in atoms.vectors()}
        mask = 0
        for vec in level:
            mask |= engine.lengths_mask(vec)
        out[k] = LengthSet.from_mask(mask).values
    return out


# (group, largest k): the C3+C3 oracle takes about 17 s at k = 5
UNION_ORACLE_CASES = [((3,), 5), ((4,), 5), ((2, 2), 5), ((5,), 5), ((2, 4), 5), ((3, 3), 4)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(UNION_ORACLE_CASES), st.integers(1, 5))
@example(((3, 3), 4), 4)
@example(((2, 4), 5), 5)
@example(((5,), 5), 5)
@example(((2, 2), 5), 5)
@example(((4,), 5), 5)
@example(((3,), 5), 5)
@pytest.mark.slow
def test_unions_range_matches_tuple_level_walk(case, k):
    mods, top = case
    k_max = min(k, top)
    unions = unions_range(make_group(list(mods)), k_max)
    reference = reference_unions(mods, top)
    assert {k: u.values for k, u in unions.items()} == {k: reference[k] for k in range(1, k_max + 1)}


@pytest.mark.parametrize("mods, images", [
    pytest.param((3, 3), 2, marks=pytest.mark.slow),  # 69 atoms, 48 automorphisms
    ((2, 2, 2), 1),  # 16 atoms, 168 automorphisms; negation is the identity
])
def test_unions_past_the_image_ceiling_use_identity_and_negation(monkeypatch, fresh_atom_cache, mods, images):
    # a ceiling of one automorphism per atom
    group = make_group(list(mods))
    atoms = enumerate_atoms(group)
    monkeypatch.setattr(invariants, "MAX_ATOM_IMAGES", len(atoms))
    assert {len(a) for a in invariants._atom_images(atoms, 8)} == {images}
    unions = unions_range(group, 4)
    assert {k: u.values for k, u in unions.items()} == reference_unions(mods, 4)


def test_union_limit_charges_products_formed_per_orbit(c5, monkeypatch):
    # one product per orbit of C5's 4 automorphisms, over the 14 atoms other
    # than the prime [0:1], and only the sizes that can still add a length:
    # k <= 6 forms 3,476 (product, atom) pairs.  3,480 when a size at k_max
    # whose span the union came to hold on the last atom of a row went on to
    # form the rest of its rows; 16,296 when every orbit was formed and
    # charged; the unmerged walk over all 15 atoms formed 102,390, the orbit
    # walk over all 15 26,595.
    expected = unions_range(c5, 6)
    monkeypatch.setattr(invariants, "PRODUCT_LIMIT", 3476)
    assert unions_range(c5, 6) == expected
    monkeypatch.setattr(invariants, "PRODUCT_LIMIT", 3475)
    with pytest.raises(ResourceLimitError) as info:
        unions_range(c5, 6)
    assert info.value.reached == 3476


def test_unions_memo_is_pinned(c5, fresh_atom_cache):
    # a fresh engine: only the largest key of each orbit of zero-free
    # products whose size can still add a length, and whose span the union
    # does not yet cover, is queried, so the memo holds 966 entries after
    # k <= 6 (1,702 when every size was formed in the order met, 2,219 when
    # every orbit was queried, 12,269 when every product was, 3,593 when
    # those holding 0 were too)
    assert enumerate_atoms(c5).engine is None
    unions_range(c5, 6)
    assert engine_for(enumerate_atoms(c5)).memo_size == 966


def test_unions_with_two_byte_fields(fresh_atom_cache):
    # level entries of C2 reach 2 * 130 = 260, past one byte per field.  The
    # one atom besides [0:1] is [1:2], and a power [1:2k] has the one length
    # k that the base 1 + U_(k-1) already holds, so no size can add a
    # length: the walk forms no product (it formed every power when it
    # formed every size), nothing is queried and the memo holds only the
    # empty product: 1 entry (131 when every power [1:2k] was queried, 8,646
    # when the products with the prime [0:1] were queried too)
    group = make_group([2])
    atoms = enumerate_atoms(group)
    assert atoms.engine is None
    unions = unions_range(group, 130)
    assert engine_for(atoms).widen(0) == 16
    assert [u.values for u in unions.values()] == [(k,) for k in range(1, 131)]
    assert engine_for(atoms).memo_size == 1


def test_system_with_two_byte_fields():
    group = make_group([1])
    sys_ = system(group, None, 300)
    assert [(ls.values, wit.length) for ls, wit in sys_.entries] == [((n,), n) for n in range(301)]
    assert engine_for(enumerate_atoms(group)).widen(0) == 16


def test_system_holds_only_its_output_when_shifting_by_zero(c2, fresh_atom_cache):
    # L(0^c B) = c + L(B): the shift of the zero-free sets of C2 by every c
    # keeps only the sets it returns, not a candidate per (set, c)
    tracemalloc.start()
    try:
        sys_ = system(c2, None, 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(ls.values, str(wit)) for ls, wit in sys_.entries] == [
        ((n,), f"[0:{n}]" if n else "[]") for n in range(401)]
    assert peak < 2_000_000


# -- distance sets ------------------------------------------------------------------


def test_delta_c3(c3):
    report = delta_of_group(c3, None, 12)
    assert report.distances == (1,)
    assert report.exact


def test_delta_small_groups_empty():
    for mods in ([1], [2]):
        report = delta_of_group(make_group(mods), None, 10)
        assert report.distances == ()
        assert report.exact


def test_delta_c4(c4):
    report = delta_of_group(c4, None, 10)
    assert report.distances == (1, 2)


def test_delta_star_c3(c3):
    report = delta_star(c3)
    assert report.values == (1,)
    assert report.subsets_scanned == 7


def test_delta_star_subset_of_delta(c4):
    ds = delta_star(c4)
    d = delta_of_group(c4, None, 10)
    assert set(ds.values) <= set(d.distances)
    assert 1 in ds.values  # G0 = G contributes min Delta(G) = 1


def test_delta_star_keeps_no_atom_sets(c4):
    before = len(atoms_module._ATOM_SETS)
    delta_star(c4)
    assert len(atoms_module._ATOM_SETS) == before


def test_delta_star_reads_neither_the_scan_nor_the_engine(c4, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("delta_star must not scan sequences or factor them")

    monkeypatch.setattr(invariants, "system", refuse)
    monkeypatch.setattr(FactorizationEngine, "product_levels", refuse)
    monkeypatch.setattr(invariants, "engine_for", refuse)
    monkeypatch.setattr(invariants, "length_set", refuse)
    assert delta_star(c4).values == (1, 2)


def test_delta_star_takes_no_positional_bound(c4):
    # a stale delta_star(group, bound) call must not become a node limit
    with pytest.raises(TypeError):
        delta_star(c4, 8)


def _zero_free_subsets(group):
    nonzero = elements(group)[1:]
    for mask in range(1, 1 << len(nonzero)):
        yield tuple(g for i, g in enumerate(nonzero) if mask >> i & 1)


def bounded_delta_star(group, bound):
    """The bounded scan delta_star once was: for each zero-free subset G0
    whose system to the bound shows a distance, the gcd of those distances.
    It sees only the sequences up to the bound, so each gcd is a multiple
    of min Delta(G0)."""
    seen = {}
    for subset in _zero_free_subsets(group):
        distances = system(group, subset, bound).distances()
        if distances:
            seen[subset] = (enumerate_atoms(group, subset), math.gcd(*distances))
    return seen


@pytest.mark.parametrize("moduli, bound", [
    ([5], 8), ([6], 8), ([2, 4], 8), ([2, 2, 2], 8), ([3, 3], 7),
])
def test_min_distance_divides_the_bounded_scans_gcd(moduli, bound, fresh_atom_cache):
    # the subsets' atom sets die with the swapped cache
    seen = bounded_delta_star(make_group(moduli), bound)
    assert seen
    for subset, (atoms, gcd) in seen.items():
        md = min_distance(atoms.vectors())
        assert md and gcd % md == 0, (subset, md, gcd)


@pytest.mark.parametrize("moduli", [
    [3], [4], [5], [6], [8], [2, 2], [2, 4], [3, 3], [2, 2, 2],
])
def test_min_distance_is_zero_iff_every_cross_number_is_one(moduli):
    # B(G0) is half-factorial iff every atom has cross number
    # sum v_g / ord(g) = 1 (Geroldinger and Halter-Koch, 2006)
    group = make_group(moduli)
    for subset in _zero_free_subsets(group):
        atoms = build_atoms(group, subset, subset)
        orders = [order_of(g) for g in subset]
        cross_one = all(
            sum(Fraction(v, n) for v, n in zip(vec, orders)) == 1 for vec in atoms.vectors()
        )
        assert (min_distance(atoms.vectors()) == 0) == cross_one, subset


def test_min_distance_small_cases():
    assert min_distance([]) == 0
    assert min_distance([(4,)]) == 0  # B({g}) is free
    assert min_distance([(3, 0), (0, 3), (1, 1)]) == 1  # U(-U) = V^3 over C3
    assert min_distance([(5, 0), (0, 5), (1, 1)]) == 3  # {2, 5} over C5


@pytest.mark.parametrize("moduli, values", [
    ([3], (1,)),
    ([4], (1, 2)),
    ([5], (1, 3)),
    ([6], (1, 2, 4)),
    ([7], (1, 2, 5)),
    ([8], (1, 2, 3, 6)),
    ([9], (1, 3, 7)),
    ([10], (1, 2, 3, 4, 8)),
    pytest.param([11], (1, 4, 9), marks=pytest.mark.slow),
    pytest.param([12], (1, 2, 4, 5, 10), marks=pytest.mark.slow),
    ([2, 2], (1,)),
    ([2, 4], (1, 2)),
    pytest.param([2, 6], (1, 2, 4), marks=pytest.mark.slow),
    ([3, 3], (1,)),
    ([2, 2, 2], (1, 2)),
])
def test_delta_star_exact_values(moduli, values):
    group = make_group(moduli)
    report = delta_star(group)
    assert report.values == values
    assert report.subsets_scanned == 2 ** group.order - 1
    # max Delta*(G) = max{exp(G) - 2, r(G) - 1} (Geroldinger and Zhong, 2016)
    assert max(values) == max(group.invariant_factors[-1] - 2, group.rank - 1)


@pytest.mark.parametrize("invariant", [davenport])  # the one invariant of G given A(G)
def test_invariants_of_g_reject_atoms_over_a_subset(invariant):
    # A({0,2,4}) read as A(C6) gave D = 3; the true value is 6
    c6 = make_group([6])
    e = elements(c6)
    with pytest.raises(InvalidArgumentError, match="does not match"):
        invariant(c6, enumerate_atoms(c6, [e[0], e[2], e[4]]))


def zero_sum_vectors(group, alphabet, bound):
    """Dense exponent vectors of the zero-sum sequences over a canonical
    alphabet, in the walk's (length, lex) order."""
    return [b.dense(alphabet) for b in enumerate_zero_sum(group, alphabet, bound)]


def reference_delta(group, subset, bound):
    """The per-vector scan that delta_of_group ran before it read system():
    the gaps of every zero-sum vector up to the bound, and of those within
    a D(G) margin below it."""
    alphabet = canonical_subset(group, subset)
    engine = engine_for(enumerate_atoms(group, alphabet))
    dav, _ = davenport(group)
    margin = max(bound - dav, 0)
    masks, margin_masks = set(), set()
    for vec in zero_sum_vectors(group, alphabet, bound):
        mask = engine.lengths_mask(vec)
        masks.add(mask)
        if sum(vec) <= margin:
            margin_masks.add(mask)
    acc = set().union(*map(mask_gaps, masks))
    acc_margin = set().union(*map(mask_gaps, margin_masks))
    distances = tuple(sorted(acc))
    full_group = alphabet == elements(group)
    is_interval_from_1 = bool(distances) and distances == tuple(range(1, distances[-1] + 1))
    stable = bool(distances) and bool(acc_margin) and max(acc_margin) == distances[-1]
    half_factorial = min_distance(enumerate_atoms(group, alphabet).vectors()) == 0
    exact = half_factorial or (full_group and is_interval_from_1 and stable)
    return distances, exact


@pytest.mark.parametrize("mods, subset", [
    ([2], None), ([3], None), ([4], None), ([2, 2], None), ([5], None),
    ([2, 2, 2], None), ([6], (0, 1, 5)), ([4], (0, 2)), ([2, 2], (1, 2)),
])
def test_delta_of_group_matches_per_vector_scan(mods, subset):
    group = make_group(mods)
    if subset is not None:
        subset = [elements(group)[i] for i in subset]
    for bound in range(11):
        report = delta_of_group(group, subset, bound)
        assert (report.distances, report.exact) == reference_delta(group, subset, bound), bound


def test_delta_star_order_cap():
    with pytest.raises(ResourceLimitError):
        delta_star(make_group([4, 4]))


# -- half-factoriality ----------------------------------------------------------------


def test_half_factorial_c2():
    verdict = is_half_factorial(make_group([2]))
    assert verdict.kind == "yes-exact"


def test_half_factorial_c3_witness(c3):
    verdict = is_half_factorial(c3)
    assert verdict.kind == "no-with-witness"
    assert verdict.witness == parse_sequence(c3, "[1:3,2:3]")
    assert verdict.witness_lengths == L(2, 3)


def test_half_factorial_c22_witness(c22):
    verdict = is_half_factorial(c22)
    assert verdict.kind == "no-with-witness"
    assert verdict.witness_lengths == L(2, 3)


def test_half_factorial_single_generator(c5):
    verdict = is_half_factorial(c5, [c5.element([1])])
    assert verdict.kind == "yes-exact"
    assert verdict.is_half_factorial


def test_half_factorial_c5_plus_minus_one(c5):
    # no zero-sum sequence over {1, 4} shorter than 10 has two lengths
    verdict = is_half_factorial(c5, [c5.element([1]), c5.element([4])])
    assert verdict.kind == "no-with-witness"
    assert not verdict.is_half_factorial
    assert verdict.witness == parse_sequence(c5, "[1:5,4:5]")
    assert verdict.witness_lengths == L(2, 5)


def test_half_factorial_takes_no_bound(c5):
    with pytest.raises(TypeError):
        is_half_factorial(c5, None, 8)
    with pytest.raises(TypeError):
        is_half_factorial(c5, bound=8)


def test_half_factorial_reads_neither_the_scan_nor_the_walk(c4, monkeypatch):
    def refuse(*args, **kw):
        raise AssertionError("is_half_factorial must not scan sequences")

    monkeypatch.setattr(invariants, "system", refuse)
    monkeypatch.setattr(FactorizationEngine, "product_levels", refuse)
    assert is_half_factorial(c4).witness_lengths == L(2, 4)
    assert is_half_factorial(c4, [c4.element([2])]).kind == "yes-exact"


def reference_half_factorial(group, subset, bound):
    """A bounded oracle: the first zero-sum vector over G0 in (length, lex)
    order with two or more lengths, on a fresh engine, or None when there
    is none up to the bound."""
    alphabet = canonical_subset(group, subset)
    engine = FactorizationEngine(enumerate_atoms(group, alphabet).vectors())
    for vec in zero_sum_vectors(group, alphabet, bound):
        mask = engine.lengths_mask(vec)
        if mask.bit_count() > 1:
            return Sequence.from_dense(group, alphabet, vec), LengthSet.from_mask(mask)
    return None


@pytest.mark.parametrize("mods", [
    [3], [4], [5], [6], [7], [8], [2, 2], [2, 4], [2, 2, 2],
])
def test_half_factorial_is_exact_on_every_subset(mods):
    # the verdict agrees with min Delta(G0) = 0 on all 1,023 nonempty subsets
    # of these nine groups, and with the bound-8 scan wherever it sees two
    # lengths; each witness is a zero-sum sequence over G0 with two lengths
    # or more
    group = make_group(mods)
    els = elements(group)
    for mask in range(1, 1 << len(els)):
        subset = [g for i, g in enumerate(els) if mask >> i & 1]
        verdict = is_half_factorial(group, subset)
        atoms = enumerate_atoms(group, subset)
        assert verdict.is_half_factorial == (min_distance(atoms.vectors()) == 0), subset
        if reference_half_factorial(group, subset, 8) is not None:
            assert not verdict.is_half_factorial, subset
        if verdict.is_half_factorial:
            assert verdict.kind == "yes-exact" and verdict.witness is None, subset
            continue
        assert verdict.kind == "no-with-witness", subset
        w = verdict.witness
        assert is_zero_sum(w) and set(w.support) <= set(subset), (subset, w)
        assert verdict.witness_lengths == length_set(w, atoms), subset
        assert len(verdict.witness_lengths) >= 2, subset


# -- {2, D(G)} criterion ---------------------------------------------------------------


def two_D_pair_scan(group):
    """The pair scan has_two_D_lengthset replaced: every product of two atoms
    of A(G), longest first, until one has L = {2, D(G)}; (found, witness)."""
    atoms = enumerate_atoms(group)
    dav, _ = davenport(group, atoms)
    engine = engine_for(atoms)
    target = L(2, dav).to_mask()
    vectors = atoms.vectors()
    bits = engine.widen(2 * max(map(max, vectors)))
    ordered = [
        sum(x << i * bits for i, x in enumerate(v)) for v in sorted(vectors, key=lambda v: -sum(v))
    ]
    for i, u in enumerate(ordered):
        for v in ordered[i:]:
            if engine.lengths_mask(u + v) == target:
                return True, Sequence.from_dense(group, atoms.letters, engine.unpack(u + v))
    return False, None


TWO_D_GROUPS = [(n,) for n in range(1, 13)] + [(2, 2), (2, 4), (3, 3), (2, 6), (2, 2, 2), (2, 2, 2, 2)]


@pytest.mark.parametrize("mods", TWO_D_GROUPS, ids=lambda m: "+".join(f"C{n}" for n in m))
def test_two_D_matches_the_pair_scan(mods):
    group = make_group(mods)
    report = has_two_D_lengthset(group)
    assert (report.found, report.witness) == two_D_pair_scan(group)
    if report.found:  # U(-U) for an atom U of length D(G)
        w, atoms = report.witness, enumerate_atoms(group)
        assert length_set(w, atoms) == L(2, report.davenport)
        longest = [u for u in atoms.atoms if u.length == report.davenport]
        assert any(w == u * Sequence.make(group, {-g: c for g, c in u.exponents.items()}) for u in longest)


def test_two_D_c5(c5):
    report = has_two_D_lengthset(c5)
    assert report.found
    assert report.witness == parse_sequence(c5, "[1:5,4:5]")


def test_two_D_c24_negative(c24):
    report = has_two_D_lengthset(c24)
    assert not report.found
    assert report.witness is None
    assert report.atoms_scanned == 8


# -- Thm 6.3.1: subgroup supports give intervals ------------------------------------------


def test_all_subgroups_c4(c4):
    subs = subgroup_indices(c4)
    assert [len(s) for s in subs] == [1, 2, 4]


def test_all_subgroups_c222(c222):
    subs = subgroup_indices(c222)
    assert [len(s) for s in subs].count(2) == 7
    assert [len(s) for s in subs].count(4) == 7
    assert len(subs) == 16


def test_interval_support_check_c3_witness_family(c3):
    atoms = enumerate_atoms(c3)
    for k in range(1, 4):
        b = parse_sequence(c3, f"[1:{3*k},2:{3*k}]")
        sup = set(b.support) | {c3.zero()}
        assert sup == set(elements(c3))
        assert length_set(b, atoms).is_interval()


def _subgroup_support_count(group, bound):
    """The zero-sum sequences of length <= bound whose support with 0 is a
    subgroup, counted over the atom-free walk."""
    subgroups = set(subgroup_indices(group))
    index = tables(group).index
    return sum(
        tuple(sorted({0} | {index[g] for g in a.support})) in subgroups
        for a in enumerate_zero_sum(group, None, bound)
    )


@pytest.mark.parametrize("mods, bound, checked", [
    ([1], 5, 6), ([2], 12, 49), ([3], 10, 68), ([4], 12, 230), ([6], 10, 169),
    ([2, 2, 2], 8, 375), ([2, 2, 2], 9, 580),
], ids=["C1-b5", "C2-b12", "C3-b10", "C4-b12", "C6-b10", "C2^3-b8", "C2^3-b9"])
def test_interval_support_check_reads_every_element(mods, bound, checked):
    group = make_group(mods)
    report = interval_support_check(group, bound)
    assert (report.bound, report.checked, report.failures, report.ok) == (bound, checked, (), True)
    assert _subgroup_support_count(group, bound) == checked


def test_interval_support_check_reports_a_gap(c4, monkeypatch, fresh_atom_cache):
    # feed the check a pass in which the empty product has lengths {0, 2}
    # and 2^2 has {1, 3}: both are reported, each with its set
    engine = engine_for(enumerate_atoms(c4))
    real = engine.product_levels
    gapped = {0: 0b101, engine._key((0, 0, 2, 0)): 0b1010}

    def levels(top, avoid):
        for level in real(top, avoid):
            yield {key: gapped.get(key, mask) for key, mask in level.items()}

    monkeypatch.setattr(engine, "product_levels", levels)
    report = interval_support_check(c4, 4)
    assert not report.ok
    assert [(str(a), ls) for a, ls in report.failures] == [("[]", L(0, 2)), ("[2:2]", L(1, 3))]
    assert report.checked == _subgroup_support_count(c4, 4)
    # the suite's verdict fails and names the first failure
    (verdict,) = verify_thm_6_3_1(c4, 4)
    assert verdict.passed is False
    assert verdict.witness == (
        f"|A| <= 4: {report.checked} checked, failures 2; first failure [] -> {L(0, 2)}")


def test_interval_support_check_counts(c3):
    # bound 0 checks the empty sequence, and so decides the claim; a
    # negative or non-integer bound is refused
    report = interval_support_check(c3, 0)
    assert (report.checked, report.ok) == (1, True)
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        interval_support_check(c3, -3)
    with pytest.raises(InvalidArgumentError, match="nonnegative"):
        interval_support_check(c3, 2.0)


# -- cross-cutting invariants -------------------------------------------------------------


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [5]])
def test_union_invariants(mods):
    group = make_group(mods)
    unions = unions_range(group, 6)
    for k, u in unions.items():
        assert k in u.values
        assert (1 in u.values) == (k == 1)
        assert u.lam <= k <= u.rho


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [3, 3]])
def test_zero_free_weight_bounds(mods):
    # for witnesses without zeros: 2 max L <= |B| <= D(G) min L
    group = make_group(mods)
    atoms = enumerate_atoms(group)
    d, _ = davenport(group, atoms)
    for b in enumerate_zero_sum(group, None, 8):
        if b.length == 0 or b.v(group.zero()) > 0:
            continue
        ls = length_set(b, atoms)
        assert 2 * ls.max <= b.length
        assert b.length <= d * ls.min


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [5]])
def test_elasticity_witness_attained(mods):
    # (-U)U with |U| = D(G) realizes rho(L) = D/2
    group = make_group(mods)
    atoms = enumerate_atoms(group)
    d, witness = davenport(group, atoms)
    from zslen.lengths import elasticity_of
    from zslen.sequence import mul, negate

    b = mul(witness, negate(witness))
    assert elasticity_of(length_set(b, atoms)) == elasticity(group)
