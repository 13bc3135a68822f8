import ast
import hashlib
import itertools
import json
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import zslen
from zslen.atoms import (
    AtomSet,
    below_rows,
    davenport,
    davenport_star,
    divisible_pairs,
    enumerate_atoms,
    is_atom,
    limits,
    minimal_nonzero_vectors,
)
from zslen.errors import ResourceLimitError
from zslen.group import automorphisms, elements, make_group, order_of, tables
from zslen.sequence import (
    Sequence,
    divides,
    enumerate_zero_sum,
    is_zero_sum,
    parse_sequence,
)
from zslen.transfer import instance_atoms, make_instance


def naive_atoms(group):
    """Oracle: scan every vector with v_g <= ord(g), keep zero-sum ones,
    then drop anything with a smaller zero-sum below it."""
    els = elements(group)
    zs = []
    for vec in itertools.product(*(range(order_of(g) + 1) for g in els)):
        if sum(vec) == 0:
            continue
        s = Sequence.make(group, {g: m for g, m in zip(els, vec) if m})
        if is_zero_sum(s):
            zs.append(s)
    return {
        s for s in zs
        if not any(t != s and divides(t, s) for t in zs)
    }


def test_atoms_c3_exact(c3):
    atoms = enumerate_atoms(c3)
    expected = {
        parse_sequence(c3, "[0:1]"),
        parse_sequence(c3, "[1:3]"),
        parse_sequence(c3, "[2:3]"),
        parse_sequence(c3, "[1:1,2:1]"),
    }
    assert set(atoms.atoms) == expected


def test_atoms_c22_exact(c22):
    atoms = enumerate_atoms(c22)
    expected = {
        parse_sequence(c22, "[(0,0):1]"),
        parse_sequence(c22, "[(0,1):2]"),
        parse_sequence(c22, "[(1,0):2]"),
        parse_sequence(c22, "[(1,1):2]"),
        parse_sequence(c22, "[(0,1):1,(1,0):1,(1,1):1]"),
    }
    assert set(atoms.atoms) == expected


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [5], [6], [2, 4]])
def test_atoms_match_naive_oracle(mods):
    group = make_group(mods)
    assert set(enumerate_atoms(group).atoms) == naive_atoms(group)


def test_atom_count_c4(c4):
    assert len(enumerate_atoms(c4)) == 7  # frozen from the naive oracle


def test_is_atom_examples(c3, c22):
    assert is_atom(parse_sequence(c3, "[1:3]"))
    assert is_atom(parse_sequence(c22, "[(0,1):1,(1,0):1,(1,1):1]"))
    assert not is_atom(parse_sequence(c3, "[1:2,2:2]"))  # ((-g)g)^2
    assert not is_atom(Sequence.empty(c3))
    assert not is_atom(parse_sequence(c3, "[1:1]"))  # not zero-sum


def test_subset_atoms(c3):
    g = c3.element([1])
    atoms = enumerate_atoms(c3, [g])
    assert [str(a) for a in atoms.atoms] == ["[1:3]"]


DAVENPORT_CASES = [
    ([2], 2),
    ([3], 3),
    ([4], 4),
    ([5], 5),
    ([6], 6),
    ([7], 7),
    ([8], 8),
    ([2, 2], 3),
    ([2, 2, 2], 4),
    ([2, 2, 2, 2], 5),
    ([3, 3], 5),
    ([2, 4], 5),
]


@pytest.mark.parametrize("mods,expected", DAVENPORT_CASES)
def test_davenport_equals_star(mods, expected):
    group = make_group(mods)
    d, witness = davenport(group)
    assert d == expected
    assert d == davenport_star(group)
    assert witness.length == d
    assert is_atom(witness)


def test_davenport_star_examples():
    assert davenport_star(make_group([9])) == 9
    assert davenport_star(make_group([2, 2, 2])) == 4
    assert davenport_star(make_group([3, 3])) == 5
    assert davenport_star(make_group([1])) == 1


def davenport_star_witness(group):
    """The classical extremal atom (e1+...+er) * prod e_i^(n_i - 1)."""
    exps = Counter({
        group.element(1 if j == i else 0 for j in range(group.rank)): n - 1
        for i, n in enumerate(group.invariant_factors)
    })
    exps[group.element([1] * group.rank)] += 1  # e1 itself when G is cyclic
    return Sequence.make(group, exps)


@pytest.mark.parametrize("mods", [[3], [2, 2], [2, 4], [3, 3], [2, 2, 2]])
def test_star_witness_is_atom(mods):
    group = make_group(mods)
    w = davenport_star_witness(group)
    assert w.length == davenport_star(group)
    assert is_atom(w)
    assert davenport_star(group) <= davenport(group)[0]


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [6], [3, 3], [2, 2, 2]])
def test_antichain(mods):
    group = make_group(mods)
    assert divisible_pairs(enumerate_atoms(group).vectors()) == []


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [6]])
def test_completeness_on_samples(mods):
    group = make_group(mods)
    atoms = enumerate_atoms(group)
    d, _ = davenport(group, atoms)
    for b in enumerate_zero_sum(group, None, d + 2):
        if b.length == 0:
            continue
        assert any(divides(a, b) for a in atoms.atoms), str(b)


def test_cyclic_and_elementary_families():
    for n in range(2, 9):
        assert davenport(make_group([n]))[0] == n
    for r in range(1, 5):
        assert davenport(make_group([2] * r))[0] == r + 1


def test_node_limit():
    group = make_group([3, 3])
    with limits(node_limit=10), pytest.raises(ResourceLimitError) as exc:
        enumerate_atoms(group)
    assert exc.value.bound_name == "lattice node"


def test_zero_atom_inclusion(c3):
    full = enumerate_atoms(c3)
    assert parse_sequence(c3, "[0:1]") in full.atoms
    no_zero = enumerate_atoms(c3, [c3.element([1]), c3.element([2])])
    assert all(a.v(c3.zero()) == 0 for a in no_zero.atoms)


def brute_minimal_vectors(group, letter_classes):
    """Oracle: every nonzero zero-sum vector with v[i] <= ord(class i), then
    drop those lying above another one; sorted as the walk sorts.  A vector
    above a zero-sum one lies above a minimal one of smaller total, so the
    minimal ones are kept in order of total and each candidate is checked
    against them."""
    tab = tables(group)
    multiples = []  # multiples[i][k] = k * class of letter i
    for c in letter_classes:
        row = [0]
        for _ in range(tab.order[c]):
            row.append(tab.add[row[-1]][c])
        multiples.append(row)
    zero_sums = []
    for vec in itertools.product(*(range(len(row)) for row in multiples)):
        s = 0
        for row, k in zip(multiples, vec):
            s = tab.add[s][row[k]]
        if any(vec) and s == 0:
            zero_sums.append(vec)
    minimal = []
    for v in sorted(zero_sums, key=lambda v: (sum(v), v)):
        if not any(all(a <= b for a, b in zip(u, v)) for u in minimal):
            minimal.append(v)
    return minimal


@st.composite
def walk_instances(draw):
    mods = draw(st.sampled_from([[2], [3], [4], [5], [6], [2, 2], [2, 4], [3, 3], [2, 2, 2]]))
    group = make_group(mods)
    n = len(elements(group))
    # repeated classes model several primes in one class, as in transfer instances
    classes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=6))
    return group, tuple(classes)


# Alphabets whose chain order differs from their letter order: in C4, C6,
# C2+C4 and C3+C3 the zero element comes last and the letters of the
# largest level first.  Each alphabet is a tuple of element indices.
CHAIN_ORDERED_WALKS = [
    ([4], (0, 1, 2, 3)),
    ([6], (0, 1, 2, 3, 4, 5)),
    ([2, 4], tuple(range(8))),
    ([3, 3], tuple(range(9))),
    # repeated classes, as in a Krull instance with several primes per class
    ([6], (3, 0, 1, 3, 0, 2, 5)),
    ([2, 4], (2, 0, 5, 2, 4, 0, 7)),
    ([3, 3], (3, 1, 0, 3, 4, 8, 1)),
    # G0 generating a proper subgroup: {0, 2, 4} < C6, {0, (0,2), (1,0),
    # (1,2)} < C2+C4 and C3 + 0 < C3+C3
    ([6], (0, 4, 2)),
    ([2, 4], (6, 2, 0, 4)),
    ([3, 3], (0, 3, 6)),
]


def with_examples(cases):
    """Add each (moduli, alphabet) case as an explicit Hypothesis example."""
    def decorate(test):
        for mods, classes in cases:
            test = example((make_group(mods), classes))(test)
        return test
    return decorate


@settings(max_examples=80, deadline=None)
@given(walk_instances())
@with_examples(CHAIN_ORDERED_WALKS)
def test_walk_matches_brute_force(instance):
    group, classes = instance
    found, _ = minimal_nonzero_vectors(group, classes)
    # over the caller's letter order, sorted by (total, vector)
    assert found == sorted(found, key=lambda v: (sum(v), v))
    assert found == brute_minimal_vectors(group, classes)


@pytest.mark.parametrize("mods,classes", CHAIN_ORDERED_WALKS)
def test_chain_order_differs_from_letter_order(mods, classes):
    level = tables(make_group(mods)).level
    levels = [level[c] for c in classes]
    assert levels != sorted(levels, reverse=True)


def _digest(atoms):
    vecs = sorted(list(v) for v in atoms.vectors())
    return hashlib.sha256(json.dumps(vecs).encode()).hexdigest()


# Sorted-vector digests, counts and visited nodes of the chain-ordered
# walk, which takes the letters by descending level in the subgroup chain
# of tables(group).level; every faster dominance test must keep the same
# walk, not only the same atoms.  The digests and counts are those of the
# walk in element order, which visited more nodes.  C2^4, C2+C2+C4 and
# C2+C6 are the benchmark's atoms workload.
PINNED_WALKS = [
    ([4, 4], 1107, 4974, "f88eb288e05bd03069c4d1c76f23d73020edcd1067caf203fb1d39ae16d44fae"),
    ([3, 6], 2642, 16415, "08e3951644d33843187aaa5c277935e7ef2e108da9792697971ac735a0059faa"),
    ([2, 2, 2, 2], 324, 1627, "ef043006022761e142d19491b18f8c6be7e1a5a80bee91b0a1483d51158c5978"),
    ([2, 2, 4], 698, 3107, "bdb181071ccdc885b4efc2b64aa0034d90024aa7cad1a3f81dbeb210f909cd21"),
    ([2, 6], 253, 1277, "c9b2b9e7b57e63291d50a1d8d4df9cffdc6553ebdfd3979400fe293c0aa10e4b"),
    pytest.param(
        [2, 2, 2, 2, 2], 20368, 157447,
        "167e42cfbbbc803e1f8b5a17926a2c2863cf564dbfbab084d74872eeb945c8a0",
        marks=pytest.mark.slow,
    ),
]


@pytest.mark.parametrize("mods,count,nodes,digest", PINNED_WALKS)
def test_pinned_walks(mods, count, nodes, digest):
    atoms = enumerate_atoms(make_group(mods))
    assert (len(atoms), atoms.nodes_visited, _digest(atoms)) == (count, nodes, digest)


def test_node_limit_bounds_real_work():
    # with a linear dominance scan this took minutes: node cost grew with |found|
    started = time.perf_counter()
    with limits(node_limit=100_000), pytest.raises(ResourceLimitError):
        enumerate_atoms(make_group([2] * 5))
    assert time.perf_counter() - started < 30


@pytest.mark.parametrize("mods,classes", [
    ([3, 3], None),  # every element once
    ([2, 4], (1, 1, 3, 5, 5, 5, 6)),  # repeated classes, as in a Krull instance
])
def test_node_limit_is_charged_exactly(mods, classes):
    group = make_group(mods)
    if classes is None:
        classes = tuple(range(len(elements(group))))
    found, nodes = minimal_nonzero_vectors(group, classes)
    with limits(node_limit=nodes):
        assert minimal_nonzero_vectors(group, classes) == (found, nodes)
    with limits(node_limit=nodes - 1), pytest.raises(ResourceLimitError) as exc:
        minimal_nonzero_vectors(group, classes)
    assert (exc.value.bound_name, exc.value.limit) == ("lattice node", nodes - 1)


def test_divisible_pairs():
    vectors = [(1, 0, 2), (0, 1, 0), (1, 1, 2), (0, 1, 0), (2, 0, 1)]
    assert divisible_pairs(vectors) == [(3, 1), (0, 2), (1, 2), (3, 2), (1, 3)]
    assert divisible_pairs([(1, 0), (0, 1)]) == []
    assert divisible_pairs([]) == []


def test_antichain_violations_reports_divisible_atoms(c3):
    # A(C3) = [0:1], [1:1,2:1], [2:3], [1:3], then the square of [1:3]
    atoms = enumerate_atoms(c3)
    g3 = parse_sequence(c3, "[1:3]")
    assert divisible_pairs(atoms.vectors() + ((g3**2).dense(atoms.letters),)) == [(3, 4)]


@pytest.mark.parametrize("mods, primes", [([3], 2), ([2, 2], 3)])
def test_antichain_violations_reads_a_krull_instance(mods, primes):
    krull = instance_atoms(make_instance(make_group(mods), None, primes))
    assert divisible_pairs(krull.vectors()) == []


def below_rows_oracle(vectors, caps):
    """Per entry: bit j of rows[i][k] is set iff vectors[j][i] <= k."""
    return [[sum(1 << j for j, v in enumerate(vectors) if v[i] <= k) for k in range(cap + 1)]
            for i, cap in enumerate(caps)]


def divisible_pairs_oracle(vectors):
    """Every ordered pair, l outer and j inner, compared componentwise."""
    return [(j, l) for l, b in enumerate(vectors) for j, a in enumerate(vectors)
            if j != l and all(x <= y for x, y in zip(a, b))]


@st.composite
def vector_lists(draw):
    width = draw(st.integers(0, 6))
    return draw(st.lists(st.tuples(*[st.integers(0, 5)] * width), max_size=40)), width


@settings(max_examples=300, deadline=None)
@given(vector_lists(), st.data())
def test_below_rows_matches_the_per_entry_oracle(drawn, data):
    vectors, width = drawn
    tops = [max(col, default=0) for col in zip(*vectors)] or [0] * width
    # caps at, above and below the column maxima; below drops the entries above
    caps = [max(0, top + data.draw(st.integers(-3, 3))) for top in tops]
    assert below_rows(vectors, caps) == below_rows_oracle(vectors, caps)


@settings(max_examples=300, deadline=None)
@given(vector_lists())
def test_divisible_pairs_matches_the_pairwise_scan(drawn):
    vectors, _ = drawn
    assert divisible_pairs(vectors) == divisible_pairs_oracle(vectors)


@pytest.mark.parametrize("mods", [[2, 2, 4], [2, 6]])
def test_divisible_pairs_matches_the_pairwise_scan_over_atoms(mods):
    atoms = list(enumerate_atoms(make_group(mods)).vectors())
    assert divisible_pairs(atoms) == divisible_pairs_oracle(atoms) == []
    # a repeat, a product of two atoms and a square each add divisible pairs
    extra = atoms + [atoms[5], tuple(map(sum, zip(atoms[3], atoms[-1]))), tuple(2 * x for x in atoms[-2])]
    assert divisible_pairs(extra) == divisible_pairs_oracle(extra) != []


@pytest.mark.parametrize("mods", [[3], [4], [2, 2], [5], [6], [2, 4], [3, 3], [2, 2, 2], [2, 6], [4, 4]])
def test_atoms_are_closed_under_automorphisms(mods):
    # the letters of A(G) are the elements in index order, so letter i of
    # an atom is letter s[i] of its image under s
    group = make_group(mods)
    atoms = set(enumerate_atoms(group).vectors())
    for s in automorphisms(group):
        for a in atoms:
            image = [0] * group.order
            for i, x in enumerate(a):
                image[s[i]] = x
            assert tuple(image) in atoms


def test_prime_letters_are_those_of_unit_atoms(c3):
    # the zero element of B(G0), when in G0; the class-0 primes of a Krull
    # instance; a unit vector that shares its letter with another atom is
    # not a prime of the set
    assert enumerate_atoms(c3).prime_letters == (0,)
    assert enumerate_atoms(c3, [c3.element([1]), c3.element([2])]).prime_letters == ()
    assert enumerate_atoms(c3, [c3.zero()]).prime_letters == (0,)
    krull = instance_atoms(make_instance(c3, None, 2))
    assert [krull.letters[i] for i in krull.prime_letters] == ["p0.0", "p0.1"]
    letters = enumerate_atoms(c3).letters
    assert AtomSet(c3, letters, ((1, 0, 0), (1, 1, 2), (0, 3, 0))).prime_letters == ()


class _Readers(ast.NodeVisitor):
    """The (module, function) pairs whose body reads a name, None for the
    module's top level."""

    def __init__(self, module: str, name: str):
        self.module, self.name, self.scope, self.found = module, name, [None], set()

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Name(self, node):
        if node.id == self.name:
            self.found.add((self.module, self.scope[-1]))

    def visit_Attribute(self, node):
        if node.attr == self.name:
            self.found.add((self.module, self.scope[-1]))
        self.generic_visit(node)


def _readers(name: str, sources) -> set:
    found = set()
    for module, text in sources:
        visitor = _Readers(module, name)
        visitor.visit(ast.parse(text))
        found |= visitor.found
    return found


def test_build_atoms_has_two_callers():
    # A(G0) comes from the registry of enumerate_atoms, and a Krull
    # instance walks its own H-atoms; every other scan restricts a walk it
    # already holds, as delta_star restricts A(G) to each subset
    sources = [(path.stem, path.read_text())
               for path in sorted(Path(zslen.__file__).parent.glob("*.py"))]
    assert _readers("build_atoms", sources) == {
        ("atoms", "enumerate_atoms"), ("transfer", "instance_atoms")}
    stub = "def f(g):\n    def inner():\n        return m.build_atoms(g)\n    return inner\nbuild_atoms\n"
    assert _readers("build_atoms", [("m", stub)]) == {("m", "inner"), ("m", None)}
