"""Caches are keyed by what they hold, never by a ceiling: one A(G0) per
(group, G0), one engine per atom set, one H-atom set per Krull instance.
A node limit is held against a cached set's walk, a memo limit against
the work a call adds to the one shared memo."""

import pytest

from zslen import atoms as atoms_module
from zslen.atoms import build_atoms, enumerate_atoms
from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.group import elements
from zslen.invariants import delta_star, system
from zslen.lengths import DEFAULT_MEMO_LIMIT, engine_for, length_set
from zslen.sequence import parse_sequence
from zslen.transfer import direct_length_set, instance_atoms, make_instance


@pytest.fixture
def walks(monkeypatch):
    """The letter classes of every atom walk run from here on."""
    seen = []
    walk = atoms_module.minimal_nonzero_vectors

    def spy(group, classes, node_limit):
        seen.append(classes)
        return walk(group, classes, node_limit)

    monkeypatch.setattr(atoms_module, "minimal_nonzero_vectors", spy)
    return seen


def test_a_second_node_limit_walks_nothing(c33, fresh_atom_cache, walks):
    system(c33, None, 8)
    atoms = enumerate_atoms(c33)
    size = atoms.engine.memo_size
    system(c33, None, 8, node_limit=10**7)
    system(c33, None, 8, node_limit=10**7, memo_limit=10**6)
    assert len(walks) == 1
    assert atoms.engine.memo_size == size
    assert enumerate_atoms(c33) is enumerate_atoms(c33, None, 10**7)


def test_a_cached_set_is_held_to_the_node_limit(c33, fresh_atom_cache):
    atoms = enumerate_atoms(c33)
    nodes = atoms.nodes_visited
    with pytest.raises(ResourceLimitError) as info:
        enumerate_atoms(c33, None, nodes - 1)
    assert info.value.limit == nodes - 1
    assert enumerate_atoms(c33, None, nodes) is atoms
    # a fresh walk draws the line at the same node
    alphabet = elements(c33)
    with pytest.raises(ResourceLimitError):
        build_atoms(c33, alphabet, alphabet, nodes - 1)
    assert build_atoms(c33, alphabet, alphabet, nodes) == atoms


def test_a_refused_walk_caches_nothing(c33, fresh_atom_cache, walks):
    with pytest.raises(ResourceLimitError):
        enumerate_atoms(c33, None, 10)
    assert not atoms_module._ATOM_SETS
    assert len(enumerate_atoms(c33)) > 0 and len(walks) == 2


def test_instance_atoms_are_held_to_the_node_limit(c22, walks):
    inst = make_instance(c22, None, 2)
    atoms = instance_atoms(inst)
    nodes = atoms.nodes_visited
    with pytest.raises(ResourceLimitError) as info:
        instance_atoms(inst, nodes - 1)
    assert info.value.limit == nodes - 1
    assert instance_atoms(inst, nodes) is atoms is inst.atom_set
    with pytest.raises(ResourceLimitError):  # a fresh instance walks and raises alike
        instance_atoms(make_instance(c22, None, 2), nodes - 1)
    assert len(walks) == 2


def test_one_engine_serves_every_memo_limit(c3, fresh_atom_cache):
    atoms = enumerate_atoms(c3)
    warm = parse_sequence(c3, "[1:3,2:3]")
    expected = length_set(warm, atoms)
    engine = atoms.engine
    size = engine.memo_size
    # a memo hit is answered under any limit, and stores nothing
    assert length_set(warm, atoms, memo_limit=1) == expected
    assert engine.memo_size == size
    # a cold query is refused once the memo has reached the limit
    cold = parse_sequence(c3, "[1:6,2:6]")
    with pytest.raises(ResourceLimitError) as info:
        length_set(cold, atoms, memo_limit=size)
    assert info.value.limit == size
    assert engine.memo_size == size
    assert engine_for(atoms, 1) is engine_for(atoms) is engine is atoms.engine
    assert length_set(cold, atoms).values == (4, 5, 6)


def test_a_system_table_is_read_under_any_memo_limit(c3, fresh_atom_cache):
    full = system(c3, None, 8)
    size = enumerate_atoms(c3).engine.memo_size
    small = system(c3, None, 6, memo_limit=1)
    assert small.entries == tuple(e for e in full.entries if e[1].length <= 6)
    assert enumerate_atoms(c3).engine.memo_size == size


NOT_INTS = [None, 2.0, True, "10"]
NOT_INT_IDS = ["none", "float", "bool", "str"]


@pytest.mark.parametrize("limit", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("call", [
    lambda g, limit: enumerate_atoms(g, None, limit),
    lambda g, limit: system(g, None, 4, node_limit=limit),
    lambda g, limit: instance_atoms(make_instance(g, None, 1), limit),
    lambda g, limit: delta_star(g, node_limit=limit),
], ids=["enumerate_atoms", "system", "instance_atoms", "delta_star"])
def test_a_node_limit_that_is_not_an_int_is_refused_before_any_walk(
        call, limit, c3, fresh_atom_cache, walks):
    with pytest.raises(InvalidArgumentError, match="node limit must be an integer"):
        call(c3, limit)
    assert not walks


@pytest.mark.parametrize("limit", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("call", [
    lambda g, limit: length_set(parse_sequence(g, "[1:3]"), enumerate_atoms(g), memo_limit=limit),
    lambda g, limit: system(g, None, 4, memo_limit=limit),
    lambda g, limit: engine_for(enumerate_atoms(g), limit),
], ids=["length_set", "system", "engine_for"])
def test_a_memo_limit_that_is_not_an_int_is_refused_before_any_engine(
        call, limit, c3, fresh_atom_cache):
    with pytest.raises(InvalidArgumentError, match="memo limit must be an integer"):
        call(c3, limit)
    assert enumerate_atoms(c3).engine is None


@pytest.mark.parametrize("limit", NOT_INTS, ids=NOT_INT_IDS)
def test_a_bad_memo_limit_leaves_a_warm_engine_as_it_was(limit, c3, fresh_atom_cache):
    atoms = enumerate_atoms(c3)
    warm = parse_sequence(c3, "[1:3,2:3]")
    length_set(warm, atoms)
    with pytest.raises(InvalidArgumentError, match="memo limit must be an integer"):
        length_set(warm, atoms, memo_limit=limit)  # even a memo hit
    assert atoms.engine.memo_limit == DEFAULT_MEMO_LIMIT
    inst = make_instance(c3, None, 1)
    with pytest.raises(InvalidArgumentError, match="memo limit must be an integer"):
        direct_length_set(inst, (1, 1, 1), memo_limit=limit)
    assert inst.atom_set.engine is None
