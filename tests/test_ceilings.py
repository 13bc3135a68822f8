"""Caches are keyed by what they hold, never by a ceiling: one A(G0) per
(group, G0), one engine per atom set, one H-atom set per Krull instance.
The ceilings are set once, by `limits`, for the calls in its block: the
node cap is held against a cached set's walk, the memo cap against the
work a call adds to the one shared memo, and each ends with its block."""

import importlib
import inspect
import pkgutil

import pytest

import zslen
from zslen import atoms as atoms_module
from zslen.atoms import CAPS, DEFAULT_MEMO_LIMIT, DEFAULT_NODE_LIMIT, build_atoms, davenport
from zslen.atoms import enumerate_atoms, limits
from zslen.errors import InvalidArgumentError, ResourceLimitError
from zslen.group import elements
from zslen.invariants import (
    delta_star,
    elasticity,
    has_two_D_lengthset,
    interval_support_check,
    is_half_factorial,
    system,
)
from zslen.lengths import LengthSet, engine_for, length_set
from zslen.sequence import parse_sequence
from zslen.structure_fit import verify_structure_theorem, verify_unions_structure
from zslen.transfer import direct_length_set, instance_atoms, make_instance
from zslen.verify import run_suite


@pytest.fixture
def walks(monkeypatch):
    """The letter classes of every atom walk run from here on."""
    seen = []
    walk = atoms_module.minimal_nonzero_vectors

    def spy(group, classes):
        seen.append(classes)
        return walk(group, classes)

    monkeypatch.setattr(atoms_module, "minimal_nonzero_vectors", spy)
    return seen


def test_a_second_node_limit_walks_nothing(c33, fresh_atom_cache, walks):
    system(c33, None, 8)
    atoms = enumerate_atoms(c33)
    size = atoms.engine.memo_size
    with limits(node_limit=10**7):
        system(c33, None, 8)
        with limits(memo_limit=10**6):
            system(c33, None, 8)
        assert enumerate_atoms(c33) is atoms
    assert len(walks) == 1
    assert atoms.engine.memo_size == size


def test_a_cached_set_is_held_to_the_node_limit(c33, fresh_atom_cache):
    atoms = enumerate_atoms(c33)
    nodes = atoms.nodes_visited
    with limits(node_limit=nodes - 1), pytest.raises(ResourceLimitError) as info:
        enumerate_atoms(c33)
    assert info.value.limit == nodes - 1
    with limits(node_limit=nodes):
        assert enumerate_atoms(c33) is atoms
    # a fresh walk draws the line at the same node
    alphabet = elements(c33)
    with limits(node_limit=nodes - 1), pytest.raises(ResourceLimitError):
        build_atoms(c33, alphabet, alphabet)
    with limits(node_limit=nodes):
        assert build_atoms(c33, alphabet, alphabet) == atoms


def test_a_refused_walk_caches_nothing(c33, fresh_atom_cache, walks):
    with limits(node_limit=10), pytest.raises(ResourceLimitError):
        enumerate_atoms(c33)
    assert not atoms_module._ATOM_SETS
    assert len(enumerate_atoms(c33)) > 0 and len(walks) == 2


def test_instance_atoms_are_held_to_the_node_limit(c22, walks):
    inst = make_instance(c22, None, 2)
    atoms = instance_atoms(inst)
    nodes = atoms.nodes_visited
    with limits(node_limit=nodes - 1):
        with pytest.raises(ResourceLimitError) as info:
            instance_atoms(inst)
        assert info.value.limit == nodes - 1
        with pytest.raises(ResourceLimitError):  # a fresh instance walks and raises alike
            instance_atoms(make_instance(c22, None, 2))
    with limits(node_limit=nodes):
        assert instance_atoms(inst) is atoms is inst.atom_set
    assert len(walks) == 2


def test_one_engine_serves_every_memo_limit(c3, fresh_atom_cache):
    atoms = enumerate_atoms(c3)
    warm = parse_sequence(c3, "[1:3,2:3]")
    expected = length_set(warm, atoms)
    engine = atoms.engine
    size = engine.memo_size
    # a memo hit is answered under any cap, and stores nothing
    with limits(memo_limit=1):
        assert length_set(warm, atoms) == expected
    assert engine.memo_size == size
    # a cold query is refused once the memo has reached the cap
    cold = parse_sequence(c3, "[1:6,2:6]")
    with limits(memo_limit=size), pytest.raises(ResourceLimitError) as info:
        length_set(cold, atoms)
    assert info.value.limit == size
    assert engine.memo_size == size
    with limits(memo_limit=1):
        assert engine_for(atoms) is engine
    assert engine_for(atoms) is engine is atoms.engine
    assert length_set(cold, atoms).values == (4, 5, 6)


def test_a_system_table_is_read_under_any_memo_limit(c3, fresh_atom_cache):
    full = system(c3, None, 8)
    size = enumerate_atoms(c3).engine.memo_size
    with limits(memo_limit=1):
        small = system(c3, None, 6)
    assert small.entries == tuple(e for e in full.entries if e[1].length <= 6)
    assert enumerate_atoms(c3).engine.memo_size == size


def test_a_cap_ends_with_its_block(c3, fresh_atom_cache):
    # a cap set for one call does not stay on the engine it met: after a
    # table read under a memo cap of 1, a cold query runs at the default
    system(c3, None, 8)
    with limits(memo_limit=1):
        system(c3, None, 6)
    assert CAPS.get() == (DEFAULT_NODE_LIMIT, DEFAULT_MEMO_LIMIT)
    engine = enumerate_atoms(c3).engine
    assert LengthSet.from_mask(engine.lengths_mask((0, 9, 9))).values == (6, 7, 8, 9)
    # the cap of an enclosing block is restored when an inner one exits,
    # also by a raise
    with limits(node_limit=5):
        with pytest.raises(ResourceLimitError), limits(memo_limit=1):
            engine.lengths_mask((0, 12, 12))
        assert CAPS.get() == (5, DEFAULT_MEMO_LIMIT)
    assert CAPS.get() == (DEFAULT_NODE_LIMIT, DEFAULT_MEMO_LIMIT)


@pytest.mark.parametrize("call", [
    lambda g: is_half_factorial(g),
    lambda g: has_two_D_lengthset(g),
    lambda g: davenport(g),
    lambda g: elasticity(g),
    lambda g: interval_support_check(g, 5),
    lambda g: verify_structure_theorem(g, 6),
    lambda g: verify_unions_structure(g, 3),
    lambda g: run_suite("prop6.5", g),
], ids=["is_half_factorial", "has_two_D_lengthset", "davenport", "elasticity",
        "interval_support_check", "verify_structure_theorem", "verify_unions_structure",
        "run_suite-prop6.5"])
def test_the_caps_reach_calls_that_take_no_ceiling(call, c5, fresh_atom_cache):
    with limits(node_limit=1), pytest.raises(ResourceLimitError) as info:
        call(c5)
    assert (info.value.bound_name, info.value.limit) == ("lattice node", 1)


# None is a cap left out (test_none_keeps_the_cap_in_force)
NOT_INTS = [2.0, True, "10"]
NOT_INT_IDS = ["float", "bool", "str"]


@pytest.mark.parametrize("limit", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("call", [
    lambda g: enumerate_atoms(g),
    lambda g: system(g, None, 4),
    lambda g: instance_atoms(make_instance(g, None, 1)),
    lambda g: delta_star(g),
], ids=["enumerate_atoms", "system", "instance_atoms", "delta_star"])
def test_a_node_limit_that_is_not_an_int_is_refused_before_any_walk(
        call, limit, c3, fresh_atom_cache, walks):
    with pytest.raises(InvalidArgumentError, match="node limit must be an integer"):
        with limits(node_limit=limit):
            call(c3)
    assert not walks


@pytest.mark.parametrize("limit", NOT_INTS, ids=NOT_INT_IDS)
@pytest.mark.parametrize("call", [
    lambda g: length_set(parse_sequence(g, "[1:3]"), enumerate_atoms(g)),
    lambda g: system(g, None, 4),
    lambda g: engine_for(enumerate_atoms(g)),
], ids=["length_set", "system", "engine_for"])
def test_a_memo_limit_that_is_not_an_int_is_refused_before_any_engine(
        call, limit, c3, fresh_atom_cache):
    with pytest.raises(InvalidArgumentError, match="memo limit must be an integer"):
        with limits(memo_limit=limit):
            call(c3)
    assert enumerate_atoms(c3).engine is None


@pytest.mark.parametrize("limit", NOT_INTS, ids=NOT_INT_IDS)
def test_a_bad_memo_limit_leaves_a_warm_engine_as_it_was(limit, c3, fresh_atom_cache):
    # limits() refuses a cap that is not an int on entry, and the caps in
    # force stay as they were: a refused cap reaches no query
    atoms = enumerate_atoms(c3)
    warm = parse_sequence(c3, "[1:3,2:3]")
    length_set(warm, atoms)
    size = atoms.engine.memo_size
    with limits(memo_limit=size):
        with pytest.raises(InvalidArgumentError, match="memo limit must be an integer"):
            with limits(memo_limit=limit):
                length_set(warm, atoms)  # even a memo hit
        assert CAPS.get() == (DEFAULT_NODE_LIMIT, size)
        with pytest.raises(ResourceLimitError):
            length_set(parse_sequence(c3, "[1:6,2:6]"), atoms)
    assert length_set(parse_sequence(c3, "[1:6,2:6]"), atoms).values == (4, 5, 6)
    inst = make_instance(c3, None, 1)
    with pytest.raises(InvalidArgumentError, match="memo limit must be an integer"):
        with limits(memo_limit=limit):
            direct_length_set(inst, (1, 1, 1))
    assert inst.atom_set is None


def test_none_keeps_the_cap_in_force(c3, fresh_atom_cache):
    # a command line passes None for a ceiling it does not take
    with limits(node_limit=5, memo_limit=7):
        with limits(node_limit=None, memo_limit=None):
            assert CAPS.get() == (5, 7)
            with pytest.raises(ResourceLimitError):
                enumerate_atoms(c3)
    with pytest.raises(TypeError):
        limits(10)  # the caps are named


def _public_callables():
    """Every public function and method defined in a zslen module."""
    for info in pkgutil.iter_modules(zslen.__path__):
        module = importlib.import_module(f"zslen.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{module.__name__}.{name}", value
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_public_signature_takes_a_ceiling():
    # limits() is the one place a cap is set
    seen = dict(_public_callables())
    assert {"zslen.atoms.enumerate_atoms", "zslen.lengths.FactorizationEngine.__init__",
            "zslen.transfer.check_transfer", "zslen.cli.main"} <= set(seen)
    taking = [name for name, fn in seen.items() if name != "zslen.atoms.limits"
              and {"node_limit", "memo_limit"} & set(inspect.signature(fn).parameters)]
    assert taking == []
    assert not hasattr(atoms_module, "check_limit")
    assert not hasattr(atoms_module, "held_to_node_limit")
