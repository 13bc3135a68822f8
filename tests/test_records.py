"""The value records are frozen, compare and hash by their fields, leave
their uncompared slots out of both, and survive a pickle round trip.  A
record takes its fields positionally or by keyword, and only a constructor
that validates or sets an uncompared slot is written out."""

import ast
import pickle
from functools import partial
from pathlib import Path

import pytest

import zslen
from zslen.atoms import AtomSet, enumerate_atoms
from zslen.group import FiniteAbelianGroup, make_group
from zslen.lengths import LengthSet, engine_for
from zslen.numerical import NumericalMonoid, make_numerical
from zslen.invariants import UnionOfLengths
from zslen.sequence import Sequence, parse_sequence
from zslen.transfer import instance_atoms, make_instance
from zslen.verify import Verdict


def fresh_atoms():
    atoms = enumerate_atoms(make_group([3]))
    return AtomSet(atoms.group, atoms.letters, atoms.atom_vectors, atoms.nodes_visited)


# each builder makes a new record, equal to the last, on every call; the
# field is one that its constructor sets
RECORDS = {
    "group": (lambda: make_group([2, 4]), "invariant_factors"),
    "element": (lambda: make_group([2, 4]).element((1, 3)), "coords"),
    "sequence": (lambda: parse_sequence(make_group([3]), "[1:2,2:1]"), "items"),
    "length set": (partial(LengthSet, (1, 3, 4)), "values"),
    "numerical monoid": (partial(make_numerical, [6, 9, 20]), "generators"),
    "atom set": (fresh_atoms, "atom_vectors"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_or_deleting_a_field_raises(name):
    build, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_and_hash_equal(name):
    build, _ = RECORDS[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != object() and a != repr(a)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip_keeps_equality_and_hash(name):
    build, _ = RECORDS[name]
    record = build()
    copy = pickle.loads(pickle.dumps(record))
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)
    assert type(copy) is type(record)


def test_uncompared_fields_leave_equality_and_hash():
    # nodes_visited and engine of an atom set, apery of a numerical monoid
    atoms = fresh_atoms()
    other = AtomSet(atoms.group, atoms.letters, atoms.atom_vectors, atoms.nodes_visited + 7)
    engine_for(atoms)
    assert atoms.engine is not None and other.engine is None
    assert atoms == other and hash(atoms) == hash(other)
    monoid = make_numerical([3, 5])
    shifted = NumericalMonoid(monoid.generators, monoid.frobenius_bound, (0, 1, 2))
    assert monoid == shifted and hash(monoid) == hash(shifted)
    # the atom set of a Krull instance is not compared either
    inst, twin = make_instance(make_group([3])), make_instance(make_group([3]))
    instance_atoms(inst)
    assert inst.atom_set is not None and twin.atom_set is None
    assert inst == twin and hash(inst) == hash(twin)


def test_compared_fields_decide_equality():
    assert make_group([2]).element((1,)) != make_group([4]).element((1,))
    assert LengthSet((1, 2)) != LengthSet((1, 3))
    assert make_numerical([3, 5]) != make_numerical([3, 7])
    c3 = make_group([3])
    assert Sequence(c3, ((1, 1),)) != Sequence(make_group([4]), ((1, 1),))


def test_an_element_of_an_equal_group_from_another_call_is_equal():
    a, b = make_group([3, 3]), make_group([3, 3])
    assert a is not b
    assert a.element((1, 2)) == b.element((1, 2))
    assert a.element((1, 2)) != b.element((2, 1))


def test_a_pickled_atom_set_has_no_engine_and_rebuilds_its_caches():
    atoms = fresh_atoms()
    engine_for(atoms)
    assert atoms.prime_letters == (0,)
    copy = pickle.loads(pickle.dumps(atoms))
    assert copy.engine is None and copy.nodes_visited == atoms.nodes_visited
    assert copy.prime_letters == (0,) and copy.atoms == atoms.atoms


def test_repr_shows_the_compared_fields():
    assert repr(LengthSet((1, 3))) == "LengthSet(values=(1, 3))"
    assert repr(make_group([2, 4])) == "FiniteAbelianGroup(invariant_factors=(2, 4))"
    assert repr(make_numerical([3, 5])) == (
        "NumericalMonoid(generators=(3, 5), frobenius_bound=7)")
    assert "engine" not in repr(fresh_atoms())


def test_constructors_take_their_fields_by_keyword():
    group = FiniteAbelianGroup(invariant_factors=(3,))
    assert group.element((1,)) == group.element((4,))
    assert LengthSet(values=(2,)) == LengthSet.of([2])
    with pytest.raises(TypeError):
        LengthSet((1,), (2,))


def test_report_records_take_their_fields_by_keyword():
    verdict = Verdict("prop", True, "w")
    assert Verdict(name="prop", passed=True, witness="w") == verdict
    assert Verdict("prop", witness="w", passed=True) == verdict
    union = UnionOfLengths(k=2, values=(2, 3))
    assert (union.k, union.rho, union.lam) == (2, 3, 2)
    assert pickle.loads(pickle.dumps(union)) == union


@pytest.mark.parametrize("args, named", [
    (("prop", True), {}),
    (("prop", True, "w", None), {}),
    ((), {"name": "prop", "passed": True}),
    (("prop", True, "w"), {"extra": 1}),
    (("prop", True), {"wit": "w"}),
    (("prop", True, "w"), {"name": "again"}),
], ids=["too-few", "too-many", "missing-keyword", "unknown-keyword", "misnamed", "twice"])
def test_wrong_fields_are_type_errors_naming_the_class_and_fields(args, named):
    with pytest.raises(TypeError, match=r"Verdict\(name, passed, witness\)"):
        Verdict(*args, **named)


def _record_inits():
    """(class name, its __init__ or None) for each Record subclass in zslen."""
    for path in sorted(Path(zslen.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
                yield node.name, next((f for f in node.body if isinstance(f, ast.FunctionDef)
                                       and f.name == "__init__"), None)


def _only_passes_on(init: ast.FunctionDef) -> bool:
    """Whether the body, past a docstring, is one super().__init__(...) call."""
    body = init.body[1:] if ast.get_docstring(init) is not None else init.body
    if len(body) != 1 or not isinstance(body[0], ast.Expr):
        return False
    call = body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__init__" and isinstance(call.func.value, ast.Call)
            and isinstance(call.func.value.func, ast.Name) and call.func.value.func.id == "super")


def test_no_record_constructor_only_passes_its_fields_on():
    # Record.__init__ binds the fields; a subclass writes one to validate
    # its input or to set an uncompared slot
    inits = dict(_record_inits())
    assert {"Verdict", "SystemOfLengthSets", "AAMPFit", "AtomSet"} <= set(inits)
    assert {"FiniteAbelianGroup", "GroupElement", "LengthSet", "Sequence", "AtomSet",
            "KrullInstance"} <= {name for name, init in inits.items() if init}
    assert [name for name, init in inits.items() if init and _only_passes_on(init)] == []
    stub = ast.parse("def __init__(self, a):\n    'doc'\n    super().__init__(a)").body[0]
    assert _only_passes_on(stub)
