import json
import logging

import pytest

from zslen import cache as cache_module
from zslen.atoms import enumerate_atoms, limits
from zslen.cache import cache_load, cache_path, cache_store
from zslen.errors import ResourceLimitError
from zslen.group import elements
from zslen.lengths import engine_for


def test_round_trip(tmp_path, c3):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    assert path.exists()
    loaded = cache_load(tmp_path, c3, atoms.letters)
    assert loaded is not None
    assert loaded.atoms == atoms.atoms
    assert loaded.letters == atoms.letters
    assert loaded.nodes_visited == atoms.nodes_visited > 0


def test_a_loaded_set_is_held_to_the_node_cap(tmp_path, c33, monkeypatch):
    # the file records its walk's node count, so a load raises where the
    # walk would, and before it checks the vectors
    atoms = enumerate_atoms(c33)
    nodes = atoms.nodes_visited
    cache_store(tmp_path, atoms)
    with monkeypatch.context() as patch:
        patch.setattr(cache_module, "_valid_atom_list", None)
        with limits(node_limit=nodes - 1), pytest.raises(ResourceLimitError) as info:
            cache_load(tmp_path, c33, atoms.letters)
    assert (info.value.bound_name, info.value.limit) == ("lattice node", nodes - 1)
    with limits(node_limit=nodes) as work:
        assert cache_load(tmp_path, c33, atoms.letters) == atoms
    # a load charges the nodes of the walk its file records
    assert work == {"atom_lattice_nodes": nodes, "memo_entries": 0}


@pytest.mark.parametrize("nodes", [None, -1, True, 1.5, "7"],
                         ids=["missing", "negative", "bool", "float", "str"])
def test_a_bad_node_count_recomputes(tmp_path, c3, caplog, nodes):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    doc = json.loads(path.read_text())
    doc["nodes_visited"] = nodes
    path.write_text(json.dumps(doc))
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "validation" in caplog.text


def test_missing_returns_none(tmp_path, c4):
    assert cache_load(tmp_path, c4, tuple(elements(c4))) is None


def test_version_mismatch_recomputes(tmp_path, c3, caplog):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "format" in caplog.text


def test_non_zero_sum_entry_rejected(tmp_path, c3, caplog):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    doc = json.loads(path.read_text())
    doc["atoms"][0] = [0, 1, 0]  # the sequence g, not zero-sum
    path.write_text(json.dumps(doc))
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "validation" in caplog.text


def test_antichain_violation_rejected(tmp_path, c3, caplog):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    doc = json.loads(path.read_text())
    doc["atoms"].append([0, 3, 3])  # divisible by the stored g^3
    path.write_text(json.dumps(doc))
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "validation" in caplog.text


@pytest.mark.parametrize("edit", [
    lambda vecs: vecs.append(list(vecs[-1])),  # a duplicate divides its copy
    lambda vecs: vecs.insert(0, [0, 6, 0]),  # above ord(g): g^3 divides it
    lambda vecs: vecs.append([1, 0]),  # does not span the subset
    lambda vecs: vecs.clear(),  # every nonempty subset has the atoms g^ord(g)
    lambda vecs: vecs.clear() or vecs.append([-1, 1, 1]),  # zero-sum, but a negative entry
    lambda vecs: vecs[0].__setitem__(0, True),  # (1, 0, 0) with a bool entry
    lambda vecs: vecs.clear() or vecs.append([0, 0, 0]),  # the empty sequence
    lambda vecs: vecs.clear() or vecs.append([0, 2, 1]),  # an antichain of one summing to 2*1 + 1*2 = 1 in C3
])
def test_invalid_vectors_rejected(tmp_path, c3, caplog, edit):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    doc = json.loads(path.read_text())
    edit(doc["atoms"])
    path.write_text(json.dumps(doc))
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "validation" in caplog.text


def test_corrupt_json_recomputes(tmp_path, c3, caplog):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    path.write_text("{ not json")
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None


def test_undecodable_file_recomputes(tmp_path, c3, caplog):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    path.write_bytes(b"\xff\xfe")
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "unreadable" in caplog.text


@pytest.mark.parametrize("edit", [
    lambda doc: [],
    lambda doc: {**doc, "invariant_factors": 3},
    lambda doc: {**doc, "subset": [0, 1, 2]},
    lambda doc: {**doc, "atoms": 5},
    lambda doc: {**doc, "atoms": [None]},
])
def test_wrong_shape_recomputes(tmp_path, c3, caplog, edit):
    atoms = enumerate_atoms(c3)
    path = cache_store(tmp_path, atoms)
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    with caplog.at_level(logging.WARNING):
        assert cache_load(tmp_path, c3, atoms.letters) is None
    assert "malformed" in caplog.text


def test_loaded_set_owns_fresh_engines(tmp_path, c3):
    atoms = enumerate_atoms(c3)
    cache_store(tmp_path, atoms)
    loaded = cache_load(tmp_path, c3, atoms.letters)
    assert loaded == atoms and loaded.vectors() == atoms.vectors()
    assert loaded.engine is None
    assert engine_for(loaded) is engine_for(loaded) is not engine_for(atoms)


def test_subset_key_distinct(tmp_path, c3):
    full = tuple(elements(c3))
    nonzero = tuple(g for g in full if g != c3.zero())
    assert cache_path(tmp_path, c3, full) != cache_path(tmp_path, c3, nonzero)
    atoms = enumerate_atoms(c3, nonzero)
    cache_store(tmp_path, atoms)
    assert cache_load(tmp_path, c3, full) is None
    assert cache_load(tmp_path, c3, nonzero).atoms == atoms.atoms
