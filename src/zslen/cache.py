"""Versioned on-disk cache for atom sets.

Cache files are JSON documents written atomically (temp file + rename).
Loads check the file's shape and validate the stored dense vectors before
building the atom set straight from them: the entry checks run column by
column, and the antichain check (atoms.divisible_pairs) ANDs rows that
atoms.below_rows builds in one pass over the nonzero entries, so a load
costs about what the walk it replaces costs.  A file that fails a check
produces a warning and a recompute, never a crash.  A good load imports
neither logging, which only a warning needs, nor hashlib, which loads
OpenSSL and only the key of a proper subset needs.

The checks cannot see a missing atom: over C2+C2, a file listing
(0,1)^2(1,0)^2 in place of (0,1)^2 and (1,0)^2 is an antichain of
zero-sum vectors, loads as 4 atoms, and gives D = 4.  Only the walk
proves a list complete, so the cache directory must be trusted not to
hold such a file.

A file also records the node count of the walk that found its atoms: a
load raises where the walk would (atoms.held_to_node_cap), and charges
those nodes as the walk would (atoms.charge).
"""

from __future__ import annotations

import json
import os
import tempfile
from itertools import compress
from pathlib import Path

from .atoms import AtomSet, charge, divisible_pairs, held_to_node_cap
from .group import FiniteAbelianGroup, GroupElement, elements, tables
from .sequence import canonical_subset, index_sum

FORMAT_VERSION = 2  # 2: the walk's node count


def cache_key(group: FiniteAbelianGroup, subset) -> str:
    """Filesystem-safe key from the canonical group and subset encoding."""
    facs = "x".join(str(n) for n in group.invariant_factors) or "1"
    subset = canonical_subset(group, subset)
    if subset == elements(group):
        token = "all"
    else:
        import hashlib  # loads OpenSSL, which only a subset key needs

        blob = ";".join(",".join(map(str, g.coords)) for g in subset)
        token = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return f"atoms_c{facs}_{token}"


def cache_path(cache_dir: str | os.PathLike, group: FiniteAbelianGroup, subset) -> Path:
    return Path(cache_dir) / (cache_key(group, subset) + ".json")


def cache_store(cache_dir: str | os.PathLike, atoms: AtomSet) -> Path:
    """Write the atom set atomically; returns the file path."""
    path = cache_path(cache_dir, atoms.group, atoms.letters)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format_version": FORMAT_VERSION,
        "invariant_factors": list(atoms.group.invariant_factors),
        "subset": [list(g.coords) for g in atoms.letters],
        "atoms": [list(v) for v in atoms.vectors()],
        "nodes_visited": atoms.nodes_visited,
    }
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def cache_load(
    cache_dir: str | os.PathLike, group: FiniteAbelianGroup, subset
) -> AtomSet | None:
    """Load a cached atom set, or None if missing or invalid; a set whose
    walk took more nodes than the node cap raises ResourceLimitError."""
    subset = canonical_subset(group, subset)
    path = cache_path(cache_dir, group, subset)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        _warn("unreadable atom cache %s (%s); recomputing", path, exc)
        return None
    try:  # a JSON value of the wrong shape raises here
        version = doc.get("format_version")
        factors = tuple(doc.get("invariant_factors", []))
        stored_subset = [tuple(c) for c in doc.get("subset", [])]
        vectors = tuple(tuple(vec) for vec in doc.get("atoms", []))
        nodes = doc.get("nodes_visited")
    except (AttributeError, TypeError) as exc:
        _warn("malformed atom cache %s (%s); recomputing", path, exc)
        return None
    if version != FORMAT_VERSION:
        _warn("atom cache %s has format %r, want %r; recomputing",
              path, version, FORMAT_VERSION)
        return None
    if factors != group.invariant_factors:
        _warn("atom cache %s is for a different group; recomputing", path)
        return None
    if stored_subset != [g.coords for g in subset]:
        _warn("atom cache %s is for a different subset; recomputing", path)
        return None
    if type(nodes) is not int or nodes < 0:
        _warn("atom cache %s failed validation; recomputing", path)
        return None
    # before the antichain check, which can cost as much as the walk
    atoms = held_to_node_cap(AtomSet(group, subset, vectors, nodes))
    if not _valid_atom_list(group, subset, vectors):
        _warn("atom cache %s failed validation; recomputing", path)
        return None
    charge(nodes=nodes)  # a loaded set stands for the walk its file records
    return atoms


def _warn(*args) -> None:
    import logging  # only a file that fails a check needs it

    logging.getLogger(__name__).warning(*args, stacklevel=2)  # the record names the caller


def _valid_atom_list(
    group: FiniteAbelianGroup,
    subset: tuple[GroupElement, ...],
    vectors: tuple[tuple[int, ...], ...],
) -> bool:
    """The list is nonempty (each g^ord(g) is an atom); every vector spans the
    subset with int entries from 0 to the order of their element (g^ord(g)
    divides anything above), is nonzero and sums to zero, folded over the
    letters' element indices; and the vectors form an antichain (a
    duplicate is a divisible pair)."""
    tab = tables(group)
    letters = [tab.index[g] for g in subset]
    caps = [tab.order[i] for i in letters]
    if {len(vec) for vec in vectors} - {len(caps)} or {type(m) for vec in vectors for m in vec} - {int}:
        return False
    if any(min(col) < 0 or max(col) > cap for col, cap in zip(zip(*vectors), caps)):
        return False
    zero_sum = (any(vec) and not index_sum(tab, compress(zip(letters, vec), vec)) for vec in vectors)
    return bool(vectors) and all(zero_sum) and not divisible_pairs(vectors)
