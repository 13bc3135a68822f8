"""Versioned on-disk cache for atom sets.

Cache files are JSON documents written atomically (temp file + rename).
Loads check the file's shape and validate the stored dense vectors (the
antichain check, atoms.divisible_pairs) before building
the atom set straight from them.  A file that fails a check produces a
warning and a recompute, never a crash.  The checks cannot see a missing
atom: over C2+C2, a file listing (0,1)^2(1,0)^2 in place of (0,1)^2 and
(1,0)^2 is an antichain of zero-sum vectors, loads as 4 atoms, and gives
D = 4.  Only the walk proves a list complete, so the cache directory
must be trusted not to hold such a file.

A file also records the node count of the walk that found its atoms, and
a loaded set is held to the node cap as a cached set in memory is
(atoms.held_to_node_cap): a load raises where the walk would.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

from .atoms import AtomSet, divisible_pairs, held_to_node_cap
from .group import FiniteAbelianGroup, GroupElement, elements, tables
from .sequence import canonical_subset, index_sum

log = logging.getLogger(__name__)

FORMAT_VERSION = 2  # 2: the walk's node count


def cache_key(group: FiniteAbelianGroup, subset) -> str:
    """Filesystem-safe key from the canonical group and subset encoding."""
    facs = "x".join(str(n) for n in group.invariant_factors) or "1"
    subset = canonical_subset(group, subset)
    if subset == elements(group):
        token = "all"
    else:
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
        log.warning("unreadable atom cache %s (%s); recomputing", path, exc)
        return None
    try:  # a JSON value of the wrong shape raises here
        version = doc.get("format_version")
        factors = tuple(doc.get("invariant_factors", []))
        stored_subset = [tuple(c) for c in doc.get("subset", [])]
        vectors = tuple(tuple(vec) for vec in doc.get("atoms", []))
        nodes = doc.get("nodes_visited")
    except (AttributeError, TypeError) as exc:
        log.warning("malformed atom cache %s (%s); recomputing", path, exc)
        return None
    if version != FORMAT_VERSION:
        log.warning("atom cache %s has format %r, want %r; recomputing",
                    path, version, FORMAT_VERSION)
        return None
    if factors != group.invariant_factors:
        log.warning("atom cache %s is for a different group; recomputing", path)
        return None
    if stored_subset != [g.coords for g in subset]:
        log.warning("atom cache %s is for a different subset; recomputing", path)
        return None
    if type(nodes) is not int or nodes < 0:
        log.warning("atom cache %s failed validation; recomputing", path)
        return None
    # before the antichain check, which can cost as much as the walk
    atoms = held_to_node_cap(AtomSet(group, subset, vectors, nodes))
    if not _valid_atom_list(group, subset, vectors):
        log.warning("atom cache %s failed validation; recomputing", path)
        return None
    return atoms


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
    for vec in vectors:
        if len(vec) != len(caps) or any(type(m) is not int or not 0 <= m <= c for m, c in zip(vec, caps)):
            return False
        if not any(vec) or index_sum(tab, zip(letters, vec)):
            return False
    return bool(vectors) and not divisible_pairs(vectors)
