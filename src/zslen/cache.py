"""Versioned on-disk cache for atom sets.

Cache files are JSON documents written atomically (temp file + rename).
Loads validate the stored atoms (zero-sum, antichain) before trusting
them; the antichain check runs on the stored dense vectors through the
atom walk's DominanceIndex.  Any mismatch produces a warning and a
recompute, never a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

from .atoms import AtomSet, divisible_pairs
from .group import FiniteAbelianGroup, GroupElement, elements, order_of
from .sequence import Sequence, canonical_subset, is_zero_sum

log = logging.getLogger(__name__)

FORMAT_VERSION = 1

ENV_CACHE_DIR = "ZSLEN_CACHE_DIR"


def cache_key(group: FiniteAbelianGroup, subset) -> str:
    """Filesystem-safe key from the canonical group and subset encoding."""
    facs = "x".join(str(n) for n in group.invariant_factors) or "1"
    subset = canonical_subset(group, subset)
    if subset == canonical_subset(group, elements(group)):
        token = "all"
    else:
        blob = ";".join(",".join(map(str, g.coords)) for g in subset)
        token = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return f"atoms_c{facs}_{token}"


def cache_path(cache_dir: str | os.PathLike, group: FiniteAbelianGroup, subset) -> Path:
    return Path(cache_dir) / (cache_key(group, subset) + ".json")


def cache_store(cache_dir: str | os.PathLike, atoms: AtomSet) -> Path:
    """Write the atom set atomically; returns the file path."""
    path = cache_path(cache_dir, atoms.group, atoms.subset)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "format_version": FORMAT_VERSION,
        "invariant_factors": list(atoms.group.invariant_factors),
        "subset": [list(g.coords) for g in atoms.subset],
        "atoms": [list(v) for v in atoms.vectors()],
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
    """Load a cached atom set, or None if missing or invalid."""
    subset = canonical_subset(group, subset)
    path = cache_path(cache_dir, group, subset)
    if not path.exists():
        return None
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        log.warning("unreadable atom cache %s (%s); recomputing", path, exc)
        return None
    if doc.get("format_version") != FORMAT_VERSION:
        log.warning("atom cache %s has format %r, want %r; recomputing",
                    path, doc.get("format_version"), FORMAT_VERSION)
        return None
    if tuple(doc.get("invariant_factors", [])) != group.invariant_factors:
        log.warning("atom cache %s is for a different group; recomputing", path)
        return None
    stored_subset = [tuple(c) for c in doc.get("subset", [])]
    if stored_subset != [g.coords for g in subset]:
        log.warning("atom cache %s is for a different subset; recomputing", path)
        return None
    try:
        vectors = [tuple(vec) for vec in doc.get("atoms", [])]
        atoms = tuple(
            Sequence.make(group, {subset[i]: m for i, m in enumerate(vec) if m})
            for vec in vectors
        )
    except Exception as exc:
        log.warning("malformed atom cache %s (%s); recomputing", path, exc)
        return None
    if not _valid_atom_list(subset, atoms, vectors):
        log.warning("atom cache %s failed validation; recomputing", path)
        return None
    return AtomSet(group, subset, atoms)


def _valid_atom_list(
    subset: tuple[GroupElement, ...],
    atoms: tuple[Sequence, ...],
    vectors: list[tuple[int, ...]],
) -> bool:
    """Every stored vector spans the subset with integer entries at most the
    order of their element (g^ord(g) divides anything above), describes a
    nonempty zero-sum sequence, and the vectors form an antichain (a
    duplicate is a divisible pair)."""
    caps = [order_of(g) for g in subset]
    for a, vec in zip(atoms, vectors):
        if len(vec) != len(caps) or any(type(m) is not int or m > c for m, c in zip(vec, caps)):
            return False
        if a.length == 0 or not is_zero_sum(a):
            return False
    return not divisible_pairs(vectors)
