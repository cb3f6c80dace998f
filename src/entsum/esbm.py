"""Adapter for benchmark trees laid out in the ESBM v1.2 style.

Expected layout under the benchmark root::

    elist.txt                      entity id and IRI per line (extra columns ignored)
    <collection>/<eid>/<eid>_desc.nt
    <collection>/<eid>/<eid>_gold_top<k>_<j>.nt
    <collection>_split/Fold<i>/{train,valid,test}.txt   (or {train,valid,test}set.txt)

where ``<collection>`` is ``dbpedia`` or ``lmdb`` and split files list one
entity id per line.  The adapter only names the tree's files and leaves
reading, entity building and every check to ``dataset``, as a JSON manifest
does, so the pipeline does not care where the data came from.
"""

from __future__ import annotations

import os
import re
from pathlib import Path

from .dataset import (
    DatasetManifest,
    EntityDescription,
    FoldSpec,
    build_manifest,
    gold_size,
    load_entity,
    read_text,
)
from .errors import DataError, MissingFile

COLLECTIONS = ("dbpedia", "lmdb")
PARTS = ("train", "valid", "test")

# <eid>_gold_top<k>_<annotator>.nt, fullmatched in ASCII digits only: \d
# takes any Unicode digit.  k then has one spelling, as a manifest's gold key
_GOLD_RE = re.compile(r"([0-9]+)_gold_top([0-9]+)_([0-9]+)\.nt")


def _is_entity_id(name: str) -> bool:
    # str.isdigit alone also takes digits such as "²" that int() refuses
    return name.isascii() and name.isdigit()


def _read_elist(root: Path) -> dict[str, str]:
    """Map entity id to IRI; picks the integer field and the first IRI-like field."""
    path = root / "elist.txt"
    mapping: dict[str, str] = {}
    for line in read_text(path).splitlines():
        fields = [f for f in re.split(r"[\t ]+", line.strip()) if f]
        if not fields:
            continue
        eid = next((f for f in fields if _is_entity_id(f)), None)
        iri = next((f for f in fields if "://" in f), None)
        if eid is None or iri is None:
            continue  # header or comment line
        mapping[eid] = iri
    if not mapping:
        raise DataError(f"{path}: no entity id / IRI pairs found")
    return mapping


def _load_entity(entity_dir: Path, eid: str, iri: str) -> EntityDescription:
    """The entity with its gold files ``<eid>_gold_top<k>_<annotator>.nt``;
    such a file whose k is not spelled as ``dataset.gold_size`` reads it is
    a ``DataError`` naming the file."""
    # plain strings: a Path per file is several Python-level calls
    base = os.fspath(entity_dir)
    golds = []
    for name in sorted(os.listdir(base)):
        m = _GOLD_RE.fullmatch(name)
        if m and m.group(1) == eid:
            path = os.path.join(base, name)
            golds.append((gold_size(m.group(2), f"{path}: gold size"), m.group(3), path))
    return load_entity(iri, os.path.join(base, f"{eid}_desc.nt"), golds)


def _read_split_file(fold_dir: Path, part: str) -> list[str]:
    for name in (f"{part}.txt", f"{part}set.txt"):
        try:
            text = read_text(fold_dir / name)
        except MissingFile:
            continue
        return [ln.strip() for ln in text.splitlines() if ln.strip()]
    raise MissingFile(fold_dir / f"{part}.txt")


def _load_splits(root: Path, collection: str, elist: dict[str, str]) -> list[FoldSpec]:
    split_root = root / f"{collection}_split"
    if not split_root.is_dir():
        raise MissingFile(split_root)
    folds = []
    for index in range(5):
        fold_dir = next(
            (d for d in (split_root / f"Fold{index}", split_root / f"fold{index}") if d.is_dir()),
            None,
        )
        if fold_dir is None:
            break
        parts = {}
        for part in PARTS:
            eids = _read_split_file(fold_dir, part)
            missing = [e for e in eids if e not in elist]
            if missing:
                raise DataError(f"{fold_dir}: split references unknown entity id {missing[0]}")
            parts[part] = tuple(elist[e] for e in eids)
        folds.append(FoldSpec(index, parts["train"], parts["valid"], parts["test"]))
    if not folds:
        raise DataError(f"{split_root}: no Fold0..Fold4 directories")
    return folds


def load_esbm(root: str | Path, collection: str = "all") -> DatasetManifest:
    """Build a manifest from an ESBM-style tree.

    ``collection`` selects ``dbpedia``, ``lmdb``, or ``all``; with ``all`` the
    two collections are concatenated and fold i unions the two per-collection
    fold-i splits, which keeps the per-fold partition property intact because
    the collections are disjoint.
    """
    root = Path(root)
    if collection == "all":
        wanted = [c for c in COLLECTIONS if (root / c).is_dir()]
        if not wanted:
            raise MissingFile(root / COLLECTIONS[0])
    elif collection in COLLECTIONS:
        wanted = [collection]
    else:
        raise ValueError(f"collection must be one of {COLLECTIONS + ('all',)}")

    elist = _read_elist(root)

    entities: list[EntityDescription] = []
    for coll in wanted:
        coll_dir = root / coll
        if not coll_dir.is_dir():
            raise MissingFile(coll_dir)
        eids = sorted(
            (d.name for d in coll_dir.iterdir() if _is_entity_id(d.name) and d.is_dir()), key=int
        )
        if not eids:
            raise DataError(f"{coll_dir}: no entity directories")
        for eid in eids:
            if eid not in elist:
                raise DataError(f"{coll_dir / eid}: entity id missing from elist.txt")
            entities.append(_load_entity(coll_dir / eid, eid, elist[eid]))

    splits = {coll: _load_splits(root, coll, elist) for coll in wanted}
    fold_counts = {coll: len(f) for coll, f in splits.items()}
    if len(set(fold_counts.values())) != 1:
        raise DataError(f"fold count differs between collections: {fold_counts}")

    folds = []
    for index, per_coll in enumerate(zip(*splits.values())):
        parts = [tuple(iri for f in per_coll for iri in getattr(f, part)) for part in PARTS]
        folds.append(FoldSpec(index, *parts))

    name = "esbm" if collection == "all" else f"esbm-{collection}"
    return build_manifest(name, entities, folds, root)
