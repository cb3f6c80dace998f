"""Seeded generator of ESBM-shaped benchmark trees and text vector files.

A tree has the layout ``entsum.esbm.load_esbm`` reads::

    elist.txt
    <coll>/<eid>/<eid>_desc.nt
    <coll>/<eid>/<eid>_gold_top{5,10}_{0..5}.nt
    <coll>_split/Fold{0..4}/{train,valid,test}.txt

Every entity belongs to a class, stated by an rdf:type triple.  Each class
favours its own set of properties, and six simulated annotators pick their
gold summaries mostly from the triples whose property the entity's class
favours, with shared and per-annotator noise.  Salience is therefore
learnable and depends on the description's context.

Output depends only on the seed and the spec: the same seed writes the same
bytes.  Description sizes are fixed quantiles of the spec's range, shuffled
over the entities by the seed, so the total work of a tree does not change
with the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

COLLECTIONS = ("dbpedia", "lmdb")
ANNOTATORS = 6
GOLD_KS = (5, 10)
FOLDS = 5
DIM = 300
CLASSES = 4             # per collection
PROPERTIES = 30         # per collection
FAVOURED = 6            # properties each class favours, half of them shared
VALUE_WORDS = 1500      # per collection

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"
BASE = "http://bench.example"

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class TreeSpec:
    """Shape of one generated tree.

    ``per_collection`` entities go into each collection; description sizes
    run from ``n_min`` to ``n_max`` with ``tail`` > 1 crowding them toward
    ``n_min`` (a heavy upper tail).
    """

    per_collection: int
    n_min: int
    n_max: int
    tail: float = 1.0


@dataclass(frozen=True)
class TreeInfo:
    entities: int
    triples: int
    golds: int
    sizes: tuple[int, ...]           # description size per entity, elist order
    vocabulary: frozenset[str]       # every token a description can produce


@dataclass(frozen=True)
class VecInfo:
    lines: int                       # lines after the header
    vocabulary_words: int            # distinct vocabulary words present


def description_sizes(spec: TreeSpec, count: int) -> list[int]:
    """Fixed quantiles of the size range; the seed only shuffles them."""
    span = spec.n_max - spec.n_min
    return [
        spec.n_min + int(round(span * ((i + 0.5) / count) ** spec.tail))
        for i in range(count)
    ]


class _Words:
    """Unique pseudo-words drawn from one generator."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.seen: set[str] = set()

    def fresh(self) -> str:
        while True:
            syllables = self.rng.integers(2, 5)
            word = "".join(
                _CONSONANTS[self.rng.integers(len(_CONSONANTS))]
                + _VOWELS[self.rng.integers(len(_VOWELS))]
                for _ in range(syllables)
            )
            if word not in self.seen:
                self.seen.add(word)
                return word

    def many(self, count: int) -> list[str]:
        return [self.fresh() for _ in range(count)]


def _camel(words: list[str], upper_first: bool) -> str:
    head = words[0].capitalize() if upper_first else words[0]
    return head + "".join(w.capitalize() for w in words[1:])


class _Collection:
    """Properties, classes and value words of one collection."""

    def __init__(self, name: str, words: _Words, rng: np.random.Generator):
        self.name = name
        self.prop_words = [words.many(int(rng.integers(1, 3))) for _ in range(PROPERTIES)]
        self.class_words = [words.many(int(rng.integers(1, 3))) for _ in range(CLASSES)]
        self.value_words = words.many(VALUE_WORDS)
        shared = FAVOURED // 2
        order = rng.permutation(PROPERTIES).tolist()
        common, rest = order[:shared], order[shared:]
        self.salient = [
            frozenset(common + rng.choice(rest, FAVOURED - shared, replace=False).tolist())
            for _ in range(CLASSES)
        ]

    def prop_iri(self, p: int) -> str:
        return f"{BASE}/{self.name}/ontology/{_camel(self.prop_words[p], False)}"

    def class_iri(self, c: int) -> str:
        return f"{BASE}/{self.name}/ontology/{_camel(self.class_words[c], True)}"


def _literal(text: str) -> str:
    return f'"{text}"@en'


def _describe(coll: _Collection, cls: int, iri: str, n: int, rng: np.random.Generator,
              tokens: set[str]) -> tuple[list[str], list[bool]]:
    """N-Triples lines of one description and which of them are salient."""
    name = [coll.value_words[i] for i in rng.choice(len(coll.value_words), 2, replace=False)]
    tokens.update(coll.class_words[cls])
    tokens.update(name)
    tokens.update(("type", "label"))
    lines = [
        f"<{iri}> <{RDF_TYPE}> <{coll.class_iri(cls)}> .",
        f"<{iri}> <{RDFS_LABEL}> {_literal(' '.join(name))} .",
    ]
    salient = [True, False]
    favoured = sorted(coll.salient[cls])
    others = [p for p in range(len(coll.prop_words)) if p not in coll.salient[cls]]
    used: set[tuple[int, str]] = set()
    while len(lines) < n:
        if rng.random() < 0.3:
            p = favoured[int(rng.integers(len(favoured)))]
        else:
            p = others[int(rng.integers(len(others)))]
        kind = rng.random()
        if kind < 0.15:
            year = str(int(rng.integers(1900, 2021)))
            obj, value_tokens = f'"{year}"^^<{XSD_INTEGER}>', [year]
        else:
            count = int(rng.integers(1, 4))
            picked = [coll.value_words[i] for i in rng.choice(len(coll.value_words), count, replace=False)]
            value_tokens = picked
            if kind < 0.45:
                obj = _literal(" ".join(picked))
            else:
                obj = f"<{BASE}/{coll.name}/resource/{'_'.join(w.capitalize() for w in picked)}>"
        if (p, obj) in used:
            continue
        used.add((p, obj))
        tokens.update(coll.prop_words[p])
        tokens.update(value_tokens)
        if obj.startswith("<") and rng.random() < 0.1:
            lines.append(f"{obj} <{coll.prop_iri(p)}> <{iri}> .")  # inverse triple
        else:
            lines.append(f"<{iri}> <{coll.prop_iri(p)}> {obj} .")
        salient.append(p in coll.salient[cls])
    return lines, salient


def _golds(salient: list[bool], rng: np.random.Generator) -> dict[int, list[list[int]]]:
    """Six annotators per k: Gumbel top-k over salience plus shared noise."""
    n = len(salient)
    base = np.array([2.5 if s else 0.0 for s in salient]) + rng.normal(0.0, 1.0, n)
    golds = {}
    for k in GOLD_KS:
        picks = []
        for _ in range(ANNOTATORS):
            keys = base + rng.gumbel(0.0, 1.0, n)
            picks.append(sorted(np.argsort(-keys, kind="stable")[:k].tolist()))
        golds[k] = picks
    return golds


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def generate_tree(root: str | Path, spec: TreeSpec, seed: int) -> TreeInfo:
    """Write an ESBM-shaped tree under ``root`` and describe what was written."""
    root = Path(root)
    rng = np.random.default_rng([seed, 1])
    words = _Words(rng)
    tokens: set[str] = set()
    total = spec.per_collection * len(COLLECTIONS)
    sizes = description_sizes(spec, total)
    sizes = [sizes[i] for i in rng.permutation(total)]
    if min(sizes) < max(GOLD_KS):
        raise ValueError(f"descriptions need at least {max(GOLD_KS)} triples")

    elist, triples, golds = [], 0, 0
    eid = 0
    for name in COLLECTIONS:
        coll = _Collection(name, words, rng)
        eids = []
        for _ in range(spec.per_collection):
            eid += 1
            cls = int(rng.integers(CLASSES))
            iri = f"{BASE}/{name}/resource/E{eid}"
            n = sizes[eid - 1]
            lines, salient = _describe(coll, cls, iri, n, rng, tokens)
            entity_dir = root / name / str(eid)
            entity_dir.mkdir(parents=True)
            _write(entity_dir / f"{eid}_desc.nt", lines)
            for k, picks in _golds(salient, rng).items():
                for j, ids in enumerate(picks):
                    _write(entity_dir / f"{eid}_gold_top{k}_{j}.nt", [lines[i] for i in ids])
                    golds += 1
            elist.append(f"{eid}\t{name}\t{iri}")
            eids.append(str(eid))
            triples += n
        groups = np.array_split(rng.permutation(eids), FOLDS)
        for i in range(FOLDS):
            fold_dir = root / f"{name}_split" / f"Fold{i}"
            fold_dir.mkdir(parents=True)
            test, valid = groups[i].tolist(), groups[(i + 1) % FOLDS].tolist()
            train = [e for g in range(FOLDS) if g not in (i, (i + 1) % FOLDS) for e in groups[g]]
            for part, ids in (("train", train), ("valid", valid), ("test", test)):
                _write(fold_dir / f"{part}.txt", sorted(ids, key=int))
    _write(root / "elist.txt", elist)
    return TreeInfo(total, triples, golds, tuple(sizes), frozenset(tokens))


def generate_vectors(path: str | Path, vocabulary: frozenset[str], distractors: int,
                     seed: int) -> VecInfo:
    """Write a ``count dim`` text vector file: every vocabulary word plus
    ``distractors`` words outside it, in seeded order.

    Components come from a pool of 4-decimal values, as in published
    fastText files.  A few vocabulary words also appear capitalised; the
    loader folds case and keeps the first occurrence.
    """
    rng = np.random.default_rng([seed, 2])
    vocab = sorted(vocabulary)
    words = _Words(rng)
    words.seen.update(vocab)
    entries = vocab + words.many(distractors)
    entries += [w.capitalize() for w in vocab[::50] if w.isalpha()]
    order = rng.permutation(len(entries))
    pool = np.array([f"{v:.4f}" for v in rng.normal(0.0, 0.1, 4096)])
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(entries)} {DIM}\n")
        for i in order:
            fh.write(entries[i] + " " + " ".join(pool[rng.integers(0, len(pool), DIM)]) + "\n")
    return VecInfo(len(entries), len(vocab))
