"""Shared fixtures: the committed toy corpus, synthetic benchmark trees,
and builders for randomized descriptions."""

from __future__ import annotations

import os
from pathlib import Path

# one BLAS thread, set before numpy loads, as the benchmark does: a BLAS
# pool is a second thread, and cross_validate forks no fold worker from a
# threaded process, so the worker tests would run every fold in process
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest

from entsum.dataset import (
    DatasetManifest,
    EntityDescription,
    FoldSpec,
    GoldSummary,
    NodeKind,
    Resource,
    Triple,
    load_manifest,
)
from entsum.embeddings import EmbeddingStore, load_vec_file, manifest_vocabulary
from entsum import training
from entsum.model import ModelConfig

DATA_DIR = Path(__file__).parent / "data"
TOYMUSIC = DATA_DIR / "toymusic"

ARIA = "http://toy.example/music/Aria_Stone"
BLUE = "http://toy.example/film/Blue_River"

# header-less text files whose first word begins with "{", each with the
# start of its error after the file name: a first byte of "{" means a
# vector store, so each is refused with the store's error
BRACE_TEXTS = {
    "word-then-line": (b"{ab 1 2\ncd 3 4\n", "header is not valid JSON"),
    "lone-brace-words": (b"{ 1 2\n{ 3 4\n", "header is not valid JSON"),
    "no-newline": (b"{ab 1 2", "no header line"),
    "object-then-values": (b'{"dim":1} 1.5\n', "header is not valid JSON"),
    "checkpoint-header": (b'{"format":"entsum-scorer"}\n', "not a vector store"),
    "empty-object": (b"{}", "no header line"),
    "lone-brace-line": (b"{\n1 2\n", "header is not valid JSON"),
}


@pytest.fixture(scope="session")
def toy_manifest() -> DatasetManifest:
    return load_manifest(TOYMUSIC / "manifest.json")


@pytest.fixture(scope="session")
def toy_store(toy_manifest) -> EmbeddingStore:
    return load_vec_file(TOYMUSIC / "toy.vec", manifest_vocabulary(toy_manifest))


def use_cpus(monkeypatch, count: int) -> None:
    """Make ``cross_validate`` see ``count`` CPUs: the first ``count`` of this
    process's mask, repeated on a host with fewer, so that every process
    can be pinned to its CPU."""
    cpus = (sorted(os.sched_getaffinity(0)) * count)[:count]
    monkeypatch.setattr(training, "_cpus", lambda: cpus)


def count_forks(monkeypatch) -> list[int]:
    """The pids of the processes ``os.fork`` starts from now on, as the
    parent sees them."""
    forked: list[int] = []
    real_fork = os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forked


def store_of(mapping: dict, dim: int) -> EmbeddingStore:
    """The store of ``mapping``'s words and their rows, of width ``dim``."""
    store = EmbeddingStore(mapping, [*mapping.values()] or np.empty((0, dim)))
    assert store.dim == dim, (store.dim, dim)
    return store


def vectors_of(store: EmbeddingStore) -> dict:
    """Each word of ``store`` and its row, in the store's order."""
    return dict(zip(store.words, store.matrix))


def small_config(seed: int = 0) -> ModelConfig:
    """Toy-sized scorer: 12-dim triple vectors, 8-wide hidden layers."""
    return ModelConfig(
        embed_dim=6,
        candidate_hidden=(8, 8),
        context_hidden=(8, 8),
        scoring_hidden=(8, 8, 8),
        seed=seed,
    )


def random_vectors(rng: np.random.Generator, n: int, dim: int) -> list:
    """Random (triple id, vector) pairs in id order."""
    return [(i, rng.normal(size=dim)) for i in range(n)]


def synthetic_entity(n: int, gold: dict | None = None, iri: str = "http://ex.org/e") -> EntityDescription:
    """Entity with n triples whose tokens are one word each: p<i> and v<i>."""
    ent = Resource(NodeKind.IRI, iri)
    triples = []
    for i in range(n):
        prop = Resource(NodeKind.IRI, f"http://ex.org/p{i}")
        val = Resource(NodeKind.LITERAL, f"v{i}")
        triples.append(Triple(i, ent, prop, val, val))
    frozen = {
        k: tuple(GoldSummary(f"a{j}", frozenset(ids)) for j, ids in enumerate(golds))
        for k, golds in (gold or {}).items()
    }
    return EntityDescription(ent, tuple(triples), frozen)


def synthetic_store(rng: np.random.Generator, n: int, dim: int) -> EmbeddingStore:
    """Vectors for the p<i>/v<i> vocabulary of ``synthetic_entity``."""
    vocab = {}
    for i in range(n):
        vocab[f"p{i}"] = rng.normal(size=dim)
        vocab[f"v{i}"] = rng.normal(size=dim)
    return store_of(vocab, dim)


def memorization_corpus(seed: int, n: int = 10, dim: int = 6, k: int = 5):
    """Single entity whose gold summaries unanimously pick ids 0,2,4,6,8."""
    winners = frozenset(range(0, 2 * k, 2))
    desc = synthetic_entity(n, gold={k: [sorted(winners)] * 3}, iri="http://mem.example/e")
    store = synthetic_store(np.random.default_rng(seed), n, dim)
    fold = FoldSpec(0, (desc.entity.raw,), (desc.entity.raw,), (desc.entity.raw,))
    manifest = DatasetManifest("mem", (desc,), (fold,))
    return manifest, store, winners


# --------------------------------------------------------------------------
# synthetic benchmark trees
# --------------------------------------------------------------------------

RDFS_LABEL_IRI = "http://www.w3.org/2000/01/rdf-schema#label"


def _entity_files(entity_dir: Path, eid: str, iri: str, ks, golds_per_k: int) -> None:
    entity_dir.mkdir(parents=True)
    lines = [
        f"<{iri}> <http://ex.org/voc/p0> <http://ex.org/v/{eid}a> .",
        f'<{iri}> <http://ex.org/voc/p1> "text {eid}" .',
        f"<http://ex.org/x/{eid}> <http://ex.org/voc/p2> <{iri}> .",
        f'<http://ex.org/v/{eid}a> <{RDFS_LABEL_IRI}> "value {eid} a" .',
    ]
    (entity_dir / f"{eid}_desc.nt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # candidates are lines 0..2; golds alternate between the first two subsets
    subsets = [lines[0:2], [lines[0], lines[2]]]
    for k in ks:
        for j in range(golds_per_k):
            gold = subsets[j % len(subsets)]
            (entity_dir / f"{eid}_gold_top{k}_{j}.nt").write_text(
                "\n".join(gold) + "\n", encoding="utf-8"
            )


def build_esbm_tree(
    root: Path,
    counts: dict[str, int] | None = None,
    n_folds: int = 5,
    ks=(5, 10),
    golds_per_k: int = 2,
    fold_dir_prefix: str = "Fold",
    split_suffix: str = "",
) -> dict[str, list[str]]:
    """Write a benchmark tree under root; returns the eids per collection."""
    counts = counts or {"dbpedia": 5, "lmdb": 5}
    root.mkdir(parents=True, exist_ok=True)
    elist_lines = ["#entity_id\turi\tdataset"]
    eids_by_coll: dict[str, list[str]] = {}
    next_eid = 1
    for coll, count in counts.items():
        eids = []
        for _ in range(count):
            eid = str(next_eid)
            next_eid += 1
            iri = f"http://ex.org/{coll}/e{eid}"
            elist_lines.append(f"{eid}\t{iri}\t{coll}")
            _entity_files(root / coll / eid, eid, iri, ks, golds_per_k)
            eids.append(eid)
        eids_by_coll[coll] = eids
        split_root = root / f"{coll}_split"
        for index in range(n_folds):
            fold_dir = split_root / f"{fold_dir_prefix}{index}"
            fold_dir.mkdir(parents=True)
            test = eids[index::n_folds]
            valid = eids[(index + 1) % n_folds :: n_folds]
            held = set(test) | set(valid)
            train = [e for e in eids if e not in held]
            for part, members in (("train", train), ("valid", valid), ("test", test)):
                (fold_dir / f"{part}{split_suffix}.txt").write_text(
                    "\n".join(members) + "\n", encoding="utf-8"
                )
    (root / "elist.txt").write_text("\n".join(elist_lines) + "\n", encoding="utf-8")
    return eids_by_coll
