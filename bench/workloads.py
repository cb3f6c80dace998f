"""The three benchmark workloads and the checks on their outputs.

Each workload drives the package through the same public calls as one CLI
command, in this process, with folds in sequence:

- ``cv-esbm``: ``entsum train`` (load, five-fold cross-validation,
  checkpoints, reports) on an ESBM-shaped tree with a vocabulary-only
  vector file.
- ``ingest-bigvec``: ``entsum filter-vectors`` plus the coverage pass of
  ``entsum ingest --vectors``, against a vector file that is mostly words
  outside the vocabulary.
- ``score-long``: ``entsum evaluate --checkpoints`` done the way
  ``entsum summarize`` scores one entity, on long descriptions, with
  checkpoints written by ``save_checkpoint`` while preparing.

``prepare`` writes the inputs from the seed and computes the reference values
the checks need; it is not timed as part of a command.  ``command`` runs one
command and returns its timings, the operations it attempted and the checks
that failed.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gen
from entsum import cli, embeddings, esbm, evaluation, model, training
from spans import BENCH_SPAN

K = 5
CV_EPOCHS = 2
RANDOM_DRAWS = 1000
RANDOM_QUANTILE = 0.99


_GAUGE_RNG = np.random.default_rng(0)
_GAUGE_W = _GAUGE_RNG.normal(size=(64, 64))
_GAUGE_XS = list(_GAUGE_RNG.normal(size=(50, 64)))


# Seconds per gauge unit: about the gauge's time on an idle core of the x86
# machine the benchmark was written on.  A fixed definition, so that times
# in gauge units read as seconds on that machine at full speed.
GAUGE_S = 0.0025


def gauge() -> float:
    """Seconds for one fixed piece of interpreter and small-array work, the
    same mix the package runs.

    The code never changes, so its time measures how fast the machine runs
    at that moment; a step's time divided by the gauge's time next to it is
    the step's cost in gauge units.
    """
    t0 = perf_counter()
    acc = 0.0
    for _ in range(20):
        for x in _GAUGE_XS:
            acc += float((_GAUGE_W @ x) @ x) / (1.0 + abs(acc))
    return perf_counter() - t0


class Clock:
    """Command time with the benchmark's own work paused out, split into
    steps at each ``mark``.  Every step is also priced in gauge units against
    the mean of the gauge runs before and after it."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.paused = 0.0
        self.steps: list[tuple[str, float, float]] = []  # label, seconds, gauge units
        self._last = 0.0
        self._gauge = gauge()
        self.start = perf_counter()

    def now(self) -> float:
        return perf_counter() - self.start - self.paused

    def units(self) -> float:
        """Gauge units of the steps so far."""
        return sum(u for _, _, u in self.steps)

    def mark(self, label: str) -> float:
        """End the current step; returns its duration in seconds."""
        t = self.now()
        seconds = t - self._last
        with self.pause():
            after = gauge()
        units = seconds / ((self._gauge + after) / 2)
        self._gauge = after
        self.steps.append((label, seconds, units))
        self._last = t
        return seconds

    @contextmanager
    def pause(self):
        if self.tracer is not None:
            self.tracer.begin(BENCH_SPAN)
        t0 = perf_counter()
        try:
            yield
        finally:
            self.paused += perf_counter() - t0
            if self.tracer is not None:
                self.tracer.end()


@dataclass
class Inputs:
    work: Path
    tree: Path
    vectors: Path
    tree_info: gen.TreeInfo
    vec_info: gen.VecInfo
    ref: dict = field(default_factory=dict)


@dataclass
class Outcome:
    setup_s: float
    setup_units: float
    wall_s: float
    steps: list[tuple[str, float, float]]
    attempted: int
    failures: list[str]
    stats: dict = field(default_factory=dict)


def summary_f1(summary, golds) -> float:
    """Mean over golds of 2|S∩G| / (|S| + |G|), written apart from the package."""
    chosen = set(summary)
    return sum(2 * len(chosen & g) / (len(chosen) + len(g)) for g in golds) / len(golds)


def random_f1_ceiling(manifest, k: int, draws: int, quantile: float, seed: int) -> float:
    """The ``quantile`` of mean test F1 over ``draws`` random k-subsets per
    entity: a trained scorer has to beat random selection by more than chance."""
    rng = np.random.default_rng([seed, 3])
    tests = [manifest.entity(iri) for fold in manifest.folds for iri in fold.test]
    golds = [[set(g.triple_ids) for g in d.gold[k]] for d in tests]
    means = []
    for _ in range(draws):
        total = 0.0
        for desc, gs in zip(tests, golds):
            total += summary_f1(rng.choice(len(desc.triples), k, replace=False).tolist(), gs)
        means.append(total / len(tests))
    return float(np.quantile(means, quantile))


def check_cv_f1(mean_f1: float, ref: dict) -> list[str]:
    failures = []
    if not mean_f1 > ref["random_ceiling"]:
        failures.append(
            f"mean F1 {mean_f1:.4f} not above random selection "
            f"({RANDOM_QUANTILE:.0%} quantile {ref['random_ceiling']:.4f})"
        )
    if mean_f1 > ref["oracle_f1"] + 1e-12:
        failures.append(f"mean F1 {mean_f1:.4f} above the oracle {ref['oracle_f1']:.4f}")
    return failures


def check_scored(desc, scored, selected, k: int) -> list[str]:
    """Finite scores for every triple, attention rows summing to 1 within
    1e-12, and min(k, n) distinct selected ids."""
    iri = desc.entity.raw
    n = len(desc.triples)
    ids = set(range(n))
    failures = []
    if set(scored.scores) != ids:
        failures.append(f"{iri}: scores cover {len(scored.scores)} of {n} triples")
    if not all(math.isfinite(v) for v in scored.scores.values()):
        failures.append(f"{iri}: non-finite score")
    rows: dict[int, list[float]] = {}
    for (cand, _), w in scored.attention.items():
        rows.setdefault(cand, []).append(w)
    if set(rows) != ids or any(len(r) != n for r in rows.values()):
        failures.append(f"{iri}: attention map is not {n} x {n}")
    bad = [c for c, r in rows.items() if abs(math.fsum(r) - 1.0) > 1e-12]
    if bad:
        failures.append(f"{iri}: attention row {bad[0]} does not sum to 1")
    if len(selected) != min(k, n) or len(set(selected)) != len(selected) or not ids >= set(selected):
        failures.append(f"{iri}: selected {selected} is not min(k, n) distinct ids")
    return failures


class Workload:
    name: str
    spec: gen.TreeSpec
    distractors = 0
    spans: frozenset[str]  # spans every traced command must record

    def prepare(self, work: Path, seed: int) -> Inputs:
        tree = work / "esbm"
        vectors = work / "vectors.vec"
        tree_info = gen.generate_tree(tree, self.spec, seed)
        vec_info = gen.generate_vectors(vectors, tree_info.vocabulary, self.distractors, seed)
        return Inputs(work, tree, vectors, tree_info, vec_info)

    def setup(self, inputs: Inputs, clock: Clock):
        """What a command loads before it works: dataset and vectors."""
        manifest = esbm.load_esbm(inputs.tree)
        clock.mark("esbm")
        vocab = embeddings.manifest_vocabulary(manifest)
        clock.mark("vocab")
        store = embeddings.load_vec_file(inputs.vectors, vocab=vocab)
        clock.mark("vectors")
        return manifest, vocab, store

    def command(self, inputs: Inputs, clock: Clock, out: Path) -> Outcome:
        raise NotImplementedError

    def stats(self, inputs: Inputs, outcomes: list[Outcome]) -> dict:
        return {}


class CvEsbm(Workload):
    name = "cv-esbm"
    spec = gen.TreeSpec(per_collection=10, n_min=20, n_max=40, tail=1.5)
    spans = frozenset({
        "cli", "esbm.load", "embeddings.vocab", "embeddings.vec_load", "model.encode",
        "model.loss_grad", "nn.adam", "model.score", "model.select", "evaluation.f1",
        "training.train_fold", "training.validate", "model.ckpt_save",
        "evaluation.report_write",
    })

    def prepare(self, work: Path, seed: int) -> Inputs:
        inputs = super().prepare(work, seed)
        manifest = esbm.load_esbm(inputs.tree)
        oracle = training.oracle_reports(manifest, K)
        f1s = [f for r in oracle for f in r.per_entity_f1.values()]
        sizes = {d.entity.raw: len(d.triples) for d in manifest.entities}
        inputs.ref.update(
            oracle_f1=sum(f1s) / len(f1s),
            random_ceiling=random_f1_ceiling(manifest, K, RANDOM_DRAWS, RANDOM_QUANTILE, seed),
            train_triples=CV_EPOCHS * sum(sizes[i] for f in manifest.folds for i in f.train),
        )
        return inputs

    def command(self, inputs: Inputs, clock: Clock, out: Path) -> Outcome:
        manifest, _, store = self.setup(inputs, clock)
        setup_s, setup_units = clock.now(), clock.units()
        model_cfg = model.ModelConfig(embed_dim=store.dim, seed=0)
        train_cfg = training.TrainConfig(k=K, max_epochs=CV_EPOCHS, seed=0)

        def train_fold(*args):
            clock.mark("evaluate")  # the previous fold's test evaluation
            result = training.train_fold(*args)
            clock.mark("train")
            return result

        outcome = training.cross_validate(manifest, model_cfg, train_cfg, store, train_fn=train_fold)
        clock.mark("evaluate")
        cv_s = clock.now() - setup_s
        out.mkdir(parents=True)
        for fold, result in zip(manifest.folds, outcome.results):
            model.save_checkpoint(
                result.model, out / f"fold{fold.index}.ckpt",
                meta={"chosen_epoch": result.chosen_epoch, "k": K, "fold": fold.index},
            )
            clock.mark("checkpoint")
        cli._write_reports(out, manifest.name, K, outcome.reports)
        clock.mark("reports")
        wall_s = clock.now()

        f1 = outcome.mean_f1
        failures = check_cv_f1(f1, inputs.ref)
        first = inputs.ref.setdefault("mean_f1", f1)
        if f1 != first:
            failures.append(f"mean F1 {f1!r} differs from the first run's {first!r}")
        written = sorted(p.name for p in out.iterdir())
        if len(written) != len(manifest.folds) + 2:
            failures.append(f"unexpected outputs {written}")
        return Outcome(setup_s, setup_units, wall_s, clock.steps, 1, failures, {"cv_s": cv_s, "mean_f1": f1})

    def stats(self, inputs: Inputs, outcomes: list[Outcome]) -> dict:
        cv_s = float(np.median([o.stats["cv_s"] for o in outcomes]))
        return {
            "train_triples_per_s": (inputs.ref["train_triples"] / cv_s, "1/s"),
            "mean_f1": (outcomes[0].stats["mean_f1"], "F1"),
            "random_f1_ceiling": (inputs.ref["random_ceiling"], "F1"),
            "oracle_f1": (inputs.ref["oracle_f1"], "F1"),
        }


class IngestBigvec(Workload):
    name = "ingest-bigvec"
    spec = gen.TreeSpec(per_collection=85, n_min=20, n_max=100, tail=1.5)
    distractors = 20000
    spans = frozenset({
        "cli", "esbm.load", "embeddings.vocab", "embeddings.vec_load",
        "embeddings.vec_save", "embeddings.coverage",
    })

    def command(self, inputs: Inputs, clock: Clock, out: Path) -> Outcome:
        manifest, vocab, store = self.setup(inputs, clock)
        setup_s, setup_units = clock.now(), clock.units()
        out.mkdir(parents=True)
        embeddings.save_vec_file(store, out / "filtered.vec")
        clock.mark("save")
        warnings = embeddings.coverage_warnings(manifest, store)
        clock.mark("coverage")
        wall_s = clock.now()

        info = inputs.tree_info
        failures = []
        if len(store) != inputs.vec_info.vocabulary_words:
            failures.append(f"kept {len(store)} words, the file holds "
                            f"{inputs.vec_info.vocabulary_words} vocabulary words")
        if vocab != info.vocabulary:
            failures.append(f"vocabulary of {len(vocab)} words, generated {len(info.vocabulary)}")
        got = (len(manifest.entities), manifest.triple_count, manifest.gold_count)
        if got != (info.entities, info.triples, info.golds):
            failures.append(f"entities/triples/golds {got}, generated "
                            f"{(info.entities, info.triples, info.golds)}")
        if warnings:
            failures.append(f"{len(warnings)} coverage warnings with every word present")
        return Outcome(setup_s, setup_units, wall_s, clock.steps, 1, failures)

    def stats(self, inputs: Inputs, outcomes: list[Outcome]) -> dict:
        return {
            "vec_lines": (inputs.vec_info.lines, "count"),
            "vec_vocabulary_words": (inputs.vec_info.vocabulary_words, "count"),
        }


class ScoreLong(Workload):
    name = "score-long"
    spec = gen.TreeSpec(per_collection=5, n_min=100, n_max=300, tail=2.5)
    spans = frozenset({
        "cli", "esbm.load", "embeddings.vocab", "embeddings.vec_load", "model.ckpt_load",
        "model.encode", "model.score", "model.select", "evaluation.f1",
        "evaluation.report_write",
    })

    def prepare(self, work: Path, seed: int) -> Inputs:
        inputs = super().prepare(work, seed)
        ckpts = work / "checkpoints"
        ckpts.mkdir()
        for fold in range(gen.FOLDS):
            scorer = model.TripleScorer.create(model.ModelConfig(embed_dim=gen.DIM, seed=seed * gen.FOLDS + fold))
            model.save_checkpoint(
                scorer, ckpts / f"fold{fold}.ckpt", meta={"chosen_epoch": 0, "k": K, "fold": fold}
            )
        inputs.ref["checkpoints"] = ckpts
        return inputs

    def setup(self, inputs: Inputs, clock: Clock):
        manifest, vocab, store = super().setup(inputs, clock)
        ckpts = inputs.ref["checkpoints"]
        scorers = [model.load_checkpoint(ckpts / f"fold{f.index}.ckpt") for f in manifest.folds]
        clock.mark("checkpoints")
        return manifest, store, scorers

    def command(self, inputs: Inputs, clock: Clock, out: Path) -> Outcome:
        manifest, store, scorers = self.setup(inputs, clock)
        setup_s, setup_units = clock.now(), clock.units()
        failures, latencies, sizes, reports = [], [], [], []
        for fold, (scorer, meta) in zip(manifest.folds, scorers):
            per_entity = {}
            for iri in fold.test:
                clock.mark("f1")  # the previous entity's F1, or the fold's start
                desc = manifest.entity(iri)
                scored = scorer.score_entity(desc, store)
                selected = model.select_summary(scored, K)
                latencies.append(clock.mark("score"))
                sizes.append(len(desc.triples))
                with clock.pause():
                    failures += check_scored(desc, scored, selected, K)
                del scored
                per_entity[iri] = evaluation.f1_against_golds(selected, desc.gold[K])
            reports.append(evaluation.make_report(per_entity, fold.index, int(meta["chosen_epoch"])))
        cli._write_reports(out, manifest.name, K, reports)
        clock.mark("reports")
        wall_s = clock.now()
        return Outcome(setup_s, setup_units, wall_s, clock.steps, len(latencies), failures,
                       {"latencies": latencies, "sizes": sizes})

    def stats(self, inputs: Inputs, outcomes: list[Outcome]) -> dict:
        lat = np.array([x for o in outcomes for x in o.stats["latencies"]])
        triples = sum(sum(o.stats["sizes"]) for o in outcomes)
        stats = {
            "score_triples_per_s": (triples / lat.sum(), "1/s"),
            "score_ms_p50": (1e3 * float(np.median(lat)), "ms"),
            "score_ms_samples": (len(lat), "count"),
        }
        # the highest percentile with at least ten samples beyond it
        tail = [p for p in (50, 75, 90, 95, 99, 99.9) if len(lat) * (100 - p) / 100 >= 10]
        if tail:
            stats["score_ms_tail"] = (1e3 * float(np.percentile(lat, tail[-1])), "ms")
            stats["score_ms_tail_percentile"] = (tail[-1], "%")
        return stats


WORKLOADS = {w.name: w for w in (CvEsbm(), IngestBigvec(), ScoreLong())}
