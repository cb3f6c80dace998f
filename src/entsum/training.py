"""Training loop with early stopping and five-fold cross-validation.

One optimizer step per entity: the loss is the mean squared error between
the score vector over the entity's candidates and the normalized
gold-frequency targets.  After each epoch the mean F1 of the validation
entities is computed, and the parameter snapshot of the epoch where it is
highest wins (earlier epoch on ties).
Every source of randomness derives from the run seed, so a fixed seed
reproduces results bit for bit.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .dataset import DatasetManifest, EntityDescription, FoldSpec
from .embeddings import EmbeddingStore
from .errors import DataError, NumericError
from .evaluation import (
    EvalReport,
    f1_against_golds,
    gold_membership_counts,
    make_report,
    oracle_summary,
    pooled_mean_f1,
)
from .model import (
    EncodedDescription,
    ModelConfig,
    TripleScorer,
    encode_description,
    select_summary,
)
from .nn import IGNORE_FLOAT_ERRORS, AdamState, adam_step


@dataclass(frozen=True)
class TrainConfig:
    k: int
    lr: float = 0.01
    max_epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.k < 1:
            raise ValueError("k must be positive")


@dataclass
class TrainResult:
    model: TripleScorer
    chosen_epoch: int
    val_history: list[float]


# each entity's encoded description, keyed by IRI
Encodings = Mapping[str, EncodedDescription]


def encode_entities(
    manifest: DatasetManifest, iris: Iterable[str], store: EmbeddingStore
) -> Encodings:
    """The description of each entity in ``iris`` encoded once."""
    return {iri: encode_description(manifest.entity(iri), store) for iri in dict.fromkeys(iris)}


@dataclass
class _PreparedEntity:
    desc: EntityDescription
    vectors: EncodedDescription
    targets: dict[int, float]


def _prepare(
    manifest: DatasetManifest,
    iris: Sequence[str],
    encoded: Encodings,
    cfg: TrainConfig,
) -> list[_PreparedEntity]:
    """Each entity with its encoding and its regression targets: per triple,
    the fraction of the k-slot gold summaries that contain it, keyed in
    ascending id order.  An entity without golds for k is a ``DataError``."""
    prepared = []
    for iri in iris:
        desc = manifest.entity(iri)
        counts = gold_membership_counts(desc, cfg.k)
        golds = len(desc.gold[cfg.k])
        targets = {tid: count / golds for tid, count in counts.items()}
        prepared.append(_PreparedEntity(desc, encoded[iri], targets))
    return prepared


def _entity_f1(model: TripleScorer, desc: EntityDescription,
               vectors: EncodedDescription, k: int) -> float:
    """F1 of the entity's top-k triples under ``model`` against its k-slot
    golds: the one scoring path of validation and test entities."""
    if k not in desc.gold:
        raise DataError(f"no ground-truth summaries for k={k}")
    scored = model.score_description(desc.entity, vectors)
    return f1_against_golds(select_summary(scored, k), desc.gold[k])


def _validation_metric(
    model: TripleScorer,
    prepared: Sequence[_PreparedEntity],
    cfg: TrainConfig,
) -> float:
    """Mean F1 of the validation entities, summed as ``make_report`` sums a
    test fold's: a fold that validates on its test entities reads the same
    mean both ways."""
    return sum(_entity_f1(model, ent.desc, ent.vectors, cfg.k) for ent in prepared) / len(prepared)


@np.errstate(**IGNORE_FLOAT_ERRORS)
def train_fold(
    manifest: DatasetManifest,
    fold: FoldSpec,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    store: EmbeddingStore,
    encoded: Encodings | None = None,
) -> TrainResult:
    """Train on the fold's training entities, early-stop on its validation
    entities, and return the best-epoch snapshot.  ``encoded`` holds the
    descriptions already encoded (see ``encode_entities``); without it the
    fold's entities are encoded here.

    With an empty validation list there is nothing to stop on and the final
    epoch's parameters are returned.
    """
    if encoded is None:
        encoded = encode_entities(manifest, (*fold.train, *fold.valid), store)
    train_set = _prepare(manifest, fold.train, encoded, train_cfg)
    valid_set = _prepare(manifest, fold.valid, encoded, train_cfg)

    model = TripleScorer.create(model_cfg)
    # Adam steps each layer's view of model.flat: one step over the whole
    # vector measured about twice as slow, its temporaries spilling out of L2
    params = model.parameters()
    adam = AdamState.create(params, lr=train_cfg.lr)

    best_f1 = -math.inf
    best_epoch = 0
    best_params = model.flat.copy()
    history: list[float] = []

    for epoch in range(1, train_cfg.max_epochs + 1):
        order_rng = np.random.default_rng([train_cfg.seed, fold.index, epoch])
        for idx in order_rng.permutation(len(train_set)):
            ent = train_set[idx]
            loss, grads = model.loss_and_gradients(ent.vectors, ent.targets)
            if not math.isfinite(loss):
                raise NumericError(
                    f"fold {fold.index}, epoch {epoch}, entity "
                    f"{ent.desc.entity.raw}: loss={loss}"
                )
            adam_step(params, grads, adam)
        # a gradient whose square overflows makes v inf, and Adam then stops
        # moving that parameter without any loss going non-finite
        if not all(np.isfinite(v).all() for v in adam.v):
            raise NumericError(
                f"fold {fold.index}, epoch {epoch}: Adam's second-moment estimate "
                f"is not finite (a squared gradient overflowed)"
            )

        if valid_set:
            try:
                f1 = _validation_metric(model, valid_set, train_cfg)
            except NumericError as exc:  # only a diverged model's scores fail here
                raise NumericError(f"fold {fold.index}, epoch {epoch}, validation: {exc}") from exc
            history.append(f1)
            if f1 > best_f1:
                best_f1 = f1
                best_epoch = epoch
                best_params = model.flat.copy()
        else:
            best_epoch = epoch
            best_params = model.flat.copy()

    model.flat[...] = best_params
    return TrainResult(model, best_epoch, history)


@dataclass
class CrossValReport:
    """Per-fold reports and training results, in fold order."""

    reports: list[EvalReport]
    results: list[TrainResult]

    @property
    def mean_f1(self) -> float:
        return pooled_mean_f1(self.reports)


def evaluate_fold(
    model: TripleScorer,
    manifest: DatasetManifest,
    fold: FoldSpec,
    k: int,
    store: EmbeddingStore,
    chosen_epoch: int,
    encoded: Encodings | None = None,
) -> EvalReport:
    if encoded is None:
        encoded = encode_entities(manifest, fold.test, store)
    per_entity = {iri: _entity_f1(model, manifest.entity(iri), encoded[iri], k)
                  for iri in fold.test}
    return make_report(per_entity, fold.index, chosen_epoch)


TrainFn = Callable[
    [DatasetManifest, FoldSpec, ModelConfig, TrainConfig, EmbeddingStore, Encodings],
    TrainResult,
]


def _cpus() -> list[int]:
    """The CPUs this process may run on, in ascending order; none where the
    platform cannot say."""
    getaffinity = getattr(os, "sched_getaffinity", None)
    return sorted(getaffinity(0)) if getaffinity else []


def _single_threaded() -> bool:
    """Whether this process runs one thread, counting the threads of native
    libraries such as a BLAS pool; False where ``/proc`` does not list them."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


# one fold's trained model and its test report
FoldOutcome = tuple[TrainResult, EvalReport]


def _work(run: Callable[[int], FoldOutcome], positions: range, cpu: int,
          read_fd: int, write_fd: int):
    """A worker's whole life: pinned to ``cpu``, it runs the folds at
    ``positions`` up to its first failure, pickles ``{position: outcome}``
    into ``write_fd`` and leaves through ``os._exit``, so it never returns
    into its parent's stack.  It exits 0 only once the pickle is written."""
    status = 1
    try:
        os.close(read_fd)
        os.sched_setaffinity(0, {cpu})
        outcomes = {}
        for i in positions:
            try:
                outcomes[i] = run(i)
            except Exception:  # the parent runs this fold again and raises its error
                break
        with open(write_fd, "wb") as pipe:
            pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


class _Worker:
    """A forked process that trains some folds (see ``_work``)."""

    def __init__(self, run: Callable[[int], FoldOutcome], positions: range, cpu: int):
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            _work(run, positions, cpu, read_fd, write_fd)
        # closed before the next fork, so that only this worker holds the
        # write end and its exit ends the pipe
        os.close(write_fd)
        self.pipe = open(read_fd, "rb")

    def collect(self) -> dict[int, FoldOutcome]:
        """Wait for the worker and return the outcomes it finished; none
        unless it exited 0."""
        data = self.pipe.read()
        self.pipe.close()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return pickle.loads(data) if status == 0 else {}

    def stop(self) -> None:
        """Kill and reap the worker, unless ``collect`` has reaped it."""
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def cross_validate(
    manifest: DatasetManifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    store: EmbeddingStore,
    train_fn: TrainFn = train_fold,
) -> CrossValReport:
    """Train one model per fold and evaluate it on that fold's test set.
    Each entity is encoded once and shared by all folds.

    The folds are dealt round-robin to this process and one forked worker
    per further CPU of ``_cpus()``, up to one process per fold, each pinned
    to its own CPU while they train: on two CPUs this process trains folds
    0, 2 and 4 and the worker 1 and 3.  ``train_fn`` and ``evaluate_fold``
    run in whichever process trains the fold, and a worker sends its
    outcomes back pickled.

    No worker is forked while this process runs another thread: forking a
    threaded process is unsafe, and a BLAS pool restarted after the fork
    shares its process's pinned CPU (on two CPUs a cv-esbm run took 6.8 s
    so, against 0.33 s in one process).

    Outputs do not depend on the worker count: the folds are walked in
    order at the end, and a fold without an outcome (its worker failed or
    stopped at an earlier failure) runs again here, so the first failing
    fold raises its own error, as in one process.
    """
    encoded = encode_entities(
        manifest, (iri for f in manifest.folds for iri in (*f.train, *f.valid, *f.test)), store
    )
    folds = manifest.folds
    for fold in folds:
        # the manifest loader guarantees this; re-check before training
        leaked = set(fold.test) & set(fold.train)
        if leaked:
            raise AssertionError(f"fold {fold.index} trains on test entity {leaked}")

    def run(i: int) -> FoldOutcome:
        fold = folds[i]
        result = train_fn(manifest, fold, model_cfg, train_cfg, store, encoded)
        return result, evaluate_fold(
            result.model, manifest, fold, train_cfg.k, store, result.chosen_epoch, encoded
        )

    cpus = _cpus() if _single_threaded() else []
    lanes = max(1, min(len(cpus), len(folds)))
    outcomes: dict[int, FoldOutcome] = {}
    failed: tuple[int, Exception] | None = None  # the first of this process's folds to fail
    workers: list[_Worker] = []
    mask = os.sched_getaffinity(0) if lanes > 1 else None
    try:
        for lane in range(1, lanes):
            try:
                workers.append(_Worker(run, range(lane, len(folds), lanes), cpus[lane]))
            except OSError:  # a worker that cannot be forked leaves its folds to the walk
                break
        if workers:
            os.sched_setaffinity(0, {cpus[0]})
        for i in range(0, len(folds), lanes):
            try:
                outcomes[i] = run(i)
            except Exception as exc:
                failed = i, exc
                break
        for worker in workers:
            outcomes.update(worker.collect())
    finally:
        for worker in workers:
            worker.stop()
        if mask is not None:
            os.sched_setaffinity(0, mask)
    for i in range(len(folds)):
        if i not in outcomes:
            if failed is not None and failed[0] == i:
                raise failed[1]
            outcomes[i] = run(i)
    return CrossValReport([outcomes[i][1] for i in range(len(folds))],
                          [outcomes[i][0] for i in range(len(folds))])


def oracle_reports(manifest: DatasetManifest, k: int) -> list[EvalReport]:
    """Frequency-oracle baseline evaluated with the same fold protocol.

    The oracle reads the gold summaries directly, so there is no training;
    chosen_epoch is reported as 0.
    """
    reports = []
    for fold in manifest.folds:
        per_entity = {}
        for iri in fold.test:
            desc = manifest.entity(iri)
            summary = oracle_summary(desc, k)
            per_entity[iri] = f1_against_golds(summary, desc.gold[k])
        reports.append(make_report(per_entity, fold.index, 0))
    return reports
