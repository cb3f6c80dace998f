"""Training loop with early stopping and five-fold cross-validation.

One optimizer step per entity: the loss is the mean squared error between
the score vector over the entity's candidates and the normalized
gold-frequency targets.  After each epoch the validation metric is computed
and the parameter snapshot of the best epoch wins (earlier epoch on ties).
Every source of randomness derives from the run seed, so a fixed seed
reproduces results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
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
from .nn import IGNORE_FLOAT_ERRORS, AdamState, adam_step, mse_loss


class EarlyStopMetric(Enum):
    VAL_F1 = "f1"
    VAL_LOSS = "loss"


@dataclass(frozen=True)
class TrainConfig:
    k: int
    lr: float = 0.01
    max_epochs: int = 50
    seed: int = 0
    early_stop_metric: EarlyStopMetric = EarlyStopMetric.VAL_F1

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


def _validation_metric(
    model: TripleScorer,
    prepared: Sequence[_PreparedEntity],
    cfg: TrainConfig,
) -> float:
    """Mean validation F1 (higher is better) or mean loss (lower is better)."""
    if cfg.early_stop_metric is EarlyStopMetric.VAL_F1:
        total = 0.0
        for ent in prepared:
            scored = model.score_description(ent.desc.entity, ent.vectors)
            summary = select_summary(scored, cfg.k)
            total += f1_against_golds(summary, ent.desc.gold[cfg.k])
        return total / len(prepared)
    total = 0.0
    for ent in prepared:
        scored = model.score_description(ent.desc.entity, ent.vectors)
        # scores and targets both iterate in ascending id order
        n = len(ent.targets)
        pred = np.fromiter(scored.scores.values(), np.float64, n)
        loss, _ = mse_loss(pred, np.fromiter(ent.targets.values(), np.float64, n))
        total += loss
    return total / len(prepared)


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

    maximize = train_cfg.early_stop_metric is EarlyStopMetric.VAL_F1
    best_metric = -math.inf if maximize else math.inf
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
                metric = _validation_metric(model, valid_set, train_cfg)
            except NumericError as exc:  # only a diverged model's scores fail here
                raise NumericError(f"fold {fold.index}, epoch {epoch}, validation: {exc}") from exc
            history.append(metric)
            improved = metric > best_metric if maximize else metric < best_metric
            if improved:
                best_metric = metric
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
    per_entity: dict[str, float] = {}
    for iri in fold.test:
        desc = manifest.entity(iri)
        if k not in desc.gold:
            raise DataError(f"no ground-truth summaries for k={k}")
        scored = model.score_description(desc.entity, encoded[iri])
        summary = select_summary(scored, k)
        per_entity[iri] = f1_against_golds(summary, desc.gold[k])
    return make_report(per_entity, fold.index, chosen_epoch)


TrainFn = Callable[
    [DatasetManifest, FoldSpec, ModelConfig, TrainConfig, EmbeddingStore, Encodings],
    TrainResult,
]


def cross_validate(
    manifest: DatasetManifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    store: EmbeddingStore,
    train_fn: TrainFn = train_fold,
) -> CrossValReport:
    """Train one model per fold, in fold order, and evaluate it on that
    fold's test set.  Each entity is encoded once and shared by all folds."""
    encoded = encode_entities(
        manifest, (iri for f in manifest.folds for iri in (*f.train, *f.valid, *f.test)), store
    )
    reports, results = [], []
    for fold in manifest.folds:
        # the manifest loader guarantees this; re-check before evaluating
        leaked = set(fold.test) & set(fold.train)
        if leaked:
            raise AssertionError(f"fold {fold.index} trains on test entity {leaked}")
        result = train_fn(manifest, fold, model_cfg, train_cfg, store, encoded)
        results.append(result)
        reports.append(evaluate_fold(
            result.model, manifest, fold, train_cfg.k, store, result.chosen_epoch, encoded
        ))
    return CrossValReport(reports, results)


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
