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
from typing import Callable, Sequence

import numpy as np

from .dataset import DatasetManifest, EntityDescription, FoldSpec, supervision_label
from .embeddings import EmbeddingStore
from .errors import NoGoldForK, NonFiniteLoss, NumericError
from .evaluation import EvalReport, f1_against_golds, make_report, oracle_summary
from .model import ModelConfig, TripleScorer, encode_description, select_summary
from .nn import AdamState, adam_step, mse_loss


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


@dataclass
class _PreparedEntity:
    desc: EntityDescription
    vectors: list
    targets: dict[int, float]


def _prepare(
    manifest: DatasetManifest,
    iris: Sequence[str],
    store: EmbeddingStore,
    cfg: TrainConfig,
    with_targets: bool,
) -> list[_PreparedEntity]:
    prepared = []
    for iri in iris:
        desc = manifest.entity(iri)
        if cfg.k not in desc.gold:
            raise NoGoldForK(cfg.k)
        vectors = encode_description(desc, store)
        targets = {}
        if with_targets:
            targets = {t.id: supervision_label(desc, t, cfg.k) for t in desc.triples}
        prepared.append(_PreparedEntity(desc, vectors, targets))
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
        ids = sorted(scored.scores)
        pred = np.array([scored.scores[i] for i in ids])
        target = np.array([ent.targets[i] for i in ids])
        loss, _ = mse_loss(pred, target)
        total += loss
    return total / len(prepared)


def train_fold(
    manifest: DatasetManifest,
    fold: FoldSpec,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    store: EmbeddingStore,
) -> TrainResult:
    """Train on the fold's training entities, early-stop on its validation
    entities, and return the best-epoch snapshot.

    With an empty validation list there is nothing to stop on and the final
    epoch's parameters are returned.
    """
    train_set = _prepare(manifest, fold.train, store, train_cfg, with_targets=True)
    valid_set = _prepare(
        manifest, fold.valid, store, train_cfg,
        with_targets=train_cfg.early_stop_metric is EarlyStopMetric.VAL_LOSS,
    )

    model = TripleScorer.create(model_cfg)
    params = model.parameters()
    adam = AdamState.create(params, lr=train_cfg.lr)

    maximize = train_cfg.early_stop_metric is EarlyStopMetric.VAL_F1
    best_metric = -math.inf if maximize else math.inf
    best_epoch = 0
    best_params = model.copy_parameters()
    history: list[float] = []

    for epoch in range(1, train_cfg.max_epochs + 1):
        order_rng = np.random.default_rng([train_cfg.seed, fold.index, epoch])
        for idx in order_rng.permutation(len(train_set)):
            ent = train_set[idx]
            loss, grads = model.loss_and_gradients(ent.vectors, ent.targets)
            if not math.isfinite(loss):
                raise NonFiniteLoss(
                    f"fold {fold.index}, epoch {epoch}, entity "
                    f"{ent.desc.entity.raw}: loss={loss}"
                )
            adam_step(params, grads, adam)

        if valid_set:
            try:
                metric = _validation_metric(model, valid_set, train_cfg)
            except NumericError as exc:  # only a diverged model's scores fail here
                raise NonFiniteLoss(f"fold {fold.index}, epoch {epoch}, validation: {exc}") from exc
            history.append(metric)
            improved = metric > best_metric if maximize else metric < best_metric
            if improved:
                best_metric = metric
                best_epoch = epoch
                best_params = model.copy_parameters()
        else:
            best_epoch = epoch
            best_params = model.copy_parameters()

    model.set_parameters(best_params)
    return TrainResult(model, best_epoch, history)


@dataclass
class CrossValReport:
    """Per-fold reports plus the concatenation over all test entities."""

    reports: list[EvalReport]
    results: list[TrainResult]
    per_entity: list[tuple[int, str, float]]  # fold, entity, f1

    @property
    def mean_f1(self) -> float:
        if not self.per_entity:
            return 0.0
        return sum(f1 for _, _, f1 in self.per_entity) / len(self.per_entity)


def evaluate_fold(
    model: TripleScorer,
    manifest: DatasetManifest,
    fold: FoldSpec,
    k: int,
    store: EmbeddingStore,
    chosen_epoch: int,
) -> EvalReport:
    per_entity: dict[str, float] = {}
    for iri in fold.test:
        desc = manifest.entity(iri)
        if k not in desc.gold:
            raise NoGoldForK(k)
        scored = model.score_description(desc.entity, encode_description(desc, store))
        summary = select_summary(scored, k)
        per_entity[iri] = f1_against_golds(summary, desc.gold[k])
    return make_report(per_entity, fold.index, chosen_epoch)


TrainFn = Callable[
    [DatasetManifest, FoldSpec, ModelConfig, TrainConfig, EmbeddingStore], TrainResult
]


def cross_validate(
    manifest: DatasetManifest,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    store: EmbeddingStore,
    train_fn: TrainFn = train_fold,
) -> CrossValReport:
    """Train one model per fold, in fold order, and evaluate it on that
    fold's test set."""
    reports, results = [], []
    for fold in manifest.folds:
        # the manifest loader guarantees this; re-check before evaluating
        leaked = set(fold.test) & set(fold.train)
        if leaked:
            raise AssertionError(f"fold {fold.index} trains on test entity {leaked}")
        result = train_fn(manifest, fold, model_cfg, train_cfg, store)
        results.append(result)
        reports.append(evaluate_fold(
            result.model, manifest, fold, train_cfg.k, store, result.chosen_epoch
        ))
    per_entity = [
        (report.fold_index, iri, f1)
        for report in reports
        for iri, f1 in report.per_entity_f1.items()
    ]
    return CrossValReport(reports, results, per_entity)


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
