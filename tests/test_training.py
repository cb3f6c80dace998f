"""Per-fold training, early stopping, cross-validation, the oracle baseline."""

import numpy as np
import pytest

from entsum import training
from entsum.dataset import DatasetManifest, FoldSpec
from entsum.errors import DataError, NumericError
from entsum.evaluation import f1_against_golds
from entsum.model import (
    ModelConfig,
    ScoredDescription,
    encode_description,
    select_summary,
)
from entsum.training import (
    EarlyStopMetric,
    TrainConfig,
    TrainResult,
    cross_validate,
    evaluate_fold,
    oracle_reports,
    train_fold,
)

from conftest import ARIA, BLUE, memorization_corpus

TOY_MODEL = ModelConfig(
    embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
    scoring_hidden=(8, 8), seed=0,
)


def toy_fold0(toy_manifest):
    return toy_manifest.folds[0]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(k=2, max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(k=0)


def test_train_config_defaults():
    cfg = TrainConfig(k=5)
    assert cfg.lr == 0.01
    assert cfg.max_epochs == 50
    assert cfg.early_stop_metric is EarlyStopMetric.VAL_F1


# --------------------------------------------------------------------------
# single-fold training
# --------------------------------------------------------------------------

def test_train_fold_is_bitwise_deterministic(toy_manifest, toy_store):
    cfg = TrainConfig(k=2, max_epochs=6)
    a = train_fold(toy_manifest, toy_fold0(toy_manifest), TOY_MODEL, cfg, toy_store)
    b = train_fold(toy_manifest, toy_fold0(toy_manifest), TOY_MODEL, cfg, toy_store)
    assert a.chosen_epoch == b.chosen_epoch
    assert a.val_history == b.val_history
    for pa, pb in zip(a.model.parameters(), b.model.parameters()):
        assert np.array_equal(pa, pb)


def test_train_fold_seed_changes_outcome(toy_manifest, toy_store):
    cfg = TrainConfig(k=2, max_epochs=4)
    other_model = ModelConfig(
        embed_dim=4, candidate_hidden=(8, 8), context_hidden=(8, 8),
        scoring_hidden=(8, 8), seed=9,
    )
    a = train_fold(toy_manifest, toy_fold0(toy_manifest), TOY_MODEL, cfg, toy_store)
    b = train_fold(toy_manifest, toy_fold0(toy_manifest), other_model, cfg, toy_store)
    assert any(
        not np.array_equal(pa, pb)
        for pa, pb in zip(a.model.parameters(), b.model.parameters())
    )


def test_history_covers_every_epoch_and_chosen_is_first_best(toy_manifest, toy_store):
    cfg = TrainConfig(k=2, max_epochs=8)
    result = train_fold(toy_manifest, toy_fold0(toy_manifest), TOY_MODEL, cfg, toy_store)
    assert len(result.val_history) == 8
    best = max(result.val_history)
    assert result.chosen_epoch == result.val_history.index(best) + 1


def test_truncated_rerun_reproduces_chosen_parameters(toy_manifest, toy_store):
    fold = toy_fold0(toy_manifest)
    full = train_fold(toy_manifest, fold, TOY_MODEL, TrainConfig(k=2, max_epochs=12), toy_store)
    cut = train_fold(
        toy_manifest, fold, TOY_MODEL,
        TrainConfig(k=2, max_epochs=full.chosen_epoch), toy_store,
    )
    assert cut.chosen_epoch == full.chosen_epoch
    for pa, pb in zip(full.model.parameters(), cut.model.parameters()):
        assert np.array_equal(pa, pb)


def test_loss_metric_mode_picks_first_minimum(toy_manifest, toy_store):
    cfg = TrainConfig(k=2, max_epochs=8, early_stop_metric=EarlyStopMetric.VAL_LOSS)
    result = train_fold(toy_manifest, toy_fold0(toy_manifest), TOY_MODEL, cfg, toy_store)
    assert len(result.val_history) == 8
    best = min(result.val_history)
    assert result.chosen_epoch == result.val_history.index(best) + 1


def test_single_epoch_run(toy_manifest, toy_store):
    result = train_fold(
        toy_manifest, toy_fold0(toy_manifest), TOY_MODEL,
        TrainConfig(k=2, max_epochs=1), toy_store,
    )
    assert result.chosen_epoch == 1
    assert len(result.val_history) == 1


def test_empty_validation_keeps_final_epoch(toy_manifest, toy_store):
    fold = toy_fold0(toy_manifest)
    bare = FoldSpec(index=fold.index, train=fold.train, valid=(), test=fold.test)
    result = train_fold(toy_manifest, bare, TOY_MODEL, TrainConfig(k=2, max_epochs=5), toy_store)
    assert result.chosen_epoch == 5
    assert result.val_history == []


def test_exploding_learning_rate_raises(toy_manifest, toy_store):
    cfg = TrainConfig(k=2, lr=1e200, max_epochs=5)
    with pytest.raises(NumericError, match=r"fold 0, epoch \d+, (entity|validation)"):
        train_fold(toy_manifest, toy_fold0(toy_manifest), TOY_MODEL, cfg, toy_store)


def test_overflow_outside_the_scorer_warns_nothing(toy_manifest, toy_store):
    # pytest makes every numpy warning an error, so this fails if one escapes
    fold = toy_fold0(toy_manifest)
    # at lr 1e17 Adam's g * g overflows while the losses stay finite; the
    # end-of-epoch check on v reports it instead of training on, frozen
    with pytest.raises(NumericError, match="fold 0, epoch 2: Adam's second-moment estimate"):
        train_fold(toy_manifest, fold, TOY_MODEL, TrainConfig(k=2, lr=1e17, max_epochs=5),
                   toy_store)
    # at lr 1e35 the validation loss overflows to inf, then the training loss
    cfg = TrainConfig(k=2, lr=1e35, max_epochs=5, early_stop_metric=EarlyStopMetric.VAL_LOSS)
    with pytest.raises(NumericError, match="fold 0, epoch 2, entity"):
        train_fold(toy_manifest, fold, TOY_MODEL, cfg, toy_store)


def test_missing_gold_slot_rejected(toy_manifest, toy_store):
    with pytest.raises(DataError, match="no ground-truth summaries for k=4"):
        train_fold(
            toy_manifest, toy_fold0(toy_manifest), TOY_MODEL,
            TrainConfig(k=4, max_epochs=2), toy_store,
        )


def test_overfit_recovers_unanimous_choice(toy_manifest, toy_store):
    # Aria trains and validates on itself: id 0 is in all three golds and
    # id 5 in two, so a memorizing model ranks them on top
    result = train_fold(
        toy_manifest, toy_fold0(toy_manifest), TOY_MODEL,
        TrainConfig(k=2, max_epochs=30), toy_store,
    )
    aria = toy_manifest.entity(ARIA)
    scored = result.model.score_description(aria.entity, encode_description(aria, toy_store))
    assert select_summary(scored, 2) == [0, 5]


# --------------------------------------------------------------------------
# evaluation of a trained fold
# --------------------------------------------------------------------------

def test_evaluate_fold_covers_test_entities(toy_manifest, toy_store):
    fold = toy_fold0(toy_manifest)
    result = train_fold(toy_manifest, fold, TOY_MODEL, TrainConfig(k=2, max_epochs=2), toy_store)
    report = evaluate_fold(result.model, toy_manifest, fold, 2, toy_store, result.chosen_epoch)
    assert sorted(report.per_entity_f1) == [BLUE]
    assert report.fold_index == 0
    assert report.chosen_epoch == result.chosen_epoch
    assert 0.0 <= report.mean_f1 <= 1.0


def test_evaluate_fold_missing_gold(toy_manifest, toy_store):
    fold = toy_fold0(toy_manifest)
    result = train_fold(toy_manifest, fold, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store)
    with pytest.raises(DataError, match="no ground-truth summaries for k=9"):
        evaluate_fold(result.model, toy_manifest, fold, 9, toy_store, 1)


# --------------------------------------------------------------------------
# cross-validation
# --------------------------------------------------------------------------

def test_cross_validate_composes_fold_runs(toy_manifest, toy_store):
    cfg = TrainConfig(k=2, max_epochs=3)
    cv = cross_validate(toy_manifest, TOY_MODEL, cfg, toy_store)
    assert len(cv.reports) == 2
    by_hand = []
    for fold in toy_manifest.folds:
        result = train_fold(toy_manifest, fold, TOY_MODEL, cfg, toy_store)
        by_hand.append(
            evaluate_fold(result.model, toy_manifest, fold, 2, toy_store, result.chosen_epoch)
        )
    assert [r.per_entity_f1 for r in cv.reports] == [r.per_entity_f1 for r in by_hand]
    assert [r.chosen_epoch for r in cv.reports] == [r.chosen_epoch for r in by_hand]


def test_cross_validate_per_entity_rows(toy_manifest, toy_store):
    cv = cross_validate(toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=2), toy_store)
    # every entity is tested exactly once, under its own fold's index
    rows = [(r.fold_index, iri, f1) for r in cv.reports for iri, f1 in r.per_entity_f1.items()]
    assert sorted((fold, iri) for fold, iri, _ in rows) == [(0, BLUE), (1, ARIA)]
    pooled = sum(f1 for _, _, f1 in rows) / 2
    assert cv.mean_f1 == pooled


def test_leaking_fold_is_refused(toy_manifest, toy_store):
    leaky = DatasetManifest(
        name=toy_manifest.name,
        entities=toy_manifest.entities,
        folds=(FoldSpec(index=0, train=(ARIA, BLUE), valid=(ARIA,), test=(BLUE,)),),
    )
    with pytest.raises(AssertionError):
        cross_validate(leaky, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store)


class ConstantScorer:
    """Stands in for a trained model: every triple scores the same."""

    def score_description(self, entity, vectors):
        return ScoredDescription(entity, {tid: 0.0 for tid, _ in vectors})


def constant_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded):
    return TrainResult(ConstantScorer(), chosen_epoch=0, val_history=[])


def test_constant_scores_select_lowest_ids(toy_manifest, toy_store):
    cv = cross_validate(
        toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
        train_fn=constant_train_fn,
    )
    # all-equal scores break ties toward ids 0 and 1 for every entity
    expected = {}
    for iri in (ARIA, BLUE):
        desc = toy_manifest.entity(iri)
        expected[iri] = f1_against_golds({0, 1}, desc.gold[2])
    got = {iri: f1 for r in cv.reports for iri, f1 in r.per_entity_f1.items()}
    assert got == expected
    # Aria: {0,1} hits one gold id in each of three summaries; Blue likewise
    # in two of three: (1/2 + 1/3 + 1/2 + 1/2 + 0 + 1/2) / ... = 5/12 pooled
    assert abs(cv.mean_f1 - 5.0 / 12.0) < 1e-12


def test_stub_train_fn_sees_each_fold_once(toy_manifest, toy_store):
    calls = []

    def spy_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded):
        calls.append(fold.index)
        return constant_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded)

    cross_validate(
        toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
        train_fn=spy_train_fn,
    )
    assert calls == [0, 1]


@pytest.mark.parametrize("metric", list(EarlyStopMetric))
def test_cross_validate_encodes_each_entity_once(toy_manifest, toy_store, monkeypatch, metric):
    calls = []

    def counting_encode(desc, store):
        calls.append(desc.entity.raw)
        return encode_description(desc, store)

    monkeypatch.setattr(training, "encode_description", counting_encode)
    cfg = TrainConfig(k=2, max_epochs=3, early_stop_metric=metric)
    cv = cross_validate(toy_manifest, TOY_MODEL, cfg, toy_store)
    assert sorted(calls) == sorted([ARIA, BLUE])

    # a standalone fold encodes for itself and reaches the same results
    calls.clear()
    for fold, report, result in zip(toy_manifest.folds, cv.reports, cv.results):
        alone = train_fold(toy_manifest, fold, TOY_MODEL, cfg, toy_store)
        assert alone.chosen_epoch == result.chosen_epoch
        assert alone.val_history == result.val_history
        for a, b in zip(alone.model.parameters(), result.model.parameters()):
            assert np.array_equal(a, b)
        assert evaluate_fold(
            alone.model, toy_manifest, fold, 2, toy_store, alone.chosen_epoch
        ) == report
    assert len(calls) == sum(len({*f.train, *f.valid, *f.test}) for f in toy_manifest.folds)


# --------------------------------------------------------------------------
# memorization
# --------------------------------------------------------------------------

def test_single_entity_memorization():
    manifest, store, winners = memorization_corpus(100)
    cfg = ModelConfig(
        embed_dim=6, candidate_hidden=(8, 8), context_hidden=(8, 8),
        scoring_hidden=(8, 8), seed=0,
    )
    result = train_fold(
        manifest, manifest.folds[0], cfg, TrainConfig(k=5, max_epochs=50), store
    )
    desc = manifest.entities[0]
    scored = result.model.score_description(desc.entity, encode_description(desc, store))
    assert set(select_summary(scored, 5)) == winners
    assert result.chosen_epoch <= 50
    assert max(result.val_history) == 1.0


# --------------------------------------------------------------------------
# the oracle baseline
# --------------------------------------------------------------------------

def test_oracle_reports_toymusic(toy_manifest):
    reports = oracle_reports(toy_manifest, 2)
    assert [r.fold_index for r in reports] == [0, 1]
    assert all(r.chosen_epoch == 0 for r in reports)
    assert sorted(reports[0].per_entity_f1) == [BLUE]
    assert sorted(reports[1].per_entity_f1) == [ARIA]
    assert abs(reports[0].mean_f1 - 2.0 / 3.0) < 1e-12
    assert abs(reports[1].mean_f1 - 5.0 / 6.0) < 1e-12
    pooled = [f1 for r in reports for f1 in r.per_entity_f1.values()]
    assert abs(sum(pooled) / len(pooled) - 0.75) < 1e-12


def test_oracle_reports_missing_gold(toy_manifest):
    with pytest.raises(DataError, match="no ground-truth summaries for k=4"):
        oracle_reports(toy_manifest, 4)
