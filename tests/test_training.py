"""Per-fold training, early stopping, cross-validation, the oracle baseline."""

import os
import threading
import time

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
    TrainConfig,
    TrainResult,
    cross_validate,
    evaluate_fold,
    oracle_reports,
    train_fold,
)

from conftest import (
    ARIA,
    BLUE,
    count_forks,
    memorization_corpus,
    small_config,
    synthetic_entity,
    synthetic_store,
    use_cpus,
)

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


def five_entities_validated_on_test(k: int = 3, n: int = 10):
    """Five entities with random golds that train, validate and test in one
    fold, their vectors and k."""
    rng = np.random.default_rng(5)
    descs = tuple(
        synthetic_entity(
            n, gold={k: [sorted(rng.choice(n, k, replace=False).tolist()) for _ in range(3)]},
            iri=f"http://ex.org/e{i}",
        )
        for i in range(5)
    )
    iris = tuple(d.entity.raw for d in descs)
    manifest = DatasetManifest("five", descs, (FoldSpec(0, iris, iris, iris),))
    return manifest, synthetic_store(rng, n, 6), k


@pytest.mark.parametrize("corpus", [
    lambda: (*memorization_corpus(100)[:2], 5),
    five_entities_validated_on_test,
], ids=["memorization", "five-entities"])
def test_validation_and_test_scoring_agree(corpus):
    # validation and test entities go through one scoring path, so a fold
    # whose valid equals its test reads the chosen epoch's F1 both ways
    manifest, store, k = corpus()
    fold = manifest.folds[0]
    assert fold.valid == fold.test
    result = train_fold(manifest, fold, small_config(), TrainConfig(k=k, max_epochs=8), store)
    report = evaluate_fold(result.model, manifest, fold, k, store, result.chosen_epoch)
    assert result.val_history[result.chosen_epoch - 1] == report.mean_f1


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


def test_stub_train_fn_sees_each_fold_once(toy_manifest, toy_store, monkeypatch):
    use_cpus(monkeypatch, 1)  # one process, so every call lands in ``calls``
    calls = []

    def spy_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded):
        calls.append(fold.index)
        return constant_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded)

    cross_validate(
        toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
        train_fn=spy_train_fn,
    )
    assert calls == [0, 1]


def pid_logging_train_fn(log):
    """A constant ``train_fn`` that appends ``<fold> <pid>`` to ``log`` in
    whichever process trains the fold."""

    def train_fn(manifest, fold, model_cfg, train_cfg, store, encoded):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{fold.index} {os.getpid()}\n")
        return constant_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded)

    return train_fn


def logged_folds(log):
    """``(fold, pid)`` pairs in the order they were logged."""
    return [tuple(map(int, line.split())) for line in log.read_text(encoding="utf-8").splitlines()]


def test_stub_train_fn_sees_each_fold_once_across_processes(
    toy_manifest, toy_store, monkeypatch, tmp_path
):
    use_cpus(monkeypatch, 2)
    log = tmp_path / "folds.log"
    cv = cross_validate(
        toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
        train_fn=pid_logging_train_fn(log),
    )
    logged = logged_folds(log)
    assert sorted(index for index, _ in logged) == [0, 1]
    # fold 0 here, fold 1 in a worker, and the reports in fold order
    assert dict(logged)[0] == os.getpid() != dict(logged)[1]
    assert [r.fold_index for r in cv.reports] == [0, 1]


@pytest.mark.parametrize("cpus, forks", [(1, 0), (2, 1), (3, 1)])
def test_one_worker_per_further_cpu_up_to_the_fold_count(
    toy_manifest, toy_store, monkeypatch, cpus, forks
):
    use_cpus(monkeypatch, cpus)
    forked = count_forks(monkeypatch)
    cross_validate(toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
                   train_fn=constant_train_fn)
    assert len(forked) == forks


def test_folds_run_here_while_another_thread_is_alive(
    toy_manifest, toy_store, monkeypatch, tmp_path
):
    use_cpus(monkeypatch, 2)
    log = tmp_path / "folds.log"
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    thread.start()
    try:
        cross_validate(toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
                       train_fn=pid_logging_train_fn(log))
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert logged_folds(log) == [(0, os.getpid()), (1, os.getpid())]


def test_a_worker_that_cannot_be_forked_leaves_its_folds_here(
    toy_manifest, toy_store, monkeypatch, tmp_path
):
    use_cpus(monkeypatch, 2)

    def failing_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    log = tmp_path / "folds.log"
    cv = cross_validate(toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
                        train_fn=pid_logging_train_fn(log))
    assert logged_folds(log) == [(0, os.getpid()), (1, os.getpid())]
    assert [r.fold_index for r in cv.reports] == [0, 1]


def test_the_folds_of_a_worker_that_dies_run_here(toy_manifest, toy_store, monkeypatch, tmp_path):
    use_cpus(monkeypatch, 2)
    log = tmp_path / "folds.log"
    logging_train_fn = pid_logging_train_fn(log)
    parent = os.getpid()

    def dying_train_fn(*args):
        if os.getpid() != parent:
            os._exit(3)  # as a worker killed mid-fold, having sent nothing
        return logging_train_fn(*args)

    cv = cross_validate(toy_manifest, TOY_MODEL, TrainConfig(k=2, max_epochs=1), toy_store,
                        train_fn=dying_train_fn)
    assert logged_folds(log) == [(0, parent), (1, parent)]
    assert [r.fold_index for r in cv.reports] == [0, 1]


def three_fold_manifest(toy_manifest):
    """The toy corpus with a third fold, so that on two CPUs this process
    trains folds 0 and 2 and a worker fold 1."""
    return DatasetManifest(
        name=toy_manifest.name,
        entities=toy_manifest.entities,
        folds=(*toy_manifest.folds, FoldSpec(index=2, train=(ARIA,), valid=(), test=(BLUE,))),
    )


def failing_train_fn(failing):
    """A constant ``train_fn`` whose folds in ``failing`` raise."""

    def train_fn(manifest, fold, model_cfg, train_cfg, store, encoded):
        if fold.index in failing:
            raise NumericError(f"fold {fold.index} diverged")
        return constant_train_fn(manifest, fold, model_cfg, train_cfg, store, encoded)

    return train_fn


def cv_error(monkeypatch, cpus, *args, **kwargs):
    use_cpus(monkeypatch, cpus)
    with pytest.raises(NumericError) as info:
        cross_validate(*args, **kwargs)
    return str(info.value)


@pytest.mark.parametrize("failing, expected", [
    ({1}, "fold 1 diverged"),  # a worker's fold
    ({2}, "fold 2 diverged"),  # this process's fold after the worker's fold succeeded
    ({1, 2}, "fold 1 diverged"),  # the earlier fold, a worker's, wins
    ({0, 1}, "fold 0 diverged"),
])
def test_a_failing_fold_raises_as_in_one_process(
    toy_manifest, toy_store, monkeypatch, failing, expected
):
    args = (three_fold_manifest(toy_manifest), TOY_MODEL, TrainConfig(k=2, max_epochs=1),
            toy_store)
    kwargs = {"train_fn": failing_train_fn(failing)}
    assert cv_error(monkeypatch, 1, *args, **kwargs) == expected
    assert cv_error(monkeypatch, 2, *args, **kwargs) == expected


def test_a_diverging_model_raises_as_in_one_process(toy_manifest, toy_store, monkeypatch):
    args = (toy_manifest, TOY_MODEL, TrainConfig(k=2, lr=1e200, max_epochs=5), toy_store)
    one = cv_error(monkeypatch, 1, *args)
    assert one.startswith("fold 0, epoch ")
    assert cv_error(monkeypatch, 2, *args) == one


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_worker_outlives_cross_validate(toy_manifest, toy_store, monkeypatch):
    mask = os.sched_getaffinity(0)
    use_cpus(monkeypatch, 2)
    cfg = TrainConfig(k=2, max_epochs=1)
    cross_validate(toy_manifest, TOY_MODEL, cfg, toy_store, train_fn=constant_train_fn)
    assert_no_child_left()
    assert os.sched_getaffinity(0) == mask
    with pytest.raises(NumericError):
        cross_validate(toy_manifest, TOY_MODEL, cfg, toy_store, train_fn=failing_train_fn({1}))
    assert_no_child_left()
    assert os.sched_getaffinity(0) == mask

    # an interrupt here kills the worker, which would otherwise sleep on
    parent = os.getpid()

    def interrupted_train_fn(manifest, fold, *rest):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cross_validate(toy_manifest, TOY_MODEL, cfg, toy_store, train_fn=interrupted_train_fn)
    assert time.monotonic() - started < 30
    assert_no_child_left()
    assert os.sched_getaffinity(0) == mask


def test_cross_validate_encodes_each_entity_once(toy_manifest, toy_store, monkeypatch):
    calls = []

    def counting_encode(desc, store):
        calls.append(desc.entity.raw)
        return encode_description(desc, store)

    monkeypatch.setattr(training, "encode_description", counting_encode)
    cfg = TrainConfig(k=2, max_epochs=3)
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
