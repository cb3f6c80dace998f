"""Tests of the benchmark's own code: generator, span arithmetic, F1 check.

Run with the package source on the path::

    PYTHONPATH=src python3 -m pytest bench -q
"""

import numpy as np
import pytest

import gen
from entsum import esbm, evaluation, load_vec_file, manifest_vocabulary, training
from entsum.model import ScoredDescription
from spans import Span, Tracer, self_times, tree_failures
from workloads import K, RANDOM_DRAWS, RANDOM_QUANTILE, check_cv_f1, random_f1_ceiling

SMALL = gen.TreeSpec(per_collection=5, n_min=12, n_max=24, tail=1.5)


def _tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _generate(root, seed):
    info = gen.generate_tree(root / "esbm", SMALL, seed)
    gen.generate_vectors(root / "vectors.vec", info.vocabulary, 50, seed)
    return info


def test_same_seed_gives_byte_identical_files(tmp_path):
    _generate(tmp_path / "a", 7)
    _generate(tmp_path / "b", 7)
    _generate(tmp_path / "c", 8)
    a, b, c = (_tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c


def test_generated_tree_loads_and_matches_its_description(tmp_path):
    info = _generate(tmp_path, 3)
    manifest = esbm.load_esbm(tmp_path / "esbm")
    assert len(manifest.entities) == info.entities == 2 * SMALL.per_collection
    assert manifest.triple_count == info.triples == sum(info.sizes)
    assert manifest.gold_count == info.golds
    assert manifest_vocabulary(manifest) == info.vocabulary
    assert len(load_vec_file(tmp_path / "vectors.vec", vocab=info.vocabulary)) == len(info.vocabulary)
    # each entity is tested once and validated once over the five folds
    tests = sorted(i for f in manifest.folds for i in f.test)
    assert tests == sorted(e.entity.raw for e in manifest.entities)


def test_description_sizes_do_not_depend_on_the_seed(tmp_path):
    a = gen.generate_tree(tmp_path / "a", SMALL, 1)
    b = gen.generate_tree(tmp_path / "b", SMALL, 2)
    assert sorted(a.sizes) == sorted(b.sizes) == sorted(gen.description_sizes(SMALL, 10))


def test_self_times_on_a_hand_built_tree():
    # cli [0, 10] -> load [1, 4] -> parse [2, 3]; cli -> train [5, 9] -> step [6, 7], [7.5, 8.5]
    spans = [
        Span("cli", 0.0, 10.0, None, "r"),
        Span("load", 1.0, 4.0, 0, "r"),
        Span("parse", 2.0, 3.0, 1, "r"),
        Span("train", 5.0, 9.0, 0, "r"),
        Span("step", 6.0, 7.0, 3, "r"),
        Span("step", 7.5, 8.5, 3, "r"),
    ]
    own = self_times(spans)
    assert own == pytest.approx({"cli": 3.0, "load": 2.0, "parse": 1.0, "train": 2.0, "step": 2.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_tree_failures_catch_stray_unclosed_and_doubled_roots():
    good = [Span("cli", 0.0, 10.0, None, "r"), Span("load", 1.0, 4.0, 0, "r")]
    assert tree_failures(good) == []
    assert tree_failures(good + [Span("load", 11.0, 12.0, None, "r")])   # stray root
    assert tree_failures(good + [Span("cli", 11.0, 12.0, None, "r")])    # two roots in one run
    assert tree_failures([good[0], Span("load", 1.0, 0.0, 0, "r")])      # never ended
    assert tree_failures([good[0], Span("load", 9.0, 11.0, 0, "r")])     # outlives its parent
    assert tree_failures(good + [Span("cli", 11.0, 12.0, None, "s")]) == []


def test_tracer_nests_spans_and_restores_the_originals():
    original = training.adam_step
    tracer = Tracer()
    tracer.install()
    try:
        assert training.adam_step is not original
        tracer.begin("cli")
        training.select_summary(ScoredDescription(None, {0: 1.0, 1: 2.0}), 1)
        tracer.end()
    finally:
        tracer.uninstall()
    assert training.adam_step is original
    assert [(s.name, s.parent) for s in tracer.spans] == [("cli", None), ("model.select", 0)]


class _Scorer:
    """Scores from a fixed rule instead of a trained network."""

    def __init__(self, rule):
        self.rule = rule

    def score_description(self, entity, vectors):
        ids = [tid for tid, _ in vectors]
        return ScoredDescription(entity, dict(zip(ids, self.rule(entity, ids))))


def _cv_f1(tmp_path, seed, rule):
    info = _generate(tmp_path, seed)
    manifest = esbm.load_esbm(tmp_path / "esbm")
    store = load_vec_file(tmp_path / "vectors.vec", vocab=info.vocabulary)
    oracle = [f for r in training.oracle_reports(manifest, K) for f in r.per_entity_f1.values()]
    ref = {
        "oracle_f1": sum(oracle) / len(oracle),
        "random_ceiling": random_f1_ceiling(manifest, K, RANDOM_DRAWS, RANDOM_QUANTILE, seed),
    }
    scorer = _Scorer(lambda entity, ids: rule(manifest.entity(entity.raw), ids))
    reports = [training.evaluate_fold(scorer, manifest, f, K, store, 0) for f in manifest.folds]
    f1s = [f for r in reports for f in r.per_entity_f1.values()]
    return sum(f1s) / len(f1s), ref


@pytest.mark.parametrize("shuffle_seed", [0, 1, 2])
def test_f1_check_fails_for_shuffled_scores(tmp_path, shuffle_seed):
    rng = np.random.default_rng(shuffle_seed)
    mean_f1, ref = _cv_f1(tmp_path, 5, lambda desc, ids: rng.permutation(len(ids)).tolist())
    assert check_cv_f1(mean_f1, ref)


def test_f1_check_passes_for_gold_frequency_scores(tmp_path):
    def by_gold(desc, ids):
        counts = evaluation.gold_membership_counts(desc, K)
        return [float(counts[i]) for i in ids]

    mean_f1, ref = _cv_f1(tmp_path, 5, by_gold)
    assert mean_f1 == pytest.approx(ref["oracle_f1"])
    assert check_cv_f1(mean_f1, ref) == []
    assert check_cv_f1(ref["oracle_f1"] + 0.01, ref)


def test_runner_reports_the_metrics_benchmark_json_declares():
    import json
    from pathlib import Path

    import run

    doc = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert sorted(m["name"] for m in doc["end_to_end"]) == sorted(run.END_TO_END)
    assert sorted(m["name"] for m in doc["per_layer"]) == sorted(run.PER_LAYER)
