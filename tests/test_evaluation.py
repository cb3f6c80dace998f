"""F1 against gold summaries, the frequency oracle, paired t-test, reports."""

import json
import math

import numpy as np
import pytest
from scipy import stats

from entsum.dataset import GoldSummary
from entsum.errors import (
    DegenerateVariance,
    EmptySummary,
    LengthMismatch,
    NoGoldForK,
)
from entsum.evaluation import (
    f1_against_golds,
    format_significance,
    gold_membership_counts,
    make_report,
    oracle_summary,
    paired_ttest,
    read_per_entity_tsv,
    write_aggregate_json,
    write_per_entity_tsv,
)

from conftest import ARIA, BLUE, synthetic_entity


def golds(*id_sets):
    return [GoldSummary(f"a{i}", frozenset(ids)) for i, ids in enumerate(id_sets)]


# --------------------------------------------------------------------------
# F1
# --------------------------------------------------------------------------

def test_perfect_match_scores_one():
    assert f1_against_golds({0, 1}, golds({0, 1})) == 1.0


def test_disjoint_scores_zero():
    assert f1_against_golds({0, 1}, golds({2, 3})) == 0.0


def test_mean_over_golds():
    assert f1_against_golds({0, 1}, golds({0, 1}, {2, 3})) == 0.5


def test_three_gold_mean():
    # per-gold F1: 1, 1/2, 1/2 -> mean 2/3
    value = f1_against_golds({0, 3}, golds({0, 3}, {0, 1}, {3, 4}))
    assert abs(value - 2.0 / 3.0) < 1e-12


def test_partial_overlap_same_sizes():
    # overlap 2 of 5 on both sides: precision = recall = f1 = 0.4
    value = f1_against_golds({0, 1, 2, 3, 4}, golds({3, 4, 5, 6, 7}))
    assert abs(value - 0.4) < 1e-12


def test_partial_overlap_different_sizes():
    # precision 1, recall 1/4 -> f1 = 0.4
    value = f1_against_golds({0}, golds({0, 1, 2, 3}))
    assert abs(value - 0.4) < 1e-12


def test_summary_order_is_irrelevant():
    gs = golds({1, 2, 3})
    assert f1_against_golds([3, 1, 2], gs) == f1_against_golds([1, 2, 3], gs)


def test_empty_summary_rejected():
    with pytest.raises(EmptySummary):
        f1_against_golds(set(), golds({0}))


def test_no_golds_rejected():
    with pytest.raises(ValueError):
        f1_against_golds({0}, [])


def test_f1_bounds_property():
    rng = np.random.default_rng(61)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        summary = set(rng.choice(20, size=n, replace=False).tolist())
        gs = golds(*[
            set(rng.choice(20, size=int(rng.integers(1, 12)), replace=False).tolist())
            for _ in range(int(rng.integers(1, 7)))
        ])
        value = f1_against_golds(summary, gs)
        assert 0.0 <= value <= 1.0


# --------------------------------------------------------------------------
# gold membership and the oracle
# --------------------------------------------------------------------------

def test_membership_counts_include_zeroes():
    desc = synthetic_entity(4, gold={2: [[0, 1], [1, 2], [1, 3]]})
    assert gold_membership_counts(desc, 2) == {0: 1, 1: 3, 2: 1, 3: 1}


def test_membership_counts_missing_k():
    desc = synthetic_entity(3, gold={2: [[0, 1]]})
    with pytest.raises(NoGoldForK):
        gold_membership_counts(desc, 5)


def test_oracle_picks_most_frequent():
    desc = synthetic_entity(4, gold={2: [[0, 1], [1, 2], [1, 3]]})
    assert oracle_summary(desc, 2) == {0, 1}


def test_oracle_breaks_ties_toward_lower_id():
    # ids 1, 2, 3 all appear twice; id 0 never
    desc = synthetic_entity(4, gold={2: [[1, 2], [2, 3], [3, 1]]})
    assert oracle_summary(desc, 2) == {1, 2}


def test_oracle_caps_at_description_size():
    # the size budget exceeds the description: every triple is selected
    desc = synthetic_entity(2, gold={5: [[0, 1]]})
    assert oracle_summary(desc, 5) == {0, 1}


def test_oracle_toymusic_values(toy_manifest):
    aria = toy_manifest.entity(ARIA)
    blue = toy_manifest.entity(BLUE)
    assert oracle_summary(aria, 2) == {0, 5}
    assert oracle_summary(aria, 3) == {0, 2, 5}
    # counts for blue at k=2 are {0: 2, 2: 2, 3: 2}: a three-way tie
    assert oracle_summary(blue, 2) == {0, 2}
    assert oracle_summary(blue, 3) == {0, 2, 5}


def test_oracle_f1_toymusic_values(toy_manifest):
    aria = toy_manifest.entity(ARIA)
    blue = toy_manifest.entity(BLUE)
    assert abs(f1_against_golds(oracle_summary(aria, 2), aria.gold[2]) - 5.0 / 6.0) < 1e-12
    assert abs(f1_against_golds(oracle_summary(blue, 2), blue.gold[2]) - 2.0 / 3.0) < 1e-12
    # k = 3: both entities average to 7/9 (up to summation order)
    assert abs(f1_against_golds(oracle_summary(aria, 3), aria.gold[3]) - 7.0 / 9.0) < 1e-12
    assert abs(f1_against_golds(oracle_summary(blue, 3), blue.gold[3]) - 7.0 / 9.0) < 1e-12


# --------------------------------------------------------------------------
# paired t-test
# --------------------------------------------------------------------------

def test_ttest_hand_oracle():
    # differences 0.3, 0.1, 0.2, 0.4, 0.0: mean 0.2, sample sd 0.1581...,
    # t = 0.2 / (sd / sqrt(5)) = 2 * sqrt(2)
    a = [0.3, 0.1, 0.2, 0.4, 0.0]
    b = [0.0, 0.0, 0.0, 0.0, 0.0]
    result = paired_ttest(a, b)
    assert result.t_statistic == 2.0 * math.sqrt(2.0)
    assert abs(result.p_value - 0.04742065558431957) < 1e-12
    assert result.n_pairs == 5
    # published t tables bracket the p-value between 0.01 and 0.05
    assert 0.01 < result.p_value < 0.05


def test_ttest_identical_samples():
    result = paired_ttest([0.5, 0.7, 0.1], [0.5, 0.7, 0.1])
    assert (result.t_statistic, result.p_value, result.n_pairs) == (0.0, 1.0, 3)


def test_ttest_sign_flips_with_order():
    a = [0.9, 0.8, 0.4, 0.6]
    b = [0.5, 0.6, 0.3, 0.7]
    fwd = paired_ttest(a, b)
    rev = paired_ttest(b, a)
    assert fwd.t_statistic == -rev.t_statistic
    assert fwd.p_value == rev.p_value


def test_ttest_constant_shift_has_no_variance():
    a = [0.5, 0.6, 0.7]
    b = [0.4, 0.5, 0.6]
    with pytest.raises(DegenerateVariance):
        paired_ttest(a, b)


def test_ttest_length_mismatch():
    with pytest.raises(LengthMismatch):
        paired_ttest([0.1, 0.2], [0.1])


def test_ttest_needs_two_pairs():
    with pytest.raises(LengthMismatch):
        paired_ttest([0.1], [0.2])


def test_ttest_matches_scipy_reference():
    rng = np.random.default_rng(67)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        a = rng.uniform(size=n)
        b = np.clip(a + rng.normal(scale=0.1, size=n), 0.0, 1.0)
        ours = paired_ttest(a.tolist(), b.tolist())
        ref = stats.ttest_rel(a, b)
        assert abs(ours.t_statistic - float(ref.statistic)) < 1e-10
        assert abs(ours.p_value - float(ref.pvalue)) < 1e-10


def test_format_significance():
    text = format_significance(paired_ttest([0.3, 0.1, 0.2, 0.4, 0.0], [0.0] * 5))
    assert text == "t=2.82843, p=0.0474207, n=5"


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

def test_make_report_means_over_entities():
    report = make_report({"a": 1.0, "b": 0.5}, fold_index=2, chosen_epoch=7)
    assert report.mean_f1 == 0.75
    assert report.fold_index == 2
    assert report.chosen_epoch == 7


def test_make_report_empty():
    assert make_report({}, 0, 0).mean_f1 == 0.0


def test_per_entity_tsv_round_trip(tmp_path):
    reports = [
        make_report({"http://x/a": 1.0 / 3.0, "http://x/b": 1.0}, 0, 3),
        make_report({"http://x/c": 0.25}, 1, 5),
    ]
    path = tmp_path / "per_entity.tsv"
    write_per_entity_tsv(reports, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "fold\tentity\tf1"
    assert lines[1] == f"0\thttp://x/a\t{1.0 / 3.0!r}"
    assert len(lines) == 4
    back = read_per_entity_tsv(path)
    assert back == {"http://x/a": 1.0 / 3.0, "http://x/b": 1.0, "http://x/c": 0.25}


def test_aggregate_json_pools_over_entities(tmp_path):
    # two folds of different sizes: the pooled mean is entity-weighted
    reports = [
        make_report({"a": 1.0, "b": 0.0, "c": 0.0, "d": 0.0}, 0, 2),
        make_report({"e": 1.0}, 1, 9),
    ]
    path = tmp_path / "aggregate.json"
    write_aggregate_json("toy", 2, reports, path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["dataset"] == "toy"
    assert doc["k"] == 2
    assert doc["entities"] == 5
    assert doc["mean_f1"] == 0.4  # 2 of 5, not the fold-mean average 0.625
    assert doc["folds"] == [
        {"fold": 0, "chosen_epoch": 2, "mean_f1": 0.25, "entities": 4},
        {"fold": 1, "chosen_epoch": 9, "mean_f1": 1.0, "entities": 1},
    ]


def test_aggregate_json_stable_bytes(tmp_path):
    reports = [make_report({"a": 1.0 / 3.0}, 0, 1)]
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_aggregate_json("toy", 5, reports, p1)
    write_aggregate_json("toy", 5, reports, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text(encoding="utf-8").endswith("\n")
