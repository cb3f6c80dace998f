"""F1 scoring against multiple gold summaries, the frequency-oracle
baseline, paired significance testing, and report serialization.

A machine summary is compared with each human summary separately
(precision, recall, F1) and the per-summary F1 values are averaged, then
averaged again over entities.  Reports serialize deterministically: fixed
key order, repr-precision floats, no timestamps.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import stats

from .atomic import atomic_writer
from .dataset import EntityDescription, GoldSummary, read_text
from .errors import (
    DataError,
    DegenerateVariance,
    EmptySummary,
    LengthMismatch,
    NoGoldForK,
    ParseError,
)


def f1_against_golds(summary: Iterable[int], golds: Sequence[GoldSummary]) -> float:
    """Mean F1 of one machine summary against every gold summary."""
    selected = set(summary)
    if not selected:
        raise EmptySummary("cannot evaluate an empty summary")
    if not golds:
        raise ValueError("need at least one gold summary")
    total = 0.0
    for gold in golds:
        overlap = len(selected & gold.triple_ids)
        precision = overlap / len(selected)
        recall = overlap / len(gold.triple_ids) if gold.triple_ids else 0.0
        if precision + recall == 0.0:
            f1 = 0.0
        else:
            f1 = 2.0 * precision * recall / (precision + recall)
        total += f1
    return total / len(golds)


def gold_membership_counts(desc: EntityDescription, k: int) -> dict[int, int]:
    """How many gold summaries of slot k contain each triple id."""
    if k not in desc.gold:
        raise NoGoldForK(k)
    counts = {t.id: 0 for t in desc.triples}
    for gold in desc.gold[k]:
        for tid in gold.triple_ids:
            counts[tid] += 1
    return counts


def oracle_summary(desc: EntityDescription, k: int) -> set[int]:
    """The k triples appearing most frequently across the gold summaries,
    ties resolved toward lower triple ids."""
    counts = gold_membership_counts(desc, k)
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return {tid for tid, _ in ranked[:k]}


@dataclass(frozen=True)
class EvalReport:
    """Per-entity and mean F1 for one fold's test set."""

    per_entity_f1: Mapping[str, float]
    mean_f1: float
    fold_index: int
    chosen_epoch: int


def make_report(
    per_entity_f1: Mapping[str, float], fold_index: int, chosen_epoch: int
) -> EvalReport:
    values = list(per_entity_f1.values())
    mean = sum(values) / len(values) if values else 0.0
    return EvalReport(dict(per_entity_f1), mean, fold_index, chosen_epoch)


@dataclass(frozen=True)
class SignificanceResult:
    t_statistic: float
    p_value: float
    n_pairs: int


def paired_ttest(a: Sequence[float], b: Sequence[float]) -> SignificanceResult:
    """Two-tailed paired t-test on per-entity scores.

    The statistic is mean(d) / (sd(d) / sqrt(n)) with the sample standard
    deviation of the pairwise differences; the p-value comes from the
    Student-t distribution with n - 1 degrees of freedom.  Identical samples
    give t = 0, p = 1; zero variance with a nonzero mean difference has no
    finite statistic and raises.
    """
    if len(a) != len(b):
        raise LengthMismatch(f"sample sizes differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise LengthMismatch(f"need at least 2 pairs, got {n}")
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    mean = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return SignificanceResult(0.0, 1.0, n)
        raise DegenerateVariance(
            f"all {n} differences equal {mean}; t statistic undefined"
        )
    t = mean / (sd / np.sqrt(n))
    p = 2.0 * float(stats.t.sf(abs(t), df=n - 1))
    return SignificanceResult(float(t), p, n)


def format_significance(result: SignificanceResult) -> str:
    return f"t={result.t_statistic:.6g}, p={result.p_value:.6g}, n={result.n_pairs}"


# --------------------------------------------------------------------------
# deterministic report files
# --------------------------------------------------------------------------

def write_per_entity_tsv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """One row per test entity: fold index, entity IRI, F1 at full precision."""
    lines = ["fold\tentity\tf1"]
    for report in reports:
        for iri, f1 in report.per_entity_f1.items():
            lines.append(f"{report.fold_index}\t{iri}\t{float(f1)!r}")
    with atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_per_entity_tsv(path: str | Path) -> dict[str, float]:
    """Entity to F1 from a ``write_per_entity_tsv`` file, for significance
    comparisons between two runs.  The file may come from anywhere, so each
    row must have three fields, an F1 in [0, 1], and an entity not seen on
    an earlier row."""
    result: dict[str, float] = {}
    seen_on: dict[str, int] = {}
    lines = read_text(path).splitlines()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise ParseError(
                line_no, f"{len(fields)} tab-separated fields in {path}, expected 3"
            )
        _, iri, f1_text = fields
        try:
            f1 = float(f1_text)
        except ValueError:
            raise ParseError(line_no, f"non-numeric F1 {f1_text!r} in {path}") from None
        if not 0.0 <= f1 <= 1.0:  # also rejects nan
            raise ParseError(line_no, f"F1 {f1_text!r} in {path} is outside [0, 1]")
        if iri in seen_on:
            raise DataError(
                f"{path}: entity {iri} appears on line {seen_on[iri]} and line {line_no}"
            )
        seen_on[iri] = line_no
        result[iri] = f1
    return result


def write_aggregate_json(
    dataset: str,
    k: int,
    reports: Sequence[EvalReport],
    path: str | Path,
) -> None:
    all_f1 = [f1 for r in reports for f1 in r.per_entity_f1.values()]
    doc = {
        "dataset": dataset,
        "k": k,
        "folds": [
            {
                "fold": r.fold_index,
                "chosen_epoch": r.chosen_epoch,
                "mean_f1": r.mean_f1,
                "entities": len(r.per_entity_f1),
            }
            for r in reports
        ],
        "mean_f1": sum(all_f1) / len(all_f1) if all_f1 else 0.0,
        "entities": len(all_f1),
    }
    with atomic_writer(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
