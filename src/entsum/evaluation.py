"""F1 scoring against multiple gold summaries, the frequency-oracle
baseline, paired significance testing, and report serialization.

A machine summary is compared with each human summary separately
(precision, recall, F1) and the per-summary F1 values are averaged, then
averaged again over entities.  Reports serialize deterministically: fixed
key order, repr-precision floats, no timestamps.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .atomic import atomic_writer
from .dataset import EntityDescription, GoldSummary, read_text
from .errors import DataError, ParseError


def f1_against_golds(summary: Iterable[int], golds: Sequence[GoldSummary]) -> float:
    """Mean F1 of one machine summary against every gold summary."""
    selected = set(summary)
    if not selected:
        raise DataError("cannot evaluate an empty summary")
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
        raise DataError(f"no ground-truth summaries for k={k}")
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


def pooled_mean_f1(reports: Sequence[EvalReport]) -> float:
    """Mean F1 over every test entity of every report, 0.0 for none."""
    all_f1 = [f1 for r in reports for f1 in r.per_entity_f1.values()]
    return sum(all_f1) / len(all_f1) if all_f1 else 0.0


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
        raise DataError(f"sample sizes differ: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise DataError(f"need at least 2 pairs, got {n}")
    diffs = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    mean = float(np.mean(diffs))
    sd = float(np.std(diffs, ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            return SignificanceResult(0.0, 1.0, n)
        raise DataError(f"all {n} differences equal {mean}; t statistic undefined")
    t = float(mean / (sd / np.sqrt(n)))
    return SignificanceResult(t, _two_sided_t_p(t, n - 1), n)


def _two_sided_t_p(t: float, df: int) -> float:
    """P(|T| >= |t|) for Student's t with ``df`` degrees of freedom: the
    regularized incomplete beta I_x(df/2, 1/2) at x = df / (df + t^2),
    from the ``I_x(a, b) = 1 - I_{1-x}(b, a)`` side on which its continued
    fraction converges fast (Numerical Recipes, section 6.4)."""
    t2 = t * t
    x = df / (df + t2)
    if x == 0.0:  # t^2 overflowed, so p is below 1e-154
        return 0.0
    y = t2 / (df + t2)  # 1 - x without its rounding error
    if y == 0.0:
        return 1.0
    a, b = df / 2.0, 0.5
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300  # stands in for a zero denominator
    c, d = 1.0, 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, 1000):  # df up to 1e13 needs under 140 terms
        for coef in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return h


def format_significance(result: SignificanceResult) -> str:
    return f"t={result.t_statistic:.6g}, p={result.p_value:.6g}, n={result.n_pairs}"


# --------------------------------------------------------------------------
# deterministic report files
# --------------------------------------------------------------------------

PER_ENTITY_HEADER = "fold\tentity\tf1"


def write_per_entity_tsv(reports: Sequence[EvalReport], path: str | Path) -> None:
    """One row per test entity: fold index, entity IRI, F1 at full precision."""
    lines = [PER_ENTITY_HEADER]
    for report in reports:
        for iri, f1 in report.per_entity_f1.items():
            lines.append(f"{report.fold_index}\t{iri}\t{float(f1)!r}")
    with atomic_writer(path) as fh:
        fh.write("\n".join(lines) + "\n")


def read_per_entity_tsv(path: str | Path) -> dict[str, float]:
    """Entity to F1 from a ``write_per_entity_tsv`` file, for significance
    comparisons between two runs.  The file may come from anywhere, so line 1
    must be the header, and each row must have three fields, an F1 in [0, 1],
    and an entity not seen on an earlier row."""
    result: dict[str, float] = {}
    seen_on: dict[str, int] = {}
    lines = read_text(path).splitlines()
    if not lines or lines[0] != PER_ENTITY_HEADER:
        raise ParseError(1, f"{path} does not start with the header {PER_ENTITY_HEADER!r}")
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
        "mean_f1": pooled_mean_f1(reports),
        "entities": sum(len(r.per_entity_f1) for r in reports),
    }
    with atomic_writer(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
