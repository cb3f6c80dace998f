"""In-memory spans and counters around the package's public calls.

``Tracer.install`` replaces each traced function at the name its callers
resolve (a module attribute or a ``TripleScorer`` method) with a wrapper that
records a span, and ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.  A span is (name, start, end, parent, run id); the spans of
one command share a run id and nest under that command's ``cli`` span, so a
layer's self time is its span time minus the time of the spans it caused,
and the self times of one command add up to the command's traced wall time.
The benchmark's own checks and counting run in ``bench`` spans, which are
left out of the command's time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from entsum import dataset, embeddings, esbm, evaluation, model, training

ROOT_SPAN = "cli"
BENCH_SPAN = "bench"  # the benchmark's own work inside a command; not command time


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    spans = list(spans)
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    totals: dict[str, float] = {}
    for s, t in zip(spans, own):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return totals


def tree_failures(spans: list[Span]) -> list[str]:
    """Each command must be one tree: a single ``cli`` root per run id, and
    every span closed and inside its parent.  An unclosed or stray span
    would drop time from the command's self times."""
    roots = Counter(s.run_id for s in spans if s.parent is None)
    strays = sorted({s.name for s in spans if s.parent is None} - {ROOT_SPAN})
    failures = []
    if strays or any(n != 1 for n in roots.values()):
        failures.append(f"traced commands are not single cli trees: roots {dict(roots)}, strays {strays}")
    for s in spans:
        parent = spans[s.parent] if s.parent is not None else s
        if not parent.start <= s.start <= s.end <= parent.end:
            failures.append(f"span {s.name} of {s.run_id} is unclosed or outside its parent")
            break
    return failures


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.entities: set[str] = set()
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(len(self.spans) - 1)

    def end(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def wrap(self, name: str | None, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` inside a span called ``name`` (no span for None), then
        ``count(tracer, args, result)``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
                count(self, args, result)
                return result
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if count is not None:
                count(self, args, result)
            return result
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, count in _TARGETS:
            original = getattr(owner, attr)  # AttributeError names a renamed target
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")


def _count_statements(tr: Tracer, args, result) -> None:
    tr.counts["dataset.statements"] += len(result)


def _count_vec(tr: Tracer, args, result) -> None:
    tr.counts["embeddings.vec_loads"] += 1
    tr.counts["embeddings.vec_kept"] += len(result)


def _count_encode(tr: Tracer, args, result) -> None:
    tr.counts["model.encode_calls"] += 1
    tr.entities.add(args[0].entity.raw)


def _count_loss_grad(tr: Tracer, args, result) -> None:
    tr.counts["model.loss_grad_calls"] += 1
    tr.counts["model.loss_grad_pairs"] += len(args[1]) ** 2


def _count_score(tr: Tracer, args, result) -> None:
    tr.counts["model.score_calls"] += 1
    tr.counts["model.score_pairs"] += len(args[2]) ** 2


def _count_ckpt_save(tr: Tracer, args, result) -> None:
    tr.counts["model.ckpt_bytes"] += Path(args[1]).stat().st_size


def _count_adam(tr: Tracer, args, result) -> None:
    tr.counts["nn.adam_steps"] += 1


def _count_train_fold(tr: Tracer, args, result) -> None:
    tr.counts["training.folds"] += 1
    tr.counts["training.chosen_epoch_sum"] += result.chosen_epoch


def _count_validate(tr: Tracer, args, result) -> None:
    tr.counts["training.epochs"] += 1


def _count_f1(tr: Tracer, args, result) -> None:
    tr.counts["evaluation.f1_calls"] += 1


def _count_report(tr: Tracer, args, result) -> None:
    tr.counts["evaluation.report_bytes"] += Path(args[-1]).stat().st_size


# (owner, attribute, span name, counter); one span name may cover several
# call sites of the same function.  The parser is counted but gets no span,
# so its time stays in the loader that calls it.
_TARGETS = [
    (esbm, "load_esbm", "esbm.load", None),
    (dataset, "parse_statements", None, _count_statements),
    (embeddings, "load_vec_file", "embeddings.vec_load", _count_vec),
    (embeddings, "manifest_vocabulary", "embeddings.vocab", None),
    (embeddings, "save_vec_file", "embeddings.vec_save", None),
    (embeddings, "coverage_warnings", "embeddings.coverage", None),
    (model, "encode_description", "model.encode", _count_encode),
    (training, "encode_description", "model.encode", _count_encode),
    (model.TripleScorer, "loss_and_gradients", "model.loss_grad", _count_loss_grad),
    (model.TripleScorer, "score_description", "model.score", _count_score),
    (model, "select_summary", "model.select", None),
    (training, "select_summary", "model.select", None),
    (model, "save_checkpoint", "model.ckpt_save", _count_ckpt_save),
    (model, "load_checkpoint", "model.ckpt_load", None),
    (training, "adam_step", "nn.adam", _count_adam),
    (training, "train_fold", "training.train_fold", _count_train_fold),
    (training, "_validation_metric", "training.validate", _count_validate),
    (training, "f1_against_golds", "evaluation.f1", _count_f1),
    (evaluation, "f1_against_golds", "evaluation.f1", _count_f1),
    (evaluation, "write_per_entity_tsv", "evaluation.report_write", _count_report),
    (evaluation, "write_aggregate_json", "evaluation.report_write", _count_report),
]
