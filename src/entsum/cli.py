"""Command-line entry point.

Commands: ``ingest`` validates a manifest, ``filter-vectors`` writes the
vectors of a manifest's words as a vector store, ``train`` runs
cross-validation and writes checkpoints plus reports, ``evaluate`` re-scores
saved checkpoints (or the frequency oracle), and ``summarize`` prints one entity's summary.

Exit codes: 0 success, 1 usage error, 2 data error (also an input that
cannot be read or an output that cannot be written), 3 numeric failure
(also a non-finite score).  Each failure prints one line on stderr, with
every control character of its message written as ``\\xNN``.
All randomness funnels through ``--seed``; rerunning a command with the
same inputs and seed reproduces its output files byte for byte.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable

from . import evaluation
from .dataset import DatasetManifest, load_manifest
from .embeddings import (
    EmbeddingStore,
    coverage_warnings,
    load_vec_file,
    manifest_vocabulary,
    save_vec_file,
)
from .errors import DataError, NumericError
from .esbm import load_esbm
from .model import (
    ModelConfig,
    TripleScorer,
    load_checkpoint,
    save_checkpoint,
    select_summary,
)
from .training import (
    CrossValReport,
    EarlyStopMetric,
    TrainConfig,
    cross_validate,
    evaluate_fold,
    oracle_reports,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


# C0 and C1 control characters and DEL, which could break a message's one
# line or send the terminal an escape sequence
_CONTROL_ESCAPES = {c: f"\\x{c:02x}" for c in (*range(0x20), *range(0x7F, 0xA0))}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep our codes
        raise UsageError(message)


def _at_least(minimum: int) -> Callable[[str], int]:
    """A parser of integers of at least ``minimum``: 1 for ``--k`` and
    ``--max-epochs``, 0 for ``--seed``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _learning_rate(text: str) -> float:
    """A finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text}")
    return value


def _add_manifest_args(p: argparse.ArgumentParser):
    p.add_argument("--manifest", type=Path, help="JSON manifest path")
    p.add_argument("--esbm", type=Path, help="root of an ESBM-style benchmark tree")
    p.add_argument(
        "--esbm-collection",
        choices=["all", "dbpedia", "lmdb"],
        default="all",
        help="which collection to load from an ESBM tree",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="entsum", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load and validate a dataset")
    _add_manifest_args(p)
    p.add_argument("--vectors", type=Path, help="optional vector file for coverage warnings")

    p = sub.add_parser("filter-vectors", help="restrict a vector file to a dataset's vocabulary")
    _add_manifest_args(p)
    p.add_argument("--vectors", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="vector store to write")

    p = sub.add_parser("train", help="cross-validate and write checkpoints and reports")
    _add_manifest_args(p)
    p.add_argument("--vectors", type=Path, required=True)
    p.add_argument(
        "--k", type=_at_least(1), default=5, help="summary size budget (5 or 10 on the benchmark)"
    )
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--max-epochs", type=_at_least(1), default=50)
    p.add_argument("--lr", type=_learning_rate, default=0.01)
    p.add_argument("--early-stop", choices=["f1", "loss"], default="f1")

    p = sub.add_parser("evaluate", help="re-evaluate saved checkpoints or the oracle baseline")
    _add_manifest_args(p)
    p.add_argument("--vectors", type=Path)
    p.add_argument("--k", type=_at_least(1), default=5)
    p.add_argument("--checkpoints", type=Path, help="directory with fold<i>.ckpt files")
    p.add_argument("--oracle", action="store_true", help="evaluate the gold-frequency baseline")
    p.add_argument("--out", type=Path, help="output directory for reports")
    p.add_argument(
        "--compare", type=Path,
        help="per-entity TSV of another run; prints a paired significance test",
    )

    p = sub.add_parser("summarize", help="print the top-k triples of one entity")
    _add_manifest_args(p)
    p.add_argument("--vectors", type=Path, required=True)
    p.add_argument("--k", type=_at_least(1), default=5)
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--entity", required=True, help="IRI of the entity to summarize")
    return parser


def _load_dataset(args: argparse.Namespace) -> DatasetManifest:
    if args.manifest is not None and args.esbm is not None:
        raise UsageError("give either --manifest or --esbm, not both")
    if args.manifest is not None:
        return load_manifest(args.manifest)
    if args.esbm is not None:
        return load_esbm(args.esbm, args.esbm_collection)
    raise UsageError("one of --manifest or --esbm is required")


def _load_store(args: argparse.Namespace, manifest: DatasetManifest) -> EmbeddingStore:
    """The vectors of the dataset's words in ``--vectors``: one at least,
    since a width that no row bears out would size the model."""
    if args.vectors is None:
        raise UsageError("--vectors is required for this command")
    store = load_vec_file(args.vectors, vocab=manifest_vocabulary(manifest))
    if len(store) == 0:
        raise DataError(f"{args.vectors}: no vector for any word of the dataset")
    return store


def _load_scorer(path: Path, store: EmbeddingStore, k: int) -> tuple[TripleScorer, dict]:
    """A checkpoint that fits this run: its embedding width must match the
    vector file, and the summary size it was trained for, if stored, ``--k``."""
    model, meta = load_checkpoint(path)
    if model.config.embed_dim != store.dim:
        raise DataError(
            f"{path}: checkpoint embed_dim {model.config.embed_dim} does not match "
            f"the {store.dim}-dimensional vectors"
        )
    trained_k = meta.get("k", k)
    if type(trained_k) is not int:
        raise DataError(f"{path}: k {trained_k!r} is not an integer")
    if trained_k != k:
        raise DataError(f"{path}: checkpoint was trained for k={trained_k}, not --k {k}")
    return model, meta


def cmd_ingest(args: argparse.Namespace) -> int:
    manifest = _load_dataset(args)
    warnings = (coverage_warnings(manifest, _load_store(args, manifest))
                if args.vectors is not None else [])
    print(
        f"{len(manifest.entities)} entities, {manifest.triple_count} triples, "
        f"{manifest.gold_count} golds"
    )
    print(f"folds: {len(manifest.folds)}")
    for warning in warnings:
        print(f"warning: {warning}")
    return EXIT_OK


def cmd_filter_vectors(args: argparse.Namespace) -> int:
    manifest = _load_dataset(args)
    store = _load_store(args, manifest)
    save_vec_file(store, args.out)
    print(f"kept {len(store)} of {len(manifest_vocabulary(manifest))} vocabulary words "
          f"-> {args.out}")
    return EXIT_OK


def _write_reports(report_dir: Path, dataset: str, k: int, reports) -> None:
    report_dir.mkdir(parents=True, exist_ok=True)
    evaluation.write_per_entity_tsv(reports, report_dir / "per_entity.tsv")
    evaluation.write_aggregate_json(dataset, k, reports, report_dir / "aggregate.json")


def cmd_train(args: argparse.Namespace) -> int:
    manifest = _load_dataset(args)
    store = _load_store(args, manifest)
    model_cfg = ModelConfig(embed_dim=store.dim, seed=args.seed)
    train_cfg = TrainConfig(
        k=args.k,
        lr=args.lr,
        max_epochs=args.max_epochs,
        seed=args.seed,
        early_stop_metric=EarlyStopMetric(args.early_stop),
    )
    out = args.out
    out.mkdir(parents=True, exist_ok=True)  # an unwritable --out fails before training
    outcome: CrossValReport = cross_validate(manifest, model_cfg, train_cfg, store)
    for fold, result in zip(manifest.folds, outcome.results):
        save_checkpoint(
            result.model,
            out / f"fold{fold.index}.ckpt",
            meta={"chosen_epoch": result.chosen_epoch, "k": args.k, "fold": fold.index},
        )
    _write_reports(out, manifest.name, args.k, outcome.reports)
    for report in outcome.reports:
        print(
            f"fold {report.fold_index}: mean F1 {report.mean_f1:.4f} "
            f"(epoch {report.chosen_epoch}, {len(report.per_entity_f1)} entities)"
        )
    print(f"overall mean F1 {outcome.mean_f1:.4f}")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = _load_dataset(args)
    if args.oracle:
        reports = oracle_reports(manifest, args.k)
    else:
        if args.checkpoints is None:
            raise UsageError("evaluate needs --checkpoints or --oracle")
        store = _load_store(args, manifest)
        reports = []
        for fold in manifest.folds:
            path = args.checkpoints / f"fold{fold.index}.ckpt"
            model, meta = _load_scorer(path, store, args.k)
            trained_fold = meta.get("fold", fold.index)
            if type(trained_fold) is not int or trained_fold != fold.index:
                raise DataError(
                    f"{path}: checkpoint was trained for fold {trained_fold!r}, "
                    f"not fold {fold.index}"
                )
            chosen = meta.get("chosen_epoch", 0)
            if type(chosen) is not int or chosen < 0:
                raise DataError(f"{path}: chosen_epoch {chosen!r} is not an integer >= 0")
            reports.append(evaluate_fold(model, manifest, fold, args.k, store, chosen))
    # the other run is read and tested before anything is printed or
    # written, so a bad --compare file leaves no partial output
    all_f1 = {iri: f1 for r in reports for iri, f1 in r.per_entity_f1.items()}
    lines = []
    if args.compare is not None:
        other = evaluation.read_per_entity_tsv(args.compare)
        shared = sorted(set(all_f1) & set(other))
        result = evaluation.paired_ttest(
            [all_f1[iri] for iri in shared], [other[iri] for iri in shared]
        )
        lines = [
            f"paired {len(shared)} shared entities; left out {len(all_f1) - len(shared)} "
            f"of this run and {len(other) - len(shared)} of {args.compare}",
            evaluation.format_significance(result),
        ]
    if args.out is not None:
        _write_reports(args.out, manifest.name, args.k, reports)
    label = "oracle" if args.oracle else "model"
    print(f"{label} mean F1 {evaluation.pooled_mean_f1(reports):.4f} over {len(all_f1)} entities")
    for line in lines:
        print(line)
    return EXIT_OK


def cmd_summarize(args: argparse.Namespace) -> int:
    manifest = _load_dataset(args)
    store = _load_store(args, manifest)
    model, _ = _load_scorer(args.checkpoint, store, args.k)
    desc = manifest.entity(args.entity)
    scored = model.score_entity(desc, store)
    selected = select_summary(scored, args.k)
    n = len(desc.triples)
    print(f"{desc.entity.raw}: top {len(selected)} of {n} triples")
    for tid in selected:
        t = desc.triples[tid]
        weights = sorted(
            scored.attention.row(tid).items(), key=lambda item: (-item[1], item[0])
        )
        top_ctx = ", ".join(f"{ctx}:{w:.3f}" for ctx, w in weights[:3])
        print(
            f"  [{tid}] score={scored.scores[tid]:.4f} "
            f"{t.prop.raw} -> {t.val.raw} (attends to {top_ctx})"
        )
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "filter-vectors": cmd_filter_vectors,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "summarize": cmd_summarize,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        return _fail("usage error", exc, EXIT_USAGE)
    except (DataError, OSError) as exc:
        return _fail("error", exc, EXIT_DATA)
    except NumericError as exc:
        return _fail("numeric error", exc, EXIT_NUMERIC)


def _fail(kind: str, exc: Exception, code: int) -> int:
    message = str(exc).translate(_CONTROL_ESCAPES)
    # a lone surrogate, say from a JSON "\ud800" escape, encodes in no stream
    message = message.encode("utf-8", "backslashreplace").decode("utf-8")
    print(f"{kind}: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
