"""Benchmark runner for entsum.

Run from the root of a source checkout (the directory holding ``src/entsum``)::

    python3 bench/run.py --workload cv-esbm --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from ``--seed`` under ``.bench_work/``,
repeats the workload's command for about ``--seconds`` seconds, checks every
command's outputs and prints one line per figure.  The last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``wall_s``: command time (see ``median_steps``).
- ``setup_s``: median time to load the dataset, the vectors and any
  checkpoints, over two set-ups per command (see ``run_commands``).
- ``peak_rss_mb``: the process's peak resident set.

Both times are gauge-calibrated.  Each step of a command is divided by the
time of a fixed gauge computation run next to it (``workloads.gauge``) and
multiplied by ``workloads.GAUGE_S``: the times read as seconds on an idle
core of the reference machine.  This cancels the drift in machine speed that
a shared host shows for tens of seconds and more at a time, which moves raw
times by up to 2x between runs.  The raw stopwatch medians are printed beside
them as ``wall_s_raw`` and ``setup_s_raw``.

With ``--trace 1`` a run alternates untraced and traced commands and the
metrics are the per-layer ones: each layer's self time and counts per traced
command (see ``spans``).  Spans and a result record go to ``.bench_out/``.
The run fails with exit code 2, printing no result, when the package source
is not there.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

HERE = Path(__file__).resolve().parent
MIN_COMMANDS = 3          # untraced commands in an untraced run
MIN_TRACED = 2            # untraced and traced commands each in a traced run

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")

# per-layer self time -> span
LAYER_TIMES = {
    "esbm.load_s": "esbm.load",
    "embeddings.vec_load_s": "embeddings.vec_load",
    "embeddings.vocab_s": "embeddings.vocab",
    "embeddings.vec_save_s": "embeddings.vec_save",
    "embeddings.coverage_s": "embeddings.coverage",
    "model.encode_s": "model.encode",
    "model.loss_grad_s": "model.loss_grad",
    "model.score_s": "model.score",
    "model.select_s": "model.select",
    "model.ckpt_save_s": "model.ckpt_save",
    "model.ckpt_load_s": "model.ckpt_load",
    "nn.adam_s": "nn.adam",
    "training.train_fold_self_s": "training.train_fold",
    "training.validate_s": "training.validate",
    "evaluation.f1_s": "evaluation.f1",
    "evaluation.report_write_s": "evaluation.report_write",
    "cli.self_s": "cli",
}
# per-layer count -> unit
LAYER_COUNTS = {
    "dataset.statements": "count",
    "model.encode_calls": "count",
    "model.loss_grad_calls": "count",
    "model.loss_grad_pairs": "count",
    "model.score_calls": "count",
    "model.score_pairs": "count",
    "model.ckpt_bytes": "B",
    "nn.adam_steps": "count",
    "training.epochs": "count",
    "evaluation.f1_calls": "count",
    "evaluation.report_bytes": "B",
}
LAYER_DERIVED = ("embeddings.vec_lines", "embeddings.vec_kept_ratio", "model.encode_reuse",
                 "training.chosen_epoch", "traced_wall_s", "tracing_overhead_s")
PER_LAYER = (*LAYER_TIMES, *LAYER_COUNTS, *LAYER_DERIVED)


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
    }


def run_commands(wl, inputs, seconds: float, trace: bool):
    """Repeat the workload's command for about ``seconds``; with ``trace``,
    every second command runs with the tracer installed.  Each untraced
    command is followed by one more set-up on its own, so that set-up time
    is sampled twice per command and all through the run."""
    from spans import ROOT_SPAN, Tracer
    from workloads import Clock

    tracer = Tracer() if trace else None
    plain, traced, errors, setups = [], [], [], []
    start = perf_counter()
    rep = 0
    while True:
        traced_rep = trace and rep % 2 == 1
        out = inputs.work / "out" / f"rep{rep}"
        t0 = perf_counter()
        if traced_rep:
            tracer.run_id = f"{wl.name}/seed{inputs.ref['seed']}/rep{rep}"
            tracer.install()
            clock = Clock(tracer)
            tracer.begin(ROOT_SPAN)
        else:
            clock = Clock()
        try:
            outcome = wl.command(inputs, clock, out)
        except Exception:  # a failing command is a failed operation, not a crash
            errors.append(traceback.format_exc())
            outcome = None
        finally:
            if traced_rep:
                tracer.end()
                tracer.uninstall()
        shutil.rmtree(out, ignore_errors=True)
        if outcome is not None and traced_rep:
            traced.append(outcome)
        elif outcome is not None:
            plain.append(outcome)
            clock = Clock()
            wl.setup(inputs, clock)
            setups += [(outcome.setup_s, outcome.setup_units), (clock.now(), clock.units())]
        rep += 1
        took = perf_counter() - t0
        enough = (min(len(plain), len(traced)) >= MIN_TRACED if trace
                  else len(plain) >= MIN_COMMANDS)
        if (enough and perf_counter() - start + took > seconds) or len(errors) >= MIN_COMMANDS:
            return plain, traced, errors, setups, tracer


def median_steps(outcomes) -> float:
    """A command's time in gauge units: the sum over its steps of each step's
    median across the repeated commands.  Every repetition does the same
    work step for step; taking the median per step discards a step whose
    gauge missed a change of machine speed in the middle of it."""
    labels = [label for label, _, _ in outcomes[0].steps]
    if any([label for label, _, _ in o.steps] != labels for o in outcomes):
        raise ValueError("repeated commands took different steps")
    return sum(statistics.median(o.steps[i][2] for o in outcomes) for i in range(len(labels)))


def layer_metrics(wl, inputs, tracer, traced, plain) -> tuple[dict, list[str]]:
    from spans import BENCH_SPAN, ROOT_SPAN, self_times, tree_failures
    from workloads import GAUGE_S

    reps = len(traced)
    own = self_times(tracer.spans)
    counts = tracer.counts
    metrics = {name: (own.get(span, 0.0) / reps, "s") for name, span in LAYER_TIMES.items()}
    metrics.update({name: (counts[name] / reps, unit) for name, unit in LAYER_COUNTS.items()})
    # every load reads the generated file, whose vector lines the generator counted
    lines = counts["embeddings.vec_loads"] * inputs.vec_info.lines
    calls = counts["model.encode_calls"]
    folds = counts["training.folds"]
    metrics["embeddings.vec_lines"] = (lines / reps, "count")
    metrics["embeddings.vec_kept_ratio"] = (counts["embeddings.vec_kept"] / lines if lines else 0.0, "ratio")
    metrics["model.encode_reuse"] = (len(tracer.entities) * reps / calls if calls else 0.0, "ratio")
    metrics["training.chosen_epoch"] = (counts["training.chosen_epoch_sum"] / folds if folds else 0.0, "epoch")
    # a traced command's wall time is its cli span less the benchmark's checks
    walls: dict[str, float] = {}
    for s in tracer.spans:
        if s.name in (ROOT_SPAN, BENCH_SPAN):
            sign = 1.0 if s.name == ROOT_SPAN else -1.0
            walls[s.run_id] = walls.get(s.run_id, 0.0) + sign * (s.end - s.start)
    traced_wall = statistics.fmean(walls.values())
    metrics["traced_wall_s"] = (traced_wall, "s")
    # gauge-calibrated, like wall_s, so that a change of machine speed between
    # the traced and the untraced commands does not show as overhead
    metrics["tracing_overhead_s"] = (GAUGE_S * (median_steps(traced) - median_steps(plain)), "s")

    failures = []
    fired = {s.name for s in tracer.spans}
    for span in sorted(wl.spans - fired):
        failures.append(f"span {span} never fired")
    unreported = fired - set(LAYER_TIMES.values()) - {BENCH_SPAN}
    if unreported:
        failures.append(f"spans without a metric: {sorted(unreported)}")
    failures += tree_failures(tracer.spans)
    return metrics, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"

    root = Path.cwd()
    src = root / "src"
    if not (src / "entsum" / "__init__.py").is_file():
        print(f"error: no package source at {src / 'entsum'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import entsum
    if Path(entsum.__file__).resolve().parent != (src / "entsum").resolve():
        print(f"error: imported entsum from {entsum.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import GAUGE_S, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    env = environment(root)
    print("environment " + json.dumps(env, sort_keys=True))
    work = root / ".bench_work" / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        t0 = perf_counter()
        inputs = wl.prepare(work, args.seed)
        inputs.ref["seed"] = args.seed
        gen_s = perf_counter() - t0
        plain, traced, errors, setups, tracer = run_commands(
            wl, inputs, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    outcomes = plain + traced
    attempted = sum(o.attempted for o in outcomes) + len(errors)
    failures = [f for o in outcomes for f in o.failures]
    failures += [err.strip().splitlines()[-1] for err in errors]
    for err in errors:
        print(err, file=sys.stderr)

    info = {
        "gen_s": (gen_s, "s"),
        "commands": (len(plain), "count"),
    }
    if plain:
        info.update(wl.stats(inputs, plain))
    if args.trace:
        if traced and plain:
            metrics, span_failures = layer_metrics(wl, inputs, tracer, traced, plain)
        else:
            metrics, span_failures = {}, ["no traced command completed"]
        failures += span_failures
        tracer.write(out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl")
    else:
        metrics = {}
        if plain:
            metrics["setup_s"] = (GAUGE_S * statistics.median(u for _, u in setups), "s")
            info["setup_s_raw"] = (statistics.median(s for s, _ in setups), "s")
            try:
                metrics["wall_s"] = (GAUGE_S * median_steps(plain), "s")
            except ValueError as exc:
                failures.append(str(exc))
            info["wall_s_raw"] = (statistics.median(o.wall_s for o in plain), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    expected = set(PER_LAYER if args.trace else END_TO_END)
    if set(metrics) != expected:
        failures.append(f"missing metrics {sorted(expected - set(metrics))}")
    attempted = max(attempted, 1)
    failed = min(len(failures), attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info["failed_share"] = (failed / attempted, "ratio")
    for name, (value, unit) in {**info, **metrics}.items():
        print(f"{wl.name} {name} {value:.6g} {unit}")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "failures": failures,
              "commands": [{"setup_s": o.setup_s, "wall_s": o.wall_s, "steps": o.steps} for o in plain],
              "info": {k: {"value": v, "unit": u} for k, (v, u) in info.items()}, **result}
    (out_dir / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
