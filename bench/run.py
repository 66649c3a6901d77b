"""Benchmark of emvalm: desk-scale partial-information, desk-scale regime and
block-resampling workloads, timed end to end and, in a separate traced run,
layer by layer.

    python3 bench/run.py --workload desk_partial --seed 1 --seconds 30 --trace 0

A single process runs one client in a closed loop: it repeats the workload's
operations (see ``workloads.py``) until the next repetition would end past
``--seconds``, and reports medians over repetitions, the first (warm-up)
repetition left out.  ``--trace 0`` prints the end-to-end metrics, with
every timing scaled to the reference host speed measured around it (see
``gauge.py``) and the raw median beside it; ``--trace 1`` alternates
untraced and traced repetitions at one seed and prints per-span calls, raw
total and self time, the exact work counts and the tracing overhead (on
scaled ``wall_s``).  Human-readable lines come
first; the last line of standard output is one JSON object.  The exit code
is 0 only when every operation passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 21
# numpy is imported inside functions, after main() has capped these
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "train_iters_per_s": "1/s",
    "eval_paths_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNT_UNITS = {
    "rl.critic_expansions_per_iter": "count",
    "rl.actor_expansions_per_iter": "count",
    "closed_form.policy_at_calls_per_eval": "count",
    "rl.features_calls_per_eval": "count",
    "market.streams_per_path": "count",
    "market.skewed_t_variates": "count",
    "market.normal_variates": "count",
    "cli.checkpoint_bytes": "B",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk_partial", "desk_regime", "empirical_blocks"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def rep_seeds(seed: int, rep: int) -> tuple[int, int]:
    """(training seed, evaluation seed) of one repetition."""
    import numpy as np

    train, evaluation = np.random.SeedSequence([seed, rep]).generate_state(2)
    return int(train), int(evaluation)


def environment(nproc: int) -> dict:
    import numpy as np

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "not installed"

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    revision = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": revision,
    }


def measure_setup(workload, inputs, gauge):
    """Set-up seconds at the reference speed; each repeat re-imports the package."""
    from gauge import REFERENCE_S

    times = []
    for _ in range(SETUP_REPEATS):
        speed = gauge.seconds()
        start = perf_counter()
        ctx = workload.setup(inputs)
        elapsed = perf_counter() - start
        times.append(elapsed * REFERENCE_S / ((speed + gauge.seconds()) / 2.0))
    loaded = Path(ctx.api["cli"].__file__).resolve()
    if SOURCE.resolve() not in loaded.parents:
        raise RuntimeError(f"imported emvalm from {loaded}, not from {SOURCE}")
    return times, ctx


def run_rep(workload, ctx, seeds, repdir, gauge, tracer=None):
    """One repetition: timed operations first, then the untimed correctness gate."""
    repdir.mkdir(parents=True)
    ops = workload.run_rep(ctx, seeds, repdir, tracer, gauge)
    workload.check(ops, ctx, repdir)
    shutil.rmtree(repdir)
    return ops


def rep_metrics(ops, seconds) -> dict:
    """A repetition's end-to-end figures from its operations' ``seconds(op)``."""
    train = [op for op in ops if op.kind == "train"]
    evals = [op for op in ops if op.kind == "eval"]
    return {
        "wall_s": sum(seconds(op) for op in ops),
        "train_iters_per_s": sum(op.work for op in train) / sum(seconds(op) for op in train),
        "eval_paths_per_s": sum(op.work for op in evals) / sum(seconds(op) for op in evals),
    }


def exact_counts(ops) -> dict:
    """Work counts of one traced repetition; they repeat exactly at a given seed."""
    from tracing import NORMAL, SKEWED_T

    train = [op for op in ops if op.kind == "train"]
    evals = [op for op in ops if op.kind == "eval"]
    learned = [op for op in evals if op.learned]
    analytic = [op for op in evals if not op.learned]
    iters = sum(op.work for op in train)

    def per(group, count, base):
        return sum(count(op) for op in group) / base if base else 0.0

    return {
        "rl.critic_expansions_per_iter": per(train, lambda o: o.calls["rl._expand_critic"], iters),
        "rl.actor_expansions_per_iter": per(train, lambda o: o.calls["rl._expand_actor"], iters),
        "closed_form.policy_at_calls_per_eval": per(
            analytic, lambda o: o.calls["closed_form._ScheduleTables.policy_at"], len(analytic)),
        "rl.features_calls_per_eval": per(learned, lambda o: o.calls["rl.features"], len(learned)),
        "market.streams_per_path": per(
            evals, lambda o: o.calls["market.stream"], sum(op.work for op in evals)),
        "market.skewed_t_variates": per(train, lambda o: o.variates[SKEWED_T], iters),
        "market.normal_variates": per(train, lambda o: o.variates[NORMAL], iters),
        "cli.checkpoint_bytes": sum(op.checkpoint_bytes for op in train),
    }


class Run:
    """Operations attempted and failed, and every failure message, in this process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ops, label: str) -> bool:
        bad = [op for op in ops if op.error]
        self.attempted += len(ops)
        self.failed += len(bad)
        self.failures += [f"{label} {op.label}: {op.error}" for op in bad]
        return not self.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_run(self, workload, history) -> None:
        """The workload's check over all repetitions of the run."""
        failure = workload.check_run(history)
        if failure:
            self.fail(failure)


def keep_going(start: float, reps: int, seconds: float) -> bool:
    """Start another repetition only if it should end within the time budget."""
    elapsed = perf_counter() - start
    return elapsed + elapsed / reps <= seconds


def measure(workload, ctx, args, workdir, run: Run, gauge) -> tuple[dict, dict]:
    """Per-repetition figures at the reference speed, and as measured."""
    names = ("wall_s", "train_iters_per_s", "eval_paths_per_s")
    values, raw = {name: [] for name in names}, {name: [] for name in names}
    history = []
    start = perf_counter()
    rep = 0
    while True:
        ops = run_rep(workload, ctx, rep_seeds(args.seed, rep), workdir / f"rep{rep}", gauge)
        history.append(ops)
        ok = run.record(ops, f"rep {rep}")
        print(f"rep {rep}: " + ", ".join(
            f"{op.label} {op.seconds:.3f} s{f' ({op.stats})' if op.stats else ''}" for op in ops)
            + f"; reference kernel {1e3 * statistics.mean(op.gauge_s for op in ops):.3f} ms")
        if not ok:
            return {}, {}
        for out, seconds in ((values, lambda op: op.ref_seconds), (raw, lambda op: op.seconds)):
            for name, value in rep_metrics(ops, seconds).items():
                if rep == 1:  # repetition 0 warms up; it counts only when it is the only one
                    out[name].clear()
                out[name].append(value)
        rep += 1
        if not keep_going(start, rep, args.seconds):
            run.check_run(workload, history)
            return values, raw


def measure_traced(workload, ctx, args, workdir, run: Run, gauge):
    """Pairs of (untraced, traced) repetitions at the workload's first seed."""
    from tracing import Tracer

    seeds = rep_seeds(args.seed, 0)
    overhead, span_runs, counts, spans, history = [], [], None, [], []
    start = perf_counter()
    pair = 0
    while True:
        plain = run_rep(workload, ctx, seeds, workdir / f"plain{pair}", gauge)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_rep(workload, ctx, seeds, workdir / f"traced{pair}", gauge, tracer)
        finally:
            left = tracer.restore()
        wall_u, wall_t = (sum(op.ref_seconds for op in ops) for ops in (plain, traced))
        for a, b in zip(plain, traced):
            if not (a.error or b.error) and a.output != b.output:
                b.error = "traced output differs from the untraced output at the same seed"
        if len(plain) != len(traced):
            run.fail(f"pair {pair}: untraced and traced runs did not reach the same operations")
        if left:
            run.fail(f"pair {pair}: tracing wrappers left in place after restore: {left}")
        if tracer.missing:
            print(f"trace targets not found in this revision: {tracer.missing}")
        run.record(plain, f"pair {pair} untraced")
        if not run.record(traced, f"pair {pair} traced"):
            return None
        rep_counts = {
            **exact_counts(traced),
            **{f"{name}.calls": s["calls"] for name, s in tracer.span_stats().items()},
        }
        if counts is not None and rep_counts != counts:
            changed = sorted(k for k in counts if counts[k] != rep_counts[k])
            run.fail(f"pair {pair}: counts changed between traced repetitions: {changed}")
            return None
        counts = rep_counts
        history += [plain, traced]
        overhead.append(wall_t - wall_u)
        span_runs.append(tracer.span_stats())
        spans = tracer.dump()
        print(f"pair {pair}: untraced {wall_u:.3f} s, traced {wall_t:.3f} s, "
              f"{len(tracer.spans)} spans")
        pair += 1
        if not keep_going(start, pair, args.seconds):
            run.check_run(workload, history)
            return overhead, span_runs, counts, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # numpy's own threads, capped at the cores available
        os.environ[var] = str(min(int(os.environ.get(var) or nproc), nproc))
    if not (SOURCE / "emvalm" / "__init__.py").is_file():
        print(f"error: no emvalm sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    from gauge import Gauge
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(nproc)
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    run = Run()
    try:
        inputs = workload.make_inputs(args.seed, workdir)
        gauge = Gauge()
        setup_times, ctx = measure_setup(workload, inputs, gauge)
        if args.trace:
            traced = measure_traced(workload, ctx, args, workdir, run, gauge)
        else:
            values, raw = measure(workload, ctx, args, workdir, run, gauge)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = not run.failures
    print(f"failed_ratio = {run.failed}/{run.attempted} = "
          f"{run.failed / max(run.attempted, 1):.4f} (ratio)")
    metrics = {}
    if not correct:
        for failure in run.failures:
            print(f"FAIL {failure}")
    elif args.trace:
        overhead, span_runs, counts, spans = traced
        for name, unit in COUNT_UNITS.items():
            metrics[name] = {"value": counts[name], "unit": unit}
        for name in span_runs[0]:
            metrics[f"{name}.calls"] = {"value": counts[f"{name}.calls"], "unit": "count"}
            for part in ("total_ms", "self_ms"):
                value = statistics.median(run_[name][part] for run_ in span_runs)
                metrics[f"{name}.{part}"] = {"value": value, "unit": "ms"}
        metrics["trace.overhead_s"] = {"value": statistics.median(overhead), "unit": "s"}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns", "parent"],
                                          "spans": spans}), encoding="utf-8")
        print(f"{len(span_runs)} traced repetitions; spans of the last one in {trace_file}")
        print(f"{'span':44} {'calls':>8} {'total_ms':>11} {'self_ms':>11}")
        for name in sorted(span_runs[0], key=lambda n: -metrics[f"{n}.total_ms"]["value"]):
            print(f"{name:44} {metrics[f'{name}.calls']['value']:>8} "
                  f"{metrics[f'{name}.total_ms']['value']:>11.3f} "
                  f"{metrics[f'{name}.self_ms']['value']:>11.3f}")
        for name in COUNT_UNITS:
            print(f"{name} = {counts[name]} {COUNT_UNITS[name]}")
        print(f"trace.overhead_s = {metrics['trace.overhead_s']['value']:.4f} s "
              f"(median traced minus untraced wall_s over {len(overhead)} pairs)")
    else:
        values["setup_s"] = setup_times
        values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
        for name, unit in END_TO_END_UNITS.items():
            samples = values[name]
            metrics[name] = {"value": statistics.median(samples), "unit": unit}
            note = f"; as measured {statistics.median(raw[name]):.6g}" if name in raw else ""
            print(f"{name} = {metrics[name]['value']:.6g} {unit} (median of {len(samples)}; "
                  f"min {min(samples):.6g}, max {max(samples):.6g}{note})")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
