"""The benchmark workloads: inputs, set-up, one repetition and its correctness gate.

A repetition runs every operation of a workload once, in order, through the
package's public entry points: ``cli.main`` in process for the desk-scale
workloads, ``evaluate.empirical_train`` and ``evaluate.evaluate_on_market_paths``
for the block-resampling one.  An operation is one training run or one
evaluation; it fails when it raises, when the CLI exits non-zero, or when its
output falls outside the bands below.

The bands were fixed from the seed commit at the iteration counts used here
(desk: 500 iterations; empirical: 1500 iterations); ``BANDS`` says how.  They
are statistical, not digests, so a declared change of random draw order
still passes: each out-of-sample mean minus the target ``d`` must lie in a
window around the seed commit's range, and each variance in a range around
the seed commit's.  The learners are far from converged after 500
iterations, so their windows sit where the seed commit put them (poemv1 and
coemv above ``d``, poemv2 below).
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gauge import REFERENCE_S

PACKAGE = "emvalm"

# The reference desk configuration: T = 10 years of daily periods (2520),
# skewed-t risky leg, normal liability leg, 1000 evaluation paths.
REFERENCE_CONFIG = {
    "market": {
        "P11": 0.9986,
        "P12": 0.0014,
        "P21": 0.0114,
        "P22": 0.9886,
        "p_hat_0": 0.3,
        "dt": 1.0 / 252.0,
        "e0": {
            "regime1": {"kind": "constant", "annual_mean": 1.2, "mean_is_gross": True},
            "regime2": {"kind": "constant", "annual_mean": 1.05, "mean_is_gross": True},
        },
        "e1": {
            "regime1": {"kind": "skewed_t", "annual_mean": 0.5, "annual_vol": 0.2,
                        "dof": 10, "skew": 0.1, "mean_is_gross": False},
            "regime2": {"kind": "skewed_t", "annual_mean": 0.06, "annual_vol": 0.3,
                        "dof": 10, "skew": 0.1, "mean_is_gross": False},
        },
        "q": {
            "regime1": {"kind": "normal", "annual_mean": 0.05, "annual_vol": 0.1,
                        "mean_is_gross": False, "vol_is_variance": False},
            "regime2": {"kind": "normal", "annual_mean": 0.01, "annual_vol": 0.2,
                        "mean_is_gross": False, "vol_is_variance": False},
        },
    },
    "problem": {"T_years": 10.0, "d": 8.0, "lambda": 2.0, "x0": 1.0, "l0": 0.1, "w": 8.0},
    "evaluation": {"n_paths": 1000, "dynamics": "auto", "signal": None, "explore": True},
}
DESK_ITERS = 500  # per learner and repetition; the per-iteration cost is what is timed
DESK_PATHS = 1000

# The synthetic monthly study of acceptance criterion 9: 20 two-regime series
# of 240 months, 10-year (120-period) blocks, 1500 iterations, 400 test paths.
EMPIRICAL_MARKET = {
    "P11": 0.994,
    "P12": 0.006,
    "P21": 0.012,
    "P22": 0.988,
    "p_hat_0": 0.999,
    "dt": 1.0 / 12.0,
    "e0": {
        "regime1": {"kind": "constant", "annual_mean": 1.12, "mean_is_gross": True},
        "regime2": {"kind": "constant", "annual_mean": 1.005, "mean_is_gross": True},
    },
    "e1": {
        "regime1": {"kind": "normal", "annual_mean": 0.50, "annual_vol": 0.10, "mean_is_gross": False},
        "regime2": {"kind": "normal", "annual_mean": -0.22, "annual_vol": 0.10, "mean_is_gross": False},
    },
    "q": {
        "regime1": {"kind": "normal", "annual_mean": 0.04, "annual_vol": 0.02, "mean_is_gross": False},
        "regime2": {"kind": "normal", "annual_mean": 0.0, "annual_vol": 0.05, "mean_is_gross": False},
    },
}
# Target and multiplier: the passive terminal surplus under the filtered
# expectations of this market, rounded to cents as in criterion 9.
EMPIRICAL_TARGET = 2.61
EMPIRICAL_CONFIG = {
    "market": EMPIRICAL_MARKET,
    "problem": {"T_years": 10.0, "d": EMPIRICAL_TARGET, "lambda": 2.0, "x0": 1.0, "l0": 0.02,
                "w": EMPIRICAL_TARGET},
    "training": {"alpha": 0.05, "N": 10, "n_iter": 1500, "m": 2},
}
EMPIRICAL_SERIES, EMPIRICAL_MONTHS, EMPIRICAL_PATHS = 20, 240, 400


@dataclass(frozen=True)
class Band:
    """Accepted statistics: lo <= mean - d <= hi, |mean - d| <= z * sqrt(var / n)
    when ``z`` is set, and var_lo <= var <= var_hi."""

    lo: float
    hi: float
    var_lo: float
    var_hi: float
    z: float | None = None


# How the bands were set.  The seed commit ran N repetitions of each workload
# (each with its own training and evaluation seeds) and gave, per policy, the
# out-of-sample means and variances quoted beside each band.  The mean window
# is the observed range of mean - d widened on each side by two standard
# deviations of the observed means: about five deviations from their centre,
# because the benchmark runs hundreds of repetitions per revision.  For the
# learners the deviation across training seeds dominates (poemv2: 0.078
# against an evaluation standard error of 0.0025), so the evaluation standard
# error alone would fail fresh seeds.  The variance range is half the smallest
# to twice the largest observed variance.
#
# Two desk policies differ.  coemv_opt's terminal surplus is so heavy-tailed
# that the sample variance has no stable upper range (the largest of 596
# evaluation seeds was 1.8e5 against a median of 890, and the tail of the
# largest values decays like v^-0.9), and one extreme path moves the mean as
# far as -6.1 or 14.8.  Its mean is therefore bounded by the self-normalised
# distance (mean - d) / sqrt(var / n), which ranged over -2.9..2.2, and its
# variance only from below.  The learned coemv lands far from the rest on
# about one training seed in 100 (mean - d near 0, variance up to 7.2 against
# a bulk below 4.9), so its mean may fall as low as the passive surplus 5.94
# (the terminal surplus of holding only the riskless leg; mean - d >= -2.06)
# and its variance rise to four times the largest seen.
BANDS = {
    # N = 321: mean - d 1.590..1.777 (sd 0.030), var 0.0077..0.0101
    "poemv1": Band(1.52, 1.84, 0.0038, 0.0202),
    # N = 321: mean - d -1.433..-0.979 (sd 0.079), var 0.0056..0.0077
    "poemv2": Band(-1.60, -0.82, 0.0027, 0.0154),
    # N = 296: mean - d -0.034..2.642 (sd 0.36), var 3.08..7.25
    "coemv": Band(-2.06, 3.38, 1.5, 29.0),
    # N = 321: mean - d -0.080..0.080 (sd 0.032), var 0.86..1.11
    "poemv_opt": Band(-0.144, 0.145, 0.42, 2.23),
    # N = 321: mean - d -0.182..-0.023 (sd 0.032), var 0.88..1.15
    "poemv_sub": Band(-0.247, 0.043, 0.44, 2.31),
    # N = 596: (mean - d) / se -2.9..2.2, var 337..1.8e5 (see above)
    "coemv_opt": Band(-math.inf, math.inf, 168.0, math.inf, z=5.0),
}

# The empirical statistics depend on the generated series as well as on the
# training seed, and their right tail is heavy: over 346 repetitions on 250
# data sets the largest poemv1 variance was 5.3 against a median of 0.12, and
# the tail of the largest values decays like v^-1.8 (mean - d like
# (1 + x)^-6).  The lower ends follow the rule above; the upper ends are ten
# times the largest variance and twice the largest mean - d, where that fitted
# tail puts the chance of a false failure near 3e-5 per repetition.  The
# acceptance-9 ordering (``EmpiricalWorkload.check_run``) carries the rest.
EMPIRICAL_BANDS = {
    # N = 346: mean - d -0.382..3.496 (sd 0.43), var 0.0064..5.29
    "poemv1": Band(-1.25, 7.0, 0.0032, 53.0),
    # N = 346: mean - d -0.384..3.793 (sd 0.46), var 0.0088..6.91
    "emv": Band(-1.31, 7.6, 0.0044, 69.0),
}


@dataclass
class Op:
    """One training run or one evaluation within a repetition."""

    kind: str  # "train" or "eval"
    policy: str
    work: int  # iterations trained or paths requested
    learned: bool = True
    seconds: float = 0.0
    gauge_s: float = 0.0  # reference-kernel time around the operation (0: not gauged)
    error: str | None = None
    result: object = None
    output: bytes = b""  # what must not change under tracing
    stats: str = ""
    checkpoint_bytes: int = 0
    calls: Counter = field(default_factory=Counter)
    variates: Counter = field(default_factory=Counter)

    @property
    def label(self) -> str:
        return f"{self.kind} {self.policy}"

    @property
    def ref_seconds(self) -> float:
        """Seconds at the reference host speed (raw seconds when not gauged)."""
        return self.seconds * REFERENCE_S / self.gauge_s if self.gauge_s else self.seconds


def run_op(op: Op, fn, tracer=None, gauge=None) -> Op:
    """Time ``fn``; record its result or failure, the host speed around it when
    gauged, and its call counts when traced."""
    before = tracer.snapshot() if tracer is not None else None
    speed = gauge.seconds() if gauge is not None else 0.0
    start = perf_counter()
    try:
        op.result = fn()
    except Exception as exc:  # a failed operation is reported by the gate, not raised
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = perf_counter() - start
    if gauge is not None:
        op.gauge_s = (speed + gauge.seconds()) / 2.0
    if before is not None:
        op.calls = tracer.calls - before[0]
        op.variates = tracer.variates - before[1]
    return op


def import_package() -> dict:
    """Import the package afresh (numpy stays loaded) and return its modules."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return {
        name: importlib.import_module(f"{PACKAGE}.{name}")
        for name in ("cli", "config", "data_ingest", "evaluate")
    }


def _check_band(op: Op, band: Band, mean: float, variance: float, n_paths: int, target: float):
    op.stats = f"mean {mean:.4f} var {variance:.4g}"
    if n_paths != op.work:
        return f"n_excluded = {op.work - n_paths} (expected 0)"
    if not (math.isfinite(mean) and math.isfinite(variance)):
        return f"non-finite statistics: mean {mean}, variance {variance}"
    if not band.lo <= mean - target <= band.hi:
        return f"mean - d = {mean - target:.4g} outside [{band.lo}, {band.hi}] (d = {target})"
    if not band.var_lo <= variance <= band.var_hi:
        return f"variance {variance:.6g} outside [{band.var_lo}, {band.var_hi}]"
    distance = (mean - target) / math.sqrt(variance / n_paths)
    if band.z is not None and abs(distance) > band.z:
        return f"mean - d = {distance:.3g} standard errors, beyond {band.z} (d = {target})"
    return None


def _check_state(state: dict, iters: int) -> str | None:
    # empirical training skips iterations until a block yields a first estimate
    if state["iteration"] != iters or not 0 < len(state["terminals"]) <= iters:
        return (f"trained {state['iteration']} iterations with {len(state['terminals'])} "
                f"terminals, expected {iters}")
    values = [state["w"], *state["terminals"]]
    for grids in (state["critic"], state["actor"]):
        values += [float(v) for grid in grids.values() for v in np.ravel(grid)]
    if not all(math.isfinite(v) for v in values):
        return "non-finite multiplier, terminal or grid value"
    return None


def _cli(cli, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"emvalm {argv[0]} exited {code}: {err.getvalue().strip()}")


@dataclass
class Context:
    """What set-up produced, and what the repetitions read."""

    api: dict
    config: dict
    config_path: Path | None = None
    model: object = None
    spec: object = None
    blocks: object = None


class DeskWorkload:
    """Reference-config training through ``emvalm train`` and scoring through
    ``emvalm evaluate`` of every checkpoint and analytic counterpart."""

    def __init__(self, learners: tuple[str, ...], analytic: tuple[str, ...]):
        self.learners = learners
        self.analytic = analytic

    def make_inputs(self, seed: int, workdir: Path) -> Path:
        path = workdir / "config.json"
        path.write_text(json.dumps(REFERENCE_CONFIG, indent=2), encoding="utf-8")
        return path

    def setup(self, inputs: Path) -> Context:
        api = import_package()
        config = api["config"]
        with open(inputs, "r", encoding="utf-8") as fh:
            cfg = config.resolve_config(json.load(fh))
        return Context(
            api=api,
            config=cfg,
            config_path=inputs,
            model=config.build_market(cfg),
            spec=config.build_problem(cfg),
        )

    def run_rep(self, ctx: Context, seeds: tuple[int, int], repdir: Path, tracer=None, gauge=None) -> list[Op]:
        cli = ctx.api["cli"]
        train_seed, eval_seed = (str(s) for s in seeds)
        common = ["--config", str(ctx.config_path)]
        ops: list[Op] = []
        for algo in self.learners:
            argv = ["train", *common, "--algo", algo, "--iters", str(DESK_ITERS),
                    "--seed", train_seed, "--out", str(repdir / algo)]
            ops.append(run_op(Op("train", algo, DESK_ITERS), lambda: _cli(cli, argv), tracer, gauge))
            if ops[-1].error:
                return ops
        sources = [(a, ["--checkpoint", str(repdir / a / "checkpoint.json")]) for a in self.learners]
        sources += [(k, ["--analytic", k]) for k in self.analytic]
        for policy, source in sources:
            argv = ["evaluate", *common, *source, "--seed", eval_seed,
                    "--out", str(repdir / f"eval-{policy}")]
            op = Op("eval", policy, DESK_PATHS, learned=policy in self.learners)
            ops.append(run_op(op, lambda: _cli(cli, argv), tracer, gauge))
            if op.error:
                return ops
        return ops

    def check(self, ops: list[Op], ctx: Context, repdir: Path) -> None:
        target = ctx.spec.target
        for op in ops:
            if op.error:
                continue
            if op.kind == "train":
                op.output = (repdir / op.policy / "checkpoint.json").read_bytes()
                op.checkpoint_bytes = len(op.output)
                op.error = _check_state(json.loads(op.output), op.work)
            else:
                op.output = (repdir / f"eval-{op.policy}" / "report.csv").read_bytes()
                row = next(csv.DictReader(io.StringIO(op.output.decode("utf-8"))))
                op.error = _check_band(
                    op, BANDS[op.policy], float(row["mean"]), float(row["variance"]),
                    int(row["n_paths"]), target,
                )

    def check_run(self, reps: list[list[Op]]) -> str | None:
        return None


class EmpiricalWorkload:
    """Block-resampling training of poemv1 and the regime-blind baseline on
    synthetic monthly series, then scoring on fresh paths of the true market."""

    algos = ("poemv1", "emv")

    def make_inputs(self, seed: int, workdir: Path) -> list[np.ndarray]:
        """Closing prices of two-regime series, drawn with numpy alone."""
        mk = EMPIRICAL_MARKET
        dt = mk["dt"]
        stay = (mk["P11"], mk["P21"])  # probability of regime 1 next, from regime 1 / 2
        legs = mk["e1"]["regime1"], mk["e1"]["regime2"]
        means = np.array([1.0 + leg["annual_mean"] * dt for leg in legs])
        sds = np.array([leg["annual_vol"] * math.sqrt(dt) for leg in legs])
        rng = np.random.default_rng([seed, 9])
        closes = []
        for _ in range(EMPIRICAL_SERIES):
            u = rng.random(EMPIRICAL_MONTHS + 1)
            regime = np.empty(EMPIRICAL_MONTHS, dtype=np.int64)
            state = 0 if u[0] < mk["p_hat_0"] else 1
            for t in range(EMPIRICAL_MONTHS):
                regime[t] = state
                state = 0 if u[t + 1] < stay[state] else 1
            gross = means[regime] + sds[regime] * rng.standard_normal(EMPIRICAL_MONTHS)
            closes.append(100.0 * np.concatenate(([1.0], np.cumprod(gross))))
        return closes

    def setup(self, inputs: list[np.ndarray]) -> Context:
        api = import_package()
        config, data_ingest = api["config"], api["data_ingest"]
        cfg = config.resolve_config(EMPIRICAL_CONFIG)
        model = config.build_market(cfg)
        series = tuple(data_ingest.PriceSeries.from_closes(c, frequency="monthly") for c in inputs)
        blocks = api["evaluate"].BlockSource(
            series_set=series, horizon_years=cfg["problem"]["T_years"], dt=model.dt
        )
        return Context(
            api=api, config=cfg, model=model, spec=config.build_problem(cfg), blocks=blocks
        )

    def run_rep(self, ctx: Context, seeds: tuple[int, int], repdir: Path, tracer=None, gauge=None) -> list[Op]:
        evaluate = ctx.api["evaluate"]
        hyper = ctx.api["config"].build_hyper(ctx.config, seed=seeds[0])
        ops: list[Op] = []
        for algo in self.algos:
            op = Op("train", algo, hyper.n_iter)
            ops.append(run_op(op, lambda: evaluate.empirical_train(
                algo, ctx.blocks, ctx.model, hyper, ctx.spec), tracer, gauge))
            if op.error:
                return ops
        for train in ops[: len(self.algos)]:
            op = Op("eval", train.policy, EMPIRICAL_PATHS)
            ops.append(run_op(op, lambda: evaluate.evaluate_on_market_paths(
                train.result, ctx.model, EMPIRICAL_PATHS, ctx.spec, seed=seeds[1], explore=False),
                tracer, gauge))
            if op.error:
                return ops
        return ops

    def check(self, ops: list[Op], ctx: Context, repdir: Path) -> None:
        for op in ops:
            if op.error:
                continue
            if op.kind == "train":
                state = op.result.to_dict()
                op.output = json.dumps(state, sort_keys=True).encode()
                op.error = _check_state(state, op.work)
            else:
                r = op.result
                op.output = json.dumps([r.mean, r.variance, r.sharpe, r.n_paths]).encode()
                op.error = _check_band(
                    op, EMPIRICAL_BANDS[op.policy], r.mean, r.variance, r.n_paths, ctx.spec.target)

    def check_run(self, reps: list[list[Op]]) -> str | None:
        """Acceptance criterion 9 over a run: poemv1's out-of-sample variance below
        emv's in more than half of its repetitions.  It is judged over the run, not
        per repetition, because at the seed commit one training seed in about 350
        gives poemv1 the larger variance (by at most 5 %)."""
        variances = [{op.policy: op.result.variance for op in ops if op.kind == "eval"}
                     for ops in reps]
        held = sum(v["poemv1"] < v["emv"] for v in variances)
        if 2 * held <= len(reps):
            return (f"acceptance-9 ordering: poemv1 variance below emv's in {held} of "
                    f"{len(reps)} repetitions")
        return None


WORKLOADS = {
    "desk_partial": DeskWorkload(("poemv1", "poemv2"), ("poemv_opt", "poemv_sub")),
    "desk_regime": DeskWorkload(("coemv",), ("coemv_opt",)),
    "empirical_blocks": EmpiricalWorkload(),
}
