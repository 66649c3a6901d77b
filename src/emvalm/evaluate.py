"""Out-of-sample evaluation and comparison reporting.

``out_of_sample`` freezes a policy, rolls it over many independently seeded
paths of the chosen dynamics flavor, and reports mean/variance of terminal net
wealth plus the horizon Sharpe ratio (mean minus initial wealth over the
terminal standard deviation); ``simulate`` records its path 0 period by
period.  ``empirical_train`` drives the block-resampling pipeline: per
training iteration a historical window is sampled, its transition estimate
(labeled and estimated once per window by ``BlockSource``) is folded into an
exponential average, and the block's actual risky returns form the episode
the learners update on, in ``rl._run``, the one training loop.

Every evaluation (``out_of_sample`` in each dynamics flavor and
``evaluate_on_market_paths``) splits its paths over processes by one rule.
This process builds what every path shares (the policy's coefficient tables,
the filter path and any fixed rates), then cuts the paths into contiguous
``_BLOCK``-aligned shares, one per core in ``os.sched_getaffinity(0)``: it
rolls out the first share itself and each other one in an ``os.fork`` child
that pickles its terminals back (``forking.forked``).  Path i reads only its
own stream (``market.PATH_KEY`` + i), so the terminals, and every report, are
bit-identical at any core count.  A split into n shares needs n x
``_FORK_FLOOR`` path-periods (paths x T): on a 2-core host a split of a
55 MB process costs 25-35 ms beyond half the serial time (fork, copy-on-write
faults, the child's start), against about 0.28 us per real-dynamics
path-period, so it breaks even near 100,000 path-periods per share; the
floor of 150,000 leaves a margin.  A path on fixed rates (filtered and
expectation dynamics) draws at most its noise, so its path-periods count a
quarter: at T = 2520, with 48 MB of ballast, a split at the undivided floor
lost on 128 such paths (15.3 against 18.3 ms, medians of 25 alternating
pairs) and on 256 without noise (14.9 against 16.6 ms), while 256 paths with
noise won (43.7 to 35.1 ms) and 512 without (25.0 to 20.4 ms).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import data_ingest, forking, rl
from .closed_form import GaussianPolicy, ProblemSpec, regime_policy, schedule_policy
from .filtering import filter_states, mixing_signal, regime_schedule, signal_path
from .market import (
    DYNAMICS, PATH_KEY, SIGNALS, Episode, MarketModel, ReturnsRecord, draw_path, liability_path,
    observable_rates, regime_path, stream,
)

_BLOCK = 32  # evaluation paths generated and rolled out together
# path-periods (paths x T) per share a split needs: a margin above the break-even of a fork
# measured in the module docstring
_FORK_FLOOR = 150_000
_N_SMOOTH = 6  # window of the empirical pipeline's exponential parameter averaging

# analytic policy -> the flavor it is built for (rl.ALGO_FLAVORS holds the learners')
ANALYTIC_FLAVORS = {"coemv_opt": "real", "poemv_opt": "filtered", "poemv_sub": "expectation"}


@dataclass(frozen=True)
class EvalReport:
    """Sample statistics of terminal net wealth over the evaluation paths."""

    mean: float
    variance: float
    sharpe: float
    n_paths: int
    policy_kind: str
    config_digest: str = ""
    algo: str = ""
    seed: int = 0
    n_excluded: int = 0

    def row(self) -> dict:
        return {
            "algo": self.algo or self.policy_kind,
            "mean": self.mean,
            "variance": self.variance,
            "sharpe": self.sharpe,
            "n_paths": self.n_paths,
            "seed": self.seed,
        }


def sharpe_ratio(mean: float, variance: float, x0: float = 1.0) -> float:
    """(mean - initial wealth) / terminal standard deviation; 0 when flat."""
    if variance < 0.0:
        raise ValueError("variance must be >= 0")
    if variance == 0.0:
        return 0.0 if mean == x0 else math.copysign(math.inf, mean - x0)
    return (mean - x0) / math.sqrt(variance)


def analytic_policy(
    kind: str, model: MarketModel, spec: ProblemSpec, expectation_signal: str = "expected_state"
) -> GaussianPolicy:
    """The analytic policy ``kind`` of ``ANALYTIC_FLAVORS``: under "real" the
    regime-conditioned optimum of the two regimes' schedules, otherwise the
    optimum of the flavor's mixed schedule (``market.observable_rates``)."""
    if kind not in ANALYTIC_FLAVORS:
        raise ValueError(f"unknown analytic policy kind {kind!r}")
    flavor = ANALYTIC_FLAVORS[kind]
    if flavor == "real":
        schedules = tuple(regime_schedule(m, spec.horizon) for m in model.moment_pair())
        return regime_policy(schedules, spec)
    _, _, schedule = observable_rates(model, spec.horizon, flavor, expectation_signal)
    return schedule_policy(schedule, spec, kind)


def auto_scoring(algo: str, expectation_signal: str) -> tuple[str, str]:
    """Dynamics and signal ``algo`` is scored in under evaluation.dynamics = "auto":
    real policies in the real market, partial ones in filtered dynamics."""
    flavors = {**rl.ALGO_FLAVORS, **ANALYTIC_FLAVORS}
    if algo not in flavors:
        raise ValueError(
            f"evaluation.dynamics = 'auto' has no scoring rule for algo {algo!r}; the "
            "regime-blind 'emv' baseline is scored by evaluate.evaluate_on_market_paths"
        )
    flavor = flavors[algo]
    return "real" if flavor == "real" else "filtered", mixing_signal(flavor, expectation_signal)


def _affine_tables(policy: GaussianPolicy, ts: np.ndarray, signals: np.ndarray) -> np.ndarray:
    """(4, n) rows cx, cl, c0 and sd at the periods ``ts`` and their signals, in one call."""
    table = policy.table(ts, signals)
    table[3] = np.sqrt(table[3])
    return table


def _blocks(paths: range) -> list[range]:
    return [range(i, min(i + _BLOCK, paths.stop)) for i in paths[::_BLOCK]]


def _shares(n_paths: int, horizon: float) -> list[range]:
    """Contiguous ``_BLOCK``-aligned path ranges, one per core this process may run
    on, but no more than n_paths x horizon / ``_FORK_FLOOR``, nor than blocks;
    one share where ``os.sched_getaffinity`` or ``os.fork`` is missing."""
    n_blocks = -(-n_paths // _BLOCK)
    n = min(forking.cores(), n_blocks)
    while n > 1 and n * _FORK_FLOOR > n_paths * horizon:
        n -= 1
    cuts = [min(n_paths, _BLOCK * (n_blocks * k // n)) for k in range(n + 1)]
    return [range(a, b) for a, b in zip(cuts, cuts[1:])]


def _terminal_report(terminal: np.ndarray, x0: float, max_excluded: float = math.inf,
                     **fields) -> EvalReport:
    """Statistics of the finite terminals; the non-finite ones are counted, and
    more than ``max_excluded`` of them raise."""
    finite = np.isfinite(terminal)
    vals = terminal[finite]
    n_excluded = int(terminal.size - vals.size)
    if n_excluded > max_excluded:
        raise RuntimeError(f"{n_excluded} of {terminal.size} paths produced non-finite terminals")
    mean = float(np.mean(vals))
    variance = float(np.var(vals, ddof=1))
    return EvalReport(
        mean=mean,
        variance=variance,
        sharpe=sharpe_ratio(mean, variance, x0),
        n_paths=int(vals.size),
        n_excluded=n_excluded,
        **fields,
    )


def out_of_sample(
    policy: GaussianPolicy,
    model: MarketModel,
    n_paths: int,
    spec: ProblemSpec,
    seed: int,
    dynamics: str = "real",
    signal: str | None = None,
    explore: bool = True,
    expectation_signal: str = "expected_state",
) -> EvalReport:
    """Evaluate a frozen policy on independent paths of one dynamics flavor.

    ``explore=False`` applies the policy mean instead of sampling the Gaussian
    action.  Non-finite terminals are excluded and counted; more than 1%
    exclusions aborts the evaluation.  Path i draws from the stream
    ``PATH_KEY`` + i (``_rollout_blocks``), so the first n paths do not depend
    on ``n_paths``.  Paths are generated and rolled out ``_BLOCK`` at a time,
    split over per-core shares (see the module docstring).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    terminal, sig_kind = _path_terminals(
        policy, model, n_paths, spec, seed, dynamics, signal, explore, expectation_signal
    )
    return _terminal_report(
        terminal,
        spec.x0,
        max_excluded=0.01 * n_paths,
        policy_kind=policy.kind,
        seed=seed,
        config_digest=_digest(
            {
                "dynamics": dynamics,
                "signal": sig_kind,
                "n_paths": n_paths,
                "seed": seed,
                "explore": explore,
                "horizon": spec.horizon,
            }
        ),
    )


def _path_terminals(
    policy: GaussianPolicy,
    model: MarketModel,
    n_paths: int,
    spec: ProblemSpec,
    seed: int,
    dynamics: str,
    signal: str | None,
    explore: bool,
    expectation_signal: str,
) -> tuple[np.ndarray, str]:
    """Per-path terminal net wealth of ``out_of_sample`` and the signal kind used."""
    sig_kind = signal or mixing_signal(dynamics, expectation_signal)
    tables = _path_tables(policy, model, spec, dynamics, sig_kind, expectation_signal)
    return _terminals(tables, model, spec, seed, n_paths, explore), sig_kind


def _terminals(
    tables: tuple, model: MarketModel, spec: ProblemSpec, seed: int, n_paths: int, explore: bool,
) -> np.ndarray:
    """Terminal net wealth x_T - l_T of the paths 0..n_paths-1 on ``tables``:
    ``_shares`` of them, the first rolled out in this process and each other
    in a forked child."""

    def terminals(paths: range) -> np.ndarray:
        blocks = _rollout_blocks(tables, model, spec, seed, paths, explore)
        # map lets go of each block before the next one is drawn, which bounds the peak memory
        return np.concatenate(list(map(lambda block: block[0][:, -1] - block[1][..., -1], blocks)))

    periods = spec.horizon if tables[0][1] is None else spec.horizon / 4  # see the module docstring
    shares = _shares(n_paths, periods)
    return np.concatenate(forking.forked(terminals, shares, "the evaluation share of paths"))


def _path_tables(
    policy: GaussianPolicy, model: MarketModel, spec: ProblemSpec, dynamics: str, sig_kind: str,
    expectation_signal: str,
) -> tuple[tuple, np.ndarray]:
    """What every path of one evaluation shares: the (e0, ex, q, l) rows of a
    partial-information flavor (all None in real dynamics, where each path
    draws its own) and the policy's coefficients, (4, T) rows cx, cl, c0 and sd
    or, under the regime signal, (4, 2, T): the rows of regime 1, then of 2."""
    horizon = spec.horizon
    rates = (None,) * 4
    if dynamics == "real":
        if sig_kind != "regime":
            probs = filter_states(model.chain.p0, model.chain.matrix(), horizon)
    else:  # observable_rates rejects an unknown flavor
        probs, _, schedule = observable_rates(model, horizon, dynamics, expectation_signal)
        rates = schedule.a0, schedule.a1, schedule.a2, liability_path(spec.l0, schedule.a2)
    if sig_kind == "regime":
        if dynamics != "real":
            raise ValueError("regime signal requires real dynamics")
        ts, signals = np.tile(np.arange(horizon), 2), np.repeat([1.0, 2.0], horizon)
        return rates, _affine_tables(policy, ts, signals).reshape(4, 2, horizon)
    return rates, _affine_tables(policy, np.arange(horizon), signal_path(sig_kind, probs)[:-1])


def _rollout_blocks(
    tables: tuple, model: MarketModel, spec: ProblemSpec, seed: int, paths: range, explore: bool,
):
    """The paths ``paths`` of one evaluation, generated and rolled out ``_BLOCK``
    at a time on its tables: rates (e0, ex, q, l), each shared by every path or
    None where each path draws its own (ex None: the risky leg), and
    coefficients as ``_path_tables`` gives them.

    Path i draws from its own stream ``PATH_KEY`` + i, opened only when it
    draws something: first its market path where a leg is drawn
    (``market.draw_path``), then, with ``explore``, its action noise.  Yields
    per block the wealth x (paths, T + 1), the liabilities l ((paths, T + 1)
    when drawn, otherwise the one (T + 1,) path every path shares), the
    (e0, e1, q) rates, the (cx, cl, c0, sd) coefficients and the action noise.
    The next block overwrites the drawn rates and the noise.
    """
    rates, coef = tables
    horizon = spec.horizon
    drawn = rates[1] is None
    block = np.empty((3, _BLOCK, horizon))  # drawn e0, e1, q rows of the paths in a block
    in1 = np.empty((_BLOCK, horizon), dtype=bool)  # their periods in regime 1
    noise = np.zeros((_BLOCK, horizon))
    for rows in _blocks(paths):
        n = len(rows)
        for j, i in enumerate(rows if drawn or explore else ()):
            rng = stream(seed, PATH_KEY + i)
            if drawn:
                regimes, _ = draw_path(model, horizon, rng, out=block[:, j])
                if coef.ndim == 3:
                    np.equal(regimes[:-1], 1, out=in1[j])
            if explore:
                rng.standard_normal(out=noise[j])
        e0, ex, q, l = rates
        if drawn:  # the drawn legs stand in for the rates the tables leave open
            e0 = block[0, :n] if e0 is None else e0
            e1 = block[1, :n]
            ex = e1 - e0
            if q is None:
                q = block[2, :n]
                l = liability_path(spec.l0, q)
        else:
            e1 = e0 + ex
        if coef.ndim == 3:  # the regime signal: each period reads its regime's coefficients
            cx, cl, c0, sd = np.where(in1[:n], coef[:, 0, None], coef[:, 1, None])
        else:
            cx, cl, c0, sd = coef
        x = rl._linear_rollout(e0 + ex * cx, ex * (cl * l[..., :-1] + c0 + sd * noise[:n]), spec.x0)
        yield x, l, (e0, e1, q), (cx, cl, c0, sd), noise[:n]


def simulate(
    policy: GaussianPolicy, model: MarketModel, spec: ProblemSpec, seed: int,
    dynamics: str = "real", signal: str | None = None, expectation_signal: str = "expected_state",
) -> Episode:
    """One recorded episode: path 0 of ``out_of_sample`` with the same arguments.

    Its terminal x_T - l_T is that evaluation's first terminal, and the action
    at t is (cx*x_t + cl*l_t + c0) + sd*noise_t.  The hidden regime path is
    recorded under every flavor, with the filter path p_0..p_T: in real
    dynamics the one path 0 runs on, the first draw of its stream
    ``PATH_KEY``, and otherwise the draw that follows the path's noise there.
    A state that is not finite raises, naming its first period.
    """
    if spec.x0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    if dynamics not in DYNAMICS:
        raise ValueError(f"dynamics must be one of {DYNAMICS}, got {dynamics!r}")
    signal = signal or mixing_signal(dynamics, expectation_signal)
    if signal not in SIGNALS:
        raise ValueError(f"signal must be one of {SIGNALS}, got {signal!r}")
    tables = _path_tables(policy, model, spec, dynamics, signal, expectation_signal)
    x, l, rates, (cx, cl, c0, sd), noise = next(
        _rollout_blocks(tables, model, spec, seed, range(1), True)
    )
    x, l = x[0], np.ravel(l)  # real dynamics give a block of one path
    bad = ~(np.isfinite(x) & np.isfinite(l))
    if bad.any():
        raise ValueError(f"episode diverged to non-finite state at t={int(np.argmax(bad))}")
    action = (cx * x[:-1] + (cl * l[:-1] + c0)) + sd * noise
    chain, horizon = model.chain, spec.horizon
    rng = stream(seed, PATH_KEY)
    if dynamics != "real":  # path 0 drew only its noise
        rng.standard_normal(horizon)
    return Episode(x, l, regime_path(chain, horizon, rng),
                   filter_states(chain.p0, chain.matrix(), horizon), action[0],
                   ReturnsRecord(*(np.ravel(r) for r in rates)))


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def compare_table(reports: list[EvalReport]) -> tuple[str, list[dict]]:
    """Aligned text table plus CSV-ready rows for a list of reports."""
    rows = [r.row() for r in reports]
    header = ("algo", "mean", "variance", "sharpe", "n_paths", "seed")
    if not rows:
        return ",".join(header) + "\n(empty)\n", rows
    widths = {h: max(len(h), *(len(_fmt(r[h])) for r in rows)) for h in header}
    lines = ["  ".join(h.ljust(widths[h]) for h in header)]
    for r in rows:
        lines.append("  ".join(_fmt(r[h]).ljust(widths[h]) for h in header))
    return "\n".join(lines) + "\n", rows


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


# ---------------------------------------------------------------------------
# Block-resampling empirical pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockSource:
    """Historical windows drawn uniformly from a set of price series.

    A window's (p12, p21) transition estimate depends on nothing but the
    window, so each is computed on its first draw and kept for the life of
    the source: at most one estimate per overlapping window.
    """

    series_set: tuple[data_ingest.PriceSeries, ...]
    horizon_years: float
    dt: float
    # (series index, start) -> read-only [p12, p21], or None for a single-regime window
    _estimates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.series_set:
            raise ValueError("series_set: a block source needs at least one series")
        try:
            self.horizon_periods()
        except ValueError as exc:
            raise ValueError(f"horizon_years: {exc}") from None
        try:
            data_ingest.block_count(self.series_set, self.horizon_years, self.dt)
        except ValueError as exc:
            raise ValueError(f"series_set: {exc}") from None

    def horizon_periods(self) -> int:
        return data_ingest.periods_in_horizon(self.horizon_years, self.dt)

    def sample(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
        """Closing prices of one sampled block (horizon + 1 values) and its
        transition estimate; the one draw is ``data_ingest.block_sampler``'s."""
        window = data_ingest.block_sampler(self.series_set, self.horizon_years, self.dt, rng)
        idx, start = window
        closes = self.series_set[idx].closes[start : start + self.horizon_periods() + 1]
        if window not in self._estimates:
            self._estimates[window] = self._estimate(closes)
        return closes, self._estimates[window]

    def _estimate(self, closes: np.ndarray) -> np.ndarray | None:
        """[p12, p21] of the window's labeled bull/bear phases, or None when
        the window holds a single regime."""
        series = data_ingest.PriceSeries.from_closes(closes, frequency=blocks_frequency(self.dt))
        try:
            labels = data_ingest.label_regimes(series)
            est = data_ingest.estimate_params(series, labels, self.dt)
        except ValueError:
            return None
        pair = np.array([est.p12, est.p21])
        pair.flags.writeable = False
        return pair


def _baseline_rate(model: MarketModel, p12: float, p21: float) -> float:
    """Sojourn-weighted mix of the per-regime baseline rates (annual, net)."""
    w1 = p21 / (p12 + p21)
    r1 = model.e0[0].annual_net()
    r2 = model.e0[1].annual_net()
    return w1 * r1 + (1.0 - w1) * r2


def empirical_train(
    algo: str,
    blocks: BlockSource,
    model: MarketModel,
    hyper: rl.Hyperparams,
    spec: ProblemSpec,
) -> rl.TrainState:
    """Train a learner on resampled historical blocks.

    Each iteration samples a block from stream (seed, k), folds the block's
    (p12, p21) estimate from its labeled bull/bear phases into an exponential
    average (single-regime blocks keep the previous estimate), and runs one
    episode whose risky returns are the block's own while the baseline and
    liability legs follow the filtered expectations implied by the current
    transition estimates, in ``rl._run``; that world (baseline, liability and
    features) is rebuilt only when an estimate moves the average.  The block
    pick is the stream's first draw and the action noise follows it; before
    the first estimate there is no episode.  ``blocks`` estimates each window
    once, so a warm source gives the same states as a fresh one.  ``algo`` is
    ``"poemv1"`` (filter signal) or ``"emv"`` (regime-blind baseline: constant
    sojourn-weighted baseline rate, no liability in its world, unit signal).
    """
    if algo not in ("poemv1", "emv"):
        raise ValueError(f"empirical training supports poemv1 or emv, got {algo!r}")
    hyper.require_market_dt(model)
    if hyper.batch_size != 1:
        raise ValueError(
            f"empirical training runs one block per iteration; batch_size = {hyper.batch_size}"
        )
    horizon, n_block = spec.horizon, blocks.horizon_periods()
    if horizon != n_block:
        raise ValueError(f"problem horizon {horizon} and block horizon {n_block} disagree")
    running = None  # exponentially averaged (p12, p21) transition estimates
    world = None  # the episode world at ``running``, but for its returns
    if algo == "emv":  # the same unit signal and zero liability in every episode
        blind_feats = rl._flat(rl.features(np.ones(horizon + 1), rl._tau_grid(horizon, hyper.dt),
                                           hyper.m))
        blind_l = np.zeros(horizon + 1)

    def draw(rng: np.random.Generator, slot: int) -> rl._Scenario | None:
        nonlocal running, world
        closes, est = blocks.sample(rng)
        if est is not None:  # a single-regime block keeps the previous estimate and world
            running = est if running is None else data_ingest.exp_average_update(
                running, est, _N_SMOOTH
            )
            p12, p21 = running.tolist()
            if algo == "poemv1":
                mat = np.array([[1.0 - p12, p12], [p21, 1.0 - p21]])
                world = rl._observable_scenario(model, hyper, spec, "filtered", p=mat)
            else:
                e0_bar = np.full(horizon, 1.0 + _baseline_rate(model, p12, p21) * hyper.dt)
                world = rl._Scenario(e0_bar, None, blind_l, blind_feats)
        if world is None:
            return None
        gross = closes[1:] / closes[:-1]
        return replace(world, ex=gross - world.e0, noise=rng.standard_normal(horizon))

    return rl._run(rl.TrainState.start(algo, hyper, spec), rl._serial(draw, hyper))


def blocks_frequency(dt: float) -> str:
    return "monthly" if abs(dt - 1.0 / 12.0) < 1e-9 else "daily"


def evaluate_on_market_paths(
    state: rl.TrainState,
    model: MarketModel,
    n_paths: int,
    spec: ProblemSpec,
    seed: int,
    explore: bool = False,
) -> EvalReport:
    """Apply an empirically trained policy to fresh paths of the true market.

    Test paths use the real risky-return draws while the baseline and
    liability legs follow the filtered expectations of the true model, the
    same construction as the training episodes.  The regime-blind baseline
    sees a unit signal and no liability inside its own decision rule (its
    ``cl`` is zeroed), but is scored on the common terminal net wealth.
    Path i draws from the stream ``PATH_KEY`` + i, and the paths split over
    per-core shares, as in ``out_of_sample``.
    """
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2, got {n_paths}")
    state.hyper.require_market_dt(model)
    horizon = spec.horizon
    if state.spec.horizon != horizon:
        raise ValueError(
            f"problem horizon {horizon} differs from the trained horizon {state.spec.horizon}"
        )
    probs, _, schedule = observable_rates(model, horizon, "filtered")
    sig = probs if state.algo == "poemv1" else np.ones(horizon + 1)
    coef = _affine_tables(rl.policy_from_state(state), np.arange(horizon), sig[:-1])
    if state.algo != "poemv1":
        coef[1] = 0.0
    rates = schedule.a0, None, schedule.a2, liability_path(spec.l0, schedule.a2)
    terminals = _terminals((rates, coef), model, spec, seed, n_paths, explore)
    return _terminal_report(terminals, spec.x0, policy_kind="learned", algo=state.algo, seed=seed)
