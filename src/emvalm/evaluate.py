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
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import data_ingest, rl
from .closed_form import GaussianPolicy, ProblemSpec, regime_policy, schedule_policy
from .filtering import filter_states, mixing_signal, regime_schedule, signal_path
from .market import (
    DYNAMICS, RETURNS_KEY, SIGNALS, Episode, MarketModel, ReturnsRecord, draw_path, liability_path,
    observable_rates, regime_path, stream,
)

_BLOCK = 32  # evaluation paths generated and rolled out together
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
    """(n, 4) rows (cx, cl, c0, sd) at the periods ``ts`` and their signals, in one call."""
    table = policy.table(ts, signals)
    table[:, 3] = np.sqrt(table[:, 3])
    return table


def _regime_affine_tables(policy: GaussianPolicy, horizon: int) -> np.ndarray:
    """(2, horizon, 4) tables for the two possible regime signals."""
    ts = np.tile(np.arange(horizon), 2)
    return _affine_tables(policy, ts, np.repeat([1.0, 2.0], horizon)).reshape(2, horizon, 4)


def _blocks(n_paths: int) -> list[range]:
    return [range(i, min(i + _BLOCK, n_paths)) for i in range(0, n_paths, _BLOCK)]


def _terminal_report(terminal: np.ndarray, x0: float, **fields) -> EvalReport:
    """Statistics of the finite terminals; the non-finite ones are counted."""
    finite = np.isfinite(terminal)
    vals = terminal[finite]
    mean = float(np.mean(vals))
    variance = float(np.var(vals, ddof=1))
    return EvalReport(
        mean=mean,
        variance=variance,
        sharpe=sharpe_ratio(mean, variance, x0),
        n_paths=int(vals.size),
        n_excluded=int(terminal.size - vals.size),
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
    exclusions aborts the evaluation.  Path i draws its action noise as row i
    of one (n_paths, T) standard-normal array from stream 0, and in real
    dynamics its regime path from stream 1 + i and its returns from stream
    ``RETURNS_KEY`` + i, so the first n paths do not depend on ``n_paths``.
    Paths are generated and rolled out ``_BLOCK`` at a time.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    terminal, sig_kind = _path_terminals(
        policy, model, n_paths, spec, seed, dynamics, signal, explore, expectation_signal
    )
    n_excluded = int(np.sum(~np.isfinite(terminal)))
    if n_excluded > 0.01 * n_paths:
        raise RuntimeError(f"{n_excluded} of {n_paths} paths produced non-finite terminals")
    return _terminal_report(
        terminal,
        spec.x0,
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
    blocks = _rollout_blocks(policy, model, n_paths, spec, seed, dynamics, sig_kind, explore,
                             expectation_signal)
    # map lets go of each block before the next one is drawn, which bounds the peak memory
    terminals = map(lambda block: block[0][:, -1] - block[1][..., -1], blocks)
    return np.concatenate(list(terminals)), sig_kind


def _rollout_blocks(
    policy: GaussianPolicy, model: MarketModel, n_paths: int, spec: ProblemSpec, seed: int,
    dynamics: str, sig_kind: str, explore: bool, expectation_signal: str,
):
    """The paths of ``out_of_sample``, generated and rolled out ``_BLOCK`` at a time.

    Yields per block the wealth x (paths, T + 1), the liabilities l
    ((paths, T + 1) in real dynamics, otherwise the one (T + 1,) path every
    path shares), the (e0, e1, q) rates, the (cx, cl, c0, sd) coefficients
    and the action noise.  The next block overwrites the real-dynamics rates.
    """
    horizon = spec.horizon
    if dynamics == "real":
        if sig_kind != "regime":
            probs = filter_states(model.chain.p0, model.chain.matrix(), horizon)
        block = np.empty((3, _BLOCK, horizon))  # e0, e1, q rows of the paths in a block
        in1 = np.empty((_BLOCK, horizon), dtype=bool)
    else:  # observable_rates rejects an unknown flavor
        probs, _, schedule = observable_rates(model, horizon, dynamics, expectation_signal)
        e0, ex, q = schedule.a0, schedule.a1, schedule.a2
        e1, l = e0 + ex, liability_path(spec.l0, q)

    if sig_kind == "regime":
        if dynamics != "real":
            raise ValueError("regime signal requires real dynamics")
        by_regime = _regime_affine_tables(policy, horizon)
    else:
        coef = _affine_tables(policy, np.arange(horizon), signal_path(sig_kind, probs)[:-1]).T

    noise_rng = stream(seed, 0)
    for rows in _blocks(n_paths):
        shape = (len(rows), horizon)
        noise = noise_rng.standard_normal(shape) if explore else np.zeros(shape)
        if dynamics == "real":
            for j, i in enumerate(rows):
                regimes, _ = draw_path(model, horizon, stream(seed, 1 + i),
                                       stream(seed, RETURNS_KEY + i), out=block[:, j])
                np.equal(regimes[:-1], 1, out=in1[j])
            e0, e1, q = block[:, : len(rows)]
            ex = e1 - e0
            l = liability_path(spec.l0, q)
            if sig_kind == "regime":
                at1 = in1[: len(rows)]
                coef = [np.where(at1, by_regime[0, :, k], by_regime[1, :, k]) for k in range(4)]
        cx, cl, c0, sd = coef
        x = rl._linear_rollout(e0 + ex * cx, ex * (cl * l[..., :-1] + c0 + sd * noise), spec.x0)
        yield x, l, (e0, e1, q), coef, noise


def simulate(
    policy: GaussianPolicy, model: MarketModel, spec: ProblemSpec, seed: int,
    dynamics: str = "real", signal: str | None = None, expectation_signal: str = "expected_state",
) -> Episode:
    """One recorded episode: path 0 of ``out_of_sample`` with the same arguments.

    Its terminal x_T - l_T is that evaluation's first terminal, and the action
    at t is (cx*x_t + cl*l_t + c0) + sd*noise_t.  The hidden regime path
    (stream 1) is recorded under every flavor, with the filter path p_0..p_T.
    A state that is not finite raises, naming its first period.
    """
    if spec.x0 <= 0.0:
        raise ValueError("initial wealth must be positive")
    if dynamics not in DYNAMICS:
        raise ValueError(f"dynamics must be one of {DYNAMICS}, got {dynamics!r}")
    signal = signal or mixing_signal(dynamics, expectation_signal)
    if signal not in SIGNALS:
        raise ValueError(f"signal must be one of {SIGNALS}, got {signal!r}")
    x, l, rates, (cx, cl, c0, sd), noise = next(
        _rollout_blocks(policy, model, 1, spec, seed, dynamics, signal, True, expectation_signal)
    )
    x, l = x[0], np.ravel(l)  # real dynamics give a block of one path
    bad = ~(np.isfinite(x) & np.isfinite(l))
    if bad.any():
        raise ValueError(f"episode diverged to non-finite state at t={int(np.argmax(bad))}")
    action = (cx * x[:-1] + (cl * l[:-1] + c0)) + sd * noise
    chain, horizon = model.chain, spec.horizon
    return Episode(x, l, regime_path(chain, horizon, stream(seed, 1)),
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
    transition estimates, in ``rl._run``.  The block pick is the stream's first
    draw and the action noise follows it; before the first estimate there is
    no episode.  ``blocks`` estimates each window once, so a warm source gives
    the same states as a fresh one.  ``algo`` is ``"poemv1"`` (filter signal)
    or ``"emv"`` (regime-blind baseline: constant sojourn-weighted baseline
    rate, no liability in its world, unit signal).
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
    if algo == "emv":  # the same unit signal and zero liability in every episode
        blind_feats = rl._flat(rl.features(np.ones(horizon + 1), rl._tau_grid(horizon, hyper.dt),
                                           hyper.m))
        blind_l = np.zeros(horizon + 1)

    def draw(rng: np.random.Generator, slot: int) -> rl._Scenario | None:
        nonlocal running
        closes, est = blocks.sample(rng)
        if est is not None:  # a single-regime block keeps the previous estimate
            running = est if running is None else data_ingest.exp_average_update(
                running, est, _N_SMOOTH
            )
        if running is None:
            return None
        gross = closes[1:] / closes[:-1]
        p12, p21 = running.tolist()
        if algo == "poemv1":
            mat = np.array([[1.0 - p12, p12], [p21, 1.0 - p21]])
            sc = rl._observable_scenario(model, hyper, spec, "filtered", p=mat)
            sc.ex = gross - sc.e0
            return sc
        e0_bar = np.full(horizon, 1.0 + _baseline_rate(model, p12, p21) * hyper.dt)
        return rl._Scenario(e0_bar, gross - e0_bar, blind_l, blind_feats)

    return rl._run(rl.TrainState.start(algo, hyper, spec), draw)


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
    sees a unit signal and no liability inside its own decision rule, but is
    scored on the common terminal net wealth.
    """
    horizon = spec.horizon
    if state.spec.horizon != horizon:
        raise ValueError(
            f"problem horizon {horizon} differs from the trained horizon {state.spec.horizon}"
        )
    probs, _, schedule = observable_rates(model, horizon, "filtered")
    e0_bar, l_path = schedule.a0, liability_path(spec.l0, schedule.a2)

    if state.algo == "poemv1":
        sig, l_seen = probs, l_path
    else:
        sig, l_seen = np.ones(horizon + 1), np.zeros(horizon + 1)
    cx, cl, c0, sd = _affine_tables(rl.policy_from_state(state), np.arange(horizon), sig[:-1]).T
    shift = cl * l_seen[:-1] + c0

    terminals = np.empty(n_paths)
    block = np.empty((3, _BLOCK, horizon))  # e0, e1, q rows of the paths in a block
    for rows in _blocks(n_paths):
        rngs = [stream(seed, i) for i in rows]
        for j, rng in enumerate(rngs):
            draw_path(model, horizon, rng, rng, out=block[:, j])
        e1 = block[1, : len(rows)]
        shape = (len(rows), horizon)
        noise = np.stack([rng.standard_normal(horizon) for rng in rngs]) if explore else np.zeros(shape)
        ex = e1 - e0_bar
        x = rl._linear_rollout(e0_bar + ex * cx, ex * (shift + sd * noise), spec.x0)
        terminals[rows.start : rows.stop] = x[:, -1] - l_path[-1]
    return _terminal_report(terminals, spec.x0, policy_kind="learned", algo=state.algo, seed=seed)
