"""Actor-critic learners for the exploratory mean-variance problem.

The critic is a quadratic form in (wealth, liability) whose scalar weights are
exp/minus-exp/linear expansions of polynomial grids in (signal, time-to-go);
the actor is the Gaussian family implied by the shape of the optimal control,
with its own grids.  Policy evaluation fits the critic by stochastic gradient
steps on the martingale loss of single sampled episodes; the actor follows the
episode-based policy gradient; the constraint multiplier self-corrects every
few iterations from the recent terminal surpluses.

Three signal flavors share all code paths: the true regime label (complete
information), the regime-1 probability path (partial information with
filtering), and the expected-state signal (partial information without regime
learning).  Each learner trains and is deployed in the matching dynamics: the
real market for the complete-information learner, the filtered or
expectation-weighted observable dynamics otherwise.

Time-to-go inside the polynomial grids is measured in years
((horizon - t) * dt); with period counting the stated learning rates blow the
exponential expansions up immediately.

Layout: every (m+1, m) grid is one row of a stacked array with
K = (m+1)·m columns, a (6, K) array for the critic (theta1, theta2, theta3,
vartheta1, vartheta2, psi) and a (3, K) array for the actor (phi1, phi2,
phi3); the named grids are reshaped views of those rows.  Features along a
path are a (T+1, K) matrix F (a reshape of ``features``), so one expansion
is one product P F^T followed by ``exp`` on the five exponential rows, and
one gradient is one product D F[:-1] of the (grids, T) per-period weights D.
A training iteration (``_train_step``, shared by ``train`` and the empirical
pipeline) expands the critic twice and the actor once: sampling and the
martingale-loss gradient share the pre-update expansions, and the policy
gradient re-expands only the updated critic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .closed_form import GaussianPolicy, ProblemSpec
from .filtering import filter_states, mixed_schedule, mixing_signal, signal_path
from .market import Episode, MarketModel, regime_path, sample_return_paths, stream

ALGO_FLAVORS = {"coemv": "real", "poemv1": "filtered", "poemv2": "expectation"}  # dynamics

_CRITIC_GRIDS = ("theta1", "theta2", "theta3", "vartheta1", "vartheta2", "psi")
_ACTOR_GRIDS = ("phi1", "phi2", "phi3")
_N_EXP = 5  # the critic's first five grids enter through exp (the last two negated)


class DivergenceError(RuntimeError):
    """Raised when a training run produces non-finite parameters or states."""


class _Grids:
    """Named (m+1, m) grids held as the rows of one stacked (len(names), K) array."""

    names: tuple[str, ...] = ()

    def __init__(self, *grids: np.ndarray, m: int = 2, **named: np.ndarray):
        rest = self.names[len(grids) :]
        if len(grids) > len(self.names) or set(named) != set(rest):
            raise TypeError(f"{type(self).__name__} takes the grids {', '.join(self.names)}")
        stacked = np.empty((len(self.names), (m + 1) * m))
        for row, (name, grid) in enumerate(zip(self.names, (*grids, *(named[n] for n in rest)))):
            grid = np.asarray(grid, dtype=float)
            if grid.shape != (m + 1, m):
                raise ValueError(f"grid {name} has shape {grid.shape}, expected {(m + 1, m)}")
            stacked[row] = grid.ravel()
        self.stacked, self.m = stacked, m

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, m: int):
        obj = cls.__new__(cls)
        obj.stacked, obj.m = stacked, m
        return obj

    @classmethod
    def zeros(cls, m: int = 2):
        return cls.from_stacked(np.zeros((len(cls.names), (m + 1) * m)), m)

    def grids(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self.names}


def _grid_view(row: int) -> property:
    return property(lambda self: self.stacked[row].reshape(self.m + 1, self.m))


class CriticParams(_Grids):
    """Coefficient grids of the parameterized objective, each (m+1, m).

    Also the layout of the martingale-loss gradient (one grid per grid).
    """

    names = _CRITIC_GRIDS
    theta1, theta2, theta3, vartheta1, vartheta2, psi = map(_grid_view, range(6))


class ActorParams(_Grids):
    """Policy coefficient grids, each (m+1, m); also the policy-gradient layout."""

    names = _ACTOR_GRIDS
    phi1, phi2, phi3 = map(_grid_view, range(3))


@dataclass(frozen=True)
class Hyperparams:
    """Learning configuration; defaults mirror the reference experiments."""

    eta_theta: float = 1e-12
    eta_vartheta: float = 1e-12
    eta_psi: float = 1e-9
    eta_phi: float = 1e-9
    alpha: float = 1e-2
    n_avg: int = 10
    n_iter: int = 10_000
    dt: float = 1.0 / 252.0
    seed: int = 0
    m: int = 2
    batch_size: int = 1
    grad_clip: float | None = 1e6
    w0: float | None = None  # None: start at the target payoff
    expectation_signal: str = "expected_state"

    def __post_init__(self) -> None:
        for name in ("eta_theta", "eta_vartheta", "eta_psi", "eta_phi", "alpha", "dt"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name, low in (("n_avg", 1), ("batch_size", 1), ("m", 1), ("n_iter", 0)):
            value = getattr(self, name)
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value!r}")
        clip = self.grad_clip
        if clip is not None and not 0.0 < clip < math.inf:
            raise ValueError(f"grad_clip must be positive and finite, or None; got {clip!r}")
        if self.w0 is not None and not math.isfinite(self.w0):
            raise ValueError(f"w0 must be finite or None, got {self.w0!r}")
        try:
            mixing_signal("expectation", self.expectation_signal)
        except ValueError as exc:
            raise ValueError(f"expectation_signal: {exc}") from None

    def require_market_dt(self, model: MarketModel) -> None:
        """Reject a market whose period length differs from the training dt."""
        if self.dt != model.dt:
            raise ValueError(f"hyper dt = {self.dt!r} differs from the market's dt = {model.dt!r}")


def features(signals, taus, m: int) -> np.ndarray:
    """Polynomial features signal^i * tau^j for i = 0..m, j = 1..m."""
    s = np.atleast_1d(np.asarray(signals, dtype=float))
    tau = np.atleast_1d(np.asarray(taus, dtype=float))
    s_pow = s[:, None] ** np.arange(m + 1)[None, :]
    t_pow = tau[:, None] ** np.arange(1, m + 1)[None, :]
    return s_pow[:, :, None] * t_pow[:, None, :]


def _flat(feats: np.ndarray) -> np.ndarray:
    """(n, K) feature matrix of a (n, m+1, m) or (n, K) feature array."""
    return feats.reshape(len(feats), -1)


@dataclass(frozen=True)
class _CriticExpansion:
    """Scalar critic weights along one feature path."""

    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray
    vartheta1: np.ndarray
    vartheta2: np.ndarray
    psi: np.ndarray

    def values(self, x, l, w: float) -> np.ndarray:
        wl = w + self.theta2 * l
        return (
            self.theta1 * x * x
            + self.vartheta1 * wl * x
            + wl * wl * self.vartheta2
            + self.theta2 * w * l
            + self.theta3 * l * l
            + self.psi
        )


def _expand_critic(feats: np.ndarray, critic: CriticParams) -> _CriticExpansion:
    z = critic.stacked @ _flat(feats).T
    with np.errstate(over="ignore"):
        e = np.exp(z[:_N_EXP])
    if not np.all(np.isfinite(e)):
        bad = int(np.argmin(np.isfinite(e).all(axis=1)))
        raise OverflowError(f"exponential expansion of grid {_CRITIC_GRIDS[bad]} overflowed")
    return _CriticExpansion(e[0], e[1], e[2], -e[3], -e[4], z[_N_EXP])


def _expand_actor(feats: np.ndarray, actor: ActorParams) -> np.ndarray:
    """(3, n) rows phi1, phi2, phi3 along the feature path."""
    ph = actor.stacked @ _flat(feats).T
    if not np.all(np.isfinite(ph[1:])):
        raise OverflowError("actor grid expansion is not finite")
    return ph


def _tau_grid(horizon: int, dt: float) -> np.ndarray:
    return (horizon - np.arange(horizon + 1)) * dt


def critic_value(
    t: int,
    x: float,
    l: float,
    signal: float,
    critic: CriticParams,
    w: float,
    horizon: int,
    dt: float,
) -> float:
    """Parameterized objective value at one state."""
    if not 0 <= t <= horizon:
        raise ValueError(f"t must lie in [0, {horizon}], got {t}")
    feats = features([signal], [(horizon - t) * dt], critic.m)
    return float(_expand_critic(feats, critic).values(np.array([x]), np.array([l]), w)[0])


def actor_mean_var(
    t: int,
    x: float,
    l: float,
    signal: float,
    critic: CriticParams,
    actor: ActorParams,
    w: float,
    horizon: int,
    dt: float,
) -> tuple[float, float]:
    feats = features([signal], [(horizon - t) * dt], actor.m)
    ce = _expand_critic(feats, critic)
    ph1, ph2, ph3 = _expand_actor(feats, actor)
    mean = ph1[0] * x - (ce.vartheta1[0] / ce.theta1[0]) * math.exp(ph2[0]) * (
        w + ce.theta2[0] * l
    )
    variance = math.exp(ph3[0]) / (2.0 * ce.theta1[0])
    return float(mean), float(variance)


def policy_entropy(theta1: float, phi3: float) -> float:
    """Differential entropy of the parameterized Gaussian action law."""
    if theta1 <= 0.0:
        raise ValueError("theta1 must be positive")
    return -0.5 * math.log(theta1 / math.pi) + 0.5 * (phi3 + 1.0)


def episode_signal(episode: Episode, kind: str) -> np.ndarray:
    """Signal path the learners condition on, derived from the episode record."""
    if kind == "regime":
        return episode.regime.astype(float)
    return signal_path(kind, episode.p_hat)


def terminal_objective(x: float, l: float, w: float, d: float) -> float:
    return (x - l - w) ** 2 - (w - d) ** 2


@dataclass(frozen=True)
class _EpisodeArrays:
    """Everything the loss/gradient formulas need, in vector form (t = 0..T)."""

    x: np.ndarray
    l: np.ndarray
    action: np.ndarray
    feats: np.ndarray  # (T+1, K)


def _episode_arrays(episode: Episode, signal_kind: str, m: int, dt: float) -> _EpisodeArrays:
    sig = episode_signal(episode, signal_kind)
    taus = _tau_grid(episode.n_periods, dt)
    return _EpisodeArrays(
        x=episode.x, l=episode.l, action=episode.action, feats=_flat(features(sig, taus, m))
    )


def _entropy_path(ce: _CriticExpansion, ph3: np.ndarray) -> np.ndarray:
    return -0.5 * np.log(ce.theta1 / math.pi) + 0.5 * (ph3 + 1.0)


def _ml_deltas(
    ep: _EpisodeArrays,
    ce: _CriticExpansion,
    w: float,
    d: float,
    lam: float,
    dt: float,
    entropies: np.ndarray,
) -> np.ndarray:
    """J_T - J_t^(params) - lam * sum_{k>=t} H_k dt for t = 0..T-1."""
    values = ce.values(ep.x, ep.l, w)
    jt_true = terminal_objective(float(ep.x[-1]), float(ep.l[-1]), w, d)
    tail = np.cumsum((entropies * dt)[::-1])[::-1]
    return jt_true - values[:-1] - lam * tail


def _critic_coefficient_arrays(ep: _EpisodeArrays, ce: _CriticExpansion, w: float) -> np.ndarray:
    """(6, T) per-period partial derivatives of the critic value, sans the feature factor."""
    x, l = ep.x[:-1], ep.l[:-1]
    th2, v1, v2 = ce.theta2[:-1], ce.vartheta1[:-1], ce.vartheta2[:-1]
    wl = w + th2 * l
    return np.stack(
        [
            x * x * ce.theta1[:-1],
            (v1 * l * x + 2.0 * wl * v2 * l + w * l) * th2,
            l * l * ce.theta3[:-1],
            wl * x * v1,
            wl * wl * v2,
            np.ones_like(x),
        ]
    )


def _ml_gradients_arrays(
    ep: _EpisodeArrays,
    ce: _CriticExpansion,
    entropies: np.ndarray,
    w: float,
    d: float,
    lam: float,
    dt: float,
) -> np.ndarray:
    """(6, K) martingale-loss gradient of one episode at the critic expanded in ``ce``."""
    deltas = _ml_deltas(ep, ce, w, d, lam, dt, np.asarray(entropies))
    return -dt * ((_critic_coefficient_arrays(ep, ce, w) * deltas) @ ep.feats[:-1])


def _policy_gradient_arrays(
    ep: _EpisodeArrays,
    ce: _CriticExpansion,
    ph: np.ndarray,
    w: float,
    lam: float,
    dt: float,
) -> np.ndarray:
    """(3, K) policy gradient of one episode at the expansions ``ce`` and ``ph``."""
    ph1, ph2, ph3 = ph
    entropies = _entropy_path(ce, ph3)[:-1]
    td = np.diff(ce.values(ep.x, ep.l, w)) - lam * entropies * dt

    x, l, u = ep.x[:-1], ep.l[:-1], ep.action
    th1 = ce.theta1[:-1]
    gain = 2.0 * th1 * np.exp(-ph3[:-1])
    offset = -(ce.vartheta1[:-1] / th1) * np.exp(ph2[:-1]) * (w + ce.theta2[:-1] * l)
    resid = u - (ph1[:-1] * x + offset)
    s1 = gain * resid * x
    s2 = gain * resid * offset
    s3 = 0.5 * gain * resid * resid - 0.5
    return np.stack([s1 * td, s2 * td, s3 * td - lam * 0.5 * dt]) @ ep.feats[:-1]


def martingale_loss(
    episode: Episode,
    critic: CriticParams,
    actor: ActorParams,
    w: float,
    spec: ProblemSpec,
    dt: float,
    signal_kind: str = "filtered_prob",
    lam: float | None = None,
    entropies: np.ndarray | None = None,
) -> float:
    """Single-episode martingale loss of the critic under the given policy.

    ``entropies`` may supply the per-period policy entropies as recorded data
    (they are part of the sampled episode as far as the loss is concerned); by
    default they are recomputed from the current parameters.
    """
    lam = spec.explore_weight if lam is None else lam
    ep = _episode_arrays(episode, signal_kind, critic.m, dt)
    ce = _expand_critic(ep.feats, critic)
    if entropies is None:
        entropies = _entropy_path(ce, _expand_actor(ep.feats, actor)[2])[:-1]
    deltas = _ml_deltas(ep, ce, w, spec.target, lam, dt, np.asarray(entropies))
    return float(0.5 * np.sum(deltas**2) * dt)


def ml_gradients(
    episode: Episode,
    critic: CriticParams,
    actor: ActorParams,
    w: float,
    spec: ProblemSpec,
    dt: float,
    signal_kind: str = "filtered_prob",
    lam: float | None = None,
    entropies: np.ndarray | None = None,
) -> CriticParams:
    """Martingale-loss gradients w.r.t. every critic grid (single episode).

    Assembled from the per-entry partial derivatives of the parameterized
    objective; descending the loss means stepping *against* these values.
    """
    lam = spec.explore_weight if lam is None else lam
    ep = _episode_arrays(episode, signal_kind, critic.m, dt)
    ce = _expand_critic(ep.feats, critic)
    if entropies is None:
        entropies = _entropy_path(ce, _expand_actor(ep.feats, actor)[2])[:-1]
    grads = _ml_gradients_arrays(ep, ce, entropies, w, spec.target, lam, dt)
    return CriticParams.from_stacked(grads, critic.m)


def policy_gradient(
    episode: Episode,
    critic: CriticParams,
    actor: ActorParams,
    w: float,
    spec: ProblemSpec,
    dt: float,
    signal_kind: str = "filtered_prob",
    lam: float | None = None,
) -> ActorParams:
    """Episode estimate of the objective gradient w.r.t. the actor grids."""
    lam = spec.explore_weight if lam is None else lam
    ep = _episode_arrays(episode, signal_kind, critic.m, dt)
    ce = _expand_critic(ep.feats, critic)
    grads = _policy_gradient_arrays(ep, ce, _expand_actor(ep.feats, actor), w, lam, dt)
    return ActorParams.from_stacked(grads, actor.m)


def update_lagrange(w: float, recent_terminals, d: float, alpha: float) -> float:
    """Self-correcting multiplier step from a window of terminal surpluses."""
    window = np.asarray(recent_terminals, dtype=float)
    if window.size == 0:
        raise ValueError("the terminal-surplus window is empty")
    return w - alpha * (float(np.mean(window)) - d)


@dataclass
class TrainState:
    """Everything a training run produces, sufficient to resume it exactly."""

    algo: str
    critic: CriticParams
    actor: ActorParams
    w: float
    iteration: int
    terminals: list[float]
    ws: list[float]
    recent_terminals: list[float]
    hyper: Hyperparams
    spec: ProblemSpec

    @classmethod
    def start(cls, algo: str, hyper: Hyperparams, spec: ProblemSpec) -> "TrainState":
        """Zero grids and the configured starting multiplier, before iteration 0."""
        critic, actor = CriticParams.zeros(hyper.m), ActorParams.zeros(hyper.m)
        w = spec.target if hyper.w0 is None else hyper.w0
        return cls(algo, critic, actor, w, 0, [], [], [], hyper, spec)

    def history_rows(self, block: int = 10) -> list[dict]:
        rows = []
        terms = np.asarray(self.terminals)
        ws = np.asarray(self.ws)
        for start in range(0, len(terms), block):
            chunk = terms[start : start + block]
            rows.append(
                {
                    "iter": min(start + block, len(terms)),
                    "avg_terminal_net_wealth": float(np.mean(chunk)),
                    "var_terminal_net_wealth": (
                        float(np.var(chunk, ddof=1)) if len(chunk) > 1 else 0.0
                    ),
                    "w": float(np.mean(ws[start : start + block])),
                }
            )
        return rows

    def to_dict(self) -> dict:
        return {
            "algo": self.algo,
            "w": self.w,
            "iteration": self.iteration,
            "critic": {k: v.tolist() for k, v in self.critic.grids().items()},
            "actor": {k: v.tolist() for k, v in self.actor.grids().items()},
            "terminals": list(map(float, self.terminals)),
            "ws": list(map(float, self.ws)),
            "recent_terminals": list(map(float, self.recent_terminals)),
            "hyper": {
                "eta_theta": self.hyper.eta_theta,
                "eta_vartheta": self.hyper.eta_vartheta,
                "eta_psi": self.hyper.eta_psi,
                "eta_phi": self.hyper.eta_phi,
                "alpha": self.hyper.alpha,
                "n_avg": self.hyper.n_avg,
                "n_iter": self.hyper.n_iter,
                "dt": self.hyper.dt,
                "seed": self.hyper.seed,
                "m": self.hyper.m,
                "batch_size": self.hyper.batch_size,
                "grad_clip": self.hyper.grad_clip,
                "w0": self.hyper.w0,
                "expectation_signal": self.hyper.expectation_signal,
            },
            "spec": {
                "horizon": self.spec.horizon,
                "target": self.spec.target,
                "multiplier": self.spec.multiplier,
                "explore_weight": self.spec.explore_weight,
                "x0": self.spec.x0,
                "l0": self.spec.l0,
            },
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainState":
        m = int(d["hyper"]["m"])
        critic = CriticParams(**{k: np.asarray(v) for k, v in d["critic"].items()}, m=m)
        actor = ActorParams(**{k: np.asarray(v) for k, v in d["actor"].items()}, m=m)
        return cls(
            algo=d["algo"],
            critic=critic,
            actor=actor,
            w=d["w"],
            iteration=d["iteration"],
            terminals=list(d["terminals"]),
            ws=list(d["ws"]),
            recent_terminals=list(d["recent_terminals"]),
            hyper=Hyperparams(**d["hyper"]),
            spec=ProblemSpec(**d["spec"]),
        )


@dataclass(frozen=True)
class _Scenario:
    """What one training episode is rolled through: per-period baseline and
    excess gross returns (t = 0..T-1), the liability path and the (T+1, K)
    features (t = 0..T)."""

    e0: np.ndarray
    ex: np.ndarray
    l: np.ndarray
    feats: np.ndarray


@dataclass(frozen=True)
class _TrainEnv:
    model: MarketModel
    horizon: int
    l0: float
    # filtered/expectation dynamics: every episode sees the same scenario
    fixed: _Scenario | None = None
    # real dynamics: (2, T+1, K) features of the regime labels 1 and 2
    feats_by_regime: np.ndarray | None = None


def _build_env(algo: str, model: MarketModel, hyper: Hyperparams, spec: ProblemSpec) -> _TrainEnv:
    if algo not in ALGO_FLAVORS:
        raise ValueError(f"algo must be one of {sorted(ALGO_FLAVORS)}, got {algo!r}")
    dynamics = ALGO_FLAVORS[algo]
    horizon = spec.horizon
    taus = _tau_grid(horizon, hyper.dt)
    if dynamics == "real":
        feats_by_regime = np.stack(
            [_flat(features(np.full(horizon + 1, s), taus, hyper.m)) for s in (1.0, 2.0)]
        )
        return _TrainEnv(model, horizon, spec.l0, feats_by_regime=feats_by_regime)
    chain = model.chain
    probs = filter_states(chain.p0, chain.matrix(), horizon)
    signal = signal_path(mixing_signal(dynamics, hyper.expectation_signal), probs)
    schedule = mixed_schedule(model.moment_pair(), signal[:-1], dynamics)
    l_path = spec.l0 * np.concatenate(([1.0], np.cumprod(schedule.a2)))
    fixed = _Scenario(schedule.a0, schedule.a1, l_path, _flat(features(signal, taus, hyper.m)))
    return _TrainEnv(model, horizon, spec.l0, fixed=fixed)


def _draw_scenario(env: _TrainEnv, rng: np.random.Generator) -> _Scenario:
    if env.fixed is not None:
        return env.fixed
    regimes = regime_path(env.model.chain, env.horizon, rng)
    rec = sample_return_paths(regimes[:-1], env.model, rng)
    l_path = env.l0 * np.concatenate(([1.0], np.cumprod(rec.q)))
    feats = env.feats_by_regime[regimes - 1, np.arange(env.horizon + 1)]
    return _Scenario(rec.e0, rec.e1 - rec.e0, l_path, feats)


def _linear_rollout(alpha: np.ndarray, beta: np.ndarray, x0: float) -> np.ndarray:
    """x_{t+1} = alpha_t x_t + beta_t from x_0 = x0, along the last axis.

    ``beta`` is one path (T,) or a block of paths (P, T); ``alpha`` has the
    same shape or is one (T,) row shared by every path.  Each path takes the
    closed form x_t = A_t (x0 + sum_{k<t} beta_k / A_{k+1}) over the cumulative
    products A of alpha; a path whose products leave 1e-250 < |A| < inf, or
    whose closed form is not finite, runs the recursion itself instead.
    """
    a, b = np.atleast_2d(alpha), np.atleast_2d(beta)
    x = np.empty((len(b), b.shape[1] + 1))
    x[:, 0] = x0
    with np.errstate(all="ignore"):
        cum = np.cumprod(a, axis=1)
        x[:, 1:] = cum * (x0 + np.cumsum(b / cum, axis=1))
        ok = np.isfinite(x).all(axis=1) & (np.isfinite(cum) & (np.abs(cum) > 1e-250)).all(axis=1)
        if not ok.all():
            seq = x[~ok]
            a_seq = a if len(a) == 1 else a[~ok]
            b_seq = b[~ok]
            for t in range(b.shape[1]):
                seq[:, t + 1] = a_seq[:, t] * seq[:, t] + b_seq[:, t]
            x[~ok] = seq
    return x if np.ndim(beta) == 2 else x[0]


def _sample_training_episode(
    sc: _Scenario,
    ce: _CriticExpansion,
    ph: np.ndarray,
    w: float,
    x0: float,
    rng: np.random.Generator,
) -> _EpisodeArrays:
    """Roll the policy expanded in ``ce``/``ph`` through one scenario, drawing
    its action noise from ``rng``."""
    ph1, ph2, ph3 = ph
    offset = -(ce.vartheta1 / ce.theta1) * np.exp(ph2) * (w + ce.theta2 * sc.l)
    var = np.exp(ph3) / (2.0 * ce.theta1)
    noise = rng.standard_normal(len(sc.e0))
    shock = offset[:-1] + np.sqrt(var[:-1]) * noise
    x = _linear_rollout(sc.e0 + sc.ex * ph1[:-1], sc.ex * shock, x0)
    if not np.all(np.isfinite(x)):
        raise OverflowError("episode wealth path became non-finite")
    return _EpisodeArrays(x=x, l=sc.l, action=ph1[:-1] * x[:-1] + shock, feats=sc.feats)


def _clip(grad: np.ndarray, limit: float | None) -> np.ndarray:
    if limit is None:
        return grad
    return np.clip(grad, -limit, limit)


def _check_finite(params: _Grids, iteration: int, kind: str) -> None:
    finite = np.isfinite(params.stacked).all(axis=1)
    if not finite.all():
        name = params.names[int(np.argmin(finite))]
        raise DivergenceError(f"{kind} grid {name} became non-finite at iteration {iteration}")


def _train_step(
    state: TrainState, scenarios: Iterable[_Scenario], rng: np.random.Generator, k: int
) -> None:
    """Iteration ``k`` of the actor-critic loop, applied to ``state`` in place.

    ``scenarios`` is consumed lazily, one episode at a time, so an episode's
    market draws precede its action noise and the next episode's draws follow
    it.  Each episode is sampled from one critic and one actor expansion,
    which the martingale-loss gradient reuses; after the critic step only the
    updated critic is expanded again for the policy gradient.  With several
    episodes each step follows the mean of the per-episode gradients.  Every
    ``n_avg`` iterations the multiplier moves against the windowed
    terminal-surplus error.
    """
    hyper, spec, w = state.hyper, state.spec, state.w
    lam, d, dt, m = spec.explore_weight, spec.target, hyper.dt, hyper.m
    critic_rates = np.repeat([hyper.eta_theta, hyper.eta_vartheta, hyper.eta_psi], (3, 2, 1))
    try:
        batch = []
        for sc in scenarios:
            ce = _expand_critic(sc.feats, state.critic)
            ph = _expand_actor(sc.feats, state.actor)
            batch.append((_sample_training_episode(sc, ce, ph, w, spec.x0, rng), ce, ph))
        grads = [
            _ml_gradients_arrays(ep, ce, _entropy_path(ce, ph[2])[:-1], w, d, lam, dt)
            for ep, ce, ph in batch
        ]
        step = critic_rates[:, None] * _clip(sum(grads) / len(grads), hyper.grad_clip)
        state.critic = CriticParams.from_stacked(state.critic.stacked - step, m)
        _check_finite(state.critic, k, "critic")

        grads = [
            _policy_gradient_arrays(ep, _expand_critic(ep.feats, state.critic), ph, w, lam, dt)
            for ep, _, ph in batch
        ]
        step = hyper.eta_phi * _clip(sum(grads) / len(grads), hyper.grad_clip)
        state.actor = ActorParams.from_stacked(state.actor.stacked - step, m)
        _check_finite(state.actor, k, "actor")
    except OverflowError as exc:
        raise DivergenceError(f"{exc} at iteration {k}") from exc

    terminal = float(np.mean([ep.x[-1] - ep.l[-1] for ep, _, _ in batch]))
    ring = state.recent_terminals
    ring.append(terminal)
    del ring[: -hyper.n_avg]
    if (k + 1) % hyper.n_avg == 0:
        state.w = update_lagrange(w, ring, d, hyper.alpha)
        if not math.isfinite(state.w):
            raise DivergenceError(f"multiplier became non-finite at iteration {k}")
    state.terminals.append(terminal)
    state.ws.append(state.w)


def train(
    algo: str,
    model: MarketModel,
    hyper: Hyperparams,
    spec: ProblemSpec,
    state: TrainState | None = None,
) -> TrainState:
    """Run (or resume) one actor-critic training loop.

    Per iteration: sample one episode (or a small batch) in the flavor's
    dynamics, take a single descent step on the martingale loss for the
    critic, then a single policy-gradient step for the actor using the just
    updated critic, and every ``n_avg`` iterations move the multiplier against
    the windowed terminal-surplus error.  Iteration k draws from the
    independent stream (seed, k), so a resumed run reproduces an uninterrupted
    one bit for bit.
    """
    hyper.require_market_dt(model)
    env = _build_env(algo, model, hyper, spec)
    if state is None:
        run = TrainState.start(algo, hyper, spec)
    else:
        if state.algo != algo:
            raise ValueError(f"checkpoint is for algo {state.algo!r}, not {algo!r}")
        if hyper.n_iter < state.iteration:
            raise ValueError(
                f"n_iter = {hyper.n_iter} is below the checkpoint's iteration {state.iteration}"
            )
        run = replace(
            state,
            terminals=list(state.terminals),
            ws=list(state.ws),
            recent_terminals=list(state.recent_terminals),
            hyper=hyper,
            spec=spec,
        )

    for k in range(run.iteration, hyper.n_iter):
        rng = stream(hyper.seed, k)
        _train_step(run, (_draw_scenario(env, rng) for _ in range(hyper.batch_size)), rng, k)
    run.iteration = hyper.n_iter
    return run


def policy_from_state(state: TrainState) -> GaussianPolicy:
    """Frozen learned policy; the runtime signal selects the grid features."""
    critic, actor, w = state.critic, state.actor, state.w
    horizon, dt, m = state.spec.horizon, state.hyper.dt, state.hyper.m

    def affine_table(ts: np.ndarray, signals: np.ndarray) -> np.ndarray:
        feats = features(signals, (horizon - np.asarray(ts)) * dt, m)
        ce = _expand_critic(feats, critic)
        ph1, ph2, ph3 = _expand_actor(feats, actor)
        scale = -(ce.vartheta1 / ce.theta1) * np.exp(ph2)
        variance = np.exp(ph3) / (2.0 * ce.theta1)
        return np.stack([ph1, scale * ce.theta2, scale * w, variance], axis=1)

    return GaussianPolicy(affine_table, "learned")
