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
One loop (``_run``) trains every learner on its scenario source ``draw(rng,
slot)``, keying iteration k on the stream (seed, k): a scenario carries its
market path and then its action noise, both drawn there, so sampling reads
no generator and no draw depends on the parameters.  A run pays once for
what its iterations share: one generator, re-keyed to (seed, k) for
iteration k (``market.KeyedStreams``); in filtered and expectation dynamics
the one world (rates, liability path, features) that each iteration pairs
with fresh noise, whose builder (``_ObservableWorld``) holds the tau powers
and mixing inputs that the empirical pipeline's rebuilds at a new transition
estimate reuse; and the critic's column of learning rates (``_Workspace``).
An iteration recomputes only what its draws or parameters move.  An iteration
(``_train_step``) expands the critic twice and the actor once: sampling and the
martingale-loss gradient share the pre-update expansions, and the policy
gradient re-expands only the updated critic.  Each sampled episode is one
fused kernel (``_Episode``) that computes every shared per-period quantity
once -- exp(phi2), exp(phi3), the action offset and variance, the entropy
path, wl = w + theta2 l -- for sampling and both gradients.  The expansions
and the gradients' per-period weights are written into arrays a run reuses
(``_Workspace``), so an iteration allocates nothing of their size.

Drawing a real-market scenario (the regime path, the skewed-t and normal
legs, the noise) is about 40 % of a coemv iteration at T = 2520.  With a
second core, ``train`` has a forked child draw the scenarios ahead into a
ring of rows in shared memory (``_drawn_ahead``, after the actor/learner
split of IMPALA, Espeholt et al. 2018); the trainer reads views of the rows,
so every state is the serial run's, bit for bit.  The fork pays from about
50,000 scenario-periods (iterations x batch x T) on: on a 2-core host, with
48 MB of ballast, 20 iterations at T = 2520 took 22.7 against 24.3 ms
serially (medians of 15 alternating pairs, 11 won), 10 took 14.7 against
12.0 ms (none won), and from 30 on every pair was won (80: 72.5 against
123.7 ms).  ``_AHEAD_FLOOR`` = 100,000 leaves a margin.
"""

from __future__ import annotations

import math
import mmap
import operator
import os
from array import array
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable

import numpy as np

from . import forking
from .closed_form import GaussianPolicy, ProblemSpec, check_periods
from .filtering import mixing_signal, signal_path
from .market import Episode, KeyedStreams, MarketModel, ObservableRates, draw_path, liability_path

ALGO_FLAVORS = {"coemv": "real", "poemv1": "filtered", "poemv2": "expectation"}  # dynamics

_CRITIC_GRIDS = ("theta1", "theta2", "theta3", "vartheta1", "vartheta2", "psi")
_ACTOR_GRIDS = ("phi1", "phi2", "phi3")
_N_EXP = 5  # the critic's first five grids enter through exp (the last two negated)
_CRITIC_ROWS = len(_CRITIC_GRIDS) + _N_EXP  # an expansion: linear rows, then exp rows
# scenario-periods (iterations x batch x T) a run needs before a child draws its real-market
# scenarios ahead: a margin above the break-even measured in the module docstring
_AHEAD_FLOOR = 100_000
_RING_ROWS = 4  # rows of the ring a child draws scenarios into, at least batch_size + 1
_READY = b"r"  # the producer's token: the next row of the ring holds a scenario


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
        for name, low in (("n_avg", 1), ("batch_size", 1), ("m", 1), ("n_iter", 0), ("seed", None)):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be a whole number, got {value!r}") from None
            if low is not None and value < low:
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
    return _features_at(signals, _tau_powers(taus, m))


def _tau_powers(taus, m: int) -> np.ndarray:
    """(n, m) powers tau^j, j = 1..m, of the times-to-go ``taus``."""
    tau = np.atleast_1d(np.asarray(taus, dtype=float))
    return tau[:, None] ** np.arange(1, m + 1)[None, :]


def _features_at(signals, t_pow: np.ndarray) -> np.ndarray:
    """``features`` of ``signals`` at the tau powers ``t_pow`` (``_tau_powers``)."""
    s = np.atleast_1d(np.asarray(signals, dtype=float))
    s_pow = s[:, None] ** np.arange(t_pow.shape[1] + 1)[None, :]
    return s_pow[:, :, None] * t_pow[:, None, :]


def _flat(feats: np.ndarray) -> np.ndarray:
    """(n, K) feature matrix of a (n, m+1, m) or (n, K) feature array."""
    return feats.reshape(len(feats), -1)


@dataclass
class _CriticExpansion:
    """Scalar critic weights along one feature path."""

    theta1: np.ndarray
    theta2: np.ndarray
    theta3: np.ndarray
    vartheta1: np.ndarray
    vartheta2: np.ndarray
    psi: np.ndarray
    log_theta1: np.ndarray | None = None  # the linear expansion theta1 is the exp of


def _expand_critic(
    feats: np.ndarray, critic: CriticParams, out: np.ndarray | None = None
) -> _CriticExpansion:
    """Critic weights along ``feats``, held in ``out`` (_CRITIC_ROWS, n) when one
    is given: the six linear expansions, then the five exponential rows."""
    feats = _flat(feats)
    out = np.empty((_CRITIC_ROWS, len(feats))) if out is None else out
    z, e = out[:6], out[6:]
    np.matmul(critic.stacked, feats.T, out=z)
    with np.errstate(over="ignore"):
        np.exp(z[:_N_EXP], out=e)
    if not np.isfinite(e.max()):  # exp is never negative, so the max is inf or nan if any is
        bad = int(np.argmin(np.isfinite(e).all(axis=1)))
        raise OverflowError(f"exponential expansion of grid {_CRITIC_GRIDS[bad]} overflowed")
    np.negative(e[3:], out=e[3:])
    return _CriticExpansion(e[0], e[1], e[2], e[3], e[4], z[_N_EXP], z[0])


def _expand_actor(
    feats: np.ndarray, actor: ActorParams, out: np.ndarray | None = None
) -> np.ndarray:
    """(3, n) rows phi1, phi2, phi3 along the feature path (in ``out`` if given)."""
    ph = np.matmul(actor.stacked, _flat(feats).T, out=out)
    if not np.isfinite(ph[1:]).all():
        raise OverflowError("actor grid expansion is not finite")
    return ph


def _tau_grid(horizon: int, dt: float) -> np.ndarray:
    return (horizon - np.arange(horizon + 1)) * dt


def _learned_table(critic: CriticParams, actor: ActorParams, w: float, horizon: int, dt: float):
    """The learned policy's ``affine_table``: the (4, n) rows cx, cl, c0 and
    variance of the action law N(phi1 x - (vartheta1 / theta1) e^phi2 (w +
    theta2 l), e^phi3 / (2 theta1)) at the grids' expansions.  BLAS rounds a
    one-column product unlike a wider one, so one period is expanded twice."""

    def affine_table(ts: np.ndarray, signals: np.ndarray) -> np.ndarray:
        ts, n = check_periods(ts, horizon), len(ts)
        if n == 1:
            ts, signals = np.repeat(ts, 2), np.repeat(signals, 2)
        feats = features(signals, (horizon - ts) * dt, actor.m)
        ce = _expand_critic(feats, critic)
        ph1, ph2, ph3 = _expand_actor(feats, actor)
        scale = -(ce.vartheta1 / ce.theta1) * np.exp(ph2)
        variance = np.exp(ph3) / (2.0 * ce.theta1)
        return np.stack([ph1, scale * ce.theta2, scale * w, variance])[:, :n]

    return affine_table


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
    """Mean and variance of the learned action law at one state: column t of its table."""
    table = _learned_table(critic, actor, w, horizon, dt)(np.array([t]), np.array([signal]))
    cx, cl, c0, variance = table[:, 0].tolist()
    return cx * x + cl * l + c0, variance


def episode_signal(episode: Episode, kind: str) -> np.ndarray:
    """Signal path the learners condition on, derived from the episode record."""
    if kind == "regime":
        return episode.regime.astype(float)
    return signal_path(kind, episode.p_hat)


def terminal_objective(x: float, l: float, w: float, d: float) -> float:
    """(x - l - w)^2 - (w - d)^2.  On floats whose square overflows (a surplus
    above about 1e154) it raises an ``OverflowError`` naming the surplus."""
    try:
        return (x - l - w) ** 2 - (w - d) ** 2
    except OverflowError:
        raise OverflowError(f"terminal surplus x - l = {x - l!r} overflowed its square") from None


def _entropy_path(ce: _CriticExpansion, ph3: np.ndarray) -> np.ndarray:
    return -0.5 * np.log(ce.theta1 / math.pi) + 0.5 * (ph3 + 1.0)


_SCORE_SCALE = np.array([[2.0], [-2.0], [1.0]])  # the score gain's 2 and the offset's sign


class _Episode:
    """One episode under one critic and one actor expansion: the fused kernel
    of a training iteration.  Construction computes once the per-period
    quantities (t = 0..T-1) that sampling and both gradients read; ``sample``
    (or ``_recorded``) adds the wealth path and the actions.  Each gradient
    writes its per-period weights into the caller's ``out`` and contracts them
    with F[:-1] in one product; the policy gradient, taken at the updated
    critic, re-reads only the actor's quantities from here.
    """

    def __init__(self, sc: _Scenario, ce: _CriticExpansion, ph: np.ndarray, w: float):
        self.sc, self.ce, self.w = sc, ce, w
        th1 = ce.theta1[:-1]
        self.ph1 = ph[0, :-1]
        self.e2, self.e3 = np.exp(ph[1:, :-1])
        self.th2l = ce.theta2[:-1] * sc.l[:-1]
        self.wl = self.th2l + w
        self.moff = ce.vartheta1[:-1] / th1 * self.e2 * self.wl
        # entropy H = 0.5 (phi3 + 1 + log pi) - 0.5 log theta1: the actor's half once
        self.half_ph3 = 0.5 * (ph[2, :-1] + (1.0 + math.log(math.pi)))
        self.entropies = self.half_ph3 - 0.5 * ce.log_theta1[:-1]

    def sample(self, x0: float) -> None:
        """Roll the policy through the scenario on the scenario's action noise."""
        sc, th1 = self.sc, self.ce.theta1[:-1]
        shock = np.sqrt(self.e3 / (th1 + th1)) * sc.noise - self.moff
        x = _linear_rollout(sc.e0 + sc.ex * self.ph1, sc.ex * shock, x0)
        if not np.isfinite(x).all():
            raise OverflowError("episode wealth path became non-finite")
        self.x, self.xx, self.ph1x = x, x * x, self.ph1 * x[:-1]
        self.action = self.ph1x + shock

    def critic_gradient(self, d, lam, dt, entropies, out: np.ndarray) -> np.ndarray:
        """(6, K) martingale-loss gradient at this critic.  The per-period weights
        go into ``out`` (6, T), whose last row keeps the deltas
        J_T - J_t - lam * sum_{k>=t} H_k dt."""
        ce, w, x, wl = self.ce, self.w, self.x[:-1], self.wl
        v1x, v2wl = ce.vartheta1[:-1] * x, ce.vartheta2[:-1] * wl
        np.multiply(self.xx[:-1], ce.theta1[:-1], out=out[0])
        np.add(v2wl, v2wl, out=out[1])  # (vartheta1 x + 2 vartheta2 wl + w) l theta2
        out[1] += v1x
        out[1] += w
        out[1] *= self.sc.l[:-1]
        out[1] *= ce.theta2[:-1]
        np.multiply(self.sc.ll[:-1], ce.theta3[:-1], out=out[2])
        np.multiply(v1x, wl, out=out[3])
        np.multiply(v2wl, wl, out=out[4])
        values = out[0] + out[3]  # the critic value: rows 0, 2, 3, 4, theta2 w l and psi
        values += out[4]
        values += self.th2l * w
        values += out[2]
        values += ce.psi[:-1]
        tail = (np.asarray(entropies) * (lam * dt))[::-1].cumsum()[::-1]
        jt = terminal_objective(float(self.x[-1]), float(self.sc.l[-1]), w, d)
        deltas = np.subtract(jt, values, out=out[5])
        deltas -= tail
        out[:5] *= deltas
        return -dt * (out @ self.sc.head)

    def actor_gradient(self, ce: _CriticExpansion, lam, dt, out: np.ndarray) -> np.ndarray:
        """(3, K) policy gradient at the critic expansion ``ce`` and this actor;
        ``out`` is (3, T) scratch."""
        x, l, w = self.x, self.sc.l, self.w
        th2l = ce.theta2 * l
        wl = th2l + w
        values = ce.theta1 * self.xx
        values += ce.vartheta1 * wl * x
        values += ce.vartheta2 * wl * wl
        values += th2l * w
        values += ce.theta3 * self.sc.ll
        values += ce.psi
        th1 = ce.theta1[:-1]
        td = values[1:] - values[:-1]
        td -= lam * dt * (self.half_ph3 - 0.5 * ce.log_theta1[:-1])
        moff = ce.vartheta1[:-1] / th1 * self.e2 * wl[:-1]
        resid = self.action - (self.ph1x - moff)
        q = th1 / self.e3 * resid  # half the score gain times the residual, times td
        q *= td
        np.multiply(q, x[:-1], out=out[0])
        np.multiply(q, moff, out=out[1])
        np.multiply(q, resid, out=out[2])
        out[2] -= 0.5 * td
        out[2] -= lam * 0.5 * dt
        return (out @ self.sc.head) * _SCORE_SCALE


def _recorded(
    episode: Episode, critic: CriticParams, actor: ActorParams, w: float, dt: float, kind: str
) -> _Episode:
    """The kernel's view of a recorded episode under the given parameters."""
    taus = _tau_grid(episode.n_periods, dt)
    feats = _flat(features(episode_signal(episode, kind), taus, critic.m))
    sc = _Scenario(None, None, episode.l, feats)  # a recorded episode draws nothing
    ep = _Episode(sc, _expand_critic(feats, critic), _expand_actor(feats, actor), w)
    x = episode.x
    ep.x, ep.xx, ep.ph1x, ep.action = x, x * x, ep.ph1 * x[:-1], episode.action
    return ep


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
    ep = _recorded(episode, critic, actor, w, dt, signal_kind)
    entropies = ep.entropies if entropies is None else entropies
    work = np.empty((6, episode.n_periods))
    ep.critic_gradient(spec.target, lam, dt, entropies, work)
    return float(0.5 * np.sum(work[5] ** 2) * dt)


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
    ep = _recorded(episode, critic, actor, w, dt, signal_kind)
    entropies = ep.entropies if entropies is None else entropies
    grads = ep.critic_gradient(spec.target, lam, dt, entropies, np.empty((6, episode.n_periods)))
    return CriticParams.from_stacked(grads, critic.m)


def update_lagrange(w: float, recent_terminals, d: float, alpha: float) -> float:
    """Self-correcting multiplier step from a window of terminal surpluses."""
    window = np.asarray(recent_terminals, dtype=float)
    if window.size == 0:
        raise ValueError("the terminal-surplus window is empty")
    return w - alpha * (float(np.mean(window)) - d)


@dataclass
class TrainState:
    """Everything a training run produces, sufficient to resume it exactly.

    The per-iteration terminals and multipliers are ``array("d")``s: 8 bytes
    a value, where a list holds a 32-byte float object per terminal."""

    algo: str
    critic: CriticParams
    actor: ActorParams
    w: float
    iteration: int
    terminals: array  # the last n_avg of them are the multiplier's window
    ws: array
    hyper: Hyperparams
    spec: ProblemSpec

    @classmethod
    def start(cls, algo: str, hyper: Hyperparams, spec: ProblemSpec) -> "TrainState":
        """Zero grids and the configured starting multiplier, before iteration 0."""
        critic, actor = CriticParams.zeros(hyper.m), ActorParams.zeros(hyper.m)
        w = spec.target if hyper.w0 is None else hyper.w0
        return cls(algo, critic, actor, w, 0, array("d"), array("d"), hyper, spec)

    def require_same(self, spec: ProblemSpec, hyper: Hyperparams | None = None) -> None:
        """Reject hyperparameters (when given) but ``n_iter``, then a problem,
        that differ from this run's, naming the first field that does."""
        pairs = (("hyper", hyper, self.hyper),) if hyper is not None else ()
        for kind, ours, saved in (*pairs, ("spec", spec, self.spec)):
            for name in (f.name for f in fields(ours) if f.name != "n_iter"):
                mine, theirs = getattr(ours, name), getattr(saved, name)
                if mine != theirs:
                    raise ValueError(f"{kind} {name} = {mine!r}, but the checkpoint has {theirs!r}")

    def history_rows(self, block: int = 10) -> list[dict]:
        rows = []
        terms = np.array(self.terminals)  # a copy: a view would stop the arrays from growing
        ws = np.array(self.ws)
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
            "recent_terminals": list(map(float, self.terminals[-self.hyper.n_avg :])),
            "hyper": asdict(self.hyper),
            "spec": asdict(self.spec),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainState":
        m, n_avg = int(d["hyper"]["m"]), int(d["hyper"]["n_avg"])
        if list(d["recent_terminals"]) != list(d["terminals"])[-n_avg:]:
            raise ValueError(f"recent_terminals is not the last n_avg = {n_avg} terminals")
        critic = CriticParams(**{k: np.asarray(v) for k, v in d["critic"].items()}, m=m)
        actor = ActorParams(**{k: np.asarray(v) for k, v in d["actor"].items()}, m=m)
        return cls(
            algo=d["algo"],
            critic=critic,
            actor=actor,
            w=d["w"],
            iteration=d["iteration"],
            terminals=array("d", d["terminals"]),
            ws=array("d", d["ws"]),
            hyper=Hyperparams(**d["hyper"]),
            spec=ProblemSpec(**d["spec"]),
        )


@dataclass
class _Scenario:
    """What one training episode is rolled through: per-period baseline and
    excess gross returns and the action noise (t = 0..T-1), the liability
    path, its square and the (T+1, K) features (t = 0..T)."""

    e0: np.ndarray
    ex: np.ndarray
    l: np.ndarray
    feats: np.ndarray
    noise: np.ndarray | None = None
    head: np.ndarray | None = None  # F[:-1], which the gradients read; a view if not given
    ll: np.ndarray | None = None  # l * l if not given

    def __post_init__(self) -> None:
        if self.ll is None:
            self.ll = self.l * self.l
        if self.head is None:
            self.head = self.feats[:-1]

    def drawn(self, noise: np.ndarray, ex: np.ndarray | None = None) -> _Scenario:
        """This world on the action noise ``noise`` (and the excess returns
        ``ex`` when given), sharing every other array."""
        return _Scenario(self.e0, self.ex if ex is None else ex, self.l, self.feats, noise,
                         self.head, self.ll)


class _ObservableWorld:
    """The scenarios of a partial-information flavor, at any transition matrix:
    a call gives the world of its ``market.ObservableRates`` (filtered on ``p``
    when given), with no action noise.  The tau powers of its features and the
    rates' mixing inputs depend on no matrix, so a run computes them once."""

    def __init__(self, model: MarketModel, hyper: Hyperparams, spec: ProblemSpec, dynamics: str):
        self.rates = ObservableRates(model, spec.horizon, dynamics, hyper.expectation_signal)
        self.t_pow = _tau_powers(_tau_grid(spec.horizon, hyper.dt), hyper.m)
        self.l0 = spec.l0

    def __call__(self, p=None) -> _Scenario:
        _, signal, sched = self.rates(p)
        # column-major, so that the transpose every expansion multiplies by is contiguous
        feats = np.asfortranarray(_flat(_features_at(signal, self.t_pow)))
        return _Scenario(sched.a0, sched.a1, liability_path(self.l0, sched.a2), feats,
                         head=np.ascontiguousarray(feats[:-1]))


class _RealPaths:
    """Real-market training scenarios, each written into one flat float row:
    the e0, e1 - e0 and q legs and the action noise (T each), the liability
    path (T + 1) and the transposed (K, T + 1) features, padded to whole
    64-byte lines.  As a scenario source ``draw(rng, slot)`` it fills row
    ``slot`` of its own (batch, width) array; ``_drawn_ahead`` has a forked
    child fill the rows of a shared ring instead."""

    def __init__(self, model: MarketModel, hyper: Hyperparams, spec: ProblemSpec):
        self.model, self.horizon, self.l0 = model, spec.horizon, spec.l0
        taus = _tau_grid(spec.horizon, hyper.dt)
        # (2, K, T+1) transposed features of the regime labels 1 and 2
        self.by_regime = np.stack(
            [_flat(features(np.full(spec.horizon + 1, s), taus, hyper.m)).T for s in (1.0, 2.0)]
        )
        self.width = -(-(5 * spec.horizon + 1 + self.by_regime[0].size) // 8) * 8
        self.rows = np.empty((hyper.batch_size, self.width))

    def __call__(self, rng: np.random.Generator, slot: int) -> _Scenario:
        self.fill(rng, self.rows[slot])
        return self.view(self.rows[slot])

    def fill(self, rng: np.random.Generator, row: np.ndarray) -> None:
        """Draw one path from ``rng`` into ``row``, then its action noise."""
        horizon = self.horizon
        legs = row[: 3 * horizon].reshape(3, horizon)
        regimes, _ = draw_path(self.model, horizon, rng, out=legs)
        np.subtract(legs[1], legs[0], out=legs[1])
        rng.standard_normal(out=row[3 * horizon : 4 * horizon])
        row[4 * horizon : 5 * horizon + 1] = liability_path(self.l0, legs[2])
        feats_t = self._feats_t(row)
        np.copyto(feats_t, self.by_regime[1])
        np.copyto(feats_t, self.by_regime[0], where=regimes == 1)

    def view(self, row: np.ndarray) -> _Scenario:
        """The scenario ``fill`` wrote into ``row``, as views of it."""
        horizon = self.horizon
        return _Scenario(row[:horizon], row[horizon : 2 * horizon],
                         row[4 * horizon : 5 * horizon + 1], self._feats_t(row).T,
                         row[3 * horizon : 4 * horizon])

    def _feats_t(self, row: np.ndarray) -> np.ndarray:
        start = 5 * self.horizon + 1
        return row[start : start + self.by_regime[0].size].reshape(self.by_regime[0].shape)


def _build_env(
    algo: str, model: MarketModel, hyper: Hyperparams, spec: ProblemSpec
) -> Callable[[np.random.Generator, int], _Scenario]:
    """``algo``'s scenario source ``draw(rng, slot)``: its flavor's one
    scenario with action noise drawn from ``rng``, or in real dynamics a path
    and then its noise drawn from ``rng`` (``_RealPaths``)."""
    if algo not in ALGO_FLAVORS:
        raise ValueError(f"algo must be one of {sorted(ALGO_FLAVORS)}, got {algo!r}")
    dynamics = ALGO_FLAVORS[algo]
    if dynamics == "real":
        return _RealPaths(model, hyper, spec)
    fixed = _ObservableWorld(model, hyper, spec, dynamics)()
    return lambda rng, slot: fixed.drawn(rng.standard_normal(spec.horizon))


def _linear_rollout(alpha: np.ndarray, beta: np.ndarray, x0: float) -> np.ndarray:
    """x_{t+1} = alpha_t x_t + beta_t from x_0 = x0, along the last axis.

    ``beta`` is one path (T,) or a block of paths (P, T); ``alpha`` has the
    same shape or is one (T,) row shared by every path.  Each path takes the
    closed form x_t = A_t (x0 + sum_{k<t} beta_k / A_{k+1}) over the cumulative
    products A of alpha; a path whose products leave 1e-250 < |A| < inf, or
    whose closed form is not finite, runs the recursion itself instead.
    """
    x = np.empty((*beta.shape[:-1], beta.shape[-1] + 1))
    x[..., 0] = x0
    with np.errstate(all="ignore"):
        cum = alpha.cumprod(axis=-1)
        x[..., 1:] = cum * (x0 + (beta / cum).cumsum(axis=-1))
        ok = np.isfinite(x).all(axis=-1) & (np.isfinite(cum) & (np.abs(cum) > 1e-250)).all(axis=-1)
        if not ok.all():
            rows, a = x.reshape(-1, x.shape[-1]), np.atleast_2d(alpha)  # rows views x
            bad = ~np.atleast_1d(ok)
            seq, a_seq, b_seq = rows[bad], a if len(a) == 1 else a[bad], np.atleast_2d(beta)[bad]
            for t in range(x.shape[-1] - 1):
                seq[:, t + 1] = a_seq[:, t] * seq[:, t] + b_seq[:, t]
            rows[bad] = seq
    return x


def _clip(grad: np.ndarray, limit: float | None) -> np.ndarray:
    if limit is None:
        return grad
    return np.minimum(np.maximum(grad, -limit), limit)  # np.clip, without its wrapper


def _check_finite(params: _Grids, iteration: int, kind: str) -> None:
    if not np.isfinite(params.stacked).all():
        finite = np.isfinite(params.stacked).all(axis=1)
        name = params.names[int(np.argmin(finite))]
        raise DivergenceError(f"{kind} grid {name} became non-finite at iteration {iteration}")


class _Workspace:
    """What a training run's iterations share: the critic's (6, 1) column of
    learning rates, and the arrays every iteration rewrites, per batch slot the
    pre-update critic and the actor expansions, the updated critic's expansion
    and both gradients' per-period weights.  Allocated afresh, the arrays cost
    about a hundred page faults per iteration at T = 2520, as the allocator
    returns their memory to the system and takes it back."""

    def __init__(self, horizon: int, batch: int, hyper: Hyperparams):
        rates = (hyper.eta_theta, hyper.eta_vartheta, hyper.eta_psi)
        self.critic_rates = np.repeat(rates, (3, 2, 1))[:, None]
        n = horizon + 1
        self.critic = np.empty((batch, _CRITIC_ROWS, n))
        self.actor = np.empty((batch, len(_ACTOR_GRIDS), n))
        self.updated = np.empty((_CRITIC_ROWS, n))
        self.critic_weights = np.empty((len(_CRITIC_GRIDS), horizon))
        self.actor_weights = np.empty((len(_ACTOR_GRIDS), horizon))


def _train_step(
    state: TrainState, scenarios: Iterable[_Scenario | None], k: int, work: _Workspace
) -> None:
    """Iteration ``k`` of the actor-critic loop, applied to ``state`` in place.

    ``scenarios`` is consumed lazily, one episode at a time, and each carries
    its own action noise; a None scenario ends the iteration before it
    touches ``state``.  Each episode is one fused ``_Episode`` kernel: one
    critic and one actor expansion, whose per-period quantities sampling and
    the martingale-loss gradient share; after the critic step only the
    updated critic is expanded again for the policy gradient.  Expansions and
    the gradients' per-period weights are written into ``work``.  With
    several episodes each step follows the mean of the per-episode gradients.
    Every ``n_avg`` iterations the multiplier moves against the windowed
    terminal-surplus error.
    """
    hyper, spec, w = state.hyper, state.spec, state.w
    lam, d, dt, m = spec.explore_weight, spec.target, hyper.dt, hyper.m
    try:
        batch, grads = [], []
        for slot, sc in enumerate(scenarios):
            if sc is None:
                return
            ce = _expand_critic(sc.feats, state.critic, work.critic[slot])
            ep = _Episode(sc, ce, _expand_actor(sc.feats, state.actor, work.actor[slot]), w)
            ep.sample(spec.x0)
            grads.append(ep.critic_gradient(d, lam, dt, ep.entropies, work.critic_weights))
            batch.append(ep)
        grad = CriticParams.from_stacked(sum(grads) / len(grads), m)
        _check_finite(grad, k, "critic gradient")
        step = work.critic_rates * _clip(grad.stacked, hyper.grad_clip)
        state.critic = CriticParams.from_stacked(state.critic.stacked - step, m)
        _check_finite(state.critic, k, "critic")

        grads = []
        for ep in batch:
            ce = _expand_critic(ep.sc.feats, state.critic, work.updated)
            grads.append(ep.actor_gradient(ce, lam, dt, work.actor_weights))
        grad = ActorParams.from_stacked(sum(grads) / len(grads), m)
        _check_finite(grad, k, "actor gradient")
        step = hyper.eta_phi * _clip(grad.stacked, hyper.grad_clip)
        state.actor = ActorParams.from_stacked(state.actor.stacked - step, m)
        _check_finite(state.actor, k, "actor")
    except OverflowError as exc:
        raise DivergenceError(f"{exc} at iteration {k}") from exc

    if len(batch) == 1:  # np.mean of one terminal: (0 + x) / 1, which is x but for -0.0
        state.terminals.append(batch[0].x[-1] - batch[0].sc.l[-1] + 0.0)
    else:
        state.terminals.append(np.mean([ep.x[-1] - ep.sc.l[-1] for ep in batch]))
    if (k + 1) % hyper.n_avg == 0:
        state.w = update_lagrange(w, state.terminals[-hyper.n_avg :], d, hyper.alpha)
        if not math.isfinite(state.w):
            raise DivergenceError(f"multiplier became non-finite at iteration {k}")
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
    one bit for bit; resuming takes the checkpoint's algo, problem and every
    hyperparameter but ``n_iter``.  In real dynamics, with a second core and
    at least ``_AHEAD_FLOOR`` scenario-periods to go, a forked child draws the
    scenarios ahead (``_drawn_ahead``), and the result is the same.
    """
    hyper.require_market_dt(model)
    draw = _build_env(algo, model, hyper, spec)
    if state is None:
        run = TrainState.start(algo, hyper, spec)
    else:
        if state.algo != algo:
            raise ValueError(f"checkpoint is for algo {state.algo!r}, not {algo!r}")
        if hyper.n_iter < state.iteration:
            raise ValueError(
                f"n_iter = {hyper.n_iter} is below the checkpoint's iteration {state.iteration}"
            )
        state.require_same(spec, hyper)
        run = replace(state, terminals=array("d", state.terminals), ws=array("d", state.ws),
                      hyper=hyper, spec=spec)
    draws = (hyper.n_iter - run.iteration) * hyper.batch_size * spec.horizon
    if not isinstance(draw, _RealPaths) or forking.cores() < 2 or draws < _AHEAD_FLOOR:
        return _run(run, _serial(draw, hyper))
    with _drawn_ahead(draw, hyper, run.iteration) as batches:
        return _run(run, batches)


def _run(
    state: TrainState, batches: Callable[[int], Iterable[_Scenario | None]]
) -> TrainState:
    """Iterations ``state.iteration`` .. n_iter - 1, in place, iteration k on
    ``batches(k)``: its batch slots' scenarios, or None while the source has
    nothing to train on.  ``batches(k)`` is asked for only after iteration
    k - 1 has returned."""
    work = _Workspace(state.spec.horizon, state.hyper.batch_size, state.hyper)
    for k in range(state.iteration, state.hyper.n_iter):
        _train_step(state, batches(k), k, work)
    state.iteration = state.hyper.n_iter
    return state


def _serial(
    draw: Callable[[np.random.Generator, int], _Scenario | None], hyper: Hyperparams
) -> Callable[[int], Iterable[_Scenario | None]]:
    """The batches of the scenario source ``draw``: iteration k draws each
    batch slot in turn, ``draw(rng, slot)``, from the stream (seed, k), the
    run's one generator re-keyed (``market.KeyedStreams``)."""
    streams = KeyedStreams(hyper.seed)

    def batches(k: int) -> Iterable[_Scenario | None]:
        rng = streams.at(k)
        return (draw(rng, slot) for slot in range(hyper.batch_size))

    return batches


@contextmanager
def _drawn_ahead(paths: _RealPaths, hyper: Hyperparams, start: int):
    """``_serial(paths, hyper)``'s batches for iterations ``start`` .. n_iter - 1,
    drawn ahead by a forked child (see the module docstring).

    The child draws scenario n into row n mod R of a ring of R rows in shared
    memory, then sends a token on its pipe; the trainer reads the token and
    views the row.  Asked for iteration k's batch, the trainer sends the rows
    of iteration k - 1 back on a second pipe, and the child draws into a row
    only once it is back.  The child's exception re-raises at the scenario it
    failed to draw.  Leaving the block kills and reaps the child and closes
    both pipes."""
    size = hyper.batch_size
    n_rows = max(_RING_ROWS, size + 1)
    ring = np.frombuffer(mmap.mmap(-1, n_rows * paths.width * 8), dtype=float)
    ring = ring.reshape(n_rows, paths.width)
    free_read, free_write = os.pipe()  # rows the trainer is done with

    def produce(ready: int) -> None:
        credit, n, streams = n_rows, 0, KeyedStreams(hyper.seed)
        for k in range(start, hyper.n_iter):
            rng = streams.at(k)
            for _ in range(size):
                while not credit:
                    tokens = os.read(free_read, n_rows)
                    if not tokens:  # the trainer is gone
                        return
                    credit += len(tokens)
                paths.fill(rng, ring[n % n_rows])
                os.write(ready, _READY)
                credit, n = credit - 1, n + 1

    try:
        with forking.Children() as children:
            pid, ready = children.fork(produce, close=(free_write,))

            def scenarios(k: int) -> Iterable[_Scenario]:
                for n in range((k - start) * size, (k - start + 1) * size):
                    token = ready.read(1)
                    if token != _READY:
                        children.collect(pid, "the training scenario producer", token)
                        raise RuntimeError("the training scenario producer stopped early")
                    yield paths.view(ring[n % n_rows])

            def batches(k: int) -> Iterable[_Scenario]:
                if k > start:  # iteration k - 1 has returned, having read all its rows
                    os.write(free_write, bytes(size))
                return scenarios(k)

            yield batches
    finally:
        os.close(free_read)
        os.close(free_write)


def policy_from_state(state: TrainState) -> GaussianPolicy:
    """Frozen learned policy; the runtime signal selects the grid features.  The
    regime-blind "emv" baseline decides as it trained: at a unit signal,
    whatever the runtime one, and with no liability term (its cl row is 0)."""
    table = _learned_table(state.critic, state.actor, state.w, state.spec.horizon, state.hyper.dt)
    if state.algo != "emv":
        return GaussianPolicy(table, "learned")

    def blind_table(ts: np.ndarray, signals: np.ndarray) -> np.ndarray:
        rows = table(ts, np.ones(len(ts)))
        rows[1] = 0.0
        return rows

    return GaussianPolicy(blind_table, "learned")
