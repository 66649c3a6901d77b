from __future__ import annotations

import numpy as np
import pytest

from emvalm import rl
from emvalm.filtering import MomentSchedule, MomentSet
from emvalm.market import RegimeChain


def random_moment_set(rng: np.random.Generator, deterministic_liability: bool = False) -> MomentSet:
    """Random per-period moments with F1 > 0 guaranteed by construction."""
    a0 = rng.uniform(0.95, 1.1)
    v0 = rng.uniform(0.0, 0.01)
    a1 = rng.uniform(-0.05, 0.12)
    v1 = rng.uniform(0.01, 0.05)
    a2 = rng.uniform(0.9, 1.1)
    v2 = 0.0 if deterministic_liability else rng.uniform(0.0, 0.02)
    return MomentSet(a0=a0, b0=a0 * a0 + v0, a1=a1, b1=a1 * a1 + v1, a2=a2, b2=a2 * a2 + v2)


def random_schedule(
    rng: np.random.Generator, horizon: int, deterministic_liability: bool = False
) -> MomentSchedule:
    return MomentSchedule(
        sets=tuple(random_moment_set(rng, deterministic_liability) for _ in range(horizon)),
        flavor="regime",
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240810)


REFERENCE_P = ((0.9986, 0.0014), (0.0114, 0.9886))


def regime_path_reference(chain: RegimeChain, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Sequential regime-path sampler (the oracle for ``market.regime_path``)."""
    out = np.empty(horizon + 1, dtype=np.int64)
    out[0] = 1 if rng.random() < chain.p0 else 2
    mat = chain.matrix()
    for t in range(horizon):
        thr = mat[out[t] - 1, 0]
        out[t + 1] = 1 if rng.random() < thr else 2
    return out


def closed_form_scale(alpha, beta, x0):
    """|A_t| (|x0| + sum_{k<t} |beta_k / A_{k+1}|): the rounding scale of the closed-form
    rollout x_{t+1} = alpha_t x_t + beta_t over the cumulative products A of alpha."""
    cum = np.cumprod(alpha)
    terms = np.concatenate(([0.0], np.cumsum(np.abs(beta / cum))))
    return np.concatenate(([1.0], np.abs(cum))) * (abs(x0) + terms)


# ---------------------------------------------------------------------------
# reference formulas the package computes along other routes
# ---------------------------------------------------------------------------


def stationary_state1_prob(p) -> float:
    """Fixed point P21 / (1 - P11 + P21) of the filter recursion."""
    mat = np.asarray(p, dtype=float)
    return mat[1, 0] / (1.0 - mat[0, 0] + mat[1, 0])


def expected_regime_signal(p0: float, p, t: int) -> float:
    """Expected regime label E[state_t] in [1, 2], via t-step matrix powers."""
    pt = np.linalg.matrix_power(np.asarray(p, dtype=float), t)
    return (pt[0, 0] + 2.0 * pt[0, 1]) * p0 + (pt[1, 0] + 2.0 * pt[1, 1]) * (1.0 - p0)


def gaussian_entropy_min(b: float, mu: float, lam: float) -> tuple[float, float]:
    """Minimizer of integral (b u^2 + 2 mu u + lam ln pi(u)) pi(u) du over
    densities, for b > 0: the Normal with (mean, variance) = (-mu/b, lam/(2b))."""
    return -mu / b, lam / (2.0 * b)


def critic_values(ce, x, l, w: float) -> np.ndarray:
    """The parameterized objective along a critic expansion ``ce``."""
    wl = w + ce.theta2 * l
    return (
        ce.theta1 * x * x
        + ce.vartheta1 * wl * x
        + wl * wl * ce.vartheta2
        + ce.theta2 * w * l
        + ce.theta3 * l * l
        + ce.psi
    )


def critic_value(t, x, l, signal, critic, w, horizon, dt) -> float:
    """The parameterized objective at one state."""
    feats = rl.features([signal], [(horizon - t) * dt], critic.m)
    return float(critic_values(rl._expand_critic(feats, critic), x, l, w)[0])


def policy_gradient(episode, critic, actor, w, spec, dt, signal_kind="filtered_prob", lam=None):
    """Episode estimate of the objective gradient w.r.t. the actor grids: the
    training kernel's policy gradient of a recorded episode."""
    lam = spec.explore_weight if lam is None else lam
    ep = rl._recorded(episode, critic, actor, w, dt, signal_kind)
    grads = ep.actor_gradient(ep.ce, lam, dt, np.empty((3, episode.n_periods)))
    return rl.ActorParams.from_stacked(grads, actor.m)
