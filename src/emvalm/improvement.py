"""Policy improvement for the entropy-regularized problem.

Starting from an admissible affine-Gaussian feedback family, each improvement
round replaces the policy at every period by the Gaussian minimizer of the
one-step objective built on the previous round's objective surface.  Because
the objective stays quadratic in (wealth, liability) and the minimizer of
``integral (B u^2 + 2 mu u + lam ln pi) pi du`` over densities is
``N(-mu/B, lam/(2B))``, every round is exact coefficient algebra.  The
iteration reaches the closed-form optimum at period t after at most
``horizon - t`` rounds, with the objective nonincreasing pointwise along the
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ProblemSpec,
    QuadraticValue,
    bellman_step,
    policy_value_step,
    terminal_value,
)
from .filtering import MomentSchedule


def gaussian_entropy_min(b: float, mu: float, lam: float) -> tuple[float, float]:
    """Minimizer of integral (b u^2 + 2 mu u + lam ln pi(u)) pi(u) du.

    Returns the (mean, variance) = (-mu/b, lam/(2b)) of the minimizing Normal.
    """
    if b <= 0.0:
        raise ValueError(f"quadratic coefficient must be positive, got {b}")
    if lam <= 0.0:
        raise ValueError(f"exploration weight must be positive, got {lam}")
    return -mu / b, lam / (2.0 * b)


@dataclass(frozen=True)
class InitialPolicyFamily:
    """Free parameters of the starting affine-Gaussian feedback family.

    ``g0, g1, g2`` are indexed by period t; ``h1, h2, f1`` are indexed by
    remaining horizon and must carry the terminal normalization
    ``h1[0] = h2[0] = f1[0] = 1`` so that the family is consistent with the
    terminal condition.  Positivity of ``g2`` and ``h2`` is required wherever
    they appear in a variance.
    """

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    h1: np.ndarray
    h2: np.ndarray
    f1: np.ndarray

    def __post_init__(self) -> None:
        for name in ("g0", "g1", "g2", "h1", "h2", "f1"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.g2 <= 0.0) or np.any(self.h2 <= 0.0):
            raise ValueError("g2 and h2 must be strictly positive")

    @classmethod
    def random(cls, horizon: int, rng: np.random.Generator) -> "InitialPolicyFamily":
        g0 = rng.uniform(-2.0, 2.0, size=horizon)
        g1 = rng.uniform(-2.0, 2.0, size=horizon)
        g2 = rng.uniform(0.2, 3.0, size=horizon)
        h1 = np.concatenate(([1.0], rng.uniform(-2.0, 2.0, size=horizon)))
        h2 = np.concatenate(([1.0], rng.uniform(0.2, 3.0, size=horizon)))
        f1 = np.concatenate(([1.0], rng.uniform(-2.0, 2.0, size=horizon)))
        return cls(g0=g0, g1=g1, g2=g2, h1=h1, h2=h2, f1=f1)


@dataclass(frozen=True)
class AffineGaussianPolicy:
    """Per-period mean coefficients (mx, ml, mc) and variances."""

    mx: np.ndarray
    ml: np.ndarray
    mc: np.ndarray
    var: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.var)

    def params(self) -> np.ndarray:
        return np.stack([self.mx, self.ml, self.mc, self.var])

    def max_param_delta(self, other: "AffineGaussianPolicy") -> float:
        return float(np.max(np.abs(self.params() - other.params())))


@dataclass(frozen=True)
class IteratedPolicy:
    """State of the improvement iteration after n rounds.

    ``objective`` holds the quadratic objective surfaces for t = 0..T built by
    repeated one-step backups, i.e. the coefficient bundle the next argmin
    reads from.
    """

    n: int
    policy: AffineGaussianPolicy
    objective: tuple[QuadraticValue, ...]


def family_policy(family: InitialPolicyFamily, spec: ProblemSpec) -> AffineGaussianPolicy:
    """The concrete affine-Gaussian policy the family parameters describe."""
    T = spec.horizon
    for name in ("g0", "g1", "g2"):
        if len(getattr(family, name)) < T:
            raise ValueError(f"family array {name} shorter than the horizon")
    for name in ("h1", "h2", "f1"):
        if len(getattr(family, name)) < T + 1:
            raise ValueError(f"family array {name} must cover remaining horizons 0..{T}")
    w = spec.multiplier
    lam = spec.explore_weight
    t = np.arange(T)
    ratio = family.g1[t] / family.g2[t]
    mx = ratio * family.g0[t]
    ml = -ratio * family.h1[T - t - 1] * family.f1[T - t]
    mc = -ratio * family.h1[T - t - 1] * w
    var = lam * family.h2[T - t - 1] / (2.0 * family.g2[t])
    return AffineGaussianPolicy(mx=mx, ml=ml, mc=mc, var=var)


def evaluate_policy(
    policy: AffineGaussianPolicy, schedule: MomentSchedule, spec: ProblemSpec
) -> tuple[QuadraticValue, ...]:
    """Objective surfaces J^pi_t for t = 0..T by backward substitution."""
    if policy.horizon != spec.horizon:
        raise ValueError("policy and problem horizons disagree")
    out: list[QuadraticValue] = [terminal_value(spec.multiplier, spec.target)]
    for t in range(spec.horizon - 1, -1, -1):
        out.insert(
            0,
            policy_value_step(
                out[0],
                schedule[t],
                (float(policy.mx[t]), float(policy.ml[t]), float(policy.mc[t])),
                float(policy.var[t]),
                spec.explore_weight,
            ),
        )
    return tuple(out)


def initial_iterate(
    family: InitialPolicyFamily, schedule: MomentSchedule, spec: ProblemSpec
) -> IteratedPolicy:
    policy = family_policy(family, spec)
    return IteratedPolicy(n=0, policy=policy, objective=evaluate_policy(policy, schedule, spec))


def improve_once(
    current: IteratedPolicy, schedule: MomentSchedule, spec: ProblemSpec, t: int = 0
) -> IteratedPolicy:
    """One improvement round over periods s = t..T-1.

    Each period's new policy is the Gaussian entropy minimizer of the
    quadratic-in-action coefficients extracted from the current objective at
    s+1; the new objective at s is the minimized one-step value.
    """
    T = spec.horizon
    if not 0 <= t < T:
        raise ValueError(f"t must lie in [0, {T - 1}], got {t}")
    for s in range(T):
        coeffs = current.objective[s].as_tuple()
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"current objective has non-finite coefficients at period {s}")
    mx = current.policy.mx.copy()
    ml = current.policy.ml.copy()
    mc = current.policy.mc.copy()
    var = current.policy.var.copy()
    new_obj = list(current.objective)
    for s in range(T - 1, t - 1, -1):
        backed, (bmx, bml, bmc), bvar = bellman_step(
            current.objective[s + 1], schedule[s], spec.explore_weight
        )
        mx[s], ml[s], mc[s], var[s] = bmx, bml, bmc, bvar
        new_obj[s] = backed
    return IteratedPolicy(
        n=current.n + 1,
        policy=AffineGaussianPolicy(mx=mx, ml=ml, mc=mc, var=var),
        objective=tuple(new_obj),
    )


def iterate_to_convergence(
    initial: InitialPolicyFamily,
    schedule: MomentSchedule,
    spec: ProblemSpec,
    t: int = 0,
    tol: float = 1e-12,
) -> tuple[IteratedPolicy, int]:
    """Improve until the policy parameters on [t, T) stop moving.

    Returns the converged iterate and the number of rounds used, which can be
    at most ``horizon - t``; failure to stabilize within that many rounds
    raises with the offending parameter delta.
    """
    T = spec.horizon
    current = initial_iterate(initial, schedule, spec)
    max_rounds = T - t
    n_used = 0
    for _ in range(max_rounds):
        improved = improve_once(current, schedule, spec, t=t)
        n_used += 1
        delta = float(
            np.max(np.abs(improved.policy.params()[:, t:] - current.policy.params()[:, t:]))
        )
        current = improved
        if delta < tol:
            return current, n_used
    probe = improve_once(current, schedule, spec, t=t)
    delta = float(np.max(np.abs(probe.policy.params()[:, t:] - current.policy.params()[:, t:])))
    if delta >= tol:
        raise RuntimeError(
            f"policy improvement failed to converge within {max_rounds} rounds "
            f"(residual parameter change {delta:.3e})"
        )
    return current, n_used
