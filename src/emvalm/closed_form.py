"""Analytic value functions and optimal Gaussian feedback policies.

The entropy-regularized mean-variance problem with an uncontrollable
multiplicative liability admits a closed-form solution by backward induction:
the optimal randomized control at each period is Gaussian, its mean affine in
(wealth, liability) and its variance a product of per-period moment ratios.
This module evaluates those formulas on any moment schedule (regime-
conditioned, filtered, or expectation-based), exposes the value function as an
explicit quadratic in (wealth, liability), and provides an independent
Gauss-Hermite check of the one-step recursion.  Every policy in the package,
analytic or learned, is a ``GaussianPolicy``: a (4, n) table of cx, cl, c0
and variance rows over periods, as ``improvement.AffineGaussianPolicy`` holds.

Products over future periods are accumulated in log space with sign tracking;
on multi-thousand-period horizons the raw products under/overflow double
precision long before the formulas themselves become meaningless.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .filtering import MomentSchedule, MomentSet


@dataclass(frozen=True)
class ProblemSpec:
    """Static description of one optimization problem instance.

    ``horizon`` counts rebalancing periods, ``target`` is the desired expected
    terminal surplus, ``multiplier`` the fixed constraint multiplier the
    unconstrained problem is solved at, and ``explore_weight`` the entropy
    temperature.
    """

    horizon: int
    target: float
    multiplier: float
    explore_weight: float
    x0: float = 1.0
    l0: float = 0.0

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.explore_weight <= 0.0:
            raise ValueError("explore_weight must be positive")


@dataclass(frozen=True)
class GaussianPolicy:
    """A Gaussian feedback policy, given by its per-period affine table.

    ``affine_table(ts, signals) -> (4, n)`` gives, for arrays of periods and
    the signals seen at them, the rows cx, cl, c0 and variance of a Normal
    action law whose mean is cx*x + cl*l + c0.  Analytic, expectation-based
    and learned policies all take this form; ``table`` is how callers read it.
    """

    affine_table: Callable[[np.ndarray, np.ndarray], np.ndarray]
    kind: str = "custom"

    def table(self, ts, signals) -> np.ndarray:
        """A fresh (4, n) array of ``affine_table`` rows at ``ts`` and ``signals``.

        Raises ``ValueError`` naming the first period whose coefficients are
        not finite or whose variance is not a finite number >= 0.
        """
        ts = np.asarray(ts)
        table = np.array(self.affine_table(ts, np.asarray(signals, dtype=float)), dtype=float)
        if table.shape != (4, len(ts)):
            raise ValueError(f"policy table has shape {table.shape}, expected (4, {len(ts)})")
        ok = np.isfinite(table).all(axis=0) & (table[3] >= 0.0)
        if not ok.all():
            i = int(np.argmin(ok))
            raise ValueError(
                f"policy column (cx, cl, c0, variance) = {tuple(table[:, i].tolist())} at "
                f"t={ts[i]} needs finite coefficients and a finite variance >= 0"
            )
        return table


@dataclass(frozen=True)
class QuadraticValue:
    """A value surface q_xx x^2 + q_xl xl + q_ll l^2 + q_x x + q_l l + q_c.

    The six coefficients are floats for one surface, or equal-length arrays
    for one surface per period; ``value[t]`` and ``value[a:b]`` then select
    periods.
    """

    xx: float
    xl: float
    ll: float
    x: float
    l: float
    c: float

    def __call__(self, x: float, l: float):
        return self.xx * x * x + self.xl * x * l + self.ll * l * l + self.x * x + self.l * l + self.c

    def __getitem__(self, t) -> "QuadraticValue":
        return QuadraticValue(*(coef[t] for coef in self.as_tuple()))

    def as_tuple(self):
        return (self.xx, self.xl, self.ll, self.x, self.l, self.c)


def f_terms(m: MomentSet | MomentSchedule):
    """The two per-period scalars the products are built from.

    F1 = b0 b1 - cross^2 and F2 = a0 (b1 - a1^2) + a1 (b0 - a0^2), for one
    period's ``MomentSet`` or elementwise over a schedule's rows.
    """
    cross = m.cross()
    f1 = m.b0 * m.b1 - cross * cross
    f2 = m.a0 * (m.b1 - m.a1 * m.a1) + m.a1 * (m.b0 - m.a0 * m.a0)
    return f1, f2


def check_periods(ts, horizon: int) -> np.ndarray:
    """``ts`` as int64, or a ``ValueError`` naming the first that is not a
    whole number (2.0 is one) or lies outside [0, horizon - 1]."""
    ts = np.asarray(ts)
    if ts.dtype.kind not in "iu":
        real = ts.astype(float)
        fractional = real[~(np.isfinite(real) & (np.floor(real) == real))]
        if fractional.size:
            raise ValueError(f"t must be a whole period, got {float(fractional[0])!r}")
    ts = ts.astype(np.int64)
    outside = ts[(ts < 0) | (ts > horizon - 1)]
    if outside.size:
        raise ValueError(f"t must lie in [0, {horizon - 1}], got {int(outside[0])}")
    return ts


def _first(bad) -> int | None:
    """Index of the first True entry of a scalar or array mask, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


class _SignedSuffixProducts:
    """Suffix products prod_{k=t}^{T-1} v_k in log-sign space, queried by t."""

    def __init__(self, values: np.ndarray):
        v = np.asarray(values, dtype=float)
        # accumulated from the end, one factor at a time; a zero factor gives
        # sign 0 and log -inf from there on towards t = 0
        with np.errstate(divide="ignore"):
            logs = np.log(np.abs(v[::-1]))
        self._sign = np.concatenate((np.cumprod(np.sign(v[::-1]))[::-1], [1.0]))
        self._log = np.concatenate((np.cumsum(logs)[::-1], [0.0]))

    def values(self, ts: np.ndarray) -> np.ndarray:
        """The products at every index of ``ts`` (exp(-inf) = 0 covers a zero factor)."""
        return self._sign[ts] * np.exp(self._log[ts])

    def value(self, t: int) -> float:
        return float(self.values(t))

    def log_abs(self, ts: np.ndarray) -> np.ndarray:
        return self._log[ts]


class _ScheduleTables:
    """Per-schedule precomputation shared by policy and value evaluation."""

    def __init__(self, schedule: MomentSchedule, spec: ProblemSpec):
        if len(schedule) != spec.horizon:
            raise ValueError(
                f"schedule length {len(schedule)} does not match horizon {spec.horizon}"
            )
        self.spec = spec
        self.a1, self.b1, self.a2, self.b2 = schedule.a1, schedule.b1, schedule.a2, schedule.b2
        self.cross = schedule.cross()
        self.f1, self.f2 = f_terms(schedule)
        k = _first(self.f1 <= 0.0)
        if k is not None:
            raise ValueError(f"F1 is non-positive at period {k} (F1={self.f1[k]})")
        self.p_f1_over_b1 = _SignedSuffixProducts(self.f1 / self.b1)
        self.p_f2_over_b1 = _SignedSuffixProducts(self.f2 / self.b1)
        self.p_f2_over_f1 = _SignedSuffixProducts(self.f2 / self.f1)
        self.p_b1_over_f1 = _SignedSuffixProducts(self.b1 / self.f1)
        self.p_a2 = _SignedSuffixProducts(self.a2)
        self.p_b2 = _SignedSuffixProducts(self.b2)

    @functools.cached_property
    def risk_sum(self) -> np.ndarray:
        """sum_{k=t}^{T-1} (a1_k^2 / b1_k) prod_{j>k} f2_j^2 / (b1_j f1_j), for t = 0..T."""
        # scans from the end in the recursion's order; float_power is libm's pow, as a
        # scalar ** 2 is (an array's ** 2 is x * x, which differs in ~0.1 % of last bits)
        ratio = (self.f2 * self.f2) / (self.b1 * self.f1)
        ptail = np.cumprod(np.concatenate(([1.0], ratio[:0:-1])))[::-1]
        terms = (np.float_power(self.a1, 2) / self.b1) * ptail
        return np.cumsum(np.concatenate(([0.0], terms[::-1])))[::-1]

    @functools.cached_property
    def log_entropy_prod(self) -> np.ndarray:
        """log of prod_{k=t}^{T-1} (b1_k / (pi * lam)) prod_{j>k} f1_j / b1_j, for t = 0..T."""
        # each j > t contributes (j - t) copies of log(f1_j / b1_j): a step back adds
        # log_b1_pl[t], then the sum of log_ratio over j > t, in one interleaved scan
        log_b1_pl = np.log(self.b1 / (math.pi * self.spec.explore_weight))
        log_ratio = np.log(self.f1 / self.b1)
        steps = np.zeros(2 * self.spec.horizon + 1)
        steps[1::2] = log_b1_pl[::-1]
        steps[2::2] = np.cumsum(np.concatenate(([0.0], log_ratio[:0:-1])))
        return np.cumsum(steps)[::2][::-1]

    def policy_arrays(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(cx, k1, variance) at the periods ``ts``: mean = cx*x + k1*(w + l*prod_a2(t))."""
        spec = self.spec
        ts = check_periods(ts, spec.horizon)
        b1 = self.b1[ts]
        cx = -self.cross[ts] / b1
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            k1 = (self.a1[ts] / b1) * self.p_f2_over_f1.values(ts + 1)
            log_var = np.log(spec.explore_weight / (2.0 * b1)) + self.p_b1_over_f1.log_abs(ts + 1)
            variance = np.exp(log_var)
        bad = np.flatnonzero(~((variance > 0.0) & np.isfinite(variance)))
        if bad.size:
            raise ValueError(f"policy variance is not a finite positive number at t={ts[bad[0]]}")
        bad = np.flatnonzero(~np.isfinite(k1))
        if bad.size:
            raise ValueError(f"policy mean coefficient is not finite at t={ts[bad[0]]}")
        return cx, k1, variance

    def affine_rows(self, ts: np.ndarray) -> np.ndarray:
        """(4, n) rows cx, cl, c0 and variance of the policy mean cx*x + cl*l + c0."""
        cx, k1, variance = self.policy_arrays(ts)
        pa2 = self.p_a2.values(np.asarray(ts, dtype=np.int64))
        return np.stack([cx, k1 * pa2, k1 * self.spec.multiplier, variance])

    def policy_at(self, t: int) -> tuple[float, float, float]:
        """One period of ``policy_arrays``, as floats."""
        cx, k1, variance = self.policy_arrays(np.array([t]))
        return float(cx[0]), float(k1[0]), float(variance[0])

    def mean_variance(self, t: int, x: float, l: float) -> tuple[float, float]:
        cx, k1, variance = self.policy_at(t)
        w = self.spec.multiplier
        mean = cx * x + k1 * (w + l * self.p_a2.value(t))
        return mean, variance

    def value_quadratic(self, t: int) -> QuadraticValue:
        spec = self.spec
        w, d, lam = spec.multiplier, spec.target, spec.explore_weight
        if t == spec.horizon:
            return terminal_value(w, d)
        if not 0 <= t < spec.horizon:
            raise ValueError(f"t must lie in [0, {spec.horizon}], got {t}")
        p1 = self.p_f1_over_b1.value(t)
        p2 = self.p_f2_over_b1.value(t)
        pa2 = self.p_a2.value(t)
        pb2 = self.p_b2.value(t)
        rsum = self.risk_sum[t]
        const = 0.5 * lam * self.log_entropy_prod[t] - rsum * w * w - d * d + 2.0 * w * d
        if not math.isfinite(const):
            raise ValueError(f"value-function log term is not finite at t={t}")
        return QuadraticValue(
            xx=p1,
            xl=-2.0 * p2 * pa2,
            ll=pb2 - rsum * pa2 * pa2,
            x=-2.0 * p2 * w,
            l=2.0 * pa2 * w - 2.0 * w * pa2 * rsum,
            c=const,
        )


def terminal_value(w: float, d: float) -> QuadraticValue:
    """(x - l - w)^2 - (w - d)^2 as an explicit quadratic."""
    return QuadraticValue(
        xx=1.0, xl=-2.0, ll=1.0, x=-2.0 * w, l=2.0 * w, c=w * w - (w - d) ** 2
    )


def optimal_policy(
    t: int, x: float, l: float, schedule: MomentSchedule, spec: ProblemSpec
) -> tuple[float, float]:
    """Mean and variance of the optimal Gaussian action at (t, x, l)."""
    return _ScheduleTables(schedule, spec).mean_variance(t, x, l)


def schedule_policy(schedule: MomentSchedule, spec: ProblemSpec, kind: str) -> GaussianPolicy:
    """Policy object over one schedule; the runtime signal argument is ignored
    because the schedule already encodes the signal path."""
    tables = _ScheduleTables(schedule, spec)
    return GaussianPolicy(lambda ts, signals: tables.affine_rows(ts), kind)


def regime_policy(
    schedules: tuple[MomentSchedule, MomentSchedule], spec: ProblemSpec
) -> GaussianPolicy:
    """Complete-information policy: the signal selects the regime schedule.

    Future-period moments are frozen at the current regime, exactly as the
    product formulas are written.
    """
    tables = (_ScheduleTables(schedules[0], spec), _ScheduleTables(schedules[1], spec))

    def affine_table(ts: np.ndarray, signals: np.ndarray) -> np.ndarray:
        regimes = np.rint(signals)
        bad = np.flatnonzero((regimes != 1.0) & (regimes != 2.0))
        if bad.size:
            raise ValueError(f"regime signal must be 1 or 2, got {signals[bad[0]]}")
        rows = np.empty((4, len(ts)))
        for regime, tab in enumerate(tables, start=1):
            rows[:, regimes == regime] = tab.affine_rows(ts[regimes == regime])
        return rows

    return GaussianPolicy(affine_table, "coemv_opt")


def _action_expansion(next_value: QuadraticValue, m: MomentSet | MomentSchedule):
    """E[next_value(e0 x + (e1 - e0) u, q l)] = b u^2 + 2 mu u + rest, in the moments.

    Returns b, the coefficients (mu_x, mu_l, mu_c) of mu = mu_x x + mu_l l + mu_c
    and the u-free quadratic ``rest``, for one period or elementwise over arrays.
    """
    b = next_value.xx * m.b1
    mu = (next_value.xx * m.cross(), 0.5 * next_value.xl * m.a1 * m.a2, 0.5 * next_value.x * m.a1)
    rest = QuadraticValue(
        xx=next_value.xx * m.b0,
        xl=next_value.xl * m.a0 * m.a2,
        ll=next_value.ll * m.b2,
        x=next_value.x * m.a0,
        l=next_value.l * m.a2,
        c=next_value.c,
    )
    return b, mu, rest


def bellman_step(
    next_value: QuadraticValue, m: MomentSet | MomentSchedule, lam: float, first_period: int = 0
):
    """One entropy-regularized minimization step of the backward recursion.

    Expands E[next_value(e0 x + (e1 - e0) u, q l)] exactly in the period's
    moments, minimizes over Gaussian action laws, and returns the new
    quadratic value together with the minimizing policy's mean coefficients
    (mx, ml, mc) and variance.  Given arrays (a surface per period and a
    schedule's rows) it steps every period at once, elementwise; errors count
    periods from ``first_period``.  This is the independent route against
    which the product formulas are tested, and the primitive the
    policy-improvement iteration is built on.
    """
    if lam <= 0.0:
        raise ValueError("exploration weight must be positive")
    b, (mu_x, mu_l, mu_c), rest = _action_expansion(next_value, m)
    k = _first(b <= 0.0)
    if k is not None:
        raise ValueError(
            "extracted action-quadratic coefficient is non-positive at period "
            f"{first_period + k} ({np.ravel(b)[k]})"
        )
    mx, ml, mc = -mu_x / b, -mu_l / b, -mu_c / b
    variance = lam / (2.0 * b)
    # plugging the minimizing Gaussian into the one-step functional leaves
    # -mu^2 / b + (lam / 2) ln(b / (pi lam)) on top of the u-free terms
    new = QuadraticValue(
        xx=rest.xx - mu_x * mu_x / b,
        xl=rest.xl - 2.0 * mu_x * mu_l / b,
        ll=rest.ll - mu_l * mu_l / b,
        x=rest.x - 2.0 * mu_x * mu_c / b,
        l=rest.l - 2.0 * mu_l * mu_c / b,
        c=rest.c - mu_c * mu_c / b + 0.5 * lam * np.log(b / (math.pi * lam)),
    )
    return new, (mx, ml, mc), variance


def policy_value_step(
    next_value: QuadraticValue,
    m: MomentSet | MomentSchedule,
    mean_coeffs,
    variance,
    lam: float,
) -> QuadraticValue:
    """One-step objective of a *given* affine Gaussian policy (no minimization),
    for one period or elementwise over arrays as ``bellman_step``."""
    k = _first(variance < 0.0)
    if k is not None:
        raise ValueError(f"policy variance must be non-negative (period {k})")
    mx, ml, mc = mean_coeffs
    b, (mu_x, mu_l, mu_c), rest = _action_expansion(next_value, m)
    # b E[u^2] + 2 E[mu u] with u = mx x + ml l + mc + sqrt(v) xi; a degenerate
    # policy (v = 0) has entropy -inf, so its objective diverges unless lam = 0
    with np.errstate(divide="ignore"):
        entropy = 0.5 * np.log(2.0 * math.pi * math.e * variance)
    c_from_noise = b * variance - lam * entropy
    return QuadraticValue(
        xx=rest.xx + b * mx * mx + 2.0 * mu_x * mx,
        xl=rest.xl + 2.0 * b * mx * ml + 2.0 * (mu_x * ml + mu_l * mx),
        ll=rest.ll + b * ml * ml + 2.0 * mu_l * ml,
        x=rest.x + 2.0 * b * mx * mc + 2.0 * (mu_x * mc + mu_c * mx),
        l=rest.l + 2.0 * b * ml * mc + 2.0 * (mu_l * mc + mu_c * ml),
        c=rest.c + b * mc * mc + 2.0 * mu_c * mc + c_from_noise,
    )


def bellman_residual(
    t: int,
    x: float,
    l: float,
    schedule: MomentSchedule,
    spec: ProblemSpec,
    quad_order: int,
) -> float:
    """|RHS - V_t(x, l)| for the one-step recursion, V_t = ``value_quadratic(t)``.

    The RHS integrates over the optimal Gaussian action with Gauss-Hermite
    quadrature while the return expectation is expanded exactly in moments, so
    the check shares no code with the product-form value function.
    """
    if quad_order < 5:
        raise ValueError("quad_order must be >= 5")
    tables = _ScheduleTables(schedule, spec)
    lam = spec.explore_weight
    mean, variance = tables.mean_variance(t, x, l)
    next_q = tables.value_quadratic(t + 1)
    m = schedule[t]
    cross = m.cross()

    nodes, weights = np.polynomial.hermite.hermgauss(quad_order)
    u = mean + math.sqrt(2.0 * variance) * nodes

    exp_next = (
        next_q.xx * (m.b0 * x * x + 2.0 * cross * x * u + m.b1 * u * u)
        + next_q.xl * m.a2 * l * (m.a0 * x + m.a1 * u)
        + next_q.ll * m.b2 * l * l
        + next_q.x * (m.a0 * x + m.a1 * u)
        + next_q.l * m.a2 * l
        + next_q.c
    )
    log_pi = -0.5 * math.log(2.0 * math.pi * variance) - (u - mean) ** 2 / (2.0 * variance)
    rhs = float(np.sum(weights * (exp_next + lam * log_pi)) / math.sqrt(math.pi))
    lhs = tables.value_quadratic(t)(x, l)
    return abs(rhs - lhs)


def policy_table_rows(schedule: MomentSchedule, spec: ProblemSpec) -> list[dict]:
    """Per-period affine coefficients and variance, for CSV dumps."""
    table = _ScheduleTables(schedule, spec).affine_rows(np.arange(spec.horizon))
    keys = ("mean_x_coeff", "mean_l_coeff", "mean_const", "variance")
    return [{"t": t, **dict(zip(keys, map(float, row)))} for t, row in enumerate(table.T)]
