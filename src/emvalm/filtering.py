"""Hidden-regime estimation and the per-period moment schedules that feed every policy.

The market regime is a two-state Markov chain that investors cannot observe.
Because the regime enters the observable wealth/liability dynamics only through
conditional expectations, the posterior probability of being in regime 1 follows
a *deterministic* affine recursion: it never re-weights on realized returns.
This module implements that recursion (iterated and closed form), the
expectation-based state signal used by the learning-free variant, and the
mixing of per-regime return moments along a weight path into (6, T) schedules
of the moments a0, b0, a1, b1, a2, b2.  ``mixing_signal`` names each flavor's
signal; ``market.ObservableRates`` is the only builder of the "filtered" and
"expectation" schedules, whose rows the analytic policies and the observable
dynamics read, and ``regime_schedule`` gives the one of a single regime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

_MOMENT_SLACK = 1e-9  # tolerance for second-moment >= first-moment^2 checks
_DEFICITS = (("b0", "a0"), ("b1", "a1"), ("b2", "a2"))


class _Moments:
    """Moment formulas shared by one period (floats) and a schedule's rows (arrays)."""

    def cross(self):
        """E[base * excess] implied by the moments: a0*(a0 + a1) - b0.

        Within one regime this is exact because the two asset returns are
        independent; for mixed sets it is the definition the policy formulas use.
        """
        return self.a0 * (self.a0 + self.a1) - self.b0

    def risky_mean(self):
        return self.a0 + self.a1

    def risky_sq(self):
        """Raw second moment of the risky asset's gross return."""
        return self.b1 + 2.0 * self.a0 * (self.a0 + self.a1) - self.b0

    def deficits(self) -> tuple:
        """Whether b0 < a0^2, b1 < a1^2 and b2 < a2^2 beyond the slack (variance < 0 readings)."""
        return tuple(
            getattr(self, b) < getattr(self, a) ** 2 - _MOMENT_SLACK for b, a in _DEFICITS
        )


@dataclass(frozen=True)
class MomentSet(_Moments):
    """First/second raw moments of the three per-period returns.

    ``a0/b0`` describe the gross return of the baseline asset, ``a1/b1`` the
    excess return of the risky asset over the baseline, and ``a2/b2`` the gross
    liability return.  One instance describes a single period under a single
    regime, or their signal-weighted mixture.
    """

    a0: float
    b0: float
    a1: float
    b1: float
    a2: float
    b2: float

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in self.as_tuple()):
            raise ValueError("moment set contains non-finite entries")
        if self.b1 <= 0.0:
            raise ValueError(f"second moment of the excess return must be positive, got {self.b1}")

    def as_tuple(self) -> tuple[float, float, float, float, float, float]:
        return (self.a0, self.b0, self.a1, self.b1, self.a2, self.b2)

    def violations(self) -> list[str]:
        """Second-moment deficits (variance < 0 readings) present in the set."""
        return [
            f"{b}={getattr(self, b)} < {a}^2={getattr(self, a) ** 2}"
            for (b, a), bad in zip(_DEFICITS, self.deficits())
            if bad
        ]


def _row_view(row: int) -> property:
    return property(lambda self: self.rows[row])


class MomentSchedule(_Moments):
    """Moments of the periods t = 0..T-1 plus the flavor that produced them.

    ``rows`` is one (6, T) array whose rows a0, b0, a1, b1, a2, b2 are also
    attributes, either given or stacked from per-period ``sets``;
    ``schedule[t]`` is period t's ``MomentSet``.

    ``flavor`` is one of ``"regime"`` (conditioned on a fixed regime),
    ``"filtered"`` (mixed by the filter probability path) or ``"expectation"``
    (mixed by the expected-state signal, which lies outside [0, 1], where
    ``deficits()`` may flag periods).
    """

    a0, b0, a1, b1, a2, b2 = map(_row_view, range(6))

    def __init__(self, sets: Iterable[MomentSet] | None, flavor: str, rows=None):
        if rows is None:
            rows = np.array([m.as_tuple() for m in sets], dtype=float).reshape(-1, 6).T
        self.rows, self.flavor = rows, flavor

    def __len__(self) -> int:
        return self.rows.shape[1]

    def __getitem__(self, t: int) -> MomentSet:
        return MomentSet(*self.rows[:, t].tolist())


def _as_matrix(p) -> np.ndarray:
    mat = np.asarray(p, dtype=float)
    if mat.shape != (2, 2):
        raise ValueError(f"transition matrix must be 2x2, got shape {mat.shape}")
    return mat


def filter_states(p0: float, p, horizon: int) -> np.ndarray:
    """Probability-of-regime-1 path [p_0, p_1, ..., p_T], iterated."""
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    mat = _as_matrix(p)
    c, d = float(mat[1, 0]), float(mat[0, 0] - mat[1, 0])
    # on Python floats: the same IEEE arithmetic, without a numpy scalar per step
    prob = float(p0)
    out = [prob]
    for _ in range(horizon):
        prob = c + d * prob
        out.append(prob)
    return np.array(out)


def filter_path(p0: float, p, horizon: int) -> np.ndarray:
    """The updated probabilities [p_1, ..., p_T] (excludes the initial value)."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return filter_states(p0, p, horizon)[1:]


def filter_path_closed(p0: float, p, horizon: int) -> np.ndarray:
    """Closed-form twin of :func:`filter_path`.

    Element t-1 equals ``P21 * sum_{k=0}^{t-1} d^k + p0 * d^t`` with
    ``d = P11 - P21``; the geometric sum is accumulated incrementally so the
    formula stays defined at d = 1.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    mat = _as_matrix(p)
    c, d = mat[1, 0], mat[0, 0] - mat[1, 0]
    out = np.empty(horizon)
    geo = 0.0  # sum_{k<t} d^k
    dpow = 1.0  # d^t
    for t in range(horizon):
        geo += dpow
        dpow *= d
        out[t] = c * geo + p0 * dpow
    return out


def mix(v1, v2, signal):
    """Moment ``v1`` of regime 1 and ``v2`` of regime 2 mixed with weight ``signal`` on regime 1."""
    return v2 + signal * (v1 - v2)


class Mixing:
    """The mixed schedules of one moment pair, at any signal path.

    Construction reads the pair's rows a0, b0, a1, E[risky^2], a2, b2 and
    E[risky] once, as the regime-2 column and the regime-1 minus regime-2
    column that ``mix`` combines; ``schedule`` mixes them along a signal path.
    """

    def __init__(self, pair: tuple[MomentSet, MomentSet]):
        v1, v2 = (np.array([m.a0, m.b0, m.a1, m.risky_sq(), m.a2, m.b2, m.risky_mean()])[:, None]
                  for m in pair)
        self.base, self.slope = v2, v1 - v2

    def schedule(self, signals: np.ndarray, flavor: str) -> MomentSchedule:
        """Schedule of the pair mixed with weight ``signals[t]`` on regime 1 in period t.

        All first moments and the raw second moments of the three returns mix
        linearly.  The second moment of the excess return is then rebuilt from
        the mixed components, so its cross term is the product of the *mixed*
        means rather than the mixture of per-regime cross products.  The first
        period with a non-positive mixed b1, a non-finite moment, or a
        second-moment deficit at a signal inside [0, 1] (impossible for a true
        convex mixture) raises.
        """
        s = np.asarray(signals, dtype=float)
        mixed = self.base + s * self.slope  # ``mix``, each row in one expression
        rows, a0, b0, b1 = mixed[:6], mixed[0], mixed[1], mixed[3]
        b1 -= 2.0 * mixed[6] * a0  # b1 = E[risky^2] - 2 E[risky] a0 + b0
        b1 += b0
        sched = MomentSchedule(None, flavor, rows=rows)
        d0, d1, d2 = sched.deficits()
        deficit = (s >= 0.0) & (s <= 1.0) & (d0 | d1 | d2)
        failed = (b1 <= 0.0) | ~np.isfinite(rows).all(axis=0) | deficit
        if failed.any():
            t = int(np.argmax(failed))
            if b1[t] <= 0.0:
                raise ValueError(
                    f"mixed second moment of the excess return is non-positive ({float(b1[t])}) "
                    f"at signal {float(s[t])}"
                )
            bad = sched[t].violations()  # a non-finite period raises here
            raise ValueError(f"moment mixing produced invalid set at signal {float(s[t])}: {bad}")
        return sched


def mixing_signal(flavor: str, expectation_signal: str = "expected_state") -> str:
    """The signal a flavor's policies see, and a partial-information flavor is mixed along.

    "real" sees the regime ("regime"), "filtered" the regime-1 probability
    ("filtered_prob"); "expectation" takes E[state_t] in [1, 2] literally
    ("expected_state", the faithful reading), or with ``expectation_signal=
    "state1_prob"`` the regime-1 probability, keeping the weights in [0, 1].
    """
    if flavor == "real":
        return "regime"
    if flavor == "filtered":
        return "filtered_prob"
    if flavor != "expectation":
        raise ValueError(f"flavor must be real/filtered/expectation, got {flavor!r}")
    if expectation_signal == "expected_state":
        return "expected_state"
    if expectation_signal == "state1_prob":
        return "filtered_prob"
    raise ValueError(f"unknown expectation signal kind {expectation_signal!r}")


def signal_path(kind: str, probs: np.ndarray) -> np.ndarray:
    """The signal ``kind`` along the regime-1 probability path ``probs``: the
    probabilities ("filtered_prob") or E[state_t] = 2 - p_t ("expected_state")."""
    if kind == "filtered_prob":
        return probs
    if kind == "expected_state":
        return 2.0 - probs
    raise ValueError(f"unknown signal kind {kind!r}")


def regime_schedule(moments: MomentSet, horizon: int) -> MomentSchedule:
    """Constant schedule conditioned on one regime (time-homogeneous market)."""
    column = np.array(moments.as_tuple())[:, None]
    return MomentSchedule(None, "regime", rows=np.broadcast_to(column, (6, horizon)))

