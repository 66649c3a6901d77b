"""Two-regime market simulation: regimes, returns, rollout inputs, episode records.

The simulation ground truth is a hidden two-state Markov chain driving the
per-period return distributions of a baseline asset, a risky asset and an
uncontrollable liability.  Annual figures in a model description are converted
to per-period moments linearly in the period length: a net annual rate r
becomes a per-period gross mean 1 + r*dt and an annual variance v becomes
v*dt.  Besides the real dynamics, episodes can be generated from the
"filtered" dynamics (returns replaced by their signal-weighted expectations,
so the only randomness left is the action noise) and from the "expectation"
dynamics (same, weighted by the expected-state signal).  Their per-period
baseline, excess and liability rates are the a0, a1 and a2 rows of the
flavor's mixed moment schedule (``filtering.Mixing``), the same
schedule the analytic policies are built from.  An ``Episode`` records one
path; ``cli`` writes it as ``episode.csv``.

All randomness flows through counter-based Philox streams; `stream(seed, k)`
gives the k-th independent stream, so episodes are reproducible and safely
parallel: each evaluation path reads only its own stream, so
``evaluate.out_of_sample`` and ``evaluate.evaluate_on_market_paths`` roll
contiguous shares of their paths out in forked processes and their reports
are bit-identical at any core count.  A stream is keyed directly by the words
(seed, k), without first gathering OS entropy.  A Philox stream is a keyed
counter (Salmon et al., SC'11), so a loop over keys holds one generator
(``KeyedStreams``) and re-keys it for each key: a training run holds one for
its iterations, and an evaluation share one for its paths.  ``stream`` stays
the entry point of a one-off draw.  The keys in use, and what each stream
draws in order:

| caller | key | draws |
|---|---|---|
| ``rl.train``, iteration k of ``rl._run``, the one training loop | k | per episode: regime path and returns (real dynamics), action noise; in real dynamics drawn ahead, with the same keys and order, in a forked child when a core is free (``rl._drawn_ahead``); one ``KeyedStreams`` per run |
| ``evaluate.empirical_train``, iteration k of ``rl._run`` | k | block pick, action noise; one ``KeyedStreams`` per run |
| every evaluation, path i: ``evaluate.out_of_sample``, ``evaluate.evaluate_on_market_paths``, ``evaluate.simulate`` (path 0) | ``PATH_KEY`` + i | where the dynamics draws returns, the regime path and then the legs read (e0, e1 and q in real dynamics; e1 alone in ``evaluate_on_market_paths``), then action noise (then, in ``simulate`` outside real dynamics, the recorded regime path); one ``KeyedStreams`` per evaluation share, ``stream`` in ``simulate`` |
| ``cli`` filter-demo / improve | 0 | regime path / initial policy family |

No key depends on a path count, so the first n paths of an evaluation are
the same whatever the total, and an evaluation key, at or above 2^32, never
meets a training iteration's.  Returns along a regime path are drawn leg by
leg (e0, then e1, then q, skipping a leg its caller does not read), each leg
drawing its regime-1 periods and then its regime-2 periods
(``sample_return_paths``).

Three builders make the inputs of every rollout, for training (``rl``) and
evaluation (``evaluate``, the empirical pipeline and ``simulate`` included)
alike: ``ObservableRates`` turns a partial-information flavor into its
filter path, signal path and mixed schedule at any transition matrix, and is
the only builder of filtered and expectation schedules, the analytic
policies' too (``observable_rates`` builds one at a single matrix);
``draw_path`` draws one real-market path, its regime path and then the
return legs asked for, from one generator, and the evaluations have it
write each path's legs straight into that path's rows of their
(3, paths, T) block; and
``liability_path`` multiplies l_0 by the liability returns in time order, so
a learner is scored on the same liability path it was trained on.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields
from numbers import Real

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .filtering import (
    Mixing, MomentSchedule, MomentSet, filter_states, mixing_signal, signal_path,
)

_ROW_SUM_TOL = 1e-12

DYNAMICS = ("real", "filtered", "expectation")
LEGS = ("e0", "e1", "q")  # the return legs of a path, in the order they are drawn
PATH_KEY = 1 << 32  # stream key of evaluation path 0; path i draws from PATH_KEY + i
_WORD = 0xFFFFFFFFFFFFFFFF  # a Philox key word, to which seeds and keys wrap
_ZERO_WORDS = (0, 0, 0, 0)  # a fresh Philox counter and buffer
_PHILOX_BUFFER = 4  # the buffer position of a fresh Philox: every word used
SIGNALS = ("regime", "filtered_prob", "expected_state")


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two 64-bit key words as they are.

    ``Philox(key=...)`` would first seed a ``SeedSequence`` from OS entropy and
    then overwrite its output with the key; this gives the same key and a zero
    counter without that."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        state = self.words.view(dtype)
        if len(state) != n_words:
            raise ValueError(f"a Philox key has {len(state)} words of {dtype}, not {n_words}")
        return state


def stream(seed: int, key: int) -> np.random.Generator:
    """Independent counter-based RNG stream number ``key`` of ``seed``."""
    words = np.array([seed & _WORD, key & _WORD], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(words)))


class KeyedStreams:
    """The streams ``stream(seed, key)`` of one seed, from one generator.

    ``at(key)`` re-keys the generator in place and returns it: the Philox key
    becomes (seed, key), and the counter, the buffer and the half-used 32-bit
    word are cleared, so it draws what a fresh ``stream(seed, key)`` draws,
    bit for bit, at about a sixth of the cost of building one.  A generator
    returned earlier is the same object, so its draws end where the next
    ``at`` begins."""

    def __init__(self, seed: int):
        self.seed = seed & _WORD
        self.gen = stream(seed, 0)
        self._bits = self.gen.bit_generator

    def at(self, key: int) -> np.random.Generator:
        self._bits.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZERO_WORDS, "key": (self.seed, key & _WORD)},
            "buffer": _ZERO_WORDS, "buffer_pos": _PHILOX_BUFFER, "has_uint32": 0, "uinteger": 0,
        }
        return self.gen


@dataclass(frozen=True)
class RegimeChain:
    """Row-stochastic 2x2 transition matrix plus the initial regime-1 probability."""

    p: tuple[tuple[float, float], tuple[float, float]]
    p0: float

    def __post_init__(self) -> None:
        mat = self.matrix()
        if not np.all((mat >= 0.0) & (mat <= 1.0)):  # a NaN entry fails both comparisons
            raise ValueError(f"transition probabilities must lie in [0, 1], got {self.p}")
        sums = mat.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > _ROW_SUM_TOL):
            raise ValueError(f"transition matrix rows must sum to 1, got sums {sums}")
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"initial regime-1 probability must lie in (0, 1), got {self.p0}")

    def matrix(self) -> np.ndarray:
        return np.asarray(self.p, dtype=float)

    @classmethod
    def from_probs(cls, p11: float, p12: float, p21: float, p22: float, p0: float) -> "RegimeChain":
        return cls(p=((p11, p12), (p21, p22)), p0=p0)


@dataclass(frozen=True)
class ReturnSpec:
    """Distribution of one per-period return, described in annual terms.

    ``annual_mean`` is a gross annual return when ``mean_is_gross`` (e.g. 1.2
    for +20%) and a net annual rate otherwise (e.g. 0.05).  ``annual_vol`` is
    an annual standard deviation unless ``vol_is_variance``.  ``kind`` selects
    the sampling law: ``constant``, ``normal`` or ``skewed_t`` (Hansen family,
    standardized then rescaled to the per-period mean/deviation).
    """

    kind: str
    annual_mean: float
    annual_vol: float = 0.0
    dof: float | None = None
    skew: float | None = None
    mean_is_gross: bool = True
    vol_is_variance: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("constant", "normal", "skewed_t"):
            raise ValueError(f"unknown return kind {self.kind!r}")
        if self.annual_vol < 0.0:
            raise ValueError("annual_vol must be >= 0")
        if self.kind == "constant" and self.annual_vol != 0.0:
            raise ValueError("constant returns must have zero volatility")
        if self.kind == "skewed_t":
            if self.dof is None or self.dof <= 2.0:
                raise ValueError("skewed_t returns need dof > 2 so the variance exists")
            if self.skew is None or not -1.0 < self.skew < 1.0:
                raise ValueError("skewed_t returns need skew in (-1, 1)")

    def annual_net(self) -> float:
        return self.annual_mean - 1.0 if self.mean_is_gross else self.annual_mean

    def period_mean(self, dt: float) -> float:
        return 1.0 + self.annual_net() * dt

    def period_var(self, dt: float) -> float:
        annual_var = self.annual_vol if self.vol_is_variance else self.annual_vol**2
        return annual_var * dt

    def period_sd(self, dt: float) -> float:
        return math.sqrt(self.period_var(dt))

    def sample(self, dt: float, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws of the per-period return."""
        mean, sd = self.period_mean(dt), self.period_sd(dt)
        if self.kind == "constant":
            return np.full(size, mean)
        if self.kind == "normal":
            return rng.normal(mean, sd, size=size)
        return sample_skewed_t(mean, sd, self.dof, self.skew, rng, size=size)


@functools.lru_cache(maxsize=64)
def _hansen_constants(dof: float, skew: float) -> tuple[float, float]:
    root = math.sqrt(math.pi * (dof - 2.0))
    try:
        c = math.gamma((dof + 1.0) / 2.0) / (root * math.gamma(dof / 2.0))
    except OverflowError:  # the numerator, from dof = 342.25
        c = 0.0
    if not c > 0.0:  # the denominator overflows from dof = 341.9: the same ratio in logs
        c = math.exp(math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)) / root
    a = 4.0 * skew * c * (dof - 2.0) / (dof - 1.0)
    b = math.sqrt(1.0 + 3.0 * skew * skew - a * a)
    return a, b


def sample_skewed_t(
    mean: float,
    vol: float,
    dof: float,
    skew: float,
    rng: np.random.Generator,
    size: int,
) -> np.ndarray:
    """Draw ``size`` variates mean + vol * Z with Z a standardized (zero-mean,
    unit-variance) skewed Student-t in Hansen's parameterization.

    Sampling uses the two-piece construction: the distribution puts mass
    (1 -/+ skew)/2 on each side of its mode, where it is a rescaled half
    Student-t, so a half-t magnitude plus a biased sign draw suffices.
    """
    if dof is None or dof <= 2.0:
        raise ValueError("dof must exceed 2 for the variance to exist")
    if not -1.0 < skew < 1.0:
        raise ValueError("skew must lie in (-1, 1)")
    if vol < 0.0:
        raise ValueError("vol must be >= 0")
    u = rng.random(size=size)
    tdraw = rng.standard_t(dof, size=size)
    if vol == 0.0:
        return np.full(size, float(mean))
    a, b = _hansen_constants(dof, skew)
    scale = math.sqrt((dof - 2.0) / dof)  # standardizes the embedded t variate
    # the signed piece scale times |t| is (piece * scale) * (+-|t|) to the bit:
    # an IEEE product is symmetric in sign
    z = np.where(u >= (1.0 - skew) / 2.0, (1.0 + skew) * scale, -((1.0 - skew) * scale))
    z *= np.abs(tdraw, out=tdraw)
    z -= a
    z /= b
    z *= vol
    z += mean
    return z


@dataclass(frozen=True)
class MarketModel:
    """Per-regime return specs, the regime chain, and the period length."""

    chain: RegimeChain
    e0: tuple[ReturnSpec, ReturnSpec]
    e1: tuple[ReturnSpec, ReturnSpec]
    q: tuple[ReturnSpec, ReturnSpec]
    dt: float

    def __post_init__(self) -> None:
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        pair = (self.regime_moment_set(1), self.regime_moment_set(2))
        for regime, m in enumerate(pair, 1):
            # E[e e'] for (baseline, risky) is PD iff b0 > 0 and the 2x2 determinant
            # b0 * E[risky^2] - (a0 * E[risky])^2 is positive
            risky_sq = m.risky_sq()
            det = m.b0 * risky_sq - (m.a0 * m.risky_mean()) ** 2
            if m.b0 <= 0.0 or det <= 0.0:
                raise ValueError(
                    f"second-moment matrix of regime {regime} returns is not positive definite"
                )
        # kept for moment_pair(): the empirical pipeline mixes them every iteration
        object.__setattr__(self, "_pair", pair)

    def regime_moment_set(self, regime: int) -> MomentSet:
        i = regime - 1
        a0 = self.e0[i].period_mean(self.dt)
        b0 = a0 * a0 + self.e0[i].period_var(self.dt)
        risky_mean = self.e1[i].period_mean(self.dt)
        a1 = risky_mean - a0
        # baseline and risky draws are independent within a regime
        b1 = self.e1[i].period_var(self.dt) + self.e0[i].period_var(self.dt) + a1 * a1
        a2 = self.q[i].period_mean(self.dt)
        b2 = a2 * a2 + self.q[i].period_var(self.dt)
        return MomentSet(a0=a0, b0=b0, a1=a1, b1=b1, a2=a2, b2=b2)

    def moment_pair(self) -> tuple[MomentSet, MomentSet]:
        return self._pair


@dataclass(frozen=True)
class ReturnsRecord:
    """Per-period return draws of one episode, for diagnostics and invariants."""

    e0: np.ndarray
    e1: np.ndarray
    q: np.ndarray


@dataclass(frozen=True)
class Episode:
    """One trajectory: states at t = 0..T plus the T actions taken."""

    x: np.ndarray
    l: np.ndarray
    regime: np.ndarray
    p_hat: np.ndarray
    action: np.ndarray
    returns: ReturnsRecord | None = None

    def __post_init__(self) -> None:
        n = len(self.x)
        if not (len(self.l) == len(self.regime) == len(self.p_hat) == n == len(self.action) + 1):
            raise ValueError("episode arrays have inconsistent lengths")

    @property
    def n_periods(self) -> int:
        return len(self.action)


def regime_path(chain: RegimeChain, horizon: int, rng: np.random.Generator) -> np.ndarray:
    """Regime labels s_0..s_T (int64, 1 or 2) from one uniform for s_0 and then
    one per step, s_{t+1} = 1 exactly when the step's uniform is below the
    regime-1 probability of the row of s_t.

    With z = True for regime 1, a step is determined outright whenever its
    uniform falls below both rows' probabilities or above both.  Between such
    steps the map is the identity, or a flip when p21 > p11, so z_t is the
    value set at the last determined index (0 for s_0) corrected, in the flip
    case, by the parity of the steps since.
    """
    (p11, _), (p21, _) = chain.p
    z = np.empty(horizon + 1, dtype=bool)
    z[0] = rng.random() < chain.p0
    w = rng.random(horizon)
    n1 = np.less(w, p11, out=z[1:])  # z_{t+1} wherever step t is determined
    last = np.arange(horizon + 1)
    last[1:] *= n1 == (w < p21)  # 0 at the undetermined steps
    np.maximum.accumulate(last, out=last)
    z = z[last]
    if p21 > p11:
        z ^= (np.arange(horizon + 1) - last) % 2 == 1
    return 2 - z


def sample_return_paths(
    regimes: np.ndarray,
    model: MarketModel,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    legs: tuple[str, ...] = LEGS,
) -> ReturnsRecord:
    """Per-period draws along a regime path, only from the regime in force.

    Each leg named in ``legs`` (in the order e0, then e1, then q, whatever
    order ``legs`` gives) draws its regime-1 periods, then its regime-2
    periods, each in time order, and scatters them into place: into the rows
    of ``out`` (3, len(regimes)) when given, which the returned record then
    views.  A leg not named is neither drawn nor written; in a fresh ``out``
    its row is NaN.
    """
    regimes = np.asarray(regimes)
    in1 = regimes == 1
    n1 = int(np.count_nonzero(in1))
    n2 = len(regimes) - n1
    if np.count_nonzero(regimes == 2) != n2:
        raise ValueError("regime path contains labels outside {1, 2}")
    if out is None:
        out = np.full((3, len(regimes)), np.nan)
    in2 = ~in1
    for row, name in zip(out, LEGS):
        if name in legs:
            specs = getattr(model, name)
            row[in1] = specs[0].sample(model.dt, rng, size=n1)
            row[in2] = specs[1].sample(model.dt, rng, size=n2)
    return ReturnsRecord(*out)


def draw_path(
    model: MarketModel,
    horizon: int,
    rng: np.random.Generator,
    out: np.ndarray | None = None,
    legs: tuple[str, ...] = LEGS,
) -> tuple[np.ndarray, ReturnsRecord]:
    """One path of the real market drawn from ``rng``: its regime path s_0..s_T,
    then the draws of the legs ``legs`` (``sample_return_paths``) in the
    periods t = 0..T-1 along it, written into the rows of ``out`` (3, T) when
    given, e.g. one path's slice of a (3, P, T) block."""
    regimes = regime_path(model.chain, horizon, rng)
    return regimes, sample_return_paths(regimes[:-1], model, rng, out, legs)


class ObservableRates:
    """The observable rates of one model's partial-information flavor over
    ``horizon`` periods, at any transition matrix.

    A call gives the filter path p_0..p_T (``filtering.filter_states``), the
    signal path t = 0..T the flavor is mixed along (``filtering.mixing_signal``)
    and the model's moments mixed along it (``filtering.Mixing``), whose a0,
    a1 and a2 rows are the per-period baseline, excess and liability rates.
    The filter runs on the chain's transition matrix, or on ``p`` when one is
    given.  What no matrix changes, the signal kind and the mixing inputs, is
    read once, at construction."""

    def __init__(self, model: MarketModel, horizon: int, dynamics: str,
                 expectation_signal: str = "expected_state"):
        self.p0, self.p, self.horizon, self.dynamics = (
            model.chain.p0, model.chain.matrix(), horizon, dynamics)
        self.kind = mixing_signal(dynamics, expectation_signal)
        self.mixing = Mixing(model.moment_pair())

    def __call__(self, p=None) -> tuple[np.ndarray, np.ndarray, MomentSchedule]:
        probs = filter_states(self.p0, self.p if p is None else p, self.horizon)
        signal = signal_path(self.kind, probs)
        return probs, signal, self.mixing.schedule(signal[:-1], self.dynamics)


def observable_rates(
    model: MarketModel,
    horizon: int,
    dynamics: str,
    expectation_signal: str = "expected_state",
    p=None,
) -> tuple[np.ndarray, np.ndarray, MomentSchedule]:
    """``ObservableRates`` at the one transition matrix ``p``, or the chain's."""
    return ObservableRates(model, horizon, dynamics, expectation_signal)(p)


def liability_path(l0: float, q) -> np.ndarray:
    """Liabilities l_0 = l0, l_{t+1} = q_t l_t along the last axis of the gross
    returns ``q``, one path (T,) or a block (P, T), multiplied in time order
    so that every entry is the recursion's own float."""
    q = np.asarray(q, dtype=float)
    return np.cumprod(np.concatenate((np.full((*q.shape[:-1], 1), l0), q), axis=-1), axis=-1)


_NUMBER_LEAVES = ("annual_mean", "annual_vol", "dof", "skew")  # dof and skew may be null
_FLAG_LEAVES = ("mean_is_gross", "vol_is_variance")


def _finite_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)


def _spec_from_dict(d: dict, where: str) -> ReturnSpec:
    """The return spec of the config entry ``where`` (``market.<leg>.regime<k>``).
    A number leaf that is not a finite number, a flag that is not a bool or a
    missing ``kind`` or ``annual_mean`` is an error naming its key, and every
    other error of the spec names the entry."""
    if not isinstance(d, dict):
        raise ValueError(f"{where} must be an object, got {d!r}")
    unknown = set(d) - {f.name for f in fields(ReturnSpec)}
    if unknown:
        raise ValueError(f"{where}: unknown return spec keys: {sorted(unknown)}")
    for key in ("kind", "annual_mean"):
        if key not in d:
            raise ValueError(f"{where}.{key} is missing")
    for key, value in d.items():
        unset = value is None and key in ("dof", "skew")
        if key in _NUMBER_LEAVES and not (unset or _finite_number(value)):
            raise ValueError(f"{where}.{key} must be a finite number, got {value!r}")
        if key in _FLAG_LEAVES and not isinstance(value, bool):
            raise ValueError(f"{where}.{key} must be true or false, got {value!r}")
    try:
        return ReturnSpec(**d)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def market_from_dict(cfg: dict) -> MarketModel:
    """Build a model from the documented JSON layout (see README); a chain
    entry, ``p_hat_0``, ``dt`` or return-spec leaf that is not a finite
    number, or a return-spec flag that is not a bool, is an error naming its
    ``market.`` key."""
    try:
        for key in ("P11", "P12", "P21", "P22", "p_hat_0", "dt"):
            value = cfg[key]
            if not _finite_number(value):
                raise ValueError(f"market.{key} must be a finite number, got {value!r}")
        chain = RegimeChain.from_probs(
            p11=cfg["P11"], p12=cfg["P12"], p21=cfg["P21"], p22=cfg["P22"], p0=cfg["p_hat_0"]
        )
        dt = cfg["dt"]
        legs = {}
        for name in LEGS:
            legs[name] = tuple(_spec_from_dict(cfg[name][f"regime{k}"], f"market.{name}.regime{k}")
                               for k in (1, 2))
    except KeyError as exc:
        raise ValueError(f"market config is missing key {exc}") from exc
    return MarketModel(chain=chain, e0=legs["e0"], e1=legs["e1"], q=legs["q"], dt=dt)


def market_to_dict(model: MarketModel) -> dict:
    mat = model.chain.matrix()
    out = {
        "P11": mat[0, 0],
        "P12": mat[0, 1],
        "P21": mat[1, 0],
        "P22": mat[1, 1],
        "p_hat_0": model.chain.p0,
        "dt": model.dt,
    }
    for name in LEGS:
        pair = getattr(model, name)
        # a spec's fields in order, without the unset dof and skew of a normal or constant leg
        out[name] = {f"regime{k}": {key: v for key, v in asdict(s).items() if v is not None}
                     for k, s in enumerate(pair, 1)}
    return out
