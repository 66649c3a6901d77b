"""Empirical-study plumbing: price ingestion, bull/bear labeling, estimation.

Labeling is turning-point based: from a running extremum, a cumulative rise of
at least ``gamma1`` confirms a bull phase starting at the trough, a cumulative
fall of at least ``gamma2`` confirms a bear phase starting at the peak, and
the unconfirmed tail keeps the last confirmed label.  Parameter estimation is
the heuristic recipe: annualized sample mean/variance of returns per labeled
regime, and transition probabilities as reciprocals of the mean sojourn time
in each regime.
"""

from __future__ import annotations

import bisect
import csv
import functools
import itertools
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

BULL, BEAR = 1, 2
PERIOD_YEARS = {"daily": 1.0 / 252.0, "monthly": 1.0 / 12.0}  # period length of each frequency


@functools.lru_cache(maxsize=32)
def _daily_dates(start: str, n: int) -> tuple[str, ...]:
    """n consecutive ISO dates from ``start`` (shared: block resampling asks for
    the same few thousand times)."""
    d0 = date.fromisoformat(start)
    return tuple((d0 + timedelta(days=i)).isoformat() for i in range(n))


@dataclass(frozen=True)
class PriceSeries:
    """Strictly increasing dates with positive closes."""

    dates: tuple[str, ...]
    closes: np.ndarray
    frequency: str = "daily"

    def __post_init__(self) -> None:
        closes = np.asarray(self.closes, dtype=float)
        object.__setattr__(self, "closes", closes)
        if len(self.dates) != len(closes):
            raise ValueError("dates and closes must have equal length")
        if len(closes) < 2:
            raise ValueError("a price series needs at least two observations")
        if np.any(closes <= 0.0):
            raise ValueError("closes must be positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise ValueError("dates must be strictly increasing")
        if self.frequency not in PERIOD_YEARS:
            raise ValueError(f"frequency must be {' or '.join(PERIOD_YEARS)}")

    @classmethod
    def from_closes(cls, closes, frequency: str = "daily", start: str = "2000-01-01") -> "PriceSeries":
        closes = np.asarray(closes, dtype=float)
        return cls(dates=_daily_dates(start, len(closes)), closes=closes, frequency=frequency)

    @classmethod
    def from_csv(cls, path: str, frequency: str = "daily") -> "PriceSeries":
        dates: list[str] = []
        closes: list[float] = []
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            have = set(map(str.lower, reader.fieldnames or ()))
            if not {"date", "close"} <= have:
                raise ValueError(f"{path}: expected a CSV with 'date' and 'close' columns")
            lower = {name.lower(): name for name in reader.fieldnames}
            for row in reader:
                dates.append(row[lower["date"]].strip())
                closes.append(float(row[lower["close"]]))
        return cls(dates=tuple(dates), closes=np.asarray(closes), frequency=frequency)

    def net_returns(self) -> np.ndarray:
        return self.closes[1:] / self.closes[:-1] - 1.0


@dataclass(frozen=True)
class RegimeLabels:
    """Per-observation bull/bear labels and the confirmed segment list."""

    labels: np.ndarray  # 1 = bull, 2 = bear, one per observation
    segments: tuple[tuple[int, int, int], ...]  # (start, end_exclusive, label)

    def __post_init__(self) -> None:
        for (s0, e0, lab0), (s1, _, lab1) in zip(self.segments, self.segments[1:]):
            if e0 != s1 or lab0 == lab1:
                raise ValueError("segments must be contiguous and alternate labels")


def label_regimes(series: PriceSeries, gamma1: float = 0.24, gamma2: float = 0.19) -> RegimeLabels:
    """Peak/trough segmentation with confirmation thresholds.

    The initial label is decided by whichever threshold is crossed first; a
    series that never crosses either threshold is a single bull segment.
    """
    closes = series.closes.tolist()  # Python floats: the same float64 arithmetic, faster to index
    n = len(closes)
    if n < 2:
        raise ValueError("series must contain at least two observations")
    pivots: list[int] = []
    labels_of_segments: list[int] = []
    direction = 0  # 0 unknown, +1 in bull, -1 in bear
    min_idx = max_idx = 0
    start = 0
    for i in range(1, n):
        px = closes[i]
        if px < closes[min_idx]:
            min_idx = i
        if px > closes[max_idx]:
            max_idx = i
        # a bull confirmation (searching, or in a bear), else a bear one (searching, or in a
        # bull); the first segment is recorded only if it is not empty
        if direction <= 0 and px >= closes[min_idx] * (1.0 + gamma1):
            if direction or min_idx > 0:
                pivots.append(start)
                labels_of_segments.append(BEAR)
                start = min_idx
            direction = 1
            max_idx = max(range(min_idx, i + 1), key=closes.__getitem__)  # first maximum
        elif direction >= 0 and px <= closes[max_idx] * (1.0 - gamma2):
            if direction or max_idx > 0:
                pivots.append(start)
                labels_of_segments.append(BULL)
                start = max_idx
            direction = -1
            min_idx = min(range(max_idx, i + 1), key=closes.__getitem__)  # first minimum
    # the tail inherits the current (last confirmed) direction; an untouched
    # series defaults to bull
    pivots.append(start)
    labels_of_segments.append(BEAR if direction == -1 else BULL)
    bounds = pivots + [n]
    segments = []
    labels = np.empty(n, dtype=np.int64)
    for k in range(len(pivots)):
        s, e, lab = bounds[k], bounds[k + 1], labels_of_segments[k]
        if s == e:
            continue
        labels[s:e] = lab
        if segments and segments[-1][2] == lab:
            segments[-1] = (segments[-1][0], e, lab)
        else:
            segments.append((s, e, lab))
    return RegimeLabels(labels=labels, segments=tuple(segments))


@dataclass(frozen=True)
class EstimatedParams:
    """Annualized per-regime return statistics plus transition probabilities."""

    regime1_mean: float
    regime1_var: float
    regime2_mean: float
    regime2_var: float
    p12: float
    p21: float
    n_obs1: int
    n_obs2: int


def estimate_params(series: PriceSeries, labels: RegimeLabels, dt: float) -> EstimatedParams:
    """Heuristic estimation from a labeled window.

    Per-period net returns are attributed to the regime labeling the period's
    start; means and variances are annualized by 1/dt.  Transition
    probabilities are the reciprocals of the mean sojourn lengths (in periods)
    of the two regimes.
    """
    rets = series.net_returns()
    labs = labels.labels[:-1]
    stats = {}
    for regime in (BULL, BEAR):
        vals = rets[labs == regime]
        if vals.size == 0:
            raise ValueError(
                f"regime {regime} is absent from the window; use a longer window"
            )
        mean = float(np.mean(vals)) / dt
        var = float(np.var(vals, ddof=1)) / dt if vals.size > 1 else 0.0
        stats[regime] = (mean, var, int(vals.size))
    sojourns = {BULL: [], BEAR: []}
    for s, e, lab in labels.segments:
        sojourns[lab].append(e - s)
    for regime in (BULL, BEAR):
        if not sojourns[regime]:
            raise ValueError(f"regime {regime} has no confirmed segment in the window")
    p12 = 1.0 / float(np.mean(sojourns[BULL]))
    p21 = 1.0 / float(np.mean(sojourns[BEAR]))
    return EstimatedParams(
        regime1_mean=stats[BULL][0],
        regime1_var=stats[BULL][1],
        regime2_mean=stats[BEAR][0],
        regime2_var=stats[BEAR][1],
        p12=min(p12, 1.0),
        p21=min(p21, 1.0),
        n_obs1=stats[BULL][2],
        n_obs2=stats[BEAR][2],
    )


def exp_average_update(old: float, new: float, n: int = 6) -> float:
    """(1 - 2/n) * old + (2/n) * new; a convex combination for n >= 2."""
    if n < 2:
        raise ValueError("n must be >= 2")
    frac = 2.0 / n
    return (1.0 - frac) * old + frac * new


def periods_in_horizon(horizon_years: float, dt: float) -> int:
    periods = horizon_years / dt
    rounded = round(periods)
    if abs(periods - rounded) > 1e-9:
        raise ValueError(f"horizon of {horizon_years} years is not a whole number of periods")
    return int(rounded)


def window_offsets(series_set, horizon_years: float, dt: float) -> tuple[int, ...]:
    """Cumulative counts of the overlapping horizon-length return windows:
    series i holds the picks offsets[i] .. offsets[i + 1] - 1 of the
    offsets[-1] windows across all series."""
    horizon = periods_in_horizon(horizon_years, dt)
    counts = [len(s.closes) - horizon for s in series_set]
    if any(c < 1 for c in counts):
        raise ValueError("every series must span at least one full horizon")
    return tuple(itertools.accumulate(counts, initial=0))


def block_count(series_set, horizon_years: float, dt: float) -> int:
    """Number of overlapping horizon-length return windows across all series."""
    return window_offsets(series_set, horizon_years, dt)[-1]


def block_at(offsets: tuple[int, ...], pick: int) -> tuple[int, int]:
    """The (series index, start offset) of window number ``pick`` of ``window_offsets``."""
    idx = bisect.bisect_right(offsets, pick) - 1
    return idx, pick - offsets[idx]


def block_sampler(
    series_set, horizon_years: float, dt: float, rng: np.random.Generator
) -> tuple[int, int]:
    """Uniformly sample one (series index, start offset) block identifier."""
    offsets = window_offsets(series_set, horizon_years, dt)
    return block_at(offsets, int(rng.integers(offsets[-1])))
