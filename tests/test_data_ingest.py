from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emvalm import data_ingest as D


def series_from(closes, frequency="daily"):
    return D.PriceSeries.from_closes(np.asarray(closes, dtype=float), frequency=frequency)


class TestLabelRegimes:
    def test_rise_then_fall(self):
        labels = D.label_regimes(series_from([100.0, 130.0, 100.0]))
        assert [seg[2] for seg in labels.segments] == [D.BULL, D.BEAR]
        assert labels.labels.tolist() == [D.BULL, D.BEAR, D.BEAR]

    def test_monotone_series_is_single_bull(self):
        labels = D.label_regimes(series_from(np.linspace(100, 200, 25)))
        assert labels.segments == ((0, 25, D.BULL),)

    def test_flat_series_defaults_to_single_bull_segment(self):
        labels = D.label_regimes(series_from([100.0] * 10))
        assert labels.segments == ((0, 10, D.BULL),)

    def test_prefix_before_first_trough_is_bear(self):
        closes = [100.0, 90.0, 80.0, 105.0, 120.0]
        labels = D.label_regimes(series_from(closes))
        assert labels.labels.tolist() == [D.BEAR, D.BEAR, D.BULL, D.BULL, D.BULL]

    def test_bear_segment_starts_at_the_peak(self):
        closes = [100.0, 124.1, 130.0, 120.0, 105.0, 104.0]
        labels = D.label_regimes(series_from(closes))
        assert labels.labels.tolist() == [D.BULL, D.BULL, D.BEAR, D.BEAR, D.BEAR, D.BEAR]

    @given(scale=st.floats(0.001, 1e6))
    @settings(max_examples=60, deadline=None)
    def test_invariant_to_uniform_price_scaling(self, scale):
        closes = np.array([100.0, 112.0, 131.0, 122.0, 99.0, 118.0, 140.0, 100.0])
        a = D.label_regimes(series_from(closes))
        b = D.label_regimes(series_from(closes * scale))
        assert a.labels.tolist() == b.labels.tolist()
        assert a.segments == b.segments

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            D.PriceSeries.from_closes([100.0])

    def test_from_closes_shares_one_date_tuple_per_length_and_keeps_checks(self):
        a = D.PriceSeries.from_closes(np.linspace(100.0, 120.0, 121), frequency="monthly")
        b = D.PriceSeries.from_closes(np.linspace(90.0, 80.0, 121), frequency="monthly")
        assert a.dates is b.dates
        assert a.dates[0] == "2000-01-01" and a.dates[-1] == "2000-04-30"
        assert D.PriceSeries.from_closes([1.0, 2.0], start="2001-03-04").dates == (
            "2001-03-04",
            "2001-03-05",
        )
        with pytest.raises(ValueError, match="positive"):
            D.PriceSeries.from_closes(np.r_[np.ones(120), -1.0], frequency="monthly")
        with pytest.raises(ValueError, match="frequency"):
            D.PriceSeries.from_closes(np.ones(121), frequency="weekly")


def reference_label_regimes(series, gamma1=0.24, gamma2=0.19):
    """The per-direction peak/trough loop ``label_regimes`` replaced, indexing the
    numpy closes: the oracle for its labels and segments."""
    closes = series.closes
    n = len(closes)
    pivots, labels_of_segments = [], []
    direction = 0
    min_idx = max_idx = 0
    start = 0
    for i in range(1, n):
        px = closes[i]
        if px < closes[min_idx]:
            min_idx = i
        if px > closes[max_idx]:
            max_idx = i
        if direction == 0:
            if px >= closes[min_idx] * (1.0 + gamma1):
                if min_idx > 0:
                    pivots.append(start)
                    labels_of_segments.append(D.BEAR)
                    start = min_idx
                direction = 1
                max_idx = min_idx
                for j in range(min_idx, i + 1):
                    if closes[j] > closes[max_idx]:
                        max_idx = j
            elif px <= closes[max_idx] * (1.0 - gamma2):
                if max_idx > 0:
                    pivots.append(start)
                    labels_of_segments.append(D.BULL)
                    start = max_idx
                direction = -1
                min_idx = max_idx
                for j in range(max_idx, i + 1):
                    if closes[j] < closes[min_idx]:
                        min_idx = j
        elif direction == 1:
            if px <= closes[max_idx] * (1.0 - gamma2):
                pivots.append(start)
                labels_of_segments.append(D.BULL)
                start = max_idx
                direction = -1
                min_idx = max_idx
                for j in range(max_idx, i + 1):
                    if closes[j] < closes[min_idx]:
                        min_idx = j
        else:
            if px >= closes[min_idx] * (1.0 + gamma1):
                pivots.append(start)
                labels_of_segments.append(D.BEAR)
                start = min_idx
                direction = 1
                max_idx = min_idx
                for j in range(min_idx, i + 1):
                    if closes[j] > closes[max_idx]:
                        max_idx = j
    pivots.append(start)
    labels_of_segments.append(D.BEAR if direction == -1 else D.BULL)
    bounds = pivots + [n]
    segments, labels = [], np.empty(n, dtype=np.int64)
    for k in range(len(pivots)):
        s, e, lab = bounds[k], bounds[k + 1], labels_of_segments[k]
        if s == e:
            continue
        labels[s:e] = lab
        if segments and segments[-1][2] == lab:
            segments[-1] = (segments[-1][0], e, lab)
        else:
            segments.append((s, e, lab))
    return labels, tuple(segments)


@st.composite
def tie_heavy_closes(draw):
    """Positive closes in which many points sit exactly on a confirmation
    threshold of an earlier close, or repeat an earlier close."""
    closes = [draw(st.floats(1.0, 1000.0))]
    for _ in range(draw(st.integers(1, 60))):
        j = draw(st.integers(0, len(closes) - 1))
        move = draw(st.sampled_from(["up", "down", "repeat", "free"]))
        if move == "up":
            closes.append(closes[j] * (1.0 + 0.24))
        elif move == "down":
            closes.append(closes[j] * (1.0 - 0.19))
        elif move == "repeat":
            closes.append(closes[j])
        else:
            closes.append(closes[-1] * draw(st.floats(0.7, 1.4)))
    return closes


class TestLabelRegimesOracle:
    @given(closes=tie_heavy_closes())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_direction_loop_including_exact_threshold_ties(self, closes):
        series = series_from(closes)
        labels, segments = reference_label_regimes(series)
        got = D.label_regimes(series)
        assert got.labels.tolist() == labels.tolist()
        assert got.segments == segments

    @given(closes=st.lists(st.floats(0.5, 2.0), min_size=2, max_size=80), g1=st.floats(0.01, 0.5),
           g2=st.floats(0.01, 0.5))
    @settings(max_examples=200, deadline=None)
    def test_matches_per_direction_loop_at_any_thresholds(self, closes, g1, g2):
        series = series_from(closes)
        labels, segments = reference_label_regimes(series, g1, g2)
        got = D.label_regimes(series, g1, g2)
        assert got.labels.tolist() == labels.tolist()
        assert got.segments == segments


class TestEstimateParams:
    def _alternating_series(self, cycles=4, seg=100):
        closes = [100.0]
        for _ in range(cycles):
            for _ in range(seg):
                closes.append(closes[-1] * 1.02)
            for _ in range(seg):
                closes.append(closes[-1] * 0.98)
        return series_from(closes[: cycles * 2 * seg])

    def test_known_alternating_sojourns(self):
        series = self._alternating_series(cycles=4, seg=100)
        labels = D.label_regimes(series)
        est = D.estimate_params(series, labels, dt=1.0 / 252.0)
        assert est.p12 == pytest.approx(0.01, abs=1e-12)
        assert est.p21 == pytest.approx(0.01, abs=1e-12)

    def test_two_observation_segment_gives_half(self):
        labels = D.RegimeLabels(
            labels=np.array([2] * 6 + [1] * 2 + [2] * 6),
            segments=((0, 6, 2), (6, 8, 1), (8, 14, 2)),
        )
        closes = np.concatenate(
            [100 * 0.99 ** np.arange(6), 95 * 1.01 ** np.arange(2), 97 * 0.99 ** np.arange(6)]
        )
        est = D.estimate_params(series_from(closes), labels, dt=1.0 / 252.0)
        assert est.p12 == pytest.approx(0.5, abs=1e-12)  # mean bull sojourn is 2

    def test_regime_constant_returns_have_zero_variance(self):
        series = self._alternating_series(cycles=2, seg=50)
        labels = D.label_regimes(series)
        est = D.estimate_params(series, labels, dt=1.0 / 252.0)
        assert est.regime1_var == pytest.approx(0.0, abs=1e-18)
        assert est.regime2_var == pytest.approx(0.0, abs=1e-18)
        assert est.regime1_mean == pytest.approx(0.02 * 252, rel=1e-9)
        assert est.regime2_mean == pytest.approx(-0.02 * 252, rel=1e-9)

    def test_absent_regime_reported(self):
        series = series_from(np.linspace(100, 300, 40))
        labels = D.label_regimes(series)
        with pytest.raises(ValueError, match="longer window"):
            D.estimate_params(series, labels, dt=1.0 / 252.0)


class TestExpAverage:
    def test_reference_weights(self):
        assert D.exp_average_update(0.3, 0.6, 6) == pytest.approx(0.4, abs=1e-15)

    def test_equal_inputs_are_fixed(self):
        assert D.exp_average_update(0.37, 0.37, 6) == 0.37

    def test_n_two_is_full_replacement(self):
        assert D.exp_average_update(0.3, 0.9, 2) == pytest.approx(0.9, abs=1e-15)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            D.exp_average_update(0.1, 0.2, 1)

    @given(
        old=st.floats(-10, 10),
        new=st.floats(-10, 10),
        n=st.integers(2, 40),
    )
    @settings(max_examples=100, deadline=None)
    def test_convex_combination(self, old, new, n):
        out = D.exp_average_update(old, new, n)
        lo, hi = min(old, new), max(old, new)
        assert lo - 1e-12 <= out <= hi + 1e-12


class TestBlocks:
    def test_daily_reference_count(self):
        series = tuple(series_from(np.linspace(100, 200, 20 * 252 + 1)) for _ in range(35))
        assert D.block_count(series, 10.0, 1.0 / 252.0) == 88_235

    def test_monthly_reference_count(self):
        series = tuple(
            series_from(np.linspace(100, 200, 20 * 12 + 1), frequency="monthly") for _ in range(35)
        )
        assert D.block_count(series, 10.0, 1.0 / 12.0) == 4_235

    def test_single_exact_horizon_series(self):
        series = (series_from(np.linspace(100, 150, 121), frequency="monthly"),)
        assert D.block_count(series, 10.0, 1.0 / 12.0) == 1

    def test_sampler_is_uniform_over_the_identifier_space(self):
        series = tuple(
            series_from(np.linspace(100, 150, 122 + i), frequency="monthly") for i in range(2)
        )
        rng = np.random.default_rng(0)
        picks = {D.block_sampler(series, 10.0, 1.0 / 12.0, rng) for _ in range(300)}
        assert picks == {(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)}

    def test_short_series_rejected(self):
        series = (series_from(np.linspace(100, 150, 100), frequency="monthly"),)
        with pytest.raises(ValueError, match="full horizon"):
            D.block_count(series, 10.0, 1.0 / 12.0)


class TestPriceSeriesCsv:
    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("date,close\n2020-01-01,100.0\n2020-01-02,101.5\n2020-01-03,99.25\n")
        series = D.PriceSeries.from_csv(str(path))
        assert series.closes.tolist() == [100.0, 101.5, 99.25]
        assert series.dates[0] == "2020-01-01"

    def test_missing_columns_reported(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("day,price\n2020-01-01,100\n")
        with pytest.raises(ValueError, match="date"):
            D.PriceSeries.from_csv(str(path))
