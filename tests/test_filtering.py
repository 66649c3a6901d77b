from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emvalm import filtering as F
from conftest import REFERENCE_P, expected_regime_signal, random_moment_set, stationary_state1_prob


def update_filter(p_hat, p):
    """One step of the filter recursion: p_1 of the path from p_hat."""
    return F.filter_states(p_hat, p, 1)[1]


def expected_state(p0, p, t):
    """E[state_t] as the package computes it: 2 - p_t along the filter path."""
    return F.signal_path("expected_state", F.filter_states(p0, p, t))[t]


def mixed_moments(signal, pair):
    """The pair mixed with weight ``signal`` on regime 1: a one-period schedule."""
    return F.Mixing(pair).schedule([signal], "filtered")[0]


def all_sets(schedule):
    """Period t's ``MomentSet`` for every t."""
    return tuple(schedule[t] for t in range(len(schedule)))


class TestUpdateFilter:
    def test_reference_matrix_value(self):
        # 0.0114 + 0.3 * (0.9986 - 0.0114)
        assert update_filter(0.3, REFERENCE_P) == pytest.approx(0.30756, abs=1e-12)

    def test_memoryless_chain_returns_constant(self):
        p = ((0.4, 0.6), (0.4, 0.6))
        for p_hat in (0.01, 0.3, 0.99):
            assert update_filter(p_hat, p) == pytest.approx(0.4, abs=1e-15)

    def test_fixed_point_maps_to_itself(self):
        star = stationary_state1_prob(REFERENCE_P)
        assert star == pytest.approx(0.890625, abs=1e-12)
        assert update_filter(star, REFERENCE_P) == pytest.approx(star, abs=1e-15)


class TestFilterPath:
    def test_single_step(self):
        path = F.filter_path(0.3, REFERENCE_P, 1)
        assert path.shape == (1,)
        assert path[0] == update_filter(0.3, REFERENCE_P)

    def test_fixed_point_gives_constant_sequence(self):
        star = stationary_state1_prob(REFERENCE_P)
        path = F.filter_path(star, REFERENCE_P, 300)
        assert np.max(np.abs(path - star)) < 1e-12

    def test_long_run_convergence_to_fixed_point(self):
        # (0.9872)^2520 is effectively zero
        path = F.filter_path(0.3, REFERENCE_P, 2520)
        assert abs(path[-1] - stationary_state1_prob(REFERENCE_P)) < 1e-10

    def test_iterated_equals_closed_form_reference_matrix(self):
        it = F.filter_path(0.3, REFERENCE_P, 2520)
        cl = F.filter_path_closed(0.3, REFERENCE_P, 2520)
        assert np.max(np.abs(it - cl)) < 1e-12

    @given(
        p11=st.floats(0.0, 1.0),
        p21=st.floats(0.0, 1.0),
        p0=st.floats(0.001, 0.999),
        horizon=st.integers(1, 60),
    )
    @settings(max_examples=200, deadline=None)
    def test_iterated_equals_closed_form_random(self, p11, p21, p0, horizon):
        p = ((p11, 1.0 - p11), (p21, 1.0 - p21))
        it = F.filter_path(p0, p, horizon)
        cl = F.filter_path_closed(p0, p, horizon)
        assert np.max(np.abs(it - cl)) < 1e-12

    @given(
        eps11=st.floats(0.0, 1e-3),
        eps21=st.floats(0.0, 1e-3),
        flip=st.booleans(),
        p0=st.floats(0.001, 0.999),
        horizon=st.integers(1, 2520),
    )
    @settings(max_examples=300, deadline=None)
    def test_iterated_equals_closed_form_near_unit_modulus(self, eps11, eps21, flip, p0, horizon):
        # P11 - P21 close to +1 (flip off) or -1 (flip on), where d^t decays slowest
        p11, p21 = (eps11, 1.0 - eps21) if flip else (1.0 - eps11, eps21)
        p = ((p11, 1.0 - p11), (p21, 1.0 - p21))
        it = F.filter_path(p0, p, horizon)
        cl = F.filter_path_closed(p0, p, horizon)
        assert np.max(np.abs(it - cl)) < 1e-12

    def test_path_stays_interior_for_interior_transitions(self):
        path = F.filter_path(0.5, REFERENCE_P, 10_000)
        assert np.all(path > 0.0) and np.all(path < 1.0)


class TestExpectedRegimeSignal:
    def test_zero_steps_is_two_minus_p0(self):
        assert expected_state(0.3, REFERENCE_P, 0) == pytest.approx(1.7, abs=1e-15)

    def test_identity_chain_is_constant(self):
        eye = ((1.0, 0.0), (0.0, 1.0))
        for t in (0, 1, 7, 100):
            assert expected_state(0.4, eye, t) == pytest.approx(1.6, abs=1e-12)

    def test_long_run_reference_value(self):
        # stationary regime-1 probability 0.890625 gives 2 - 0.890625
        assert expected_state(0.3, REFERENCE_P, 200_000) == pytest.approx(
            1.109375, abs=1e-9
        )

    def test_path_matches_matrix_power_op(self):
        path = F.signal_path("expected_state", F.filter_states(0.37, REFERENCE_P, 40))
        for t in range(41):
            assert path[t] == pytest.approx(
                expected_regime_signal(0.37, REFERENCE_P, t), abs=1e-12
            )

    def test_signal_lies_between_one_and_two(self):
        path = F.signal_path("expected_state", F.filter_states(0.01, REFERENCE_P, 500))
        assert np.all(path >= 1.0) and np.all(path <= 2.0)


class TestFilteredMoments:
    def _pair(self, rng):
        return random_moment_set(rng), random_moment_set(rng)

    def test_degenerate_weights_reproduce_inputs(self, rng):
        pair = self._pair(rng)
        for signal, expect in ((1.0, pair[0]), (0.0, pair[1])):
            got = mixed_moments(signal, pair)
            assert got.as_tuple() == pytest.approx(expect.as_tuple(), abs=1e-14)

    def test_identical_regimes_are_signal_invariant(self, rng):
        m = random_moment_set(rng)
        for signal in (-0.5, 0.0, 0.3, 1.0, 1.7):
            got = mixed_moments(signal, (m, m))
            assert got.as_tuple() == pytest.approx(m.as_tuple(), abs=1e-12)

    def test_mixed_excess_second_moment_matches_mixture_oracle(self, rng):
        # oracle: baseline and risky returns are *independent* two-point
        # mixtures of their per-regime laws; E[(risky - base)^2] follows from
        # the raw mixture moments directly
        for _ in range(25):
            m1, m2 = self._pair(rng)
            s = rng.uniform(0.0, 1.0)
            e1_sq = s * m1.risky_sq() + (1 - s) * m2.risky_sq()
            e1_mean = s * m1.risky_mean() + (1 - s) * m2.risky_mean()
            e0_sq = s * m1.b0 + (1 - s) * m2.b0
            e0_mean = s * m1.a0 + (1 - s) * m2.a0
            oracle = e1_sq - 2.0 * e1_mean * e0_mean + e0_sq
            got = mixed_moments(s, (m1, m2))
            assert got.b1 == pytest.approx(oracle, rel=1e-12)

    @given(s=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_second_moment_bounds_hold_inside_unit_interval(self, s):
        rng = np.random.default_rng(77)
        pair = (random_moment_set(rng), random_moment_set(rng))
        got = mixed_moments(s, pair)
        assert got.violations() == []

    def test_out_of_range_signal_violations_are_reported(self):
        # liability second moments chosen so extrapolation past regime 1
        # produces a negative implied variance, which must be recorded
        m1 = F.MomentSet(a0=1.0008, b0=1.0008**2, a1=0.0012, b1=1.6e-4, a2=1.0002, b2=1.0002**2 + 4e-5)
        m2 = F.MomentSet(a0=1.0002, b0=1.0002**2, a1=4e-5, b1=3.6e-4, a2=1.00004, b2=1.00004**2 + 1.6e-4)
        weights = 2.0 - F.filter_states(0.3, REFERENCE_P, 40)[:-1]
        sched = F.Mixing((m1, m2)).schedule(weights, "expectation")
        assert sched.flavor == "expectation"
        assert np.any(sched.deficits()[2])  # b2 < a2^2

    def test_interior_schedules_report_no_violations(self, rng):
        pair = self._pair(rng)
        sched = F.Mixing(pair).schedule(F.filter_states(0.3, REFERENCE_P, 50)[:-1], "filtered")
        assert not np.any(sched.deficits())
        assert len(sched) == 50

    def test_expectation_schedule_state1_prob_variant(self, rng):
        pair = self._pair(rng)
        probs = F.filter_states(0.3, REFERENCE_P, 10)
        a = F.Mixing(pair).schedule(
            F.signal_path(F.mixing_signal("expectation", "state1_prob"), probs)[:-1],
            "expectation",
        )
        b = F.Mixing(pair).schedule(probs[:-1], "filtered")
        for t in range(10):
            assert a[t].as_tuple() == pytest.approx(b[t].as_tuple(), abs=1e-15)

    def test_nonpositive_mixed_excess_moment_raises(self):
        m1 = F.MomentSet(a0=1.5, b0=2.4, a1=0.8, b1=0.01 + 0.64, a2=1.0, b2=1.0)
        m2 = F.MomentSet(a0=0.6, b0=0.37, a1=-0.9, b1=0.82, a2=1.0, b2=1.0)
        with pytest.raises(ValueError, match="non-positive"):
            mixed_moments(3.5, (m1, m2))


class TestMomentSchedule:
    def test_sets_round_trip_through_the_rows(self, rng):
        sets = tuple(random_moment_set(rng) for _ in range(5))
        sched = F.MomentSchedule(sets=sets, flavor="regime")
        assert len(sched) == 5 and sched.flavor == "regime"
        assert all_sets(sched) == sets and sched[3] == sets[3]
        assert np.array_equal(sched.b1, [m.b1 for m in sets])
        assert np.array_equal(sched.cross(), [m.cross() for m in sets])

    def test_regime_schedule_repeats_one_column(self, rng):
        m = random_moment_set(rng)
        sched = F.regime_schedule(m, 4)
        assert sched.rows.shape == (6, 4) and all_sets(sched) == (m,) * 4

    def test_mixing_signal_names_each_weight_path(self):
        assert F.mixing_signal("real") == "regime"
        assert F.mixing_signal("filtered") == "filtered_prob"
        assert F.mixing_signal("expectation") == "expected_state"
        assert F.mixing_signal("expectation", "state1_prob") == "filtered_prob"
        with pytest.raises(ValueError, match="unknown expectation signal kind 'nope'"):
            F.mixing_signal("expectation", "nope")
        with pytest.raises(ValueError, match="real/filtered/expectation, got 'regime1'"):
            F.mixing_signal("regime1")


class TestMomentSet:
    def test_rejects_nonpositive_excess_second_moment(self):
        with pytest.raises(ValueError, match="positive"):
            F.MomentSet(a0=1.0, b0=1.0, a1=0.0, b1=0.0, a2=1.0, b2=1.0)

    def test_cross_moment_identity(self, rng):
        m = random_moment_set(rng)
        assert m.cross() == pytest.approx(m.a0 * m.a1 - (m.b0 - m.a0**2), abs=1e-14)
