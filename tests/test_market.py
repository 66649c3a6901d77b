from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from emvalm import evaluate as E
from emvalm import filtering as F
from emvalm import market as M
from emvalm.closed_form import GaussianPolicy, ProblemSpec
from emvalm.config import build_market, resolve_config
from conftest import REFERENCE_P, closed_form_scale, regime_path_reference


def reference_chain(p0: float = 0.3) -> M.RegimeChain:
    return M.RegimeChain(p=REFERENCE_P, p0=p0)


def constant_spec(gross: float) -> M.ReturnSpec:
    return M.ReturnSpec(kind="constant", annual_mean=gross, mean_is_gross=True)


def normal_spec(net: float, vol: float) -> M.ReturnSpec:
    return M.ReturnSpec(kind="normal", annual_mean=net, annual_vol=vol, mean_is_gross=False)


def simple_model(dt: float = 1.0, e1_vol: float = 0.2) -> M.MarketModel:
    return M.MarketModel(
        chain=reference_chain(),
        e0=(constant_spec(1.2), constant_spec(1.05)),
        e1=(normal_spec(0.5, e1_vol), normal_spec(0.06, 0.3)),
        q=(normal_spec(0.05, 0.1), normal_spec(0.01, 0.2)),
        dt=dt,
    )


def zero_policy() -> GaussianPolicy:
    return GaussianPolicy(lambda ts, s: np.zeros((4, len(ts))), kind="custom")


class TestRegimeChain:
    def test_row_sum_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            M.RegimeChain(p=((0.9, 0.2), (0.1, 0.9)), p0=0.5)

    def test_entry_range_validation(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            M.RegimeChain(p=((1.2, -0.2), (0.1, 0.9)), p0=0.5)

    def test_nan_entry_rejected(self):
        # a NaN compares false both ways, and used to pass the range check
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            M.RegimeChain(p=((math.nan, 0.5), (0.1, 0.9)), p0=0.5)

    def test_p0_open_interval(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="initial regime-1"):
                M.RegimeChain(p=REFERENCE_P, p0=bad)


class TestStream:
    def test_stream_is_philox_keyed_by_seed_and_key(self):
        # the keys used across the package, including wrap-around of negative
        # and 64-bit values, must keep their historical streams bit for bit
        for seed, key in ((0, 0), (123, 0), (123, 4999), (2024, 19), (2**64 - 1, 2**63), (-1, 7)):
            words = np.array([seed % 2**64, key % 2**64], dtype=np.uint64)
            expected = np.random.Generator(np.random.Philox(key=words)).random(8)
            assert np.array_equal(M.stream(seed, key).random(8), expected)

    def test_key_and_counter_equal_those_of_the_keyed_philox(self):
        for seed, key in ((0, 0), (123, 0), (123, 4999), (2024, 19), (2**64 - 1, 2**63), (-1, 7)):
            words = np.array([seed % 2**64, key % 2**64], dtype=np.uint64)
            want = np.random.Philox(key=words).state["state"]
            got = M.stream(seed, key).bit_generator.state["state"]
            assert np.array_equal(got["key"], want["key"])
            assert np.array_equal(got["counter"], want["counter"])

    def test_extra_key_words_are_rejected_not_dropped(self):
        with pytest.raises(TypeError):
            M.stream(1, 2, 3)


# the key words in use and at the edges of a word: 0, 2^63, 2^64 - 1 (and -1, which wraps to
# it), the evaluation keys PATH_KEY + i, and any word
KEY_WORDS = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 1, -1]),
    st.integers(0, 5000).map(lambda i: M.PATH_KEY + i),
    st.integers(0, 2**64 - 1),
)


def draw_mix(gen, plan):
    """The draws ``plan`` names, in order, from ``gen``; "uint32" draws an odd count of
    32-bit words, which leaves half of a 64-bit word for the next such draw."""
    out = []
    for name, size in plan:
        if name == "random":
            out.append(gen.random(size))
        elif name == "standard_normal_out":
            buffer = np.empty(size)
            gen.standard_normal(out=buffer)
            out.append(buffer)
        elif name == "standard_t":
            out.append(gen.standard_t(7.5, size=size))
        elif name == "normal":
            out.append(gen.normal(1.0, 0.3, size=size))
        else:
            out.append(gen.integers(0, 2**32 - 1, size=2 * size - 1, dtype=np.uint32))
    return out


DRAW_PLANS = st.lists(
    st.tuples(st.sampled_from(["random", "standard_normal_out", "standard_t", "normal", "uint32"]),
              st.integers(1, 5)),
    min_size=1, max_size=6,
)


class TestKeyedStreams:
    @given(seed=KEY_WORDS, visits=st.lists(st.tuples(KEY_WORDS, DRAW_PLANS), min_size=1,
                                           max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_rekeyed_draws_equal_a_fresh_stream(self, seed, visits):
        # each visit starts from what the previous one left: a used counter, a filled buffer
        # and, after an odd count of 32-bit words, a half-used word
        streams = M.KeyedStreams(seed)
        for key, plan in visits:
            gen = streams.at(key)
            assert gen is streams.gen
            fresh = M.stream(seed, key)
            want = fresh.bit_generator.state
            got = gen.bit_generator.state
            assert got["state"]["key"].tolist() == want["state"]["key"].tolist()
            assert got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
            assert got["buffer"].tolist() == want["buffer"].tolist()
            for name in ("buffer_pos", "has_uint32", "uinteger"):
                assert got[name] == want[name], name
            for a, b in zip(draw_mix(gen, plan), draw_mix(fresh, plan), strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestRegimePath:
    @pytest.mark.parametrize("p11,p21", [(0.9986, 0.0114), (0.3, 0.8), (0.5, 0.5), (0.05, 0.95)])
    def test_vectorized_matches_sequential_reference(self, p11, p21):
        chain = M.RegimeChain(p=((p11, 1 - p11), (p21, 1 - p21)), p0=0.4)
        fast = M.regime_path(chain, 4000, M.stream(3, 1))
        slow = regime_path_reference(chain, 4000, M.stream(3, 1))
        assert np.array_equal(fast, slow)

    def test_transition_frequencies_chi_squared(self):
        chain = M.RegimeChain(p=((0.9, 0.1), (0.2, 0.8)), p0=0.5)
        path = M.regime_path(chain, 1_000_000, M.stream(21, 0))
        for regime, row in ((1, (0.9, 0.1)), (2, (0.2, 0.8))):
            mask = path[:-1] == regime
            nxt = path[1:][mask]
            observed = np.array([np.sum(nxt == 1), np.sum(nxt == 2)])
            expected = np.array(row) * observed.sum()
            chi2 = float(np.sum((observed - expected) ** 2 / expected))
            assert stats.chi2.sf(chi2, df=1) > 0.001


class TestReturnSpecs:
    def test_constant_gross_mean_at_unit_dt(self):
        # gross annual 1.2 over a one-year period is 1.2 exactly
        model = simple_model(dt=1.0)
        e0 = model.e0[0].sample(model.dt, M.stream(0, 0), size=3)
        assert e0 == pytest.approx([1.2] * 3, abs=1e-15)

    def test_zero_variance_normal_is_deterministic(self):
        spec = M.ReturnSpec(kind="normal", annual_mean=0.05, annual_vol=0.0, mean_is_gross=False)
        rng = M.stream(0, 0)
        draws = spec.sample(1.0 / 252.0, rng, size=100)
        assert np.max(np.abs(draws - (1.0 + 0.05 / 252.0))) == 0.0

    def test_variance_interpretation_flag(self):
        sd_spec = M.ReturnSpec(kind="normal", annual_mean=0.05, annual_vol=0.1, mean_is_gross=False)
        var_spec = M.ReturnSpec(
            kind="normal", annual_mean=0.05, annual_vol=0.01, mean_is_gross=False, vol_is_variance=True
        )
        assert sd_spec.period_var(1 / 252) == pytest.approx(var_spec.period_var(1 / 252), rel=1e-12)

    def test_constant_with_vol_rejected(self):
        with pytest.raises(ValueError, match="zero volatility"):
            M.ReturnSpec(kind="constant", annual_mean=1.1, annual_vol=0.1)

    def test_skewed_t_needs_valid_dof(self):
        with pytest.raises(ValueError, match="dof"):
            M.ReturnSpec(kind="skewed_t", annual_mean=0.5, annual_vol=0.2, dof=2.0, skew=0.1)


class TestSkewedT:
    def test_monte_carlo_moments_within_one_percent(self):
        rng = M.stream(42, 0)
        mean, vol = 0.35, 1.7
        z = M.sample_skewed_t(mean, vol, 10.0, 0.1, rng, size=1_000_000)
        assert abs(np.mean(z) - mean) < 0.01 * vol
        assert abs(np.std(z) - vol) < 0.01 * vol

    def test_normal_limit_by_ks(self):
        rng = M.stream(42, 1)
        z = M.sample_skewed_t(0.0, 1.0, 200.0, 0.0, rng, size=100_000)
        assert stats.kstest(z, "norm").statistic < 0.02

    def test_positive_skew_parameter_gives_positive_sample_skewness(self):
        rng = M.stream(42, 2)
        z = M.sample_skewed_t(0.0, 1.0, 10.0, 0.1, rng, size=1_000_000)
        skewness = float(np.mean((z - z.mean()) ** 3) / np.std(z) ** 3)
        assert skewness > 0.0

    def test_zero_vol_returns_mean_exactly(self):
        assert np.all(M.sample_skewed_t(0.123, 0.0, 10.0, 0.1, M.stream(0, 0), size=5) == 0.123)

    def test_dof_at_most_two_rejected(self):
        with pytest.raises(ValueError, match="dof"):
            M.sample_skewed_t(0.0, 1.0, 2.0, 0.1, M.stream(0, 0), size=1)

    def test_matches_hansen_cdf(self):
        dof, skew = 6.0, -0.4
        rng = M.stream(1, 5)
        z = M.sample_skewed_t(0.0, 1.0, dof, skew, rng, size=120_000)
        a, b = M._hansen_constants(dof, skew)
        scale = math.sqrt(dof / (dof - 2.0))

        def cdf(x):
            x = np.asarray(x)
            lo = x < -a / b
            out = np.empty_like(x, dtype=float)
            out[lo] = (1 - skew) * stats.t.cdf(scale * (b * x[lo] + a) / (1 - skew), dof)
            out[~lo] = (1 - skew) / 2 + (1 + skew) * (
                stats.t.cdf(scale * (b * x[~lo] + a) / (1 + skew), dof) - 0.5
            )
            return out

        assert stats.kstest(z, cdf).statistic < 0.006

    def test_hansen_constants_at_the_reference_dof_keep_their_bits(self):
        # the gamma-ratio values the reference market's draws rest on
        assert M._hansen_constants(10, 0.1) == (0.1546796083845573, 1.0030325113125695)
        assert M._hansen_constants(6.0, -0.4) == (-0.6, 1.0583005244258363)

    @pytest.mark.parametrize("dof", [342.0, 343.0, 1e4])
    def test_hansen_constants_stay_finite_at_large_dof(self, dof):
        # the gamma ratio's denominator overflows from dof = 341.9 and its
        # numerator from 342.25
        skew = 0.1
        c = math.exp(math.lgamma((dof + 1.0) / 2.0) - math.lgamma(dof / 2.0)) / math.sqrt(
            math.pi * (dof - 2.0)
        )
        a, b = M._hansen_constants(dof, skew)
        assert a > 0.0
        assert abs(a - 4.0 * skew * c * (dof - 2.0) / (dof - 1.0)) < 1e-12
        assert abs(b - math.sqrt(1.0 + 3.0 * skew * skew - a * a)) < 1e-12

    @pytest.mark.parametrize("dof", [342.0, 343.0])
    def test_skewed_t_leg_at_large_dof_draws_its_moments(self, dof):
        spec = M.ReturnSpec(kind="skewed_t", annual_mean=0.05, annual_vol=0.2, dof=dof,
                            skew=0.1, mean_is_gross=False)
        dt, n = 1.0 / 252.0, 200_000
        z = spec.sample(dt, M.stream(0, 0), size=n)
        mean, sd = spec.period_mean(dt), spec.period_sd(dt)
        assert np.all(np.isfinite(z))
        assert abs(z.mean() - mean) < 4.0 * sd / math.sqrt(n)
        assert abs(z.std() - sd) < 4.0 * sd / math.sqrt(2.0 * n)


def episode(model, policy, horizon, seed, dynamics="real", x0=1.0, l0=0.1, **kwargs):
    spec = ProblemSpec(horizon=horizon, target=1.5, multiplier=1.5, explore_weight=2.0, x0=x0, l0=l0)
    return E.simulate(policy, model, spec, seed, dynamics=dynamics, **kwargs)


def constant_policy(*row) -> GaussianPolicy:
    return GaussianPolicy(lambda ts, s: np.tile(np.array(row, dtype=float)[:, None], len(ts)),
                          kind="custom")


def flat_model(e0: M.ReturnSpec, e1_net: float) -> M.MarketModel:
    """Both regimes alike at dt = 1, so the filtered rates are the regimes' own means."""
    e1, q = normal_spec(e1_net, 0.2), normal_spec(0.05, 0.1)
    return M.MarketModel(chain=reference_chain(), e0=(e0, e0), e1=(e1, e1), q=(q, q), dt=1.0)


# bad evaluation arguments and the error each names, the first only simulate's
BAD_ARGUMENTS = [
    ({"x0": 0.0}, "initial wealth must be positive"),
    ({"dynamics": "regime"}, "dynamics must be one of"),
    ({"signal": "filtered"}, "signal must be one of"),
    ({"dynamics": "filtered", "signal": "regime"}, "regime signal requires real dynamics"),
]


class TestStepSurplus:
    """One period of x' = e0 x + (e1 - e0) u and l' = q l, through ``evaluate.simulate``."""

    def test_hand_arithmetic(self):
        ep = episode(flat_model(constant_spec(1.2), 0.5), constant_policy(0.0, 0.0, 0.5, 0.0), 1, 0,
                     dynamics="filtered")
        assert ep.action.tolist() == [0.5]
        assert (ep.x[1], ep.l[1], ep.x[1] - ep.l[1]) == pytest.approx((1.35, 0.105, 1.245), abs=1e-15)

    def test_zero_excess_return_ignores_action(self):
        e0 = M.ReturnSpec(kind="constant", annual_mean=0.1, mean_is_gross=False)
        model = flat_model(e0, 0.1)  # a1 = 1.1 - 1.1 = 0
        full = episode(model, constant_policy(1.0, 0.0, 0.0, 0.0), 3, 0, dynamics="filtered", x0=1.7)
        none = episode(model, zero_policy(), 3, 0, dynamics="filtered", x0=1.7)
        assert full.x.tobytes() == none.x.tobytes()
        assert full.action[0] == 1.7

    def test_no_liability_case(self):
        ep = episode(simple_model(), constant_policy(0.1, -0.2, 0.5, 0.04), 5, 3, l0=0.0)
        assert np.all(ep.l == 0.0)
        assert np.array_equal(ep.x - ep.l, ep.x)

    def test_non_finite_input_rejected(self):
        for x0, l0 in ((float("nan"), 0.1), (1.0, float("inf"))):
            with pytest.raises(ValueError, match="non-finite state at t=0"):
                episode(simple_model(), zero_policy(), 3, 0, x0=x0, l0=l0)


class TestSimulateEpisode:
    def test_zero_policy_reproduces_surplus_iteration(self):
        # with x0 = 1 and u = 0 the closed form is exactly cumprod(e0)
        model = simple_model(dt=1.0 / 252.0)
        ep = episode(model, zero_policy(), 60, 5)
        rec, x, l = ep.returns, 1.0, 0.1
        for t in range(60):
            x, l = rec.e0[t] * x + (rec.e1[t] - rec.e0[t]) * 0.0, rec.q[t] * l
            assert ep.x[t + 1] == pytest.approx(x, abs=0.0)
            assert ep.l[t + 1] == pytest.approx(l, abs=0.0)

    def test_same_seed_is_byte_identical(self):
        model = simple_model(dt=1.0 / 252.0)
        a = episode(model, zero_policy(), 80, 9)
        b = episode(model, zero_policy(), 80, 9)
        for name in ("x", "l", "regime", "p_hat", "action"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name

    def test_full_horizon_record_count(self):
        model = simple_model(dt=1.0 / 252.0)
        ep = episode(model, zero_policy(), 2520, 1)
        assert len(ep.x) == 2521
        assert ep.n_periods == 2520

    def test_wealth_and_liability_recursions_exact(self):
        # liabilities are the recursion bit for bit; wealth comes from the closed-form
        # rollout, so its recursion holds within the rollout's rounding scale
        model = simple_model(dt=1.0 / 252.0)
        cx = 0.1
        ep = episode(model, constant_policy(cx, -0.2, 0.5, 0.04), 100, 2)
        rec = ep.returns
        ex = rec.e1 - rec.e0
        assert np.array_equal(ep.l[1:], rec.q * ep.l[:-1])
        scale = closed_form_scale(rec.e0 + ex * cx, ex * (ep.action - cx * ep.x[:-1]), 1.0)
        assert np.all(np.abs(ep.x[1:] - (rec.e0 * ep.x[:-1] + ex * ep.action)) <= 1e-12 * scale[1:])

    def test_filter_path_is_independent_of_return_draws(self):
        model = simple_model(dt=1.0 / 252.0)
        a = episode(model, zero_policy(), 50, 1)
        b = episode(model, zero_policy(), 50, 2)
        assert not np.array_equal(a.returns.e1, b.returns.e1)
        assert np.array_equal(a.p_hat, b.p_hat)

    def test_deterministic_dynamics_have_no_market_noise(self):
        model = simple_model(dt=1.0 / 252.0)
        ep = episode(model, zero_policy(), 40, 3, dynamics="filtered")
        schedule = M.observable_rates(model, 40, "filtered")[2]
        e0_bar, q_bar = schedule.a0, schedule.a2
        assert np.allclose(ep.x[1:] / ep.x[:-1], e0_bar, atol=1e-14)
        assert np.allclose(ep.l[1:] / ep.l[:-1], q_bar, atol=1e-14)

    def test_invalid_policy_mean_names_offending_period(self):
        model = simple_model(dt=1.0 / 252.0)
        policy = GaussianPolicy(
            lambda ts, s: np.where(ts == 7, np.array([0.0, 0.0, float("nan"), 0.0])[:, None], 0.0),
            kind="custom",
        )
        with pytest.raises(ValueError, match="t=7"):
            episode(model, policy, 20, 0)

    @pytest.mark.parametrize("cx, l0, t", [(1e300, 0.1, 2), (0.0, sys.float_info.max, 1)])
    def test_diverging_state_names_its_first_period(self, cx, l0, t):
        # wealth: x_1 ~ 1e300 a1 is finite and x_2 overflows; liability: l_1 = q l_0 overflows
        policy = constant_policy(cx, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=f"diverged to non-finite state at t={t}$"):
            episode(simple_model(dt=1.0 / 252.0), policy, 20, 0, dynamics="filtered", l0=l0)

    @pytest.mark.parametrize("kwargs, message", BAD_ARGUMENTS)
    def test_bad_arguments_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            episode(simple_model(), zero_policy(), 5, 0, **kwargs)

    @pytest.mark.parametrize("kwargs, message", BAD_ARGUMENTS[1:])
    def test_out_of_sample_rejects_bad_arguments_alike(self, kwargs, message):
        # an unknown dynamics or signal used to fail there with another message
        spec = ProblemSpec(horizon=5, target=1.5, multiplier=1.5, explore_weight=2.0, l0=0.1)
        with pytest.raises(ValueError, match=message):
            E.out_of_sample(zero_policy(), simple_model(), 4, spec, 0, **kwargs)

    def test_sampled_moments_match_moment_schedule(self):
        model = simple_model(dt=1.0 / 252.0)
        pair = model.moment_pair()
        rng = M.stream(33, 0)
        n = 400_000
        for regime, ms in ((1, pair[0]), (2, pair[1])):
            rec = M.sample_return_paths(np.full(n, regime, dtype=np.int64), model, rng)
            ex = rec.e1 - rec.e0
            for sample, target, scale in (
                (rec.e0.mean(), ms.a0, 1.0),
                ((rec.e0**2).mean(), ms.b0, 1.0),
                (ex.mean(), ms.a1, math.sqrt(ms.b1 - ms.a1**2)),
                ((ex**2).mean(), ms.b1, ms.b1),
                (rec.q.mean(), ms.a2, math.sqrt(ms.b2 - ms.a2**2)),
                ((rec.q**2).mean(), ms.b2, ms.b2),
            ):
                # five standard errors of Monte Carlo tolerance
                assert abs(sample - target) < max(5.0 * scale / math.sqrt(n), 1e-12)


class TestMarketJson:
    def test_round_trip(self):
        model = simple_model(dt=1.0 / 252.0)
        again = build_market({"market": M.market_to_dict(model)})
        assert M.market_to_dict(again) == M.market_to_dict(model)

    def test_missing_key_reported(self):
        cfg = M.market_to_dict(simple_model())
        del cfg["P11"]
        with pytest.raises(ValueError, match="P11"):
            resolve_config({"market": cfg})

    @pytest.mark.parametrize("key", ["P11", "P12", "P21", "P22", "p_hat_0", "dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, None, "0.5", True])
    def test_non_finite_or_non_numeric_scalar_names_its_key(self, key, value):
        cfg = M.market_to_dict(simple_model())
        cfg[key] = value
        with pytest.raises(ValueError, match=rf"^market\.{key} must be a finite number"):
            resolve_config({"market": cfg})

    @pytest.mark.parametrize("dt", [math.nan, math.inf])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            simple_model(dt=dt)

    def test_degenerate_market_fails_positive_definite_check(self):
        with pytest.raises(ValueError, match="positive definite"):
            M.MarketModel(
                chain=reference_chain(),
                e0=(constant_spec(1.2), constant_spec(1.05)),
                e1=(constant_spec(1.5), constant_spec(1.06)),
                q=(normal_spec(0.05, 0.1), normal_spec(0.01, 0.2)),
                dt=1.0 / 252.0,
            )
