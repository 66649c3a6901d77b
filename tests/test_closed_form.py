from __future__ import annotations

import math

import numpy as np
import pytest

from emvalm import closed_form as C
from emvalm import filtering as F
from conftest import REFERENCE_P, random_moment_set, random_schedule


def spec_for(horizon, w=2.0, lam=1.5, d=1.3):
    return C.ProblemSpec(horizon=horizon, target=d, multiplier=w, explore_weight=lam)


def value_at(t, x, l, schedule, spec):
    """The product-form value surface at t (the terminal condition at t = horizon)."""
    return C._ScheduleTables(schedule, spec).value_quadratic(t)(x, l)


def backward_values(schedule, spec):
    """Value quadratics for t = 0..T by the one-step recursion alone, one
    ``bellman_step`` per period: the reference the product formulas are held to."""
    out = [C.terminal_value(spec.multiplier, spec.target)]
    for t in range(spec.horizon - 1, -1, -1):
        nxt, _, _ = C.bellman_step(out[0], schedule[t], spec.explore_weight)
        out.insert(0, nxt)
    return out


class TestFTerms:
    def test_deterministic_baseline_unit(self):
        a, sigma2 = 0.3, 0.04
        m = F.MomentSet(a0=1.0, b0=1.0, a1=a, b1=a * a + sigma2, a2=1.0, b2=1.0)
        f1, f2 = C.f_terms(m)
        assert f1 == pytest.approx(sigma2, rel=1e-12)
        assert f2 == pytest.approx(sigma2, rel=1e-12)

    def test_deterministic_baseline_rate(self):
        rf, a, sigma2 = 1.03, 0.25, 0.09
        m = F.MomentSet(a0=rf, b0=rf * rf, a1=a, b1=a * a + sigma2, a2=1.0, b2=1.0)
        f1, f2 = C.f_terms(m)
        assert f1 == pytest.approx(rf * rf * sigma2, rel=1e-12)
        assert f2 == pytest.approx(rf * sigma2, rel=1e-12)

    def test_zero_mean_excess(self, rng):
        m0 = random_moment_set(rng)
        m = F.MomentSet(a0=m0.a0, b0=m0.b0, a1=0.0, b1=0.03, a2=m0.a2, b2=m0.b2)
        f1, f2 = C.f_terms(m)
        assert f2 == pytest.approx(m.a0 * m.b1, rel=1e-12)
        assert f1 == pytest.approx(m.b0 * m.b1 - (m.b0 - m.a0**2) ** 2, rel=1e-12)


class TestOptimalPolicy:
    def test_last_period_closed_form(self, rng):
        m = random_moment_set(rng)
        T = 4
        sched = F.MomentSchedule(sets=(random_moment_set(rng),) * (T - 1) + (m,), flavor="regime")
        spec = spec_for(T)
        x, l = 1.4, 0.3
        mean, var = C.optimal_policy(T - 1, x, l, sched, spec)
        w = spec.multiplier
        mu = (m.a0 * (m.a1 + m.a0) - m.b0) * x - m.a1 * (w + m.a2 * l)
        assert mean == pytest.approx(-mu / m.b1, rel=1e-12)
        assert var == pytest.approx(spec.explore_weight / (2.0 * m.b1), rel=1e-12)

    def test_doubling_explore_weight_doubles_variance_only(self, rng):
        sched = random_schedule(rng, 5)
        s1 = spec_for(5, lam=1.1)
        s2 = spec_for(5, lam=2.2)
        for t in range(5):
            m1, v1 = C.optimal_policy(t, 1.2, 0.4, sched, s1)
            m2, v2 = C.optimal_policy(t, 1.2, 0.4, sched, s2)
            assert m2 == pytest.approx(m1, rel=1e-12)
            assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_no_liability_reduction_is_exact(self):
        # baseline at a constant rate, Gaussian excess, no liability: the
        # policy collapses to the known single-asset form with the
        # (1/rf)^(T-t) discount on the multiplier
        rf, a, sigma2, lam, T, w = 1.02, 0.3, 0.04, 2.0, 10, 2.5
        m = F.MomentSet(a0=rf, b0=rf * rf, a1=a, b1=a * a + sigma2, a2=0.0, b2=0.0)
        sched = F.MomentSchedule(sets=(m,) * T, flavor="regime")
        spec = C.ProblemSpec(horizon=T, target=1.0, multiplier=w, explore_weight=lam)
        for t in range(T):
            for x in (0.5, 1.0, 1.9):
                mean, var = C.optimal_policy(t, x, 0.7, sched, spec)
                rho = rf ** (-(T - t))
                assert mean == pytest.approx(
                    -a * rf * (x - rho * w) / (a * a + sigma2), rel=1e-12
                )
                assert var == pytest.approx(
                    lam / (2 * (a * a + sigma2)) * ((a * a + sigma2) / (sigma2 * rf * rf)) ** (T - t - 1),
                    rel=1e-12,
                )

    def test_mean_affine_in_state_and_free_of_explore_weight(self, rng):
        sched = random_schedule(rng, 6)
        spec = spec_for(6)
        for t in range(6):
            m00, v0 = C.optimal_policy(t, 0.0, 0.0, sched, spec)
            m10, _ = C.optimal_policy(t, 1.0, 0.0, sched, spec)
            m01, _ = C.optimal_policy(t, 0.0, 1.0, sched, spec)
            m21, v1 = C.optimal_policy(t, 2.0, 1.5, sched, spec)
            assert m21 == pytest.approx(m00 + 2.0 * (m10 - m00) + 1.5 * (m01 - m00), rel=1e-10)
            assert v1 == pytest.approx(v0, rel=1e-14)  # variance free of (x, l)

    def test_variance_free_of_multiplier_and_target(self, rng):
        sched = random_schedule(rng, 4)
        for t in range(4):
            _, va = C.optimal_policy(t, 1.0, 0.2, sched, spec_for(4, w=0.5, d=0.1))
            _, vb = C.optimal_policy(t, 1.0, 0.2, sched, spec_for(4, w=9.0, d=7.0))
            assert va == pytest.approx(vb, rel=1e-14)

    def test_exploration_decay_sufficient_condition(self):
        # time-constant moments with B1 > F1 satisfy the decay premise, so the
        # variance must be nonincreasing in t
        m = F.MomentSet(a0=1.0008, b0=1.0008**2, a1=0.0012, b1=1.6e-4, a2=1.0002, b2=1.0002**2 + 4e-5)
        f1, _ = C.f_terms(m)
        assert m.b1 * m.b1 > m.b1 * f1
        sched = F.MomentSchedule(sets=(m,) * 30, flavor="regime")
        spec = spec_for(30, lam=2.0)
        variances = [C.optimal_policy(t, 1.0, 0.1, sched, spec)[1] for t in range(30)]
        assert all(va >= vb for va, vb in zip(variances, variances[1:]))

    def test_nonpositive_f1_identifies_period(self):
        good = F.MomentSet(a0=1.0, b0=1.0, a1=0.1, b1=0.05, a2=1.0, b2=1.0)
        bad = F.MomentSet(a0=1.0, b0=1.3, a1=0.1, b1=0.02, a2=1.0, b2=1.0)
        sched = F.MomentSchedule(sets=(good, good, bad, good), flavor="regime")
        with pytest.raises(ValueError, match="period 2"):
            C.optimal_policy(0, 1.0, 0.1, sched, spec_for(4))

    def test_schedule_length_must_match_horizon(self, rng):
        sched = F.regime_schedule(random_moment_set(rng), 3)
        with pytest.raises(ValueError, match="schedule length 3 does not match horizon 4"):
            C.schedule_policy(sched, spec_for(4), kind="poemv_opt")


class TestSuboptimalPolicy:
    def test_identical_regimes_make_all_policies_coincide(self, rng):
        m = random_moment_set(rng)
        pair = (m, m)
        T = 6
        spec = spec_for(T)
        probs = F.filter_states(0.3, REFERENCE_P, T)[:-1]
        filt = F.Mixing(pair).schedule(probs, "filtered")
        tilde = F.Mixing(pair).schedule(2.0 - probs, "expectation")
        reg = F.regime_schedule(m, T)
        for t in range(T):
            a = C.optimal_policy(t, 1.1, 0.2, filt, spec)
            b = C.optimal_policy(t, 1.1, 0.2, tilde, spec)
            c = C.optimal_policy(t, 1.1, 0.2, reg, spec)
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-12)

    def test_last_period_tilde_substitution(self, rng):
        pair = (random_moment_set(rng), random_moment_set(rng))
        T = 3
        tilde = F.Mixing(pair).schedule(2.0 - F.filter_states(0.3, REFERENCE_P, T)[:-1], "expectation")
        spec = spec_for(T)
        m = tilde[T - 1]
        mean, var = C.optimal_policy(T - 1, 0.9, 0.4, tilde, spec)
        mu = (m.a0 * (m.a1 + m.a0) - m.b0) * 0.9 - m.a1 * (spec.multiplier + m.a2 * 0.4)
        assert mean == pytest.approx(-mu / m.b1, rel=1e-12)
        assert var == pytest.approx(spec.explore_weight / (2 * m.b1), rel=1e-12)

    def test_reference_market_cross_check_against_naive_products(self):
        # independent reimplementation of the product formulas with plain loops
        from emvalm.config import default_config, build_market
        from emvalm.market import observable_rates

        model = build_market(default_config())
        T = 252
        tilde = observable_rates(model, T, "expectation")[2]
        spec = C.ProblemSpec(horizon=T, target=8.0, multiplier=8.0, explore_weight=2.0)
        x, l = 1.0, 0.1
        for t in (0, 100, T - 1):
            m = tilde[t]
            prod_f2f1 = 1.0
            for k in range(t + 1, T):
                f1k, f2k = C.f_terms(tilde[k])
                prod_f2f1 *= f2k / f1k
            prod_a2 = 1.0
            for k in range(t, T):
                prod_a2 *= tilde[k].a2
            prod_b1f1 = 1.0
            for k in range(t + 1, T):
                f1k, _ = C.f_terms(tilde[k])
                prod_b1f1 *= tilde[k].b1 / f1k
            cross = m.a0 * m.a1 - (m.b0 - m.a0**2)
            naive_mean = -(cross / m.b1 * x - (m.a1 / m.b1) * prod_f2f1 * (spec.multiplier + l * prod_a2))
            naive_var = spec.explore_weight / (2 * m.b1) * prod_b1f1
            mean, var = C.optimal_policy(t, x, l, tilde, spec)
            assert mean == pytest.approx(naive_mean, rel=1e-10)
            assert var == pytest.approx(naive_var, rel=1e-10)


class TestValueFunction:
    def test_terminal_examples(self):
        spec = C.ProblemSpec(horizon=3, target=1.0, multiplier=1.0, explore_weight=1.0)
        sched = F.MomentSchedule(
            sets=(F.MomentSet(1.0, 1.0, 0.1, 0.05, 1.0, 1.0),) * 3, flavor="regime"
        )
        assert value_at(3, 2.0, 0.5, sched, spec) == pytest.approx(0.25, abs=1e-15)
        spec2 = C.ProblemSpec(horizon=3, target=0.7, multiplier=1.3, explore_weight=1.0)
        # zero surplus gap: x = l + w
        assert value_at(3, 1.8, 0.5, sched, spec2) == pytest.approx(
            -((1.3 - 0.7) ** 2), abs=1e-14
        )

    def test_last_period_matches_single_step_expression(self, rng):
        m = random_moment_set(rng)
        T = 5
        sched = F.MomentSchedule(sets=(random_moment_set(rng),) * (T - 1) + (m,), flavor="regime")
        spec = spec_for(T, w=1.7, lam=2.3, d=0.9)
        w, lam, d = spec.multiplier, spec.explore_weight, spec.target
        f1, f2 = C.f_terms(m)
        for x, l in ((1.0, 0.1), (0.3, 0.8), (-0.4, 0.0)):
            expected = (
                0.5 * lam * math.log(m.b1 / (math.pi * lam))
                + (f1 / m.b1) * x * x
                - 2.0 * f2 * (w + m.a2 * l) / m.b1 * x
                - (m.a1**2 / m.b1) * (w + m.a2 * l) ** 2
                + 2.0 * m.a2 * w * l
                + m.b2 * l * l
                - d * d
                + 2.0 * w * d
            )
            assert value_at(T - 1, x, l, sched, spec) == pytest.approx(expected, rel=1e-12)

    def test_matches_backward_recursion_with_deterministic_liability(self, rng):
        # with a deterministic liability return the displayed closed form is
        # the exact solution of the one-step recursion at every coefficient
        for _ in range(10):
            T = int(rng.integers(2, 7))
            sched = random_schedule(rng, T, deterministic_liability=True)
            spec = spec_for(T, w=float(rng.uniform(0.2, 3.0)), lam=float(rng.uniform(0.5, 3.0)))
            vals = backward_values(sched, spec)
            for t in range(T + 1):
                for x, l in ((1.0, 0.2), (2.5, 1.0), (-0.7, 0.4)):
                    assert value_at(t, x, l, sched, spec) == pytest.approx(
                        vals[t](x, l), rel=1e-10, abs=1e-10
                    )

    def test_stochastic_liability_discrepancy_is_confined_to_ll(self, rng):
        # with a noisy liability return the closed form's squared-liability
        # coefficient absorbs the liability variance into its mean; every
        # other coefficient still matches the exact recursion
        T = 4
        sched = random_schedule(rng, T, deterministic_liability=False)
        assert np.any(sched.b2 > sched.a2**2 + 1e-12)
        spec = spec_for(T)
        vals = backward_values(sched, spec)
        tables = C._ScheduleTables(sched, spec)
        for t in range(T + 1):
            exact = vals[t].as_tuple()
            formula = tables.value_quadratic(t).as_tuple()
            for name, a, b in zip(("xx", "xl", "ll", "x", "l", "c"), exact, formula):
                if name != "ll":
                    assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_optimal_policy_agrees_with_exact_recursion_even_with_liability_noise(self, rng):
        # the minimizer only reads the wealth-side coefficients, so the policy
        # is exactly optimal regardless of the liability variance
        for _ in range(5):
            T = int(rng.integers(2, 7))
            sched = random_schedule(rng, T)
            spec = spec_for(T)
            vals = backward_values(sched, spec)
            for t in range(T):
                mean, var = C.optimal_policy(t, 1.3, 0.6, sched, spec)
                _, (mx, ml, mc), var2 = C.bellman_step(vals[t + 1], sched[t], spec.explore_weight)
                assert mean == pytest.approx(mx * 1.3 + ml * 0.6 + mc, rel=1e-10, abs=1e-12)
                assert var == pytest.approx(var2, rel=1e-10)


class TestBellmanResidual:
    def test_small_instances_below_tolerance(self, rng):
        for _ in range(5):
            T = 3
            sched = random_schedule(rng, T, deterministic_liability=True)
            spec = spec_for(T)
            for t in range(T):
                assert C.bellman_residual(t, 1.1, 0.3, sched, spec, 40) < 1e-8

    def test_single_step_case_fully_analytic(self, rng):
        sched = random_schedule(rng, 4, deterministic_liability=True)
        spec = spec_for(4)
        assert C.bellman_residual(3, 0.9, 0.5, sched, spec, 40) < 1e-10

    def test_scale_robust_in_explore_weight(self, rng):
        sched = random_schedule(rng, 3, deterministic_liability=True)
        for lam in (0.23, 2.3, 23.0):
            spec = spec_for(3, lam=lam)
            for t in range(3):
                assert C.bellman_residual(t, 1.4, 0.2, sched, spec, 40) < 1e-8

    def test_zero_liability_state_is_exact_even_with_liability_noise(self, rng):
        sched = random_schedule(rng, 3, deterministic_liability=False)
        spec = spec_for(3)
        for t in range(3):
            assert C.bellman_residual(t, 1.4, 0.0, sched, spec, 40) < 1e-8

    def test_low_quadrature_order_rejected(self, rng):
        sched = random_schedule(rng, 3)
        with pytest.raises(ValueError, match="quad_order"):
            C.bellman_residual(0, 1.0, 0.1, sched, spec_for(3), 4)


class TestOptimalityAgainstPerturbations:
    def _one_step_objective(self, mean, var, next_q, m, lam, x, l):
        nodes, weights = np.polynomial.hermite.hermgauss(60)
        u = mean + math.sqrt(2.0 * var) * nodes
        cross = m.cross()
        exp_next = (
            next_q.xx * (m.b0 * x * x + 2 * cross * x * u + m.b1 * u * u)
            + next_q.xl * m.a2 * l * (m.a0 * x + m.a1 * u)
            + next_q.ll * m.b2 * l * l
            + next_q.x * (m.a0 * x + m.a1 * u)
            + next_q.l * m.a2 * l
            + next_q.c
        )
        log_pi = -0.5 * math.log(2 * math.pi * var) - (u - mean) ** 2 / (2 * var)
        return float(np.sum(weights * (exp_next + lam * log_pi)) / math.sqrt(math.pi))

    def test_perturbed_policies_never_beat_the_optimum(self, rng):
        T = 4
        sched = random_schedule(rng, T, deterministic_liability=True)
        spec = spec_for(T)
        tables = C._ScheduleTables(sched, spec)
        for t in range(T):
            next_q = tables.value_quadratic(t + 1)
            for x, l in ((1.0, 0.3), (2.0, 0.0), (0.4, 1.1)):
                mean, var = C.optimal_policy(t, x, l, sched, spec)
                best = self._one_step_objective(mean, var, next_q, sched[t], spec.explore_weight, x, l)
                for dm in (-0.1, 0.1):
                    for dv in (-0.1, 0.0, 0.1):
                        perturbed = self._one_step_objective(
                            mean * (1 + dm) + 0.05 * dm,
                            var * (1 + dv),
                            next_q,
                            sched[t],
                            spec.explore_weight,
                            x,
                            l,
                        )
                        assert perturbed >= best - 1e-10

    def test_complete_information_consistency_at_certain_signal(self, rng):
        pair = (random_moment_set(rng), random_moment_set(rng))
        T = 5
        spec = spec_for(T)
        certain = F.MomentSchedule(
            sets=(F.Mixing(pair).schedule([1.0], "filtered")[0],) * T, flavor="filtered"
        )
        regime1 = F.regime_schedule(pair[0], T)
        for t in range(T):
            a = C.optimal_policy(t, 1.2, 0.4, certain, spec)
            b = C.optimal_policy(t, 1.2, 0.4, regime1, spec)
            assert a == pytest.approx(b, rel=1e-12)


class TestPolicyObjects:
    def test_schedule_policy_matches_pointwise_op(self, rng):
        sched = random_schedule(rng, 5)
        spec = spec_for(5)
        policy = C.schedule_policy(sched, spec, kind="poemv_opt")
        for t in range(5):
            mean, var = C.optimal_policy(t, 1.3, 0.2, sched, spec)
            cx, cl, c0, v = policy.table([t], [0.5])[:, 0]
            assert cx * 1.3 + cl * 0.2 + c0 == pytest.approx(mean, rel=1e-12)
            assert v == pytest.approx(var, rel=1e-12)

    def test_regime_policy_selects_schedule_by_signal(self, rng):
        pair = (random_moment_set(rng), random_moment_set(rng))
        T = 4
        spec = spec_for(T)
        policy = C.regime_policy((F.regime_schedule(pair[0], T), F.regime_schedule(pair[1], T)), spec)
        for regime in (1, 2):
            sched = F.regime_schedule(pair[regime - 1], T)
            for t in range(T):
                mean, var = C.optimal_policy(t, 0.8, 0.3, sched, spec)
                cx, cl, c0, v = policy.table([t], [float(regime)])[:, 0]
                assert cx * 0.8 + cl * 0.3 + c0 == pytest.approx(mean, rel=1e-12)
                assert v == pytest.approx(var, rel=1e-12)
