from __future__ import annotations

import math

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emvalm import closed_form as C
from emvalm import config as cfgmod
from emvalm import evaluate as E
from emvalm import improvement as I
from emvalm import market as M
from emvalm.filtering import Mixing, MomentSchedule, filter_states, regime_schedule
from conftest import REFERENCE_P, gaussian_entropy_min, random_moment_set, random_schedule


def spec_for(horizon, w=1.8, lam=2.2, d=1.3):
    return C.ProblemSpec(horizon=horizon, target=d, multiplier=w, explore_weight=lam)


def optimal_affine_policy(schedule: MomentSchedule, spec: C.ProblemSpec) -> I.AffineGaussianPolicy:
    tables = C._ScheduleTables(schedule, spec)
    return I.AffineGaussianPolicy(tables.affine_rows(np.arange(spec.horizon)))


def max_param_delta(a: I.AffineGaussianPolicy, b: I.AffineGaussianPolicy) -> float:
    return float(np.max(np.abs(a.table - b.table)))


def per_period_round(current: I.IteratedPolicy, schedule, spec, t):
    """The round as a loop of scalar ``bellman_step`` calls, one per period
    s = T-1..t on Python floats: the (4, T) policy table and (6, T+1)
    objective coefficients it leaves."""
    table = current.policy.table.copy()
    before = np.array(current.objective.as_tuple())
    coef = before.copy()
    for s in range(spec.horizon - 1, t - 1, -1):
        backed, mean, var = C.bellman_step(
            C.QuadraticValue(*before[:, s + 1].tolist()), schedule[s], spec.explore_weight
        )
        table[:, s] = (*mean, var)
        coef[:, s] = backed.as_tuple()
    return table, coef


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestGaussianEntropyMin:
    def test_direct_substitution(self):
        assert gaussian_entropy_min(2.0, 1.0, 2.0) == pytest.approx((-0.5, 0.5), abs=1e-15)

    def test_symmetric_quadratic_centers_at_zero(self):
        for b in (0.5, 3.0, 10.0):
            mean, _ = gaussian_entropy_min(b, 0.0, 1.0)
            assert mean == 0.0

    def test_nonpositive_curvature_rejected(self):
        # the minimizer exists only for b > 0: bellman_step, whose b is xx * b1, refuses the rest
        m = random_moment_set(np.random.default_rng(4))
        for xx in (0.0, -2.0):
            with pytest.raises(ValueError, match="non-positive at period 0"):
                C.bellman_step(C.QuadraticValue(xx, 0.0, 0.0, 0.0, 0.0, 0.0), m, 1.0)

    def test_beats_grid_of_candidate_gaussians(self, rng):
        # the functional of N(m, v) is b(m^2+v) + 2 mu m - lam * entropy(v)
        def functional(b, mu, lam, m, v):
            return b * (m * m + v) + 2 * mu * m - lam * 0.5 * math.log(2 * math.pi * math.e * v)

        for _ in range(5):
            b = float(rng.uniform(0.1, 5.0))
            mu = float(rng.uniform(-3.0, 3.0))
            lam = float(rng.uniform(0.2, 4.0))
            mean, var = gaussian_entropy_min(b, mu, lam)
            best = functional(b, mu, lam, mean, var)
            means = np.linspace(mean - 3, mean + 3, 100)
            variances = np.geomspace(var / 50, var * 50, 100)
            for m in means:
                for v in variances:
                    assert functional(b, mu, lam, m, v) >= best - 1e-12


class TestImproveOnce:
    def test_first_round_at_last_period_matches_stated_form(self, rng):
        # with the terminal normalizations h1[0] = h2[0] = f1[0] = 1 the first
        # improvement at T-1 is the entropy minimizer against the terminal
        # condition: mean -((a0 a1 - (b0 - a0^2)) x - a1 (w + a2 l)) / b1,
        # variance lam / (2 b1)
        T = 4
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        fam = I.InitialPolicyFamily.random(T, rng)
        improved = I.improve_once(I.initial_iterate(fam, sched, spec), sched, spec)
        m = sched[T - 1]
        w, lam = spec.multiplier, spec.explore_weight
        cross = m.a0 * m.a1 - (m.b0 - m.a0**2)
        assert improved.policy.mx[T - 1] == pytest.approx(-cross / m.b1, rel=1e-12)
        assert improved.policy.ml[T - 1] == pytest.approx(m.a1 * m.a2 / m.b1, rel=1e-12)
        assert improved.policy.mc[T - 1] == pytest.approx(m.a1 * w / m.b1, rel=1e-12)
        assert improved.policy.var[T - 1] == pytest.approx(lam / (2 * m.b1), rel=1e-12)

    def test_wealth_coefficient_is_optimal_after_one_round_everywhere(self, rng):
        T = 5
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        fam = I.InitialPolicyFamily.random(T, rng)
        improved = I.improve_once(I.initial_iterate(fam, sched, spec), sched, spec)
        for t in range(T):
            m = sched[t]
            cross = m.a0 * m.a1 - (m.b0 - m.a0**2)
            assert improved.policy.mx[t] == pytest.approx(-cross / m.b1, rel=1e-12)

    def test_idempotent_at_the_optimum(self, rng):
        T = 5
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        opt = optimal_affine_policy(sched, spec)
        start = I.IteratedPolicy(0, opt, I.evaluate_policy(opt, sched, spec))
        improved = I.improve_once(start, sched, spec)
        assert max_param_delta(improved.policy, opt) < 1e-12

    def test_objective_nonincreasing_at_probe_points(self, rng):
        T = 5
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        current = I.initial_iterate(I.InitialPolicyFamily.random(T, rng), sched, spec)
        probes = [(float(rng.uniform(-2, 3)), float(rng.uniform(-1, 2))) for _ in range(100)]
        for _ in range(T):
            improved = I.improve_once(current, sched, spec)
            for x, l in probes:
                for t in range(T):
                    assert improved.objective[t](x, l) <= current.objective[t](x, l) + 1e-9
            current = improved

    def test_initial_objective_is_the_policy_evaluation(self, rng):
        # the n = 0 objective must equal the true objective of the family
        # policy: it satisfies the one-step identity under that policy
        T = 4
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        it = I.initial_iterate(I.InitialPolicyFamily.random(T, rng), sched, spec)
        for t in range(T):
            stepped = C.policy_value_step(
                it.objective[t + 1],
                sched[t],
                (float(it.policy.mx[t]), float(it.policy.ml[t]), float(it.policy.mc[t])),
                float(it.policy.var[t]),
                spec.explore_weight,
            )
            assert stepped.as_tuple() == pytest.approx(it.objective[t].as_tuple(), rel=1e-10)


class TestSweptRound:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 40),
        flavor=st.sampled_from(["regime", "filtered"]),
        data=st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_equals_the_per_period_loop_bit_for_bit(self, seed, horizon, flavor, data):
        rng = np.random.default_rng(seed)
        if flavor == "regime":
            sched = random_schedule(rng, horizon)
        else:
            pair = (random_moment_set(rng), random_moment_set(rng))
            probs = filter_states(float(rng.uniform(0.0, 1.0)), REFERENCE_P, horizon)
            sched = Mixing(pair).schedule(probs[:-1], "filtered")
        spec = spec_for(
            horizon, w=float(rng.uniform(0.3, 2.5)), lam=float(rng.uniform(0.5, 3.0))
        )
        t = data.draw(st.integers(0, horizon - 1), label="t")
        current = I.initial_iterate(I.InitialPolicyFamily.random(horizon, rng), sched, spec)
        for _ in range(min(horizon - t, 3)):
            table, coef = per_period_round(current, sched, spec, t)
            current = I.improve_once(current, sched, spec, t=t)
            assert same_bits(current.policy.table, table)
            assert same_bits(current.objective.as_tuple(), coef)

    def test_array_steps_equal_scalar_steps_bit_for_bit(self, rng):
        T = 30
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        it = I.initial_iterate(I.InitialPolicyFamily.random(T, rng), sched, spec)
        lam, nxt = spec.explore_weight, it.objective[1:]
        swept, mean, var = C.bellman_step(nxt, sched, lam)
        valued = C.policy_value_step(nxt, sched, it.policy.table[:3], it.policy.var, lam)
        for t in range(T):
            one, one_mean, one_var = C.bellman_step(nxt[t], sched[t], lam)
            assert same_bits(swept[t].as_tuple(), one.as_tuple())
            assert same_bits([m[t] for m in mean] + [var[t]], [*one_mean, one_var])
            row = it.policy.table[:, t].tolist()
            one = C.policy_value_step(nxt[t], sched[t], row[:3], row[3], lam)
            assert same_bits(valued[t].as_tuple(), one.as_tuple())

    def test_non_finite_objective_names_its_period(self, rng):
        T = 6
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        it = I.initial_iterate(I.InitialPolicyFamily.random(T, rng), sched, spec)
        coef = np.array(it.objective.as_tuple())
        coef[4, 3] = np.nan
        broken = replace(it, objective=C.QuadraticValue(*coef))
        with pytest.raises(ValueError, match="non-finite coefficients at period 3$"):
            I.improve_once(broken, sched, spec, t=1)

    def test_non_positive_action_coefficient_names_its_period(self, rng):
        # b_s = objective.xx[s + 1] * b1_s, so a concave surface at 5 breaks period 4
        T = 6
        sched = random_schedule(rng, T)
        spec = spec_for(T)
        it = I.initial_iterate(I.InitialPolicyFamily.random(T, rng), sched, spec)
        coef = np.array(it.objective.as_tuple())
        coef[0, 5] = -1.0
        broken = replace(it, objective=C.QuadraticValue(*coef))
        with pytest.raises(ValueError, match=r"non-positive at period 4 \(-"):
            I.improve_once(broken, sched, spec, t=2)

    def test_negative_variance_names_its_period(self, rng):
        sched = random_schedule(rng, 3)
        nxt = C.QuadraticValue(*np.ones((6, 3)))
        with pytest.raises(ValueError, match=r"non-negative \(period 2\)"):
            C.policy_value_step(nxt, sched, np.zeros((3, 3)), np.array([1.0, 0.5, -0.1]), 1.0)


class TestOneOperator:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 40),
        flavor=st.sampled_from(["regime", "filtered"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_bellman_minimum_is_the_value_of_its_minimiser_bit_for_bit(self, seed, horizon, flavor):
        # the backward recursion's surfaces are exactly what evaluate_policy gives
        # the table of minimisers it leaves
        rng = np.random.default_rng(seed)
        if flavor == "regime":
            sched = random_schedule(rng, horizon)
        else:
            pair = (random_moment_set(rng), random_moment_set(rng))
            probs = filter_states(float(rng.uniform(0.0, 1.0)), REFERENCE_P, horizon)
            sched = Mixing(pair).schedule(probs[:-1], "filtered")
        spec = spec_for(horizon, w=float(rng.uniform(0.3, 2.5)), lam=float(rng.uniform(0.5, 3.0)))
        surfaces = [C.terminal_value(spec.multiplier, spec.target)]
        table = np.empty((4, horizon))
        for t in range(horizon - 1, -1, -1):
            value, mean, var = C.bellman_step(surfaces[0], sched[t], spec.explore_weight)
            table[:, t] = (*mean, var)
            surfaces.insert(0, value)
        valued = I.evaluate_policy(I.AffineGaussianPolicy(table), sched, spec)
        assert same_bits(valued.as_tuple(), np.array([q.as_tuple() for q in surfaces]).T)


class TestIterateToConvergence:
    def test_one_period_horizon_uses_single_round(self, rng):
        sched = random_schedule(rng, 3)
        spec = spec_for(3)
        fam = I.InitialPolicyFamily.random(3, rng)
        _, n_used = I.iterate_to_convergence(fam, sched, spec, t=2)
        assert n_used == 1

    def test_random_families_converge_to_closed_form(self, rng):
        for _ in range(6):
            T = 4
            sched = random_schedule(rng, T)
            spec = spec_for(T)
            fam = I.InitialPolicyFamily.random(T, rng)
            final, n_used = I.iterate_to_convergence(fam, sched, spec, t=0)
            assert n_used <= T
            assert max_param_delta(final.policy, optimal_affine_policy(sched, spec)) < 1e-10

    def test_starting_at_the_optimum_converges_immediately(self):
        from emvalm.filtering import MomentSet

        T = 4
        m = MomentSet(a0=1.01, b0=1.01**2 + 0.004, a1=0.08, b1=0.08**2 + 0.03, a2=1.02, b2=1.02**2)
        sched = MomentSchedule(sets=(m,) * T, flavor="regime")
        spec = spec_for(T)
        opt = optimal_affine_policy(sched, spec)
        # express the optimum through the family parameterization: unit h1/h2,
        # the variance absorbed into g2, the w-coupling into g1/g0/f1
        lam, w = spec.explore_weight, spec.multiplier
        g2 = lam / (2.0 * opt.var)
        g1 = -opt.mc * g2 / w
        g0 = opt.mx * g2 / g1
        f1 = np.ones(T + 1)
        for t in range(T):
            f1[T - t] = opt.ml[t] * w / opt.mc[t]
        fam = I.InitialPolicyFamily(
            g0=g0, g1=g1, g2=g2, h1=np.ones(T + 1), h2=np.ones(T + 1), f1=f1
        )
        rebuilt = I.family_policy(fam, spec)
        assert max_param_delta(rebuilt, opt) < 1e-9
        it, n_used = I.iterate_to_convergence(fam, sched, spec)
        assert n_used == 1
        assert max_param_delta(it.policy, opt) < 1e-12

    def test_partial_information_schedule_uses_the_same_code_path(self, rng):
        pair = (random_moment_set(rng), random_moment_set(rng))
        T = 5
        sched = Mixing(pair).schedule(filter_states(0.3, REFERENCE_P, T)[:-1], "filtered")
        spec = spec_for(T)
        fam = I.InitialPolicyFamily.random(T, rng)
        final, n_used = I.iterate_to_convergence(fam, sched, spec)
        assert n_used <= T
        assert max_param_delta(final.policy, optimal_affine_policy(sched, spec)) < 1e-10

    def test_reference_schedule_converges_at_2520_periods(self):
        # each round is one array sweep, so the T rounds cost O(T^2) flops but
        # only O(T) Python calls: under a second at T = 2520
        cfg = cfgmod.resolve_config(None)
        T = 2520
        spec = replace(cfgmod.build_problem(cfg), horizon=T)
        sched = regime_schedule(cfgmod.build_market(cfg).regime_moment_set(1), T)
        fam = I.InitialPolicyFamily.random(T, np.random.default_rng(3))
        final, n_used = I.iterate_to_convergence(fam, sched, spec)
        assert n_used <= T
        expected = C._ScheduleTables(sched, spec).affine_rows(np.arange(T))
        np.testing.assert_allclose(final.policy.table, expected, rtol=1e-11, atol=0.0)


class TestPolicyTableBridge:
    """A ``GaussianPolicy`` table over every period is an ``AffineGaussianPolicy``
    table as it stands, so ``evaluate_policy`` scores any policy exactly."""

    T = 60

    def world(self, kind):
        cfg = cfgmod.resolve_config(None)
        model = cfgmod.build_market(cfg)
        spec = replace(cfgmod.build_problem(cfg), horizon=self.T)
        probs, _, sched = M.observable_rates(model, self.T, E.ANALYTIC_FLAVORS[kind])
        table = E.analytic_policy(kind, model, spec).table(np.arange(self.T), probs[:-1])
        return I.AffineGaussianPolicy(table), sched, spec

    @pytest.mark.parametrize("kind", ["poemv_opt", "poemv_sub"])
    def test_analytic_table_scores_its_closed_form_value(self, kind):
        policy, sched, spec = self.world(kind)
        got = np.array(I.evaluate_policy(policy, sched, spec).as_tuple())
        tables = C._ScheduleTables(sched, spec)
        want = np.array([tables.value_quadratic(t).as_tuple() for t in range(self.T + 1)]).T
        # every coefficient but ll, which value_quadratic leaves inexact under a noisy liability
        for k, name in enumerate(("xx", "xl", "ll", "x", "l", "c")):
            if name != "ll":
                scale = np.max(np.abs(want[k]))
                assert np.max(np.abs(got[k] - want[k])) <= 1e-12 * scale, name

    def test_one_round_on_a_perturbed_table_does_not_raise_the_objective(self):
        optimum, sched, spec = self.world("poemv_opt")
        j_star = I.evaluate_policy(optimum, sched, spec)[0](spec.x0, spec.l0)
        noise = np.random.default_rng(1).standard_normal(optimum.table.shape)
        perturbed = I.AffineGaussianPolicy(optimum.table * (1.0 + 0.05 * noise))
        start = I.IteratedPolicy(0, perturbed, I.evaluate_policy(perturbed, sched, spec))
        improved = I.improve_once(start, sched, spec)
        j_before = start.objective[0](spec.x0, spec.l0)
        j_after = I.evaluate_policy(improved.policy, sched, spec)[0](spec.x0, spec.l0)
        assert j_star - 1e-12 * abs(j_star) <= j_after <= j_before
        assert j_after < j_before - 0.05  # -559.97 before, against J* = -560.07
