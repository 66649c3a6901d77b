"""Slow oracles for the vectorized evaluation paths.

Each fast path is checked against a plain per-period or per-path
computation written here: the blocked (paths, T) wealth rollout against the
sequential recursion, policy coefficient tables against scalar formulas,
regime-only return sampling against a draw-then-scatter oracle, the regime
path, the skewed-t transform and the filter recursion against their
sequential or first-written forms, the one-path draw against the regime path
followed by its returns and the block-row draw against the per-path one, the
liability path against the sequential recursion, the blocked out-of-sample
and market-path rollouts and the fixed-rate closed form against the
per-period loop, the fixed-rate sample moments against the exact population
moments, the recorded episode of ``evaluate.simulate`` against path 0 of the
blocked evaluation (its terminal bit for bit in real dynamics) and of that
loop, the one-call moment mix against the per-period mixing loop, and the
scans behind the value function's risk sum and entropy product against their
backward recursions.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from emvalm import closed_form as C
from emvalm import config
from emvalm import evaluate as E
from emvalm import filtering as F
from emvalm import market as M
from emvalm import rl
from conftest import REFERENCE_P, closed_form_scale, random_schedule, regime_path_reference

# ---------------------------------------------------------------------------
# the (paths, T) rollout kernel
# ---------------------------------------------------------------------------


def sequential_rollout(alpha, beta, x0):
    x = [x0]
    with np.errstate(all="ignore"):  # some rows overflow on purpose
        for a, b in zip(alpha, beta):
            x.append(a * x[-1] + b)
    return np.array(x)


# row kinds: the closed form, products that underflow or overflow (the
# sequential fallback), and paths that end non-finite
ROW_KINDS = ("plain", "signs", "underflow", "overflow", "inf_beta", "nan_alpha")


def make_row(kind, gen, horizon):
    alpha = gen.uniform(0.5, 1.5, size=horizon)
    beta = gen.uniform(-1.0, 1.0, size=horizon)
    if kind == "signs":
        alpha = gen.uniform(-1.5, 1.5, size=horizon)
    elif kind == "underflow":
        alpha[: min(horizon, 6)] = 1e-60
        alpha[-1] = 1e-260
    elif kind == "overflow":
        alpha[: min(horizon, 6)] = 1e80
        alpha[-1] = 1e300
    elif kind == "inf_beta":
        beta[gen.integers(horizon)] = np.inf
    elif kind == "nan_alpha":
        alpha[gen.integers(horizon)] = np.nan
    return alpha, beta


class TestRolloutOracle:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 40),
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6),
        x0=st.sampled_from([1.0, 0.3, -2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_matches_sequential_recursion(self, seed, horizon, kinds, x0):
        gen = np.random.default_rng(seed)
        rows = [make_row(kind, gen, horizon) for kind in kinds]
        alpha = np.array([a for a, _ in rows])
        beta = np.array([b for _, b in rows])
        x = rl._linear_rollout(alpha, beta, x0)
        assert x.shape == (len(kinds), horizon + 1)
        for i, kind in enumerate(kinds):
            want = sequential_rollout(alpha[i], beta[i], x0)
            with np.errstate(all="ignore"):
                cum = np.abs(np.cumprod(alpha[i]))
                fallback = not (np.all(np.isfinite(cum)) and np.all(cum > 1e-250))
            if fallback or not np.all(np.isfinite(want)):
                # the recursion itself: bit for bit, non-finite values included
                np.testing.assert_array_equal(x[i], want)
            else:
                scale = closed_form_scale(alpha[i], beta[i], x0)
                assert np.all(np.abs(x[i] - want) <= 1e-12 * scale), kind

    def test_fallback_rows_are_the_recursion_bit_for_bit(self):
        gen = np.random.default_rng(3)
        kinds = ("plain", "underflow", "overflow", "inf_beta", "nan_alpha", "plain")
        rows = [make_row(kind, gen, 12) for kind in kinds]
        alpha, beta = np.array([a for a, _ in rows]), np.array([b for _, b in rows])
        x = rl._linear_rollout(alpha, beta, 1.0)
        for i in range(1, 5):
            np.testing.assert_array_equal(x[i], sequential_rollout(alpha[i], beta[i], 1.0))
        # underflow stays finite; overflow and an infinite or NaN input end non-finite
        assert np.all(np.isfinite(x[[0, 1, 5]]))
        assert not np.isfinite(x[2, -1]) and not np.isfinite(x[3, -1]) and np.isnan(x[4, -1])

    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 30), paths=st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_shared_alpha_and_single_path_are_rows_of_the_block(self, seed, horizon, paths):
        gen = np.random.default_rng(seed)
        alpha = gen.uniform(0.8, 1.2, size=horizon)
        beta = gen.normal(size=(paths, horizon))
        block = rl._linear_rollout(np.broadcast_to(alpha, beta.shape).copy(), beta, 1.0)
        np.testing.assert_array_equal(rl._linear_rollout(alpha, beta, 1.0), block)
        for i in range(paths):
            single = rl._linear_rollout(alpha, beta[i], 1.0)
            assert single.shape == (horizon + 1,)
            np.testing.assert_array_equal(single, block[i])

    def test_desk_length_paths_stay_close_to_the_recursion(self):
        gen = np.random.default_rng(5)
        horizon = 2520
        alpha = 1.0 + gen.normal(0.0005, 0.02, size=(20, horizon))
        beta = gen.normal(0.0, 0.01, size=(20, horizon))
        x = rl._linear_rollout(alpha, beta, 1.0)
        for i in range(20):
            want = sequential_rollout(alpha[i], beta[i], 1.0)
            assert np.all(np.abs(x[i] - want) <= 1e-12 * closed_form_scale(alpha[i], beta[i], 1.0))


# ---------------------------------------------------------------------------
# vectorized policy tables against scalar formulas
# ---------------------------------------------------------------------------


def scalar_schedule_row(schedule, spec, t):
    """(cx, cl, c0, variance) of the optimal policy at t, by direct products."""
    sets = [schedule[k] for k in range(len(schedule))]
    m = sets[t]
    k1 = m.a1 / m.b1
    variance = spec.explore_weight / (2.0 * m.b1)
    for later in sets[t + 1 :]:
        f1, f2 = C.f_terms(later)
        k1 *= f2 / f1
        variance *= later.b1 / f1
    pa2 = math.prod(s.a2 for s in sets[t:])
    return (-m.cross() / m.b1, k1 * pa2, k1 * spec.multiplier, variance)


def assert_rows_close(got, want, rel=1e-12):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= rel * np.maximum(np.abs(want), 1e-300)), (got, want)


def small_spec(horizon, w=1.8, lam=1.4):
    return C.ProblemSpec(horizon=horizon, target=1.3, multiplier=w, explore_weight=lam)


class TestPolicyTables:
    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_schedule_table_rows_match_scalar_products(self, seed, horizon):
        gen = np.random.default_rng(seed)
        schedule = random_schedule(gen, horizon)
        spec = small_spec(horizon)
        policy = C.schedule_policy(schedule, spec, kind="poemv_opt")
        ts = gen.permutation(horizon)
        table = policy.affine_table(ts, gen.uniform(0, 1, size=horizon))
        for row, t in zip(table.T, ts):
            want = scalar_schedule_row(schedule, spec, int(t))
            assert_rows_close(row, want)
            assert tuple(policy.table([t], [0.5])[:, 0]) == tuple(float(v) for v in row)
        tables = C._ScheduleTables(schedule, spec)
        for t in range(horizon):
            cx, k1, var = tables.policy_at(t)
            want = scalar_schedule_row(schedule, spec, t)
            assert_rows_close((cx, k1 * spec.multiplier, var), (want[0], want[2], want[3]))

    @given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(1, 10))
    @settings(max_examples=40, deadline=None)
    def test_regime_table_selects_the_signalled_schedule_per_row(self, seed, horizon):
        gen = np.random.default_rng(seed)
        schedules = (random_schedule(gen, horizon), random_schedule(gen, horizon))
        spec = small_spec(horizon)
        policy = C.regime_policy(schedules, spec)
        ts = gen.integers(0, horizon, size=2 * horizon)
        signals = gen.integers(1, 3, size=2 * horizon).astype(float)
        table = policy.affine_table(ts, signals)
        for row, t, s in zip(table.T, ts, signals):
            assert_rows_close(row, scalar_schedule_row(schedules[int(s) - 1], spec, int(t)))

    def test_regime_table_rejects_other_signals(self):
        gen = np.random.default_rng(1)
        policy = C.regime_policy((random_schedule(gen, 3), random_schedule(gen, 3)), small_spec(3))
        with pytest.raises(ValueError, match="regime signal must be 1 or 2, got 0.4"):
            policy.affine_table(np.arange(3), np.array([1.0, 0.4, 2.0]))
        with pytest.raises(ValueError, match="regime signal"):
            policy.table([0], [3.0])

    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 12),
        m=st.integers(1, 3),
        dt=st.sampled_from([1.0 / 252.0, 1.0 / 12.0, 0.25]),
    )
    @settings(max_examples=60, deadline=None)
    def test_learned_table_rows_match_scalar_expansion(self, seed, horizon, m, dt):
        # grids small enough that no expansion comes near exp overflow
        gen = np.random.default_rng(seed)
        shape = (m + 1, m)
        critic = rl.CriticParams(*(gen.normal(0, 0.1, size=shape) for _ in range(6)), m=m)
        actor = rl.ActorParams(*(gen.normal(0, 0.1, size=shape) for _ in range(3)), m=m)
        spec = small_spec(horizon)
        hyper = rl.Hyperparams(dt=dt, m=m)
        w = float(gen.uniform(0.5, 3.0))
        state = rl.TrainState("poemv1", critic, actor, w, 0, [], [], hyper, spec)
        policy = rl.policy_from_state(state)
        ts = gen.integers(0, horizon, size=horizon + 2)
        signals = gen.uniform(0.0, 2.0, size=horizon + 2)
        table = policy.affine_table(ts, signals)
        for row, t, s in zip(table.T, ts, signals):
            tau = (horizon - int(t)) * dt

            def lin(grid):
                return math.fsum(
                    grid[i, j] * s**i * tau ** (j + 1) for i in range(m + 1) for j in range(m)
                )

            theta1, theta2 = math.exp(lin(critic.theta1)), math.exp(lin(critic.theta2))
            vartheta1 = -math.exp(lin(critic.vartheta1))
            scale = -(vartheta1 / theta1) * math.exp(lin(actor.phi2))
            want = (lin(actor.phi1), scale * theta2, scale * w, math.exp(lin(actor.phi3)) / (2 * theta1))
            # phi1 is a plain sum of signed terms: compare it on the scale of its terms
            terms = math.fsum(
                abs(actor.phi1[i, j] * s**i * tau ** (j + 1)) for i in range(m + 1) for j in range(m)
            )
            assert abs(row[0] - want[0]) <= 1e-12 * max(terms, 1e-300)
            assert_rows_close(row[1:], want[1:], rel=1e-12)
            # a one-period request is the wide table's column, bit for bit
            assert policy.table([t], [s])[:, 0].tolist() == row.tolist()


# ---------------------------------------------------------------------------
# regime-only return draws
# ---------------------------------------------------------------------------


def skewed_market():
    def skewed(mu, vol, skew):
        return M.ReturnSpec(kind="skewed_t", annual_mean=mu, annual_vol=vol, dof=6, skew=skew,
                            mean_is_gross=False)

    def normal(mu, vol):
        return M.ReturnSpec(kind="normal", annual_mean=mu, annual_vol=vol, mean_is_gross=False)

    return M.MarketModel(
        chain=M.RegimeChain(p=REFERENCE_P, p0=0.3),
        e0=(M.ReturnSpec(kind="constant", annual_mean=1.2), normal(0.02, 0.01)),
        e1=(skewed(0.5, 0.2, 0.1), skewed(0.06, 0.3, -0.3)),
        q=(normal(0.05, 0.1), normal(0.01, 0.2)),
        dt=1.0 / 12.0,
    )


LEGS = ("e0", "e1", "q")


def draw_then_scatter(regimes, model, rng, legs=LEGS):
    """Per leg named in ``legs``, in the order e0, e1, q, draw every regime-1
    period, then every regime-2 period, and hand them out in time order."""
    out = {}
    for name in LEGS:
        if name not in legs:
            continue
        specs = getattr(model, name)
        n1 = sum(1 for r in regimes if r == 1)
        first = iter(np.atleast_1d(specs[0].sample(model.dt, rng, size=n1)))
        second = iter(np.atleast_1d(specs[1].sample(model.dt, rng, size=len(regimes) - n1)))
        out[name] = np.array([next(first) if r == 1 else next(second) for r in regimes])
    return out


class TestRegimeOnlyReturns:
    @given(
        seed=st.integers(0, 2**32 - 1),
        regimes=st.lists(st.sampled_from([1, 2]), min_size=0, max_size=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_draw_then_scatter(self, seed, regimes):
        model = skewed_market()
        path = np.array(regimes, dtype=np.int64)
        rec = M.sample_return_paths(path, model, M.stream(seed, 3))
        want = draw_then_scatter(regimes, model, M.stream(seed, 3))
        for name in ("e0", "e1", "q"):
            np.testing.assert_array_equal(getattr(rec, name), want[name])

    @given(
        seed=st.integers(0, 2**32 - 1),
        regimes=st.lists(st.sampled_from([1, 2]), min_size=0, max_size=60),
        legs=st.sampled_from([legs for n in (1, 2, 3) for legs in itertools.combinations(LEGS, n)]),
        reverse=st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_named_legs_are_draw_then_scatter_and_others_untouched(self, seed, regimes, legs,
                                                                   reverse):
        model = skewed_market()
        path = np.array(regimes, dtype=np.int64)
        out = np.full((3, len(regimes)), -7.0)
        rng, twin = M.stream(seed, 3), M.stream(seed, 3)
        asked = legs[::-1] if reverse else legs  # the order asked for does not matter
        rec = M.sample_return_paths(path, model, rng, out=out, legs=asked)
        want = draw_then_scatter(regimes, model, twin, legs)
        for k, name in enumerate(LEGS):
            got = getattr(rec, name)
            assert got.tobytes() == out[k].tobytes(), name  # the record reads ``out``
            if name in legs:
                assert got.tobytes() == want[name].tobytes(), name
            else:
                assert np.all(out[k] == -7.0), name
        assert rng.random() == twin.random()  # the generator ends where the oracle's does

    def test_other_labels_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            M.sample_return_paths(np.array([1, 2, 0]), skewed_market(), M.stream(0, 0))


# ---------------------------------------------------------------------------
# regime paths, skewed-t draws and the filter recursion
# ---------------------------------------------------------------------------

# transition probabilities with the edges 0 and 1 drawn often
PROB = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def two_piece_skewed_t(mean, vol, dof, skew, rng, size):
    """The Hansen transform as first written: the sign and the piece weight by
    two ``where``s, then mean + vol * (piece * scale * halves - a) / b."""
    u = rng.random(size=size)
    tdraw = rng.standard_t(dof, size=size)
    if vol == 0.0:
        return np.full(size, float(mean))
    c = math.gamma((dof + 1.0) / 2.0) / (math.sqrt(math.pi * (dof - 2.0)) * math.gamma(dof / 2.0))
    a = 4.0 * skew * c * (dof - 2.0) / (dof - 1.0)
    b = math.sqrt(1.0 + 3.0 * skew * skew - a * a)
    scale = math.sqrt((dof - 2.0) / dof)
    right = u >= (1.0 - skew) / 2.0
    halves = np.where(right, np.abs(tdraw), -np.abs(tdraw))
    piece = np.where(right, 1.0 + skew, 1.0 - skew)
    return mean + vol * ((piece * scale * halves - a) / b)


def loop_filter_states(p0, p, horizon):
    """p_{t+1} = P21 + (P11 - P21) p_t written element by element into a float array."""
    mat = np.asarray(p, dtype=float)
    out = np.empty(horizon + 1)
    out[0] = p0
    c, d = mat[1, 0], mat[0, 0] - mat[1, 0]
    for t in range(horizon):
        out[t + 1] = c + d * out[t]
    return out


class TestSequentialOracles:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.one_of(st.sampled_from([0, 1, 3000]), st.integers(0, 3000)),
        p11=PROB,
        p21=PROB,
        flip=st.booleans(),
        p0=st.one_of(st.floats(1e-12, 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-12),
                     st.floats(1e-12, 1.0 - 1e-12)),
    )
    @settings(max_examples=150, deadline=None)
    def test_regime_path_is_the_sequential_sampler(self, seed, horizon, p11, p21, flip, p0):
        if flip:  # p21 > p11: an undetermined step flips the regime
            p11, p21 = min(p11, p21), max(p11, p21)
        chain = M.RegimeChain.from_probs(p11, 1.0 - p11, p21, 1.0 - p21, p0)
        rng, twin = M.stream(seed, 1), M.stream(seed, 1)
        got, want = M.regime_path(chain, horizon, rng), regime_path_reference(chain, horizon, twin)
        assert got.dtype == want.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        assert rng.random() == twin.random()

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.one_of(st.sampled_from([0, 1]), st.integers(2, 300)),
        mean=st.floats(-2.0, 2.0),
        vol=st.one_of(st.just(0.0), st.floats(1e-6, 5.0)),
        dof=st.one_of(st.floats(2.0 + 1e-9, 2.01), st.floats(2.01, 300.0)),
        skew=st.one_of(st.sampled_from([-1.0 + 1e-12, 1.0 - 1e-12]),
                       st.floats(-1.0 + 1e-9, 1.0 - 1e-9)),
    )
    @settings(max_examples=200, deadline=None)
    def test_skewed_t_is_the_first_written_transform(self, seed, size, mean, vol, dof, skew):
        rng, twin = M.stream(seed, 2), M.stream(seed, 2)
        got = M.sample_skewed_t(mean, vol, dof, skew, rng, size=size)
        want = two_piece_skewed_t(mean, vol, dof, skew, twin, size=size)
        assert got.shape == (size,) and got.tobytes() == want.tobytes()
        # both variates are drawn even when vol = 0
        assert rng.random() == twin.random()

    @given(p11=st.floats(0.0, 1.0), p21=st.floats(0.0, 1.0), p0=st.floats(0.0, 1.0),
           horizon=st.integers(0, 300))
    @settings(max_examples=200, deadline=None)
    def test_filter_states_is_the_elementwise_loop(self, p11, p21, p0, horizon):
        p = ((p11, 1.0 - p11), (p21, 1.0 - p21))
        assert F.filter_states(p0, p, horizon).tobytes() == loop_filter_states(p0, p, horizon).tobytes()

    def test_filter_states_rejects_a_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            F.filter_states(0.3, REFERENCE_P, -1)


# ---------------------------------------------------------------------------
# the one-path draw and the liability path
# ---------------------------------------------------------------------------


def sequential_liabilities(l0, q):
    """l_{t+1} = q_t * l_t, one float product at a time."""
    out = [float(l0)]
    for qt in q:
        out.append(float(qt) * out[-1])
    return np.array(out)


class TestPathLayer:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(0, 60),
        p11=st.floats(0.0, 1.0),
        p21=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_draw_path_is_regime_path_then_returns(self, seed, horizon, p11, p21):
        model = skewed_market()
        model = M.MarketModel(M.RegimeChain.from_probs(p11, 1.0 - p11, p21, 1.0 - p21, 0.3),
                              model.e0, model.e1, model.q, model.dt)
        rng, twin = M.stream(seed, 0), M.stream(seed, 0)
        regimes, rec = M.draw_path(model, horizon, rng)
        want_regimes = M.regime_path(model.chain, horizon, twin)
        want = M.sample_return_paths(want_regimes[:-1], model, twin)
        assert regimes.tobytes() == want_regimes.tobytes()
        for name in ("e0", "e1", "q"):
            assert getattr(rec, name).tobytes() == getattr(want, name).tobytes(), name
        assert rng.random() == twin.random()  # the generator ends where the oracle's does

    @given(
        seed=st.integers(0, 2**32 - 1),
        n_paths=st.integers(1, 4),
        horizon=st.integers(0, 60),
        p11=PROB,
        p21=PROB,
    )
    @settings(max_examples=100, deadline=None)
    def test_block_rows_equal_the_per_path_records(self, seed, n_paths, horizon, p11, p21):
        normal = M.ReturnSpec(kind="normal", annual_mean=0.5, annual_vol=0.2, mean_is_gross=False)
        skewed = M.ReturnSpec(kind="skewed_t", annual_mean=0.06, annual_vol=0.3, dof=5,
                              skew=-0.2, mean_is_gross=False)
        constant = M.ReturnSpec(kind="constant", annual_mean=1.03)
        model = M.MarketModel(M.RegimeChain.from_probs(p11, 1.0 - p11, p21, 1.0 - p21, 0.4),
                              e0=(constant, constant), e1=(normal, skewed),
                              q=(M.ReturnSpec(kind="normal", annual_mean=0.01, annual_vol=0.1,
                                              mean_is_gross=False), constant),
                              dt=1.0 / 252.0)
        block = np.full((3, n_paths + 1, horizon), np.nan)
        for j in range(n_paths):
            rng, twin = M.stream(seed, j), M.stream(seed, j)
            regimes, rec = M.draw_path(model, horizon, rng, out=block[:, j])
            want_regimes, want = M.draw_path(model, horizon, twin)
            assert regimes.tobytes() == want_regimes.tobytes()
            for k, name in enumerate(("e0", "e1", "q")):
                assert block[k, j].tobytes() == getattr(want, name).tobytes(), name
                assert getattr(rec, name).tobytes() == block[k, j].tobytes(), name
            assert rng.random() == twin.random()
        assert np.all(np.isnan(block[:, n_paths]))  # rows of other paths are left alone

    @given(
        seed=st.integers(0, 2**32 - 1),
        paths=st.sampled_from([None, 1, 3]),
        horizon=st.integers(0, 80),
        l0=st.floats(-10.0, 10.0),
        spread=st.sampled_from([0.01, 0.5, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_liability_path_is_the_sequential_recursion(self, seed, paths, horizon, l0, spread):
        gen = np.random.default_rng(seed)
        shape = (horizon,) if paths is None else (paths, horizon)
        q = 1.0 + gen.uniform(-spread, spread, size=shape)
        got = M.liability_path(l0, q)
        assert got.shape == (*shape[:-1], horizon + 1)
        for row, q_row in zip(np.atleast_2d(got), np.atleast_2d(q)):
            assert row.tobytes() == sequential_liabilities(l0, q_row).tobytes()


# ---------------------------------------------------------------------------
# blocked out-of-sample evaluation
# ---------------------------------------------------------------------------


def eval_spec(horizon=36):
    return C.ProblemSpec(horizon=horizon, target=2.0, multiplier=2.0, explore_weight=2.0,
                         x0=1.0, l0=0.1)


def analytic_policy(kind, model, spec):
    return E.analytic_policy("coemv_opt" if kind == "regime" else "poemv_opt", model, spec)


def per_period_terminals(policy, model, n_paths, spec, seed, dynamics, signal=None,
                         exp_signal="expected_state"):
    """Path by path and period by period, each path drawing from its stream
    ``PATH_KEY`` + i (regime path and returns in real dynamics, then noise): the
    terminals, and path 0's trajectory (x, l, action, regimes, p_hat) with the
    closed-form rounding scales of its wealth and of its actions; outside real
    dynamics path 0's recorded regime path is drawn after its noise."""
    horizon = spec.horizon
    signal = signal or F.mixing_signal(dynamics, exp_signal)
    p_hat = F.filter_states(model.chain.p0, model.chain.matrix(), horizon)
    weights = 2.0 - p_hat if F.mixing_signal(dynamics, exp_signal) == "expected_state" else p_hat
    m1, m2 = model.moment_pair()
    rates = [m2.a0 + weights[:-1] * (m1.a0 - m2.a0), m2.a1 + weights[:-1] * (m1.a1 - m2.a1),
             m2.a2 + weights[:-1] * (m1.a2 - m2.a2)]
    out = np.empty(n_paths)
    for i in range(n_paths):
        rng = M.stream(seed, M.PATH_KEY + i)
        if dynamics == "real":
            regimes = M.regime_path(model.chain, horizon, rng)
            rec = M.sample_return_paths(regimes[:-1], model, rng)
            e0, ex, q = rec.e0, rec.e1 - rec.e0, rec.q
            noise = rng.standard_normal(horizon)
        else:
            e0, ex, q = rates
            noise = rng.standard_normal(horizon)
            regimes = M.regime_path(model.chain, horizon, rng)
        sig = regimes.astype(float) if signal == "regime" else F.signal_path(signal, p_hat)

        def coefs(t):
            cx, cl, c0, var = policy.table([t], [sig[t]])[:, 0].tolist()
            return cx, cl, c0, math.sqrt(var)

        x, l, action, cxs = period_loop(e0, ex, q, coefs, noise, spec)
        out[i] = x[-1] - l[-1]
        if i == 0:
            x, action, cxs = np.array(x), np.array(action), np.array(cxs)
            shift = action - cxs * x[:-1]  # cl l + c0 + sd noise
            scale = closed_form_scale(e0 + ex * cxs, ex * shift, spec.x0)
            path0 = (x, np.array(l), action, regimes, p_hat, scale,
                     np.abs(cxs) * scale[:-1] + np.abs(shift))
    return out, path0


def period_loop(e0, ex, q, coefs, noise, spec):
    """One path period by period: the action u_t = cx x_t + cl l_t + c0 + sd noise_t
    with (cx, cl, c0, sd) = ``coefs(t)``, x_{t+1} = e0_t x_t + ex_t u_t and
    l_{t+1} = q_t l_t from (x0, l0).  Returns the lists x, l, u and cx."""
    x, l, action, cxs = [spec.x0], [spec.l0], [], []
    for t in range(spec.horizon):
        cx, cl, c0, sd = coefs(t)
        action.append(cx * x[t] + cl * l[t] + c0 + sd * noise[t])
        cxs.append(cx)
        x.append(e0[t] * x[t] + ex[t] * action[t])
        l.append(q[t] * l[t])
    return x, l, action, cxs


def path_terminals(policy, model, n_paths, spec, seed, dynamics, signal, explore, exp_signal):
    """Per-path terminal net wealth of ``out_of_sample`` with these arguments."""
    tables = E._path_tables(policy, model, spec, dynamics, signal, exp_signal)
    return E._terminals(tables, model, spec, seed, n_paths, explore)


class TestBlockedEvaluation:
    @pytest.mark.parametrize("dynamics, kind", [("real", "regime"), ("filtered", "filtered")])
    def test_matches_per_period_loop(self, dynamics, kind):
        model, spec = skewed_market(), eval_spec()
        policy = analytic_policy(kind, model, spec)
        n = E._BLOCK + 37  # one full block and one partial block
        got = path_terminals(policy, model, n, spec, 11, dynamics, None, True, "expected_state")
        want, _ = per_period_terminals(policy, model, n, spec, 11, dynamics)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("dynamics, kind", [("real", "regime"), ("filtered", "filtered")])
    def test_first_paths_do_not_depend_on_the_path_count(self, dynamics, kind):
        model, spec = skewed_market(), eval_spec(24)
        policy = analytic_policy(kind, model, spec)
        args = (spec, 5, dynamics, None, True, "expected_state")
        short = path_terminals(policy, model, 1000, *args)
        long = path_terminals(policy, model, 2000, *args)
        np.testing.assert_array_equal(long[:1000], short)

    @pytest.mark.parametrize("explore", [False, True])
    @pytest.mark.parametrize("algo", ["poemv1", "emv"])
    def test_market_paths_match_per_period_loop(self, algo, explore):
        model, spec = skewed_market(), eval_spec(30)
        state = learned_state(algo, model, spec, np.random.default_rng(4))
        n = E._BLOCK + 5
        got = E.evaluate_on_market_paths(state, model, n, spec, seed=9, explore=explore)
        want = market_path_terminals(state, model, n, spec, 9, explore)
        np.testing.assert_allclose(got.mean, np.mean(want), rtol=1e-12)
        np.testing.assert_allclose(got.variance, np.var(want, ddof=1), rtol=1e-9)

    @pytest.mark.parametrize("algo", ["poemv1", "emv"])
    def test_market_paths_on_a_constant_baseline_report_the_all_legs_draw(self, monkeypatch,
                                                                          algo):
        # e0 draws nothing and q's draws come after e1's, so without noise dropping the
        # unread legs changes no path
        base = skewed_market()
        flat = M.ReturnSpec(kind="constant", annual_mean=1.05)
        model = M.MarketModel(base.chain, (base.e0[0], flat), base.e1, base.q, base.dt)
        spec = eval_spec(30)
        state = learned_state(algo, model, spec, np.random.default_rng(6))
        args = (state, model, E._BLOCK + 5, spec)
        got = E.evaluate_on_market_paths(*args, seed=13, explore=False)
        drawn = []

        def every_leg(*a, legs, **kw):
            drawn.append(legs)
            return M.draw_path(*a, **kw)

        monkeypatch.setattr(E, "draw_path", every_leg)
        want = E.evaluate_on_market_paths(*args, seed=13, explore=False)
        assert set(drawn) == {("e1",)}
        assert (got.mean, got.variance, got.sharpe, got.n_paths) == (
            want.mean, want.variance, want.sharpe, want.n_paths)


# ---------------------------------------------------------------------------
# fixed-rate terminals: the closed form on the drawn noise
# ---------------------------------------------------------------------------


def sequential_scale(alpha, beta, x0):
    """``closed_form_scale`` at T, |A_T| (|x0| + sum_k |beta_k / A_{k+1}|), summed
    forward as s_{t+1} = |alpha_t| s_t + |beta_t|, so that a zero alpha does not
    divide."""
    s = abs(x0)
    for a, b in zip(alpha, beta):
        s = abs(a) * s + abs(b)
    return s


def table_terminals(tables, spec, seed, n_paths, explore):
    """``period_loop`` on fixed-rate tables, path i drawing its noise from the
    stream ``PATH_KEY`` + i: the terminals and, per path, the rounding scale of
    x_T - l_T (the wealth's ``sequential_scale`` plus |l_T|)."""
    (e0, ex, q, _), coef = tables
    out, scale = np.empty(n_paths), np.empty(n_paths)
    for i in range(n_paths):
        noise = (M.stream(seed, M.PATH_KEY + i).standard_normal(spec.horizon) if explore
                 else np.zeros(spec.horizon))
        x, l, action, cxs = period_loop(e0, ex, q, lambda t: coef[:, t], noise, spec)
        x, action, cxs = np.array(x), np.array(action), np.array(cxs)
        out[i] = x[-1] - l[-1]
        scale[i] = sequential_scale(e0 + ex * cxs, ex * (action - cxs * x[:-1]), spec.x0)
        scale[i] += abs(l[-1])
    return out, scale


# alpha_t = e0_t + ex_t cx_t values a period is pinned to: a zero cuts every earlier period
# out of the terminal, and +-1e6 grow the products far from 1 (six of them stay below 1e36)
SPECIAL_ALPHAS = (0.0, 1.0, -1.0, 1e6, -1e6)


class TestFixedRateClosedForm:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 40),
        kind=st.sampled_from(["custom", "learned", "filtered"]),
        dynamics=st.sampled_from(["filtered", "expectation"]),
        explore=st.booleans(),
        special=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                   st.sampled_from(SPECIAL_ALPHAS)), max_size=6),
        poison=st.sampled_from([None, None, None, (0, math.nan), (2, math.inf), (3, math.inf)]),
    )
    @example(seed=7, horizon=12, kind="custom", dynamics="filtered", explore=False,
             special=[(0.5, 0.0)], poison=(3, math.inf))
    @example(seed=8, horizon=12, kind="learned", dynamics="expectation", explore=True,
             special=[(0.25, 0.0), (0.5, 1e6), (0.75, -1.0)], poison=None)
    @settings(max_examples=150, deadline=None)
    def test_matches_the_per_period_loop(self, seed, horizon, kind, dynamics, explore, special,
                                         poison):
        """Every terminal is the loop's within its rounding scale, and the non-finite
        ones (a NaN cx, an infinite c0 or sd) fall on the same paths."""
        model, spec = skewed_market(), eval_spec(horizon)
        gen = np.random.default_rng(seed)
        policy = episode_policy(kind, model, spec, gen)
        (e0, ex, q, l), coef = E._path_tables(policy, model, spec, dynamics, None,
                                              "expected_state")
        e0, coef = e0.copy(), coef.copy()
        for at, alpha in special:
            t = int(at * horizon)
            e0[t], coef[0, t] = alpha, 0.0  # alpha_t = alpha exactly
        if poison is not None:
            coef[poison[0], gen.integers(horizon)] = poison[1]
        tables = ((e0, ex, q, l), coef)
        n_paths = E._BLOCK + 5
        got = E._terminals(tables, model, spec, seed, n_paths, explore)
        with np.errstate(all="ignore"):
            want, scale = table_terminals(tables, spec, seed, n_paths, explore)
        finite = np.isfinite(want)
        np.testing.assert_array_equal(np.isfinite(got), finite)
        assert poison is None or not finite.any()
        assert np.all(np.abs(got[finite] - want[finite]) <= 1e-12 * scale[finite])

    @pytest.mark.parametrize("kind", ["poemv_opt", "poemv_sub"])
    @pytest.mark.parametrize("n_paths", [1000, 997])
    def test_a_partial_last_block_moves_no_bit_at_the_desk_horizon(self, kind, n_paths):
        """The last paths of n_paths end that evaluation in a partial block (of 8 or
        5) and sit in a full block of the 1037-path one."""
        cfg = config.default_config()
        model, spec = config.build_market(cfg), config.build_problem(cfg)
        policy = E.analytic_policy(kind, model, spec)
        args = (spec, 3, E.ANALYTIC_FLAVORS[kind], None, True, "expected_state")
        short = path_terminals(policy, model, n_paths, *args)
        long = path_terminals(policy, model, 1037, *args)
        assert long[:n_paths].tobytes() == short.tobytes()


def exact_terminal_moments(tables, spec):
    """Population mean and variance of x_T - l_T on fixed-rate tables with Gaussian
    actions, period by period: m_{t+1} = alpha_t m_t + ex_t (cl_t l_t + c0_t) and
    v_{t+1} = alpha_t^2 v_t + (ex_t sd_t)^2 from (x0, 0)."""
    (e0, ex, _, l), (cx, cl, c0, sd) = tables
    m, v = spec.x0, 0.0
    for t in range(spec.horizon):
        alpha = e0[t] + ex[t] * cx[t]
        m = alpha * m + ex[t] * (cl[t] * l[t] + c0[t])
        v = alpha * alpha * v + (ex[t] * sd[t]) ** 2
    return m - l[-1], v


class TestFixedRateMoments:
    """The Monte Carlo mean and variance of ``out_of_sample`` against the exact
    population moments, as z-scores: (mean - m) / sqrt(s^2 / n) and
    (s^2 / v - 1) / sqrt(2 / (n - 1)).

    K is set from the spread of z over many seeds, not from the seeds below: over
    seeds 0-1999 (T = 36, n = 1000; the custom and learned policies in both
    dynamics) the mean's z had a standard deviation of 1.00-1.02 and a largest
    |z| of 3.4-3.8, the variance's 0.99-1.00 and 3.4-3.7, and over seeds 0-399 of
    the desk configuration (the analytic policies) the mean's 1.02-1.04 and
    3.3-3.4, the variance's 1.04 and 3.3-3.7, as for draws of N(0, 1).  Under N(0, 1) one seed exceeds K = 4.5 with a chance of
    7e-6."""

    K = 4.5

    @pytest.mark.parametrize("kind, dynamics", [("custom", "filtered"), ("custom", "expectation"),
                                                ("learned", "filtered"),
                                                ("learned", "expectation")])
    def test_sample_moments_lie_within_k_standard_errors(self, kind, dynamics):
        model, spec = skewed_market(), eval_spec(36)
        self.check(episode_policy(kind, model, spec, np.random.default_rng(3)), model, spec,
                   dynamics)

    @pytest.mark.parametrize("kind", ["poemv_opt", "poemv_sub"])
    def test_desk_analytic_policies(self, kind):
        cfg = config.default_config()
        model, spec = config.build_market(cfg), config.build_problem(cfg)
        self.check(E.analytic_policy(kind, model, spec), model, spec, E.ANALYTIC_FLAVORS[kind])

    def check(self, policy, model, spec, dynamics):
        mean, var = exact_terminal_moments(
            E._path_tables(policy, model, spec, dynamics, None, "expected_state"), spec)
        for seed in range(6):
            report = E.out_of_sample(policy, model, 1000, spec, seed, dynamics)
            n = report.n_paths
            z_mean = (report.mean - mean) / math.sqrt(report.variance / n)
            z_var = (report.variance / var - 1.0) / math.sqrt(2.0 / (n - 1))
            assert abs(z_mean) <= self.K and abs(z_var) <= self.K, (seed, z_mean, z_var)


def market_path_terminals(state, model, n_paths, spec, seed, explore):
    """``evaluate_on_market_paths`` path by path and period by period: the
    path's stream draws its regime path, then the risky leg alone, then its
    noise; the baseline and liability legs are on their filtered expectations;
    the regime-blind baseline reads a unit signal and no liability."""
    horizon, policy = spec.horizon, rl.policy_from_state(state)
    p_hat = F.filter_states(model.chain.p0, model.chain.matrix(), horizon)
    m1, m2 = model.moment_pair()
    e0 = m2.a0 + p_hat[:-1] * (m1.a0 - m2.a0)
    q = m2.a2 + p_hat[:-1] * (m1.a2 - m2.a2)
    blind = state.algo == "emv"
    out = np.empty(n_paths)
    for i in range(n_paths):
        rng = M.stream(seed, M.PATH_KEY + i)
        regimes = M.regime_path(model.chain, horizon, rng)
        e1 = draw_then_scatter(regimes[:-1], model, rng, legs=("e1",))["e1"]
        noise = rng.standard_normal(horizon) if explore else np.zeros(horizon)
        x, l = spec.x0, spec.l0
        for t in range(horizon):
            cx, cl, c0, var = policy.table([t], [1.0 if blind else p_hat[t]])[:, 0].tolist()
            action = cx * x + cl * (0.0 if blind else l) + c0 + math.sqrt(var) * noise[t]
            x = e0[t] * x + (e1[t] - e0[t]) * action
            l = q[t] * l
        out[i] = x - l
    return out


# ---------------------------------------------------------------------------
# the recorded episode is path 0 of the blocked evaluation
# ---------------------------------------------------------------------------


def learned_state(algo, model, spec, gen):
    m = int(gen.integers(1, 4))
    grids = [gen.normal(0, 0.1, size=(m + 1, m)) for _ in range(9)]
    return rl.TrainState(algo, rl.CriticParams(*grids[:6], m=m), rl.ActorParams(*grids[6:], m=m),
                         float(gen.uniform(0.5, 3.0)), 0, [], [],
                         rl.Hyperparams(dt=model.dt, m=m), spec)


def episode_policy(kind, model, spec, gen):
    if kind in ("regime", "filtered"):
        return analytic_policy(kind, model, spec)
    if kind == "learned":
        return rl.policy_from_state(learned_state("poemv1", model, spec, gen))
    a, b, c, d, v = gen.normal(0, 0.5, size=5)

    def table(ts, s):
        return np.stack([a + b * s, c * s - 0.01 * ts, d + 0.0 * s, v * v * (1.0 + s * s)])

    return C.GaussianPolicy(table, kind="custom")


class TestSimulateEpisode:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 30),
        kind=st.sampled_from(["filtered", "regime", "learned", "custom"]),
        dynamics=st.sampled_from(M.DYNAMICS),
        signal=st.sampled_from([None, *M.SIGNALS]),
        exp_signal=st.sampled_from(["expected_state", "state1_prob"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_row_per_period_loop(self, seed, horizon, kind, dynamics, signal, exp_signal):
        if kind == "regime":
            signal = "regime"  # the complete-information policy reads regime labels only
        model, spec = skewed_market(), eval_spec(horizon)
        policy = episode_policy(kind, model, spec, np.random.default_rng(seed))
        args = (policy, model, spec, seed, dynamics, signal)
        if signal == "regime" and dynamics != "real":
            with pytest.raises(ValueError, match="regime signal requires real dynamics"):
                E.simulate(*args, expectation_signal=exp_signal)
            return
        got = E.simulate(*args, expectation_signal=exp_signal)
        terminals = path_terminals(policy, model, 69, spec, seed, dynamics, signal, True,
                                   exp_signal)
        _, (x, l, action, regimes, p_hat, x_scale, u_scale) = per_period_terminals(
            policy, model, 1, spec, seed, dynamics, signal, exp_signal)
        if dynamics == "real":
            # one full-table call on both sides, so the terminal is the evaluation's bit for bit
            assert (got.x[-1] - got.l[-1]).tobytes() == terminals[0].tobytes()
        else:  # the evaluation takes the closed form on fixed rates: the same draws, other rounding
            assert abs(terminals[0] - (x[-1] - l[-1])) <= 1e-12 * x_scale[-1]
        for name, want in (("l", l), ("regime", regimes), ("p_hat", p_hat)):
            assert getattr(got, name).tobytes() == want.tobytes(), name
        assert np.all(np.abs(got.x - x) <= 1e-12 * x_scale)
        assert np.all(np.abs(got.action - action) <= 1e-12 * u_scale)


# ---------------------------------------------------------------------------
# vectorized moment mixing against the per-period loop
# ---------------------------------------------------------------------------


def loop_violations(m):
    out = []
    if m.b0 < m.a0**2 - 1e-9:
        out.append(f"b0={m.b0} < a0^2={m.a0 ** 2}")
    if m.b1 < m.a1**2 - 1e-9:
        out.append(f"b1={m.b1} < a1^2={m.a1 ** 2}")
    if m.b2 < m.a2**2 - 1e-9:
        out.append(f"b2={m.b2} < a2^2={m.a2 ** 2}")
    return out


def loop_moments(signal, pair):
    """One period mixed in Python floats, checks in the per-period order."""
    m1, m2 = pair

    def mix(v1, v2):
        return v2 + signal * (v1 - v2)

    a0, b0 = mix(m1.a0, m2.a0), mix(m1.b0, m2.b0)
    risky_mean = mix(m1.risky_mean(), m2.risky_mean())
    risky_sq = mix(m1.risky_sq(), m2.risky_sq())
    b1 = risky_sq - 2.0 * risky_mean * a0 + b0
    if b1 <= 0.0:
        raise ValueError(
            f"mixed second moment of the excess return is non-positive ({b1}) at signal {signal}"
        )
    out = F.MomentSet(a0, b0, mix(m1.a1, m2.a1), b1, mix(m1.a2, m2.a2), mix(m1.b2, m2.b2))
    if 0.0 <= signal <= 1.0:
        bad = loop_violations(out)
        if bad:
            raise ValueError(f"moment mixing produced invalid set at signal {signal}: {bad}")
    return out


def loop_schedule(pair, signals):
    """(T, 6) moments and the (3, T) b0, b1, b2 deficit flags, one period at a time."""
    sets, deficits = [], []
    for s in signals:
        m = loop_moments(float(s), pair)
        sets.append(m.as_tuple())
        bad = loop_violations(m)
        deficits.append([any(v.startswith(b) for v in bad) for b in ("b0", "b1", "b2")])
    return np.array(sets), np.array(deficits, dtype=bool).reshape(-1, 3).T


def outcome(fn):
    try:
        with np.errstate(all="ignore"):
            return fn(), None
    except ValueError as exc:
        return None, str(exc)


def mixing_pair(gen, deficits):
    """Two regimes; with ``deficits`` the baseline and liability variances may be negative."""
    out = []
    for _ in range(2):
        a0, a1, a2 = gen.uniform(0.95, 1.1), gen.uniform(-0.05, 0.12), gen.uniform(0.9, 1.1)
        lo = -0.01 if deficits else 0.0
        out.append(F.MomentSet(a0, a0 * a0 + gen.uniform(lo, 0.01), a1,
                               a1 * a1 + gen.uniform(0.001, 0.05), a2, a2 * a2 + gen.uniform(lo, 0.02)))
    return tuple(out)


mixing_signals = st.one_of(
    st.floats(-0.5, 2.5),  # expected-state weights lie in [1, 2]
    st.floats(-80.0, 80.0),  # far enough out for a non-positive mixed b1
    st.sampled_from([0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]),
)


class TestMomentMixing:
    @given(
        seed=st.integers(0, 2**32 - 1),
        deficits=st.booleans(),
        signals=st.lists(mixing_signals, min_size=1, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_schedule_matches_per_period_loop(self, seed, deficits, signals):
        pair = mixing_pair(np.random.default_rng(seed), deficits)
        got, got_err = outcome(lambda: F.Mixing(pair).schedule(np.array(signals), "expectation"))
        want, want_err = outcome(lambda: loop_schedule(pair, signals))
        assert got_err == want_err
        if want is not None:
            assert got.rows.tobytes() == want[0].T.tobytes()
            assert np.array_equal(got.deficits(), want[1])
        # the one-period mix is the one-column case
        one, one_err = outcome(lambda: F.Mixing(pair).schedule(signals[:1], "filtered")[0])
        want_one, want_one_err = outcome(lambda: loop_moments(float(signals[0]), pair))
        assert one_err == want_one_err
        if want_one is not None:
            assert np.array(one.as_tuple()).tobytes() == np.array(want_one.as_tuple()).tobytes()

    @pytest.mark.parametrize("signal", ["expected_state", "state1_prob"])
    def test_reference_expectation_schedule_matches_per_period_loop(self, signal):
        model = config.build_market(config.default_config())
        chain, pair, horizon = model.chain, model.moment_pair(), 2520
        probs = F.filter_states(chain.p0, chain.matrix(), horizon)[:-1]
        weights = 2.0 - probs if signal == "expected_state" else probs
        sched = M.observable_rates(model, horizon, "expectation", signal)[2]
        rows, deficits = loop_schedule(pair, weights)
        assert sched.rows.tobytes() == rows.T.tobytes()
        assert np.array_equal(sched.deficits(), deficits)
        assert int(np.sum(sched.deficits())) == (2596 if signal == "expected_state" else 0)


# ---------------------------------------------------------------------------
# the value function's backward scans
# ---------------------------------------------------------------------------


def loop_risk_sum(tables: C._ScheduleTables) -> np.ndarray:
    out = np.zeros(tables.spec.horizon + 1)
    ptail = 1.0
    for t in range(tables.spec.horizon - 1, -1, -1):
        out[t] = out[t + 1] + (tables.a1[t] ** 2 / tables.b1[t]) * ptail
        ptail *= (tables.f2[t] * tables.f2[t]) / (tables.b1[t] * tables.f1[t])
    return out


def loop_log_entropy_prod(tables: C._ScheduleTables) -> np.ndarray:
    log_b1_pl = np.log(tables.b1 / (math.pi * tables.spec.explore_weight))
    log_ratio = np.log(tables.f1 / tables.b1)
    out = np.zeros(tables.spec.horizon + 1)
    acc_ratio = 0.0
    for t in range(tables.spec.horizon - 1, -1, -1):
        out[t] = out[t + 1] + log_b1_pl[t] + acc_ratio
        acc_ratio += log_ratio[t]
    return out


class TestValueScans:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 400),
        lam=st.floats(0.01, 50.0),
        liability=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_scans_match_backward_loops(self, seed, horizon, lam, liability):
        sched = random_schedule(np.random.default_rng(seed), horizon, not liability)
        spec = C.ProblemSpec(horizon=horizon, target=1.3, multiplier=1.7, explore_weight=lam)
        tables = C._ScheduleTables(sched, spec)
        assert tables.risk_sum.tobytes() == loop_risk_sum(tables).tobytes()
        assert tables.log_entropy_prod.tobytes() == loop_log_entropy_prod(tables).tobytes()

    @pytest.mark.parametrize("flavor", ["filtered", "expectation"])
    def test_reference_schedules_match_backward_loops(self, flavor):
        cfg = config.default_config()
        model, spec = config.build_market(cfg), config.build_problem(cfg)
        sched = M.observable_rates(model, spec.horizon, flavor)[2]
        tables = C._ScheduleTables(sched, spec)
        assert tables.risk_sum.tobytes() == loop_risk_sum(tables).tobytes()
        assert tables.log_entropy_prod.tobytes() == loop_log_entropy_prod(tables).tobytes()
