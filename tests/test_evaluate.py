from __future__ import annotations

import hashlib
import json
import math

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emvalm import data_ingest as D
from emvalm import evaluate as E
from emvalm import market as M
from emvalm import rl
from emvalm.closed_form import GaussianPolicy, ProblemSpec
from conftest import REFERENCE_P


def tiny_market():
    chain = M.RegimeChain(p=REFERENCE_P, p0=0.3)
    return M.MarketModel(
        chain=chain,
        e0=(
            M.ReturnSpec(kind="constant", annual_mean=1.2),
            M.ReturnSpec(kind="constant", annual_mean=1.05),
        ),
        e1=(
            M.ReturnSpec(kind="normal", annual_mean=0.5, annual_vol=0.2, mean_is_gross=False),
            M.ReturnSpec(kind="normal", annual_mean=0.06, annual_vol=0.3, mean_is_gross=False),
        ),
        q=(
            M.ReturnSpec(kind="normal", annual_mean=0.05, annual_vol=0.1, mean_is_gross=False),
            M.ReturnSpec(kind="normal", annual_mean=0.01, annual_vol=0.2, mean_is_gross=False),
        ),
        dt=1.0 / 12.0,
    )


def constant_rows(*row):
    return lambda ts, s: np.tile(row, (len(ts), 1))


def const_policy(amount=0.1, var=0.0):
    return GaussianPolicy(constant_rows(0.0, 0.0, amount, var), kind="custom")


def bad_row_policy(column, bad):
    """Rows (0, 0, 0.1, 0.01), except ``bad`` in ``column`` at t = 5."""

    def table(ts, s):
        rows = np.tile([0.0, 0.0, 0.1, 0.01], (len(ts), 1))
        rows[ts == 5, column] = bad
        return rows

    return GaussianPolicy(table, kind="custom")


def tiny_spec(horizon=36):
    return ProblemSpec(horizon=horizon, target=1.5, multiplier=1.5, explore_weight=2.0, x0=1.0, l0=0.1)


class TestSharpeRatio:
    def test_reference_table_inputs(self):
        # the published rounding of (7.9985 - 1)/sqrt(0.0094)
        assert E.sharpe_ratio(7.9985, 0.0094) == pytest.approx(72.0167, rel=0.01)

    def test_flat_outcome_is_zero(self):
        assert E.sharpe_ratio(1.0, 0.0) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            E.sharpe_ratio(1.0, -0.1)


class TestOutOfSample:
    def test_report_is_self_consistent(self):
        rep = E.out_of_sample(const_policy(), tiny_market(), 300, tiny_spec(), seed=5)
        assert rep.sharpe == pytest.approx((rep.mean - 1.0) / math.sqrt(rep.variance), rel=1e-12)
        assert rep.n_paths == 300
        assert rep.n_excluded == 0

    def test_seeded_evaluation_is_deterministic(self):
        a = E.out_of_sample(const_policy(), tiny_market(), 200, tiny_spec(), seed=9)
        b = E.out_of_sample(const_policy(), tiny_market(), 200, tiny_spec(), seed=9)
        assert (a.mean, a.variance, a.sharpe) == (b.mean, b.variance, b.sharpe)

    def test_disjoint_seed_sets_agree_within_monte_carlo_error(self):
        n = 2000
        a = E.out_of_sample(const_policy(), tiny_market(), n, tiny_spec(), seed=1)
        b = E.out_of_sample(const_policy(), tiny_market(), n, tiny_spec(), seed=10_001)
        se = math.sqrt(a.variance / n + b.variance / n)
        assert abs(a.mean - b.mean) < 3.0 * se

    def test_filtered_dynamics_with_mean_actions_is_deterministic_per_path(self):
        rep = E.out_of_sample(
            const_policy(), tiny_market(), 50, tiny_spec(), seed=3, dynamics="filtered", explore=False
        )
        assert rep.variance == pytest.approx(0.0, abs=1e-25)

    def test_exploding_policy_exclusions_raise(self):
        policy = GaussianPolicy(constant_rows(1e200, 0.0, 0.0, 0.0), kind="custom")
        with pytest.raises(RuntimeError, match="non-finite"):
            E.out_of_sample(policy, tiny_market(), 100, tiny_spec(), seed=2)

    def test_minimum_path_count(self):
        with pytest.raises(ValueError, match="n_paths"):
            E.out_of_sample(const_policy(), tiny_market(), 1, tiny_spec(), seed=0)

    def test_evaluation_does_not_mutate_learned_policy(self):
        hyper = rl.Hyperparams(n_iter=20, dt=1.0 / 12.0, seed=4, n_avg=5)
        state = rl.train("poemv1", tiny_market(), hyper, tiny_spec(24))
        digest_before = hashlib.sha256(
            json.dumps(state.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        policy = rl.policy_from_state(state)
        E.out_of_sample(policy, tiny_market(), 100, tiny_spec(24), seed=6, dynamics="filtered")
        digest_after = hashlib.sha256(
            json.dumps(state.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        assert digest_before == digest_after

    def test_negative_or_nan_policy_variance_names_the_period(self):
        for bad in (-1e-3, float("nan")):
            policy = bad_row_policy(3, bad)
            for dynamics in ("real", "filtered"):
                with pytest.raises(ValueError, match="t=5"):
                    E.out_of_sample(policy, tiny_market(), 10, tiny_spec(), seed=0, dynamics=dynamics)
            with pytest.raises(ValueError, match="t=5"):
                E.simulate(policy, tiny_market(), tiny_spec(10), 0)

    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_non_finite_policy_coefficient_names_the_period(self, column):
        # the table check rejects the row before any wealth is rolled, so the
        # error names the period instead of counting non-finite terminals
        policy = bad_row_policy(column, float("nan"))
        for dynamics in ("real", "filtered"):
            with pytest.raises(ValueError, match="t=5"):
                E.out_of_sample(policy, tiny_market(), 10, tiny_spec(), seed=0, dynamics=dynamics)
        with pytest.raises(ValueError, match="t=5"):
            E.simulate(policy, tiny_market(), tiny_spec(10), 0)

    def test_regime_signal_requires_real_dynamics(self):
        with pytest.raises(ValueError, match="regime signal"):
            E.out_of_sample(
                const_policy(), tiny_market(), 10, tiny_spec(), seed=0, dynamics="filtered", signal="regime"
            )


FORK_FLOOR = E._FORK_FLOOR


def affine_policy(seed):
    """A random Gaussian policy affine in the signal, so any signal kind applies."""
    a, b, c, d, v = np.random.default_rng(seed).normal(0.0, 0.5, size=5)

    def table(ts, s):
        return np.stack([a + b * s, c * s - 0.01 * ts, d + 0.0 * s, v * v * (1.0 + s * s)], axis=1)

    return GaussianPolicy(table, kind="custom")


def share_paths(tables, model, spec, seed, paths, explore):
    """Wealth and liability paths of one share, block after block."""
    blocks = list(E._rollout_blocks(tables, model, spec, seed, paths, explore))
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks])


class TwoArgumentError(Exception):
    """An exception that pickles but does not unpickle: its class needs two arguments."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def throw(exc):
    raise exc


def on_path(monkeypatch, path, action):
    """Run ``action`` when evaluation path ``path`` opens its regime stream."""
    real = E.stream

    def stream(seed, key):
        if key == 1 + path:
            action()
        return real(seed, key)

    monkeypatch.setattr(E, "stream", stream)


@pytest.fixture
def three_cores(monkeypatch):
    """No fork floor, three cores, and a count of the forks made."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(E, "_FORK_FLOOR", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedShares:
    @given(
        seed=st.integers(0, 2**32 - 1),
        horizon=st.integers(1, 12),
        n_paths=st.integers(1, 5 * E._BLOCK),
        cuts=st.lists(st.integers(1, 4), max_size=4),
        signal=st.sampled_from(["regime", "filtered_prob"]),
        explore=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_concatenated_shares_equal_one_share(self, seed, horizon, n_paths, cuts, signal,
                                                 explore):
        model, spec = tiny_market(), tiny_spec(horizon)
        tables = E._path_tables(affine_policy(seed), model, spec, "real", signal, "expected_state")
        bounds = sorted({0, n_paths, *(min(n_paths, E._BLOCK * c) for c in cuts)})
        parts = [share_paths(tables, model, spec, seed, range(a, b), explore)
                 for a, b in zip(bounds, bounds[1:])]
        whole = share_paths(tables, model, spec, seed, range(n_paths), explore)
        for k in range(2):  # wealth, liabilities
            assert np.concatenate([part[k] for part in parts]).tobytes() == whole[k].tobytes()

    def test_shares_are_contiguous_block_aligned_and_floored(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        for n_paths, horizon in ((1000, 2520), (100, 2520), (33, 10**6), (5000, 10)):
            shares = E._shares(n_paths, horizon)
            assert shares[0].start == 0 and shares[-1].stop == n_paths
            assert all(a.stop == b.start and a.stop % E._BLOCK == 0
                       for a, b in zip(shares, shares[1:]))
            assert len(shares) == 1 or len(shares) * E._FORK_FLOOR <= n_paths * horizon
        assert len(E._shares(1000, 2520)) == 8
        assert len(E._shares(33, 10**6)) == 2  # no more shares than blocks
        assert len(E._shares(5000, 10)) == 1  # below the floor
        horizon = 100  # two shares from exactly twice the floor on
        assert len(E._shares(2 * E._FORK_FLOOR // horizon, horizon)) == 2
        assert len(E._shares(2 * E._FORK_FLOOR // horizon - 1, horizon)) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert E._shares(1000, 2520) == [range(1000)]

    @pytest.mark.parametrize("signal", ["regime", "filtered_prob"])
    def test_forced_split_reports_the_serial_evaluation(self, three_cores, monkeypatch, signal):
        model, spec, policy = tiny_market(), tiny_spec(24), affine_policy(3)
        n_paths = 3 * E._BLOCK + 5
        with monkeypatch.context() as serial:
            serial.setattr(E, "_FORK_FLOOR", 10**12)
            want = E.out_of_sample(policy, model, n_paths, spec, seed=8, signal=signal)
        assert not three_cores
        got = E.out_of_sample(policy, model, n_paths, spec, seed=8, signal=signal)
        assert got == want
        assert len(three_cores) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("exc, raised, message", [
        (ZeroDivisionError("path 100 divides by zero"), ZeroDivisionError, "path 100 divides"),
        (TwoArgumentError("no table", "path 100"), RuntimeError,
         "TwoArgumentError: no table at path 100"),
    ])
    def test_child_exception_reraises_with_its_type_and_message(self, three_cores, monkeypatch,
                                                                exc, raised, message):
        n_paths = 3 * E._BLOCK + 5
        on_path(monkeypatch, n_paths - 1, lambda: throw(exc))  # the last share runs in a child
        with pytest.raises(raised, match=message):
            E.out_of_sample(affine_policy(1), tiny_market(), n_paths, tiny_spec(24), seed=8)
        assert len(three_cores) == 2
        assert_no_child_left()

    def test_child_that_dies_is_named_and_reaped(self, three_cores, monkeypatch):
        n_paths = 3 * E._BLOCK + 5
        on_path(monkeypatch, n_paths - 1, lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="paths 64..100 ended with exit code 3"):
            E.out_of_sample(affine_policy(1), tiny_market(), n_paths, tiny_spec(24), seed=8)
        assert_no_child_left()

    def test_error_in_this_process_kills_every_child(self, three_cores, monkeypatch):
        on_path(monkeypatch, 0, lambda: throw(ValueError("share 0 fails")))
        with pytest.raises(ValueError, match="share 0 fails"):
            E.out_of_sample(affine_policy(1), tiny_market(), 3 * E._BLOCK + 5, tiny_spec(24),
                            seed=8)
        assert len(three_cores) == 2
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_failed_fork_kills_the_children_and_closes_every_pipe(self, three_cores,
                                                                  monkeypatch):
        forking = os.fork

        def fork():
            if three_cores:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return forking()

        monkeypatch.setattr(os, "fork", fork)
        open_before = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            E.out_of_sample(affine_policy(1), tiny_market(), 3 * E._BLOCK + 5, tiny_spec(24),
                            seed=8)
        assert len(three_cores) == 1
        assert_no_child_left()
        assert len(os.listdir("/proc/self/fd")) == open_before

    @pytest.mark.parametrize("dynamics", ["filtered", "expectation"])
    def test_partial_information_dynamics_never_fork(self, three_cores, dynamics):
        E.out_of_sample(affine_policy(2), tiny_market(), 3 * E._BLOCK + 5, tiny_spec(24), seed=8,
                        dynamics=dynamics)
        assert not three_cores

    def test_below_floor_evaluation_never_forks(self, three_cores, monkeypatch):
        monkeypatch.setattr(E, "_FORK_FLOOR", FORK_FLOOR)
        E.out_of_sample(affine_policy(2), tiny_market(), 3 * E._BLOCK + 5, tiny_spec(24), seed=8)
        assert not three_cores

    def test_exclusions_are_counted_once_and_reported(self):
        terminal = np.array([1.5, np.nan, 2.0, np.inf, 2.5])
        report = E._terminal_report(terminal, 1.0, max_excluded=2, policy_kind="custom")
        assert (report.n_paths, report.n_excluded, report.mean) == (3, 2, 2.0)
        with pytest.raises(RuntimeError, match="2 of 5 paths produced non-finite terminals"):
            E._terminal_report(terminal, 1.0, max_excluded=1.5, policy_kind="custom")


class TestCompareTable:
    def test_empty_list(self):
        text, rows = E.compare_table([])
        assert rows == []
        assert "algo" in text

    def test_single_report(self):
        rep = E.EvalReport(mean=2.0, variance=0.5, sharpe=1.41, n_paths=10, policy_kind="custom", algo="x")
        text, rows = E.compare_table([rep])
        assert len(rows) == 1
        assert rows[0]["algo"] == "x"
        assert "x" in text

    def test_six_row_table_shape(self):
        reps = [
            E.EvalReport(mean=float(i), variance=0.1, sharpe=float(i) - 1, n_paths=5, policy_kind="k", algo=f"a{i}")
            for i in range(6)
        ]
        text, rows = E.compare_table(reps)
        assert len(rows) == 6
        assert len(text.strip().split("\n")) == 7

    def test_sharpe_recomputable_from_row_fields(self):
        rep = E.out_of_sample(const_policy(), tiny_market(), 100, tiny_spec(), seed=8)
        row = rep.row()
        assert row["sharpe"] == pytest.approx(
            (row["mean"] - 1.0) / math.sqrt(row["variance"]), rel=1e-12
        )


def monthly_study_market():
    chain = M.RegimeChain.from_probs(0.994, 0.006, 0.012, 0.988, 0.999)
    return M.MarketModel(
        chain=chain,
        e0=(
            M.ReturnSpec(kind="constant", annual_mean=1.12),
            M.ReturnSpec(kind="constant", annual_mean=1.005),
        ),
        e1=(
            M.ReturnSpec(kind="normal", annual_mean=0.5, annual_vol=0.1, mean_is_gross=False),
            M.ReturnSpec(kind="normal", annual_mean=-0.22, annual_vol=0.1, mean_is_gross=False),
        ),
        q=(
            M.ReturnSpec(kind="normal", annual_mean=0.04, annual_vol=0.02, mean_is_gross=False),
            M.ReturnSpec(kind="normal", annual_mean=0.0, annual_vol=0.05, mean_is_gross=False),
        ),
        dt=1.0 / 12.0,
    )


def monthly_blocks(model, n_series=4, months=120, horizon_years=2.0):
    series = []
    for i in range(n_series):
        gen = M.stream(77, i)
        regimes = M.regime_path(model.chain, months, gen)
        gross = M.sample_return_paths(regimes[:-1], model, gen).e1
        closes = 100.0 * np.concatenate(([1.0], np.cumprod(gross)))
        series.append(D.PriceSeries.from_closes(closes, frequency="monthly"))
    return E.BlockSource(series_set=tuple(series), horizon_years=horizon_years, dt=model.dt)


class FixedPick:
    """A stand-in generator whose one ``integers`` draw is ``pick``."""

    def __init__(self, pick):
        self.pick = pick

    def integers(self, n):
        assert 0 <= self.pick < n
        return self.pick


def every_window(blocks):
    """(pick, series index, start) of every window, in ``block_sampler``'s order."""
    pick = 0
    for idx, s in enumerate(blocks.series_set):
        for start in range(len(s.closes) - blocks.horizon_periods()):
            yield pick, idx, start
            pick += 1


def fresh_estimate(closes, dt):
    """(p12, p21) labeled and estimated from scratch, or None for a single regime."""
    series = D.PriceSeries.from_closes(closes, frequency=E.blocks_frequency(dt))
    try:
        est = D.estimate_params(series, D.label_regimes(series), dt)
    except ValueError:
        return None
    return est.p12, est.p21


class TestBlockSource:
    def test_sample_is_the_block_sampler_pick(self):
        blocks = monthly_blocks(monthly_study_market())
        gen, twin = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(50):
            idx, start = D.block_sampler(blocks.series_set, blocks.horizon_years, blocks.dt, twin)
            want = blocks.series_set[idx].closes[start : start + blocks.horizon_periods() + 1]
            closes, _ = blocks.sample(gen)
            assert np.array_equal(closes, want)

    def test_every_window_estimate_matches_a_fresh_estimate(self):
        blocks = monthly_blocks(monthly_study_market())
        n = blocks.horizon_periods()
        single = 0
        for pick, idx, start in every_window(blocks):
            closes, est = blocks.sample(FixedPick(pick))
            assert len(closes) == n + 1
            want = fresh_estimate(blocks.series_set[idx].closes[start : start + n + 1], blocks.dt)
            if want is None:
                single += 1
                assert est is None
            else:
                assert est.tolist() == list(want)
        # the data hold both kinds of window, so both branches are checked
        assert 0 < single < D.block_count(blocks.series_set, blocks.horizon_years, blocks.dt)

    def test_second_lookup_does_not_relabel(self, monkeypatch):
        blocks = monthly_blocks(monthly_study_market())
        calls = []
        label = D.label_regimes
        monkeypatch.setattr(D, "label_regimes", lambda series: calls.append(1) or label(series))
        first = [blocks.sample(FixedPick(p))[1] for p in range(40)]
        assert len(calls) == 40
        again = [blocks.sample(FixedPick(p))[1] for p in range(40)]
        assert len(calls) == 40
        assert all(a is b for a, b in zip(first, again))

    def test_memo_entries_are_read_only(self):
        blocks = monthly_blocks(monthly_study_market())
        estimates = [blocks.sample(FixedPick(p))[1] for p, _, _ in every_window(blocks)]
        estimates = [e for e in estimates if e is not None]
        assert estimates
        for est in estimates:
            assert not est.flags.writeable
            with pytest.raises(ValueError):
                est[0] = 0.5

    def test_fractional_horizon_fails_at_construction(self):
        blocks = monthly_blocks(monthly_study_market())
        with pytest.raises(ValueError, match="horizon_years: .*not a whole number of periods"):
            E.BlockSource(series_set=blocks.series_set, horizon_years=2.01, dt=blocks.dt)

    def test_short_series_fails_at_construction(self):
        blocks = monthly_blocks(monthly_study_market())
        short = D.PriceSeries.from_closes(blocks.series_set[0].closes[:24], frequency="monthly")
        with pytest.raises(ValueError, match="series_set: every series must span at least one full horizon"):
            E.BlockSource(series_set=(*blocks.series_set, short), horizon_years=2.0, dt=blocks.dt)
        # a series one period longer than the horizon holds exactly one window
        one = D.PriceSeries.from_closes(blocks.series_set[0].closes[:25], frequency="monthly")
        E.BlockSource(series_set=(one,), horizon_years=2.0, dt=blocks.dt)

    def test_empty_series_set_fails_at_construction(self):
        with pytest.raises(ValueError, match="series_set: "):
            E.BlockSource(series_set=(), horizon_years=2.0, dt=1.0 / 12.0)


class TestEmpiricalTrain:
    def test_dt_mismatch_rejected(self):
        model = monthly_study_market()
        hyper = rl.Hyperparams(n_iter=5, dt=1.0 / 252.0, n_avg=5)
        with pytest.raises(ValueError, match=r"dt.*0\.00396.*0\.0833"):
            E.empirical_train("poemv1", monthly_blocks(model), model, hyper, tiny_spec(24))

    def test_horizon_mismatch_names_both_horizons(self):
        model = monthly_study_market()
        hyper = rl.Hyperparams(n_iter=5, dt=model.dt, n_avg=5)
        with pytest.raises(ValueError, match="problem horizon 30 and block horizon 24 disagree"):
            E.empirical_train("poemv1", monthly_blocks(model), model, hyper, tiny_spec(30))

    def test_batch_size_other_than_one_rejected(self):
        # each iteration trains on exactly one sampled block
        model = monthly_study_market()
        hyper = rl.Hyperparams(n_iter=5, dt=model.dt, n_avg=5, batch_size=4)
        with pytest.raises(ValueError, match="batch_size = 4"):
            E.empirical_train("poemv1", monthly_blocks(model), model, hyper, tiny_spec(24))

    def test_states_do_not_depend_on_the_estimate_memo(self):
        # cold source, warm source, and the learners trained in either order
        model = monthly_study_market()
        hyper = rl.Hyperparams(n_iter=80, dt=model.dt, seed=12, n_avg=5)

        def states(blocks, order):
            return {
                algo: json.dumps(
                    E.empirical_train(algo, blocks, model, hyper, tiny_spec(24)).to_dict(),
                    sort_keys=True,
                )
                for algo in order
            }

        cold = {algo: states(monthly_blocks(model), (algo,))[algo] for algo in ("poemv1", "emv")}
        warm = monthly_blocks(model)
        assert states(warm, ("poemv1", "emv")) == cold
        assert warm._estimates
        assert states(warm, ("emv", "poemv1")) == cold
        assert states(monthly_blocks(model), ("emv", "poemv1")) == cold

    def test_iterations_before_a_first_estimate_train_on_nothing(self, monkeypatch):
        model = monthly_study_market()
        n_iter, skipped, n_avg, seed = 40, 7, 5, 12
        hyper = rl.Hyperparams(n_iter=n_iter, dt=model.dt, seed=seed, n_avg=n_avg)
        sample, keys, estimates = E.BlockSource.sample, [], []

        def first_draws_without_estimate(self, rng):
            keys.append(rng.bit_generator.state["state"]["key"].tolist())
            closes, est = sample(self, rng)
            estimates.append(est)
            return closes, None if len(keys) <= skipped else est

        monkeypatch.setattr(E.BlockSource, "sample", first_draws_without_estimate)
        spec = tiny_spec(24)
        state = E.empirical_train("poemv1", monthly_blocks(model), model, hyper, spec)
        assert estimates[skipped] is not None  # the first unmasked block trains
        assert state.iteration == n_iter
        assert len(state.terminals) == len(state.ws) == n_iter - skipped
        # trained iterations keep their k: the multiplier moves only where (k + 1) % N == 0
        before = [spec.target, *state.ws[:-1]]
        for k, w, prev in zip(range(skipped, n_iter), state.ws, before):
            assert (w != prev) == ((k + 1) % n_avg == 0), k
        # every iteration, skipped or not, draws its block from stream (seed, k)
        assert keys == [M.stream(seed, k).bit_generator.state["state"]["key"].tolist()
                        for k in range(n_iter)]

    def test_absurd_learning_rates_raise_divergence_not_overflow(self):
        model = monthly_study_market()
        hyper = rl.Hyperparams(
            eta_theta=1e6, eta_vartheta=1e6, eta_psi=1e6, eta_phi=1e6,
            n_iter=50, dt=model.dt, n_avg=5, grad_clip=None,
        )
        with pytest.raises(rl.DivergenceError, match="iteration"):
            E.empirical_train("poemv1", monthly_blocks(model), model, hyper, tiny_spec(24))
