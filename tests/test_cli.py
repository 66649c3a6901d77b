from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from emvalm import cli, evaluate, rl
from emvalm import config as cfgmod
from emvalm import filtering as F
from emvalm.closed_form import policy_table_rows
from test_evaluate import monthly_blocks, monthly_study_market, tiny_spec


def write_config(tmp_path: Path, **overrides) -> str:
    cfg = {
        "problem": {"T_years": 0.25, "d": 1.1, "lambda": 2.0},
        "training": {"n_iter": 30, "seed": 4, "N": 5},
    }
    for section, values in overrides.items():
        cfg.setdefault(section, {}).update(values)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def rising_prices(tmp_path: Path) -> Path:
    """A daily close series that rises every day: one regime, nothing to estimate."""
    path = tmp_path / "rising.csv"
    rows = (f"2000-{1 + i // 28:02d}-{1 + i % 28:02d},{100.0 * 1.01**i!r}\n" for i in range(200))
    path.write_text("date,close\n" + "".join(rows))
    return path


def run(args) -> int:
    return cli.main(args)


class TestArgumentHandling:
    def test_help_exits_cleanly(self, capsys):
        assert run(["--help"]) == 0
        assert "simulate" in capsys.readouterr().out

    def test_unknown_flag_is_user_error(self, capsys):
        assert run(["simulate", "--not-a-flag"]) == 1

    def test_unknown_subcommand_is_user_error(self):
        assert run(["frobnicate"]) == 1

    def test_missing_config_file_is_user_error(self, tmp_path, capsys):
        assert run(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("section", ["problem", "training", "evaluation"])
    def test_bad_config_key_is_user_error(self, tmp_path, capsys, section):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({section: {"horizon?": 1}}))
        assert run(["filter-demo", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "error" in err
        assert f"unknown keys in config section {section!r}: ['horizon?']" in err

    def test_bad_training_value_fails_at_load_naming_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, training={"expectation_signal": "state1prob"})
        out = str(tmp_path / "o")
        assert run(["train", "--config", cfg, "--algo", "poemv2", "--out", out]) == 1
        assert "expectation_signal" in capsys.readouterr().err
        assert not (tmp_path / "o" / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "field, value", [("dynamics", "regime"), ("signal", "filtered"), ("explore", "false")]
    )
    def test_bad_evaluation_value_fails_at_load_naming_the_field(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path, evaluation={field: value})
        assert run(["filter-demo", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert f"error: evaluation.{field}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, field", [
        ("training", "N", 2.5, "training.N"),
        ("training", "m", 2.5, "training.m"),
        ("training", "batch_size", 2.5, "training.batch_size"),
        ("training", "n_iter", 2.5, "training.n_iter"),
        ("training", "seed", None, "training.seed"),
        ("evaluation", "n_paths", 2.5, "evaluation.n_paths"),
    ])
    def test_fractional_or_null_count_fails_at_load_naming_the_field(
        self, tmp_path, capsys, section, key, value, field
    ):
        # these used to end in a bare TypeError (exit 2), or to run on (n_iter under --iters,
        # n_paths outside evaluate)
        cfg = write_config(tmp_path, **{section: {key: value}})
        out = tmp_path / "o"
        assert run(["train", "--config", cfg, "--iters", "3", "--out", str(out)]) == 1
        assert f"error: {field} must be a whole number, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["P11", "P22", "p_hat_0", "dt"])
    @pytest.mark.parametrize("value", [float("nan"), None])
    @pytest.mark.parametrize("argv", [["train", "--algo", "coemv", "--iters", "3"],
                                      ["evaluate", "--analytic", "coemv_opt"]])
    def test_nan_or_null_market_scalar_fails_at_load_naming_the_key(
        self, tmp_path, capsys, key, value, argv
    ):
        # a NaN transition probability used to train and score; a null p_hat_0 or dt ended
        # in a bare TypeError (exit 2)
        market = cfgmod.default_config()["market"]
        market[key] = value
        cfg = write_config(tmp_path, market=market)
        out = tmp_path / "o"
        assert run([*argv, "--config", cfg, "--out", str(out)]) == 1
        assert f"error: market.{key} must be a finite number, got {value!r}" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("leaf, value, kind", [
        ("e1.regime1.dof", float("nan"), "a finite number"),
        ("e1.regime1.dof", "x", "a finite number"),
        ("e1.regime2.skew", float("inf"), "a finite number"),
        ("e1.regime1.annual_vol", float("nan"), "a finite number"),
        ("e1.regime2.annual_vol", float("inf"), "a finite number"),
        ("q.regime1.annual_mean", float("nan"), "a finite number"),
        ("e0.regime2.annual_mean", float("-inf"), "a finite number"),
        ("e0.regime1.annual_mean", "1.2", "a finite number"),
        ("q.regime2.annual_vol", True, "a finite number"),
        ("e1.regime1.mean_is_gross", "false", "true or false"),
        ("q.regime1.vol_is_variance", 0, "true or false"),
    ])
    def test_bad_return_spec_leaf_fails_at_load_naming_the_key(
        self, tmp_path, capsys, leaf, value, kind
    ):
        # a NaN dof used to end as a non-finite wealth path at iteration 0 and a string dof
        # as a TypeError (exit 2); a NaN or infinite vol or mean failed naming no key
        market = cfgmod.default_config()["market"]
        leg, regime, field = leaf.split(".")
        market[leg][regime][field] = value
        cfg = write_config(tmp_path, market=market)
        out = tmp_path / "o"
        assert run(["train", "--algo", "coemv", "--iters", "3", "--config", cfg,
                    "--out", str(out)]) == 1
        assert f"error: market.{leaf} must be {kind}, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["d", "lambda", "x0", "l0", "w"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), None])
    @pytest.mark.parametrize("argv", [["train", "--algo", "poemv1", "--iters", "3"],
                                      ["evaluate", "--analytic", "poemv_opt"]])
    def test_non_finite_problem_value_fails_at_load_naming_the_key(
        self, tmp_path, capsys, key, value, argv
    ):
        # a NaN l0, d or x0 used to end as a non-finite wealth path at iteration 0 and an
        # infinite lambda as a non-finite critic grid (exit 2); a NaN w trained and was
        # echoed into the manifest
        cfg = write_config(tmp_path, problem={key: value})
        out = tmp_path / "o"
        assert run([*argv, "--config", cfg, "--out", str(out)]) == 1
        assert f"error: problem.{key} must be a finite number, got {value!r}" in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_training_error_names_the_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, training={"eta_phi": 0.0})
        assert run(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "error: training.eta_phi must be positive and finite, got 0.0" in (
            capsys.readouterr().err)
        with pytest.raises(ValueError, match="^eta_phi must be positive"):  # the field, directly
            rl.Hyperparams(eta_phi=0.0)

    def test_signal_under_auto_dynamics_is_a_user_error(self, tmp_path, capsys):
        # "auto" picks the signal itself, and used to ignore the configured one
        cfg = write_config(tmp_path, evaluation={"signal": "expected_state"})
        out = tmp_path / "o"
        assert run(["evaluate", "--config", cfg, "--analytic", "poemv_opt", "--out", str(out)]) == 1
        assert "error: evaluation.signal must be null" in capsys.readouterr().err
        assert not out.exists()

    def test_evaluate_requires_a_policy_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run(["evaluate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "one of the arguments --checkpoint --analytic is required" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_evaluate_takes_one_policy_source(self, tmp_path, capsys):
        # a checkpoint and an analytic policy used to run the checkpoint and drop --analytic;
        # the parser refuses the pair before any file is read
        assert run(["evaluate", "--config", write_config(tmp_path), "--checkpoint",
                    str(tmp_path / "checkpoint.json"), "--analytic", "poemv_opt",
                    "--out", str(tmp_path / "o")]) == 1
        assert "not allowed with argument --checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value", [("--iters", "-3"), ("--iters", "abc")])
    def test_improve_counts_are_checked_naming_the_flag(self, tmp_path, capsys, flag, value):
        # --iters -3 used to run no round and write a header-only improvement.csv,
        # and --iters abc failed with a bare "invalid literal for int()"
        out = tmp_path / "o"
        assert run(["improve", "--T", "4", flag, value, "--out", str(out)]) == 1
        assert f"argument {flag}: expected" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.json"), ("--seed", "5")])
    def test_ingest_takes_no_config_or_seed(self, tmp_path, capsys, flag, value):
        # ingest reads neither, and used to accept both silently
        prices = rising_prices(tmp_path)
        out = tmp_path / "o"
        assert run(["ingest", flag, value, "--prices", str(prices), "--out", str(out)]) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not out.exists()


class TestConfigResolution:
    def test_defaults_round_trip_through_manifest(self):
        cfg = cfgmod.resolve_config(None)
        again = cfgmod.resolve_config(json.loads(json.dumps(cfg)))
        assert cfgmod.config_digest(cfg) == cfgmod.config_digest(again)

    def test_partial_override_keeps_other_defaults(self):
        cfg = cfgmod.resolve_config({"training": {"seed": 99}})
        assert cfg["training"]["seed"] == 99
        assert cfg["training"]["n_iter"] == 10_000
        assert cfg["market"]["P11"] == 0.9986

    def test_reference_keys_present_verbatim(self):
        market = cfgmod.default_config()["market"]
        for key in ("P11", "P12", "P21", "P22", "p_hat_0", "dt", "e0", "e1", "q"):
            assert key in market

    def test_fractional_period_count_rejected(self):
        with pytest.raises(ValueError, match="whole number"):
            cfgmod.resolve_config({"problem": {"T_years": 0.123}})


class TestArtifacts:
    def test_simulate_writes_episode_and_manifest(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "episode.csv").read_text().strip().split("\n")
        assert lines[0] == "t,x,l,regime,p_hat,action"
        assert len(lines) == 65  # 63 periods + terminal + header
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["config"]["training"]["seed"] == 4

    @pytest.mark.parametrize("dynamics", ["real", "filtered"])
    def test_episode_csv_rows_are_the_simulated_episode(self, tmp_path, dynamics):
        cfg = write_config(tmp_path)
        out = tmp_path / "sim"
        assert run(["simulate", "--config", cfg, "--dynamics", dynamics, "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["config"]
        model, spec = cfgmod.build_market(resolved), cfgmod.build_problem(resolved)
        policy = evaluate.analytic_policy("poemv_opt", model, spec)
        ep = evaluate.simulate(policy, model, spec, 4, dynamics=dynamics)
        lines = (out / "episode.csv").read_text().split("\n")
        assert lines[0] == "t,x,l,regime,p_hat,action" and lines[-1] == ""
        assert len(lines) == spec.horizon + 3  # header, T + 1 states, final newline
        for t, line in enumerate(lines[1:-1]):
            action = repr(float(ep.action[t])) if t < spec.horizon else ""  # none at the terminal
            want = [str(t), repr(float(ep.x[t])), repr(float(ep.l[t])), str(int(ep.regime[t])),
                    repr(float(ep.p_hat[t])), action]
            assert line.split(",") == want, t

    def test_identical_manifests_produce_byte_identical_artifacts(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run(["train", "--config", cfg, "--algo", "poemv1", "--out", str(out)]) == 0
        for name in ("checkpoint.json", "history.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_flag_round_trips_through_manifest(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sf"
        assert run(["filter-demo", "--config", cfg, "--seed", "77", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["training"]["seed"] == 77
        # re-running from the manifest's config reproduces the artifact
        cfg2 = tmp_path / "from_manifest.json"
        cfg2.write_text(json.dumps(manifest["config"]))
        out2 = tmp_path / "sf2"
        assert run(["filter-demo", "--config", str(cfg2), "--out", str(out2)]) == 0
        assert (out / "filter_demo.csv").read_bytes() == (out2 / "filter_demo.csv").read_bytes()

    def test_filter_demo_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "fd"
        assert run(["filter-demo", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "filter_demo.csv").read_text().split("\n")[0]
        assert header == "t,true_regime,p_hat,p_tilde"

    def test_policy_eval_columns(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "pe"
        assert run(["policy-eval", "--config", cfg, "--out", str(out), "--flavor", "regime1"]) == 0
        header = (out / "policy.csv").read_text().split("\n")[0]
        assert header == "t,mean_x_coeff,mean_l_coeff,mean_const,variance"

    def test_improve_emits_per_round_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "imp"
        assert run(["improve", "--config", cfg, "--out", str(out), "--T", "4"]) == 0
        lines = (out / "improvement.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 5 * 4  # header + (rounds 0..4) x 4 periods

    def test_train_then_evaluate_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path, evaluation={"n_paths": 50})
        out = tmp_path / "tr"
        assert run(["train", "--config", cfg, "--algo", "poemv2", "--out", str(out)]) == 0
        ev = tmp_path / "ev"
        assert (
            run(
                [
                    "evaluate",
                    "--config",
                    cfg,
                    "--checkpoint",
                    str(out / "checkpoint.json"),
                    "--out",
                    str(ev),
                ]
            )
            == 0
        )
        report = (ev / "report.csv").read_text().strip().split("\n")
        assert report[0] == "algo,mean,variance,sharpe,n_paths,seed"
        assert report[1].startswith("poemv2,")

    def test_checkpoint_on_a_market_of_another_dt_is_a_user_error(self, tmp_path, capsys):
        # a daily checkpoint on a monthly market of as many periods
        tr, ev = tmp_path / "tr", tmp_path / "ev"
        assert run(["train", "--config", write_config(tmp_path), "--algo", "poemv1",
                    "--out", str(tr)]) == 0
        (tmp_path / "m").mkdir()
        market = {**cfgmod.default_config()["market"], "dt": 1.0 / 12.0}
        monthly = write_config(tmp_path / "m", market=market,
                               problem={"T_years": 5.25}, evaluation={"n_paths": 40})
        capsys.readouterr()
        assert run(["evaluate", "--config", monthly, "--checkpoint", str(tr / "checkpoint.json"),
                    "--out", str(ev)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dt" in err
        assert not (ev / "report.csv").exists()

    def test_checkpoint_under_another_problem_is_a_user_error(self, tmp_path, capsys):
        # the checkpoint's problem used to be scored while the manifest echoed the config's
        tr, ev = tmp_path / "tr", tmp_path / "ev"
        assert run(["train", "--config", write_config(tmp_path), "--algo", "poemv1",
                    "--out", str(tr)]) == 0
        (tmp_path / "x0").mkdir()
        other = write_config(tmp_path / "x0", problem={"x0": 2.0}, evaluation={"n_paths": 40})
        capsys.readouterr()
        assert run(["evaluate", "--config", other, "--checkpoint", str(tr / "checkpoint.json"),
                    "--out", str(ev)]) == 1
        assert "error: spec x0 = 2.0, but the checkpoint has 1.0" in capsys.readouterr().err
        assert not ev.exists()

    def test_poemv2_checkpoint_is_scored_on_the_signal_it_was_trained_on(self, tmp_path):
        # with expectation_signal = "state1_prob" poemv2 learns on the filter
        # probability; the checkpoint's setting decides the evaluation signal,
        # whatever the evaluation config says
        (tmp_path / "s1").mkdir()
        train_cfg = write_config(tmp_path / "s1", training={"expectation_signal": "state1_prob"})
        eval_cfg = write_config(tmp_path, evaluation={"n_paths": 40})
        tr, ev = tmp_path / "tr", tmp_path / "ev"
        assert run(["train", "--config", train_cfg, "--algo", "poemv2", "--out", str(tr)]) == 0
        argv = ["evaluate", "--config", eval_cfg, "--checkpoint", str(tr / "checkpoint.json")]
        assert run([*argv, "--out", str(ev)]) == 0
        assert json.loads((ev / "manifest.json").read_text())["signal"] == "filtered_prob"
        state = rl.TrainState.from_dict(json.loads((tr / "checkpoint.json").read_text()))
        model = cfgmod.build_market(cfgmod.resolve_config(json.loads(Path(eval_cfg).read_text())))
        want = evaluate.out_of_sample(
            rl.policy_from_state(state), model, 40, state.spec, seed=4,
            dynamics="filtered", signal="filtered_prob",
        )
        row = (ev / "report.csv").read_text().split("\n")[1].split(",")
        assert float(row[1]) == want.mean and float(row[2]) == want.variance

    def test_simulate_expectation_dynamics_honour_expectation_signal(self, tmp_path):
        # "state1_prob" mixes the expectation dynamics along the filter
        # probability, so they coincide with the filtered dynamics
        (tmp_path / "s1").mkdir()
        configs = {"default": write_config(tmp_path),
                   "s1": write_config(tmp_path / "s1", training={"expectation_signal": "state1_prob"})}
        episodes = {}
        for name, cfg in configs.items():
            for dynamics in ("filtered", "expectation"):
                out = tmp_path / f"{name}-{dynamics}"
                assert run(["simulate", "--config", cfg, "--dynamics", dynamics, "--out", str(out)]) == 0
                episodes[name, dynamics] = (out / "episode.csv").read_bytes()
        assert episodes["s1", "expectation"] == episodes["s1", "filtered"]
        assert episodes["default", "expectation"] != episodes["default", "filtered"]

    def test_evaluate_analytic_policy(self, tmp_path):
        cfg = write_config(tmp_path, evaluation={"n_paths": 40})
        ev = tmp_path / "eva"
        assert run(["evaluate", "--config", cfg, "--analytic", "poemv_opt", "--out", str(ev)]) == 0
        assert (ev / "report.csv").exists()

    def test_resume_continues_bit_identically(self, tmp_path):
        cfg_full = write_config(tmp_path)
        out_full = tmp_path / "full"
        assert run(["train", "--config", cfg_full, "--algo", "poemv1", "--out", str(out_full)]) == 0
        out_half = tmp_path / "half"
        assert (
            run(["train", "--config", cfg_full, "--algo", "poemv1", "--iters", "15", "--out", str(out_half)])
            == 0
        )
        out_resumed = tmp_path / "resumed"
        assert (
            run(
                [
                    "train",
                    "--config",
                    cfg_full,
                    "--algo",
                    "poemv1",
                    "--iters",
                    "30",
                    "--resume",
                    str(out_half / "checkpoint.json"),
                    "--out",
                    str(out_resumed),
                ]
            )
            == 0
        )
        assert (out_resumed / "checkpoint.json").read_bytes() == (out_full / "checkpoint.json").read_bytes()

    def test_resume_below_checkpoint_iteration_is_user_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "ckpt"
        assert run(["train", "--config", cfg, "--algo", "poemv1", "--out", str(out)]) == 0
        resumed = tmp_path / "resumed"
        args = ["train", "--config", cfg, "--algo", "poemv1", "--iters", "10",
                "--resume", str(out / "checkpoint.json"), "--out", str(resumed)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "n_iter = 10" in err and "iteration 30" in err
        assert not (resumed / "checkpoint.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [["train", "--iters", "-1"], ["improve", "--T", "0"],
         ["ingest", "--prices", "rising", "--label", "--estimate"]],
        ids=["train-negative-iters", "improve-zero-horizon", "ingest-one-regime"],
    )
    def test_a_failed_run_writes_nothing(self, tmp_path, argv):
        # each used to leave its --out directory behind, ingest with labels.csv in it
        argv = [str(rising_prices(tmp_path)) if a == "rising" else a for a in argv]
        out = tmp_path / "o"
        assert run([*argv, "--out", str(out)]) == 1
        assert not out.exists()

    def test_resume_under_another_seed_is_user_error(self, tmp_path, capsys):
        # resuming used to run on the checkpoint's seed 7 and write the config's into the manifest
        ckpt = tmp_path / "ckpt"
        cfg = write_config(tmp_path)
        assert run(["train", "--config", cfg, "--algo", "poemv1", "--iters", "15", "--seed", "7",
                    "--out", str(ckpt)]) == 0
        resumed = tmp_path / "resumed"
        assert run(["train", "--config", cfg, "--algo", "poemv1", "--seed", "9",
                    "--resume", str(ckpt / "checkpoint.json"), "--out", str(resumed)]) == 1
        assert "error: hyper seed = 9, but the checkpoint has 7" in capsys.readouterr().err
        assert not resumed.exists()

    def test_ingest_labels_and_estimates(self, tmp_path):
        gen = np.random.default_rng(7)
        closes = [100.0]
        for _ in range(3):
            for _ in range(40):
                closes.append(closes[-1] * (1.02 + 0.004 * gen.standard_normal()))
            for _ in range(40):
                closes.append(closes[-1] * (0.98 + 0.004 * gen.standard_normal()))
        prices = tmp_path / "prices.csv"
        prices.write_text(
            "date,close\n"
            + "\n".join(f"2000-{1 + i // 28:02d}-{1 + i % 28:02d},{c!r}" for i, c in enumerate(closes[:200]))
            + "\n"
        )
        out = tmp_path / "ing"
        assert (
            run(["ingest", "--prices", str(prices), "--freq", "daily", "--label", "--estimate", "--out", str(out)])
            == 0
        )
        labels = (out / "labels.csv").read_text().strip().split("\n")
        assert labels[0] == "date,close,label"
        assert len(labels) == 201
        params = json.loads((out / "params.json").read_text())
        assert "market" in params and "estimates" in params
        # the emitted market block must itself be loadable
        from emvalm.market import market_from_dict

        market_from_dict(params["market"])


# (dynamics, signal) each policy is scored in under evaluation.dynamics = "auto",
# per training.expectation_signal
AUTO_SCORING = {
    ("coemv", "expected_state"): ("real", "regime"),
    ("coemv", "state1_prob"): ("real", "regime"),
    ("coemv_opt", "expected_state"): ("real", "regime"),
    ("coemv_opt", "state1_prob"): ("real", "regime"),
    ("poemv1", "expected_state"): ("filtered", "filtered_prob"),
    ("poemv1", "state1_prob"): ("filtered", "filtered_prob"),
    ("poemv_opt", "expected_state"): ("filtered", "filtered_prob"),
    ("poemv_opt", "state1_prob"): ("filtered", "filtered_prob"),
    ("poemv2", "expected_state"): ("filtered", "expected_state"),
    ("poemv2", "state1_prob"): ("filtered", "filtered_prob"),
    ("poemv_sub", "expected_state"): ("filtered", "expected_state"),
    ("poemv_sub", "state1_prob"): ("filtered", "filtered_prob"),
}


class TestFlavorTable:
    @pytest.mark.parametrize("exp_sig", ["expected_state", "state1_prob"])
    @pytest.mark.parametrize(
        "policy", ["coemv", "poemv1", "poemv2", "coemv_opt", "poemv_opt", "poemv_sub"]
    )
    def test_auto_evaluation_scores_each_policy_in_its_flavor(self, tmp_path, policy, exp_sig):
        cfg = write_config(
            tmp_path, training={"n_iter": 5, "expectation_signal": exp_sig},
            evaluation={"n_paths": 4},
        )
        if policy in rl.ALGO_FLAVORS:
            tr = tmp_path / "tr"
            assert run(["train", "--config", cfg, "--algo", policy, "--out", str(tr)]) == 0
            source = ["--checkpoint", str(tr / "checkpoint.json")]
        else:
            source = ["--analytic", policy]
        ev = tmp_path / "ev"
        assert run(["evaluate", "--config", cfg, *source, "--out", str(ev)]) == 0
        man = json.loads((ev / "manifest.json").read_text())
        assert (man["algo"], man["dynamics"], man["signal"]) == (policy, *AUTO_SCORING[policy, exp_sig])

    def test_auto_evaluation_of_an_emv_checkpoint_is_a_user_error(self, tmp_path, capsys):
        model = monthly_study_market()
        hyper = rl.Hyperparams(n_iter=20, dt=model.dt, n_avg=5)
        state = evaluate.empirical_train("emv", monthly_blocks(model), model, hyper, tiny_spec(24))
        ckpt = tmp_path / "emv.json"
        ckpt.write_text(cfgmod.canonical_json(state.to_dict()), encoding="utf-8")
        cfg = write_config(tmp_path, evaluation={"n_paths": 4})
        out = tmp_path / "ev"
        assert run(["evaluate", "--config", cfg, "--checkpoint", str(ckpt), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: " in err and "'emv'" in err and "evaluate_on_market_paths" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("exp_sig", ["expected_state", "state1_prob"])
    @pytest.mark.parametrize("flavor", ["filtered", "expectation", "regime1", "regime2"])
    def test_policy_eval_reads_the_flavor_schedule(self, tmp_path, flavor, exp_sig):
        path = write_config(tmp_path, training={"expectation_signal": exp_sig})
        out = tmp_path / "pe"
        assert run(["policy-eval", "--config", path, "--flavor", flavor, "--out", str(out)]) == 0
        cfg = cfgmod.resolve_config(json.loads(Path(path).read_text()))
        model, spec = cfgmod.build_market(cfg), cfgmod.build_problem(cfg)
        pair, chain = model.moment_pair(), model.chain
        if flavor in ("regime1", "regime2"):
            schedule = F.regime_schedule(pair[int(flavor[-1]) - 1], spec.horizon)
        else:
            probs = F.filter_states(chain.p0, chain.matrix(), spec.horizon)[:-1]
            literal = (flavor, exp_sig) == ("expectation", "expected_state")
            schedule = F.mixed_schedule(pair, 2.0 - probs if literal else probs, flavor)
        header = ["t", "mean_x_coeff", "mean_l_coeff", "mean_const", "variance"]
        want = cli._csv(policy_table_rows(schedule, spec), header)
        assert (out / "policy.csv").read_bytes() == want.encode("utf-8")
