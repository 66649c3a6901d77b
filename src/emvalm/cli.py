"""Command-line front end.

Subcommands: ``simulate``, ``train``, ``evaluate``, ``improve``,
``filter-demo``, ``ingest``, ``policy-eval``.  Every run writes a manifest
JSON that echoes the fully resolved configuration (including every default),
so identical manifests reproduce byte-identical artifacts.  Exit codes:
0 ok, 1 user/configuration error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data_ingest, evaluate, filtering, improvement, market, rl
from .closed_form import policy_table_rows


def _load_config(path: str | None) -> dict:
    overrides = None
    if path:
        with open(path, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    return cfgmod.resolve_config(overrides)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out: Path, cfg: dict, command: str, extra: dict | None = None) -> None:
    man = cfgmod.manifest(cfg, command, extra)
    (out / "manifest.json").write_text(cfgmod.canonical_json(man), encoding="utf-8")


def _write_csv(path: Path, rows: list[dict], header: list[str]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _apply_seed(cfg: dict, args) -> dict:
    if getattr(args, "seed", None) is not None:
        cfg["training"]["seed"] = args.seed
    return cfg


def cmd_simulate(args) -> int:
    cfg = _apply_seed(_load_config(args.config), args)
    out = _out_dir(args)
    model = cfgmod.build_market(cfg)
    spec = cfgmod.build_problem(cfg)
    exp_sig = cfg["training"]["expectation_signal"]
    policy = evaluate.analytic_policy("poemv_opt", model, spec, exp_sig)
    episode = evaluate.simulate(
        policy, model, spec, cfg["training"]["seed"], dynamics=args.dynamics,
        expectation_signal=exp_sig,
    )
    (out / "episode.csv").write_text(episode.to_csv_text(), encoding="utf-8")
    _write_manifest(out, cfg, "simulate", {"dynamics": args.dynamics})
    print(f"wrote {out / 'episode.csv'} ({episode.n_periods} periods)")
    return 0


def cmd_filter_demo(args) -> int:
    cfg = _apply_seed(_load_config(args.config), args)
    out = _out_dir(args)
    model = cfgmod.build_market(cfg)
    spec = cfgmod.build_problem(cfg)
    rng = market.stream(cfg["training"]["seed"], 0)
    regimes = market.regime_path(model.chain, spec.horizon, rng)
    p_hat = filtering.filter_states(model.chain.p0, model.chain.matrix(), spec.horizon)
    p_tilde = filtering.signal_path("expected_state", p_hat)
    rows = [
        {"t": t, "true_regime": int(regimes[t]), "p_hat": float(p_hat[t]), "p_tilde": float(p_tilde[t])}
        for t in range(spec.horizon + 1)
    ]
    _write_csv(out / "filter_demo.csv", rows, ["t", "true_regime", "p_hat", "p_tilde"])
    _write_manifest(out, cfg, "filter-demo")
    print(f"wrote {out / 'filter_demo.csv'}")
    return 0


def cmd_policy_eval(args) -> int:
    cfg = _apply_seed(_load_config(args.config), args)
    out = _out_dir(args)
    model = cfgmod.build_market(cfg)
    spec = cfgmod.build_problem(cfg)
    flavor, exp_sig = args.flavor, cfg["training"]["expectation_signal"]
    if flavor in ("regime1", "regime2"):
        schedule = filtering.regime_schedule(model.moment_pair()[int(flavor[-1]) - 1], spec.horizon)
    else:
        schedule = market.observable_rates(model, spec.horizon, flavor, exp_sig)[2]
    rows = policy_table_rows(schedule, spec)
    _write_csv(
        out / "policy.csv", rows, ["t", "mean_x_coeff", "mean_l_coeff", "mean_const", "variance"]
    )
    _write_manifest(out, cfg, "policy-eval", {"flavor": flavor})
    print(f"wrote {out / 'policy.csv'}")
    return 0


def cmd_improve(args) -> int:
    cfg = _apply_seed(_load_config(args.config), args)
    out = _out_dir(args)
    model = cfgmod.build_market(cfg)
    horizon = args.T
    spec = replace(cfgmod.build_problem(cfg), horizon=horizon)
    schedule = filtering.regime_schedule(model.moment_pair()[0], horizon)
    rng = market.stream(cfg["training"]["seed"], 0)
    family = improvement.InitialPolicyFamily.random(horizon, rng)
    current = improvement.initial_iterate(family, schedule, spec)
    rows = []
    keys = ("mean_x_coeff", "mean_l_coeff", "mean_const", "variance")
    n_rounds = horizon if args.iters == "auto" else int(args.iters)
    for n in range(n_rounds + 1):
        starts = current.objective[:horizon](spec.x0, spec.l0)
        for t, (coeffs, start) in enumerate(zip(current.policy.table.T.tolist(), starts.tolist())):
            rows.append({"round": n, "t": t, **dict(zip(keys, coeffs)), "objective_at_start": start})
        if n < n_rounds:
            current = improvement.improve_once(current, schedule, spec)
    _write_csv(
        out / "improvement.csv",
        rows,
        ["round", "t", "mean_x_coeff", "mean_l_coeff", "mean_const", "variance", "objective_at_start"],
    )
    _write_manifest(out, cfg, "improve", {"T": horizon, "iters": args.iters})
    print(f"wrote {out / 'improvement.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg = _apply_seed(_load_config(args.config), args)
    if args.algo:
        cfg["training"]["algo"] = args.algo
    if args.iters is not None:
        cfg["training"]["n_iter"] = args.iters
    out = _out_dir(args)
    model = cfgmod.build_market(cfg)
    spec = cfgmod.build_problem(cfg)
    hyper = cfgmod.build_hyper(cfg)
    algo = cfg["training"]["algo"]
    state = None
    if args.resume:
        with open(args.resume, "r", encoding="utf-8") as fh:
            state = rl.TrainState.from_dict(json.load(fh))
        hyper = replace(state.hyper, n_iter=cfg["training"]["n_iter"])
        spec = state.spec
    final = rl.train(algo, model, hyper, spec, state=state)
    (out / "checkpoint.json").write_text(
        cfgmod.canonical_json(final.to_dict()), encoding="utf-8"
    )
    _write_csv(
        out / "history.csv",
        final.history_rows(block=10),
        ["iter", "avg_terminal_net_wealth", "var_terminal_net_wealth", "w"],
    )
    _write_manifest(out, cfg, "train", {"algo": algo})
    print(
        f"trained {algo} for {final.iteration} iterations; "
        f"final multiplier {final.w:.6g}; artifacts in {out}"
    )
    return 0


def cmd_evaluate(args) -> int:
    cfg = _apply_seed(_load_config(args.config), args)
    out = _out_dir(args)
    model = cfgmod.build_market(cfg)
    spec = cfgmod.build_problem(cfg)
    ev = cfg["evaluation"]
    exp_sig = cfg["training"]["expectation_signal"]
    if args.checkpoint:
        with open(args.checkpoint, "r", encoding="utf-8") as fh:
            state = rl.TrainState.from_dict(json.load(fh))
        policy = rl.policy_from_state(state)
        algo = state.algo
        spec = state.spec
        exp_sig = state.hyper.expectation_signal
    else:  # the parser requires exactly one of --checkpoint and --analytic
        policy = evaluate.analytic_policy(args.analytic, model, spec, exp_sig)
        algo = args.analytic
    if ev["dynamics"] == "auto":
        dynamics, signal = evaluate.auto_scoring(algo, exp_sig)
    else:
        dynamics, signal = ev["dynamics"], ev["signal"]
    if args.checkpoint:  # after auto_scoring, which names the scorer of an emv checkpoint
        state.hyper.require_market_dt(model)
    report = evaluate.out_of_sample(
        policy,
        model,
        ev["n_paths"],
        spec,
        seed=cfg["training"]["seed"],
        dynamics=dynamics,
        signal=signal,
        explore=ev["explore"],
        expectation_signal=exp_sig,
    )
    report = evaluate.EvalReport(**{**report.__dict__, "algo": algo})
    text, rows = evaluate.compare_table([report])
    _write_csv(out / "report.csv", rows, ["algo", "mean", "variance", "sharpe", "n_paths", "seed"])
    _write_manifest(out, cfg, "evaluate", {"algo": algo, "dynamics": dynamics, "signal": signal})
    print(text, end="")
    return 0


def cmd_ingest(args) -> int:
    out = _out_dir(args)
    series = data_ingest.PriceSeries.from_csv(args.prices, frequency=args.freq)
    dt = 1.0 / 252.0 if args.freq == "daily" else 1.0 / 12.0
    wrote = []
    labels = None
    if args.label or args.estimate:
        labels = data_ingest.label_regimes(series, gamma1=args.gamma1, gamma2=args.gamma2)
    if args.label:
        rows = [
            {"date": series.dates[i], "close": float(series.closes[i]), "label": int(labels.labels[i])}
            for i in range(len(series.closes))
        ]
        _write_csv(out / "labels.csv", rows, ["date", "close", "label"])
        wrote.append("labels.csv")
    if args.estimate:
        est = data_ingest.estimate_params(series, labels, dt)
        base = cfgmod.default_config()["market"]
        base["dt"] = dt
        base["e1"] = {
            "regime1": {
                "kind": "normal",
                "annual_mean": est.regime1_mean,
                "annual_vol": est.regime1_var,
                "mean_is_gross": False,
                "vol_is_variance": True,
            },
            "regime2": {
                "kind": "normal",
                "annual_mean": est.regime2_mean,
                "annual_vol": est.regime2_var,
                "mean_is_gross": False,
                "vol_is_variance": True,
            },
        }
        base["P11"], base["P12"] = 1.0 - est.p12, est.p12
        base["P21"], base["P22"] = est.p21, 1.0 - est.p21
        payload = {
            "market": base,
            "estimates": {
                "regime1_mean": est.regime1_mean,
                "regime1_var": est.regime1_var,
                "regime2_mean": est.regime2_mean,
                "regime2_var": est.regime2_var,
                "P12": est.p12,
                "P21": est.p21,
                "n_obs1": est.n_obs1,
                "n_obs2": est.n_obs2,
            },
        }
        (out / "params.json").write_text(cfgmod.canonical_json(payload), encoding="utf-8")
        wrote.append("params.json")
    print(f"wrote {', '.join(wrote) if wrote else 'nothing (pass --label and/or --estimate)'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emvalm",
        description="Multi-period exploratory mean-variance asset-liability management "
        "in a two-regime switching market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file overriding the built-in defaults")
        p.add_argument("--seed", type=int, help="override the training/evaluation seed")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    p = sub.add_parser("simulate", help="simulate one episode under the analytic policy")
    common(p)
    p.add_argument("--dynamics", choices=market.DYNAMICS, default="real")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("filter-demo", help="dump regime path vs. the two signals")
    common(p)
    p.set_defaults(func=cmd_filter_demo)

    p = sub.add_parser("policy-eval", help="dump analytic policy coefficients per period")
    common(p)
    p.add_argument(
        "--flavor",
        choices=("filtered", "expectation", "regime1", "regime2"),
        default="filtered",
    )
    p.set_defaults(func=cmd_policy_eval)

    p = sub.add_parser("improve", help="run the policy-improvement iteration")
    common(p)
    p.add_argument("--T", type=int, default=6, help="horizon in periods for the iteration")
    p.add_argument("--iters", default="auto", help="number of rounds or 'auto' (= horizon)")
    p.set_defaults(func=cmd_improve)

    p = sub.add_parser("train", help="train one of the actor-critic learners")
    common(p)
    p.add_argument("--algo", choices=sorted(rl.ALGO_FLAVORS))
    p.add_argument("--iters", type=int, help="override training.n_iter")
    p.add_argument("--resume", help="checkpoint JSON to resume from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="out-of-sample evaluation of a policy")
    common(p)
    policy = p.add_mutually_exclusive_group(required=True)
    policy.add_argument("--checkpoint", help="trained checkpoint JSON")
    policy.add_argument(
        "--analytic",
        choices=sorted(evaluate.ANALYTIC_FLAVORS),
        help="evaluate an analytic policy instead of a checkpoint",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ingest", help="label regimes / estimate parameters from a price CSV")
    common(p)
    p.add_argument("--prices", required=True, help="CSV with date,close columns")
    p.add_argument("--freq", choices=("daily", "monthly"), default="daily")
    p.add_argument("--label", action="store_true")
    p.add_argument("--estimate", action="store_true")
    p.add_argument("--gamma1", type=float, default=0.24)
    p.add_argument("--gamma2", type=float, default=0.19)
    p.set_defaults(func=cmd_ingest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
