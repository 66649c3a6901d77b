"""Command-line front end.

Subcommands: ``simulate``, ``train``, ``evaluate``, ``improve``,
``filter-demo``, ``ingest``, ``policy-eval``.  A run computes all its
artifacts before it writes any, so a failed run leaves nothing behind.  Every
run but ``ingest`` writes a manifest JSON that echoes the fully resolved
configuration (including every default), so identical manifests reproduce
byte-identical artifacts.  Exit codes:
0 ok, 1 user/configuration error, 2 internal error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data_ingest, evaluate, filtering, improvement, market, rl
from .closed_form import POLICY_COLUMNS, policy_table_rows


def _setup(args, **training) -> tuple:
    """The config of ``--config`` with ``--seed`` and the given training values
    applied (None leaves a value as configured), and its market and problem."""
    overrides = None
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            overrides = json.load(fh)
    cfg = cfgmod.resolve_config(overrides)
    training["seed"] = args.seed
    cfg["training"].update((key, value) for key, value in training.items() if value is not None)
    cfgmod.check_config(cfg)  # as resolve_config did, now with the flags' values
    return cfg, cfgmod.build_market(cfg), cfgmod.build_problem(cfg)


def _write(args, files: dict[str, str], cfg: dict | None = None, extra: dict | None = None) -> Path:
    """Make ``--out`` and write ``files`` (name -> text) in order, then, given the
    run's config, ``manifest.json``.  Called once a run has computed everything."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if cfg is not None:
        manifest = cfgmod.manifest(cfg, args.command, extra)
        files = {**files, "manifest.json": cfgmod.canonical_json(manifest)}
    for name, text in files.items():
        (out / name).write_text(text, encoding="utf-8")
    return out


def _csv(rows: list[dict], header: list[str]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(row[h]) for h in header))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _checkpoint(path: str) -> rl.TrainState:
    with open(path, "r", encoding="utf-8") as fh:
        return cfgmod.load_checkpoint(json.load(fh))


def cmd_simulate(args) -> int:
    cfg, model, spec = _setup(args)
    exp_sig = cfg["training"]["expectation_signal"]
    policy = evaluate.analytic_policy("poemv_opt", model, spec, exp_sig)
    episode = evaluate.simulate(
        policy, model, spec, cfg["training"]["seed"], dynamics=args.dynamics,
        expectation_signal=exp_sig,
    )
    header = ["t", "x", "l", "regime", "p_hat", "action"]
    columns = (range(len(episode.x)), episode.x.tolist(), episode.l.tolist(),
               episode.regime.tolist(), episode.p_hat.tolist(), [*episode.action.tolist(), None])
    rows = [dict(zip(header, row)) for row in zip(*columns, strict=True)]
    out = _write(args, {"episode.csv": _csv(rows, header)}, cfg, {"dynamics": args.dynamics})
    print(f"wrote {out / 'episode.csv'} ({episode.n_periods} periods)")
    return 0


def cmd_filter_demo(args) -> int:
    cfg, model, spec = _setup(args)
    rng = market.stream(cfg["training"]["seed"], 0)
    regimes = market.regime_path(model.chain, spec.horizon, rng)
    p_hat = filtering.filter_states(model.chain.p0, model.chain.matrix(), spec.horizon)
    p_tilde = filtering.signal_path("expected_state", p_hat)
    rows = [
        {"t": t, "true_regime": int(regimes[t]), "p_hat": float(p_hat[t]), "p_tilde": float(p_tilde[t])}
        for t in range(spec.horizon + 1)
    ]
    text = _csv(rows, ["t", "true_regime", "p_hat", "p_tilde"])
    out = _write(args, {"filter_demo.csv": text}, cfg)
    print(f"wrote {out / 'filter_demo.csv'}")
    return 0


def cmd_policy_eval(args) -> int:
    cfg, model, spec = _setup(args)
    flavor, exp_sig = args.flavor, cfg["training"]["expectation_signal"]
    if flavor in ("regime1", "regime2"):
        schedule = filtering.regime_schedule(model.moment_pair()[int(flavor[-1]) - 1], spec.horizon)
    else:
        schedule = market.observable_rates(model, spec.horizon, flavor, exp_sig)[2]
    text = _csv(policy_table_rows(schedule, spec), ["t", *POLICY_COLUMNS])
    out = _write(args, {"policy.csv": text}, cfg, {"flavor": flavor})
    print(f"wrote {out / 'policy.csv'}")
    return 0


def cmd_improve(args) -> int:
    cfg, model, spec = _setup(args)
    horizon = args.T
    spec = replace(spec, horizon=horizon)
    schedule = filtering.regime_schedule(model.moment_pair()[0], horizon)
    rng = market.stream(cfg["training"]["seed"], 0)
    family = improvement.InitialPolicyFamily.random(horizon, rng)
    current = improvement.initial_iterate(family, schedule, spec)
    rows = []
    header = ["round", "t", *POLICY_COLUMNS, "objective_at_start"]
    n_rounds = horizon if args.iters == "auto" else int(args.iters)
    for n in range(n_rounds + 1):
        starts = current.objective[:horizon](spec.x0, spec.l0)
        for t, (coeffs, start) in enumerate(zip(current.policy.table.T.tolist(), starts.tolist())):
            rows.append(dict(zip(header, (n, t, *coeffs, start))))
        if n < n_rounds:
            current = improvement.improve_once(current, schedule, spec)
    text = _csv(rows, header)
    out = _write(args, {"improvement.csv": text}, cfg, {"T": horizon, "iters": args.iters})
    print(f"wrote {out / 'improvement.csv'}")
    return 0


def cmd_train(args) -> int:
    cfg, model, spec = _setup(args, algo=args.algo, n_iter=args.iters)
    algo = cfg["training"]["algo"]
    state = _checkpoint(args.resume) if args.resume else None
    final = rl.train(algo, model, cfgmod.build_hyper(cfg), spec, state=state)
    header = ["iter", "avg_terminal_net_wealth", "var_terminal_net_wealth", "w"]
    files = {"checkpoint.json": cfgmod.canonical_json(final.to_dict()),
             "history.csv": _csv(final.history_rows(block=10), header)}
    out = _write(args, files, cfg, {"algo": algo})
    print(f"trained {algo} for {final.iteration} iterations; "
          f"final multiplier {final.w:.6g}; artifacts in {out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg, model, spec = _setup(args)
    ev = cfg["evaluation"]
    exp_sig = cfg["training"]["expectation_signal"]
    if args.checkpoint:
        state = _checkpoint(args.checkpoint)
        policy, algo = rl.policy_from_state(state), state.algo
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
        state.require_same(spec)  # the problem the manifest echoes
    report = evaluate.out_of_sample(
        policy, model, ev["n_paths"], spec, seed=cfg["training"]["seed"], dynamics=dynamics,
        signal=signal, explore=ev["explore"], expectation_signal=exp_sig,
    )
    text, rows = evaluate.compare_table([replace(report, algo=algo)])
    csv = _csv(rows, evaluate.EvalReport.COLUMNS)
    _write(args, {"report.csv": csv}, cfg, {"algo": algo, "dynamics": dynamics, "signal": signal})
    print(text, end="")
    return 0


def cmd_ingest(args) -> int:
    series = data_ingest.PriceSeries.from_csv(args.prices, frequency=args.freq)
    dt = data_ingest.PERIOD_YEARS[args.freq]
    files = {}
    labels = None
    if args.label or args.estimate:
        labels = data_ingest.label_regimes(series, gamma1=args.gamma1, gamma2=args.gamma2)
    if args.label:
        rows = [{"date": d, "close": float(c), "label": int(k)}
                for d, c, k in zip(series.dates, series.closes, labels.labels, strict=True)]
        files["labels.csv"] = _csv(rows, ["date", "close", "label"])
    if args.estimate:
        est = data_ingest.estimate_params(series, labels, dt)
        base = cfgmod.default_config()["market"]
        base["dt"] = dt
        base["e1"] = {
            f"regime{k}": {"kind": "normal", "annual_mean": getattr(est, f"regime{k}_mean"),
                           "annual_vol": getattr(est, f"regime{k}_var"),
                           "mean_is_gross": False, "vol_is_variance": True}
            for k in (1, 2)
        }
        base["P11"], base["P12"] = 1.0 - est.p12, est.p12
        base["P21"], base["P22"] = est.p21, 1.0 - est.p21
        # the transition probabilities keep the config's P12/P21 names
        estimates = {key.upper() if key[0] == "p" else key: v for key, v in asdict(est).items()}
        files["params.json"] = cfgmod.canonical_json({"market": base, "estimates": estimates})
    _write(args, files)
    print(f"wrote {', '.join(files) if files else 'nothing (pass --label and/or --estimate)'}")
    return 0


def _at_least(low: int, auto: bool = False):
    """An argparse type: a whole number >= ``low``; with ``auto``, also the word
    'auto', and the text is kept as given (the manifest echoes it)."""

    def parse(text: str):
        if auto and text == "auto":
            return text
        if not text.isdecimal() or int(text) < low:
            wanted = f"{'auto or ' if auto else ''}a whole number >= {low}"
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return text if auto else int(text)

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emvalm",
        description="Multi-period exploratory mean-variance asset-liability management "
        "in a two-regime switching market.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
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
    p.add_argument("--flavor", choices=("filtered", "expectation", "regime1", "regime2"),
                   default="filtered")
    p.set_defaults(func=cmd_policy_eval)

    p = sub.add_parser("improve", help="run the policy-improvement iteration")
    common(p)
    p.add_argument("--T", type=_at_least(1), default=6, help="horizon in periods for the iteration")
    p.add_argument("--iters", type=_at_least(0, auto=True), default="auto",
                   help="number of rounds or 'auto' (= horizon)")
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
    policy.add_argument("--analytic", choices=sorted(evaluate.ANALYTIC_FLAVORS),
                        help="evaluate an analytic policy instead of a checkpoint")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ingest", help="label regimes / estimate parameters from a price CSV")
    common(p, config=False)
    p.add_argument("--prices", required=True, help="CSV with date,close columns")
    p.add_argument("--freq", choices=data_ingest.PERIOD_YEARS, default="daily")
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
