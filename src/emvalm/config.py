"""Run configuration: schema validation, defaults, manifests.

A run config is a JSON object with ``market``, ``problem``, ``training`` and
``evaluation`` sections.  Every default that fills a gap left open by the
model description is resolved here and echoed into the run manifest, so two
runs with identical manifests are identical runs.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import operator
import re
from dataclasses import fields
from numbers import Real

from .closed_form import ProblemSpec
from .data_ingest import periods_in_horizon
from .market import DYNAMICS, SIGNALS, MarketModel, market_from_dict
from .rl import Hyperparams


# (training key, Hyperparams field) of every field but dt, which the market sets
_TRAINING = [("N" if f.name == "n_avg" else f.name, f)
             for f in fields(Hyperparams) if f.name != "dt"]
# Hyperparams field -> the config key it is read from
_CONFIG_KEYS = {f.name: f"training.{key}" for key, f in _TRAINING}


def default_config() -> dict:
    """The reference two-regime daily configuration."""
    return {
        "market": {
            "P11": 0.9986,
            "P12": 0.0014,
            "P21": 0.0114,
            "P22": 0.9886,
            "p_hat_0": 0.3,
            "dt": 1.0 / 252.0,
            "e0": {
                "regime1": {"kind": "constant", "annual_mean": 1.2, "mean_is_gross": True},
                "regime2": {"kind": "constant", "annual_mean": 1.05, "mean_is_gross": True},
            },
            "e1": {
                "regime1": {
                    "kind": "skewed_t",
                    "annual_mean": 0.5,
                    "annual_vol": 0.2,
                    "dof": 10,
                    "skew": 0.1,
                    "mean_is_gross": False,
                },
                "regime2": {
                    "kind": "skewed_t",
                    "annual_mean": 0.06,
                    "annual_vol": 0.3,
                    "dof": 10,
                    "skew": 0.1,
                    "mean_is_gross": False,
                },
            },
            "q": {
                "regime1": {
                    "kind": "normal",
                    "annual_mean": 0.05,
                    "annual_vol": 0.1,
                    "mean_is_gross": False,
                    "vol_is_variance": False,
                },
                "regime2": {
                    "kind": "normal",
                    "annual_mean": 0.01,
                    "annual_vol": 0.2,
                    "mean_is_gross": False,
                    "vol_is_variance": False,
                },
            },
        },
        "problem": {"T_years": 10.0, "d": 8.0, "lambda": 2.0, "x0": 1.0, "l0": 0.1, "w": 8.0},
        "training": {"algo": "poemv1", **{key: f.default for key, f in _TRAINING}},
        "evaluation": {"n_paths": 1000, "dynamics": "auto", "signal": None, "explore": True},
    }


def resolve_config(overrides: dict | None) -> dict:
    """Merge user overrides into the defaults and validate the result."""
    cfg = default_config()
    if overrides:
        if not isinstance(overrides, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(overrides) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config sections: {sorted(unknown)}")
        for section, values in overrides.items():
            if not isinstance(values, dict):
                raise ValueError(f"config section {section!r} must be an object")
            if section == "market":
                cfg["market"] = copy.deepcopy(values)  # the market block is taken whole
            else:
                bad = set(values) - set(cfg[section])  # the defaults name every key
                if bad:
                    raise ValueError(f"unknown keys in config section {section!r}: {sorted(bad)}")
                cfg[section].update(values)
    build_market(cfg)
    build_problem(cfg)
    build_hyper(cfg)
    ev = cfg["evaluation"]
    if ev["dynamics"] not in ("auto", *DYNAMICS):
        raise ValueError(f"evaluation.dynamics {ev['dynamics']!r} is not recognized")
    if ev["signal"] not in (None, *SIGNALS):
        raise ValueError(f"evaluation.signal {ev['signal']!r} is not recognized")
    if ev["signal"] is not None and ev["dynamics"] == "auto":
        raise ValueError(f"evaluation.signal must be null when evaluation.dynamics is 'auto', "
                         f"which picks the signal; got {ev['signal']!r}")
    if not isinstance(ev["explore"], bool):
        raise ValueError(f"evaluation.explore must be true or false, got {ev['explore']!r}")
    try:
        operator.index(ev["n_paths"])
    except TypeError:
        raise ValueError(f"evaluation.n_paths must be a whole number, got {ev['n_paths']!r}") from None
    if ev["n_paths"] < 2:
        raise ValueError("evaluation.n_paths must be >= 2")
    return cfg


def build_market(cfg: dict) -> MarketModel:
    return market_from_dict(cfg["market"])


def build_problem(cfg: dict) -> ProblemSpec:
    """The problem section's ``ProblemSpec`` (``w`` defaults to ``d``); a value
    that is not a finite number is an error naming its ``problem.`` key."""
    p = cfg["problem"]
    try:
        horizon = periods_in_horizon(p["T_years"], cfg["market"]["dt"])
    except ValueError as exc:
        raise ValueError(f"T_years: {exc}") from None
    values = {"d": p["d"], "lambda": p["lambda"], "x0": p["x0"], "l0": p["l0"],
              "w": p.get("w", p["d"])}
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
            raise ValueError(f"problem.{key} must be a finite number, got {value!r}")
    return ProblemSpec(
        horizon=horizon,
        target=values["d"],
        multiplier=values["w"],
        explore_weight=values["lambda"],
        x0=values["x0"],
        l0=values["l0"],
    )


def build_hyper(cfg: dict, seed: int | None = None) -> Hyperparams:
    """The training section's ``Hyperparams``; an error names the field by its
    config key (``training.N`` for n_avg)."""
    values = {f.name: cfg["training"][key] for key, f in _TRAINING}
    if seed is not None:
        values["seed"] = seed
    try:
        return Hyperparams(**values, dt=cfg["market"]["dt"])
    except ValueError as exc:
        name = re.match(r"\w*", str(exc)).group()
        if name not in _CONFIG_KEYS:
            raise
        raise ValueError(_CONFIG_KEYS[name] + str(exc)[len(name):]) from None


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def manifest(cfg: dict, command: str, extra: dict | None = None) -> dict:
    out = {"command": command, "config": cfg, "config_digest": config_digest(cfg)}
    if extra:
        out.update(extra)
    return out
