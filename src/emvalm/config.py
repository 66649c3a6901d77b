"""Run configuration: the input schema, defaults, manifests.

A run config is a JSON object with ``market``, ``problem``, ``training`` and
``evaluation`` sections.  Every default that fills a gap left open by the
model description is resolved here and echoed into the run manifest, so two
runs with identical manifests are identical runs.

``SCHEMA`` gives every config leaf its type and domain, and ``CHECKPOINT``
every checkpoint field; ``check_config`` and ``load_checkpoint`` name the
first value that breaks a rule by its dotted key.  The dataclasses keep
their own checks, for library callers.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import MISSING, fields
from numbers import Real

from .closed_form import ProblemSpec
from .data_ingest import periods_in_horizon
from .market import DYNAMICS, LEGS, RETURN_KINDS, SIGNALS, MarketModel, RegimeChain, ReturnSpec
from .rl import ALGO_FLAVORS, ActorParams, CriticParams, Hyperparams, TrainState


def _finite(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, Real) and math.isfinite(value)


def _rule(is_type, wording: str, domain: str = "", test=None, nullable: bool = False):
    """A leaf's rule: value -> None if it passes ``is_type`` and ``test`` (or is
    null and ``nullable``), else what the leaf must be: ``wording`` or ``domain``."""
    def wanted(value) -> str | None:
        if value is None and nullable:
            return None
        if not is_type(value):
            return wording
        return domain if test is not None and not test(value) else None

    return wanted


def _number(domain: str = "", test=None, nullable: bool = False):
    return _rule(_finite, "a finite number", domain, test, nullable)


def _whole(low: int | None = None):
    return _rule(lambda v: not isinstance(v, bool) and hasattr(v, "__index__"), "a whole number",
                 f">= {low}", None if low is None else lambda v: v >= low)


def _one_of(*choices, nullable: bool = False):
    wording = f"{'null or ' if nullable else ''}one of {', '.join(map(repr, choices))}"
    return _rule(lambda v: v in choices, wording, nullable=nullable)


_POSITIVE = _number("positive and finite", lambda v: v > 0.0)
_BOOL = _rule(lambda v: isinstance(v, bool), "true or false")
_RETURN_SPEC = {"kind": _one_of(*RETURN_KINDS), "annual_mean": _number(),
                "annual_vol": _number(">= 0", lambda v: v >= 0.0), "dof": _number(nullable=True),
                "skew": _number(nullable=True), "mean_is_gross": _BOOL, "vol_is_variance": _BOOL}
_OPTIONAL = {f.name for f in fields(ReturnSpec) if f.default is not MISSING}  # may be absent
SCHEMA = {
    "market": {
        **dict.fromkeys(("P11", "P12", "P21", "P22"), _number("in [0, 1]", lambda v: 0 <= v <= 1)),
        "p_hat_0": _number("in (0, 1)", lambda v: 0.0 < v < 1.0),
        "dt": _POSITIVE,
        **{leg: {f"regime{k}": _RETURN_SPEC for k in (1, 2)} for leg in LEGS},
    },
    "problem": {"T_years": _POSITIVE, "d": _number(), "lambda": _POSITIVE, "x0": _number(),
                "l0": _number(), "w": _number()},
    "training": {
        "algo": _one_of(*ALGO_FLAVORS),
        **dict.fromkeys(("eta_theta", "eta_vartheta", "eta_psi", "eta_phi", "alpha"), _POSITIVE),
        "N": _whole(1), "n_iter": _whole(0), "seed": _whole(), "m": _whole(1),
        "batch_size": _whole(1), "w0": _number(nullable=True),
        "grad_clip": _number("positive and finite", lambda v: v > 0.0, nullable=True),
        "expectation_signal": _one_of("expected_state", "state1_prob"),
    },
    "evaluation": {"n_paths": _whole(2), "dynamics": _one_of("auto", *DYNAMICS),
                   "signal": _one_of(*SIGNALS, nullable=True), "explore": _BOOL},
}
# (training key, Hyperparams field) of every field but dt, which the market sets
_TRAINING = [("N" if f.name == "n_avg" else f.name, f)
             for f in fields(Hyperparams) if f.name != "dt"]
_NUMBERS = _rule(lambda v: isinstance(v, list) and all(map(_finite, v)), "a list of finite numbers")
_GRID = _rule(lambda v: isinstance(v, list) and not any(map(_NUMBERS, v)),  # no row fails _NUMBERS
              "a list of lists of finite numbers")
# hyper and spec fields keep the rules of the config keys they are read from
CHECKPOINT = {
    "algo": _one_of(*ALGO_FLAVORS, "emv"), "w": _number(), "iteration": _whole(0),
    "critic": dict.fromkeys(CriticParams.names, _GRID),
    "actor": dict.fromkeys(ActorParams.names, _GRID),
    **dict.fromkeys(("terminals", "ws", "recent_terminals"), _NUMBERS),
    "hyper": {**{f.name: SCHEMA["training"][key] for key, f in _TRAINING},
              "dt": SCHEMA["market"]["dt"]},
    "spec": {"horizon": _whole(1), "target": _number(), "multiplier": _number(),
             "explore_weight": _POSITIVE, "x0": _number(), "l0": _number()},
}


def _check(value, schema, where: str) -> None:
    """Raise at the first leaf of ``value``, at the dotted key ``where``,
    that breaks ``schema``: a rule, or an object of schemas."""
    if callable(schema):
        wanted = schema(value)
        if wanted is not None:
            raise ValueError(f"{where} must be {wanted}, got {value!r}")
        return
    if not isinstance(value, dict):
        raise ValueError(f"{where} must be an object, got {value!r}")
    unknown = set(value) - set(schema)
    if unknown:
        raise ValueError(f"unknown keys in {where}: {sorted(unknown)}")
    for key, rule in schema.items():
        if key in value:
            _check(value[key], rule, f"{where}.{key}")
        elif key not in _OPTIONAL:
            raise ValueError(f"{where}.{key} is missing")


def default_config() -> dict:
    """The reference two-regime daily configuration."""
    skewed_t = {"kind": "skewed_t", "dof": 10, "skew": 0.1, "mean_is_gross": False}
    normal = {"kind": "normal", "mean_is_gross": False, "vol_is_variance": False}
    return {
        "market": {
            "P11": 0.9986, "P12": 0.0014, "P21": 0.0114, "P22": 0.9886, "p_hat_0": 0.3,
            "dt": 1.0 / 252.0,
            "e0": {"regime1": {"kind": "constant", "annual_mean": 1.2, "mean_is_gross": True},
                   "regime2": {"kind": "constant", "annual_mean": 1.05, "mean_is_gross": True}},
            "e1": {"regime1": {**skewed_t, "annual_mean": 0.5, "annual_vol": 0.2},
                   "regime2": {**skewed_t, "annual_mean": 0.06, "annual_vol": 0.3}},
            "q": {"regime1": {**normal, "annual_mean": 0.05, "annual_vol": 0.1},
                  "regime2": {**normal, "annual_mean": 0.01, "annual_vol": 0.2}},
        },
        "problem": {"T_years": 10.0, "d": 8.0, "lambda": 2.0, "x0": 1.0, "l0": 0.1, "w": 8.0},
        "training": {"algo": "poemv1", **{key: f.default for key, f in _TRAINING}},
        "evaluation": {"n_paths": 1000, "dynamics": "auto", "signal": None, "explore": True},
    }


def resolve_config(overrides: dict | None) -> dict:
    """Merge user overrides into the defaults and check the result: the market
    section is taken whole, any other replaces the keys it names."""
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
                cfg[section].update(values)
    check_config(cfg)
    return cfg


def check_config(cfg: dict) -> None:
    """Raise ``ValueError`` at the first leaf that breaks ``SCHEMA``, then at the
    rules over several leaves: these name their entry, or ``market`` and the regime."""
    for section, schema in SCHEMA.items():
        _check(cfg[section], schema, section)
    ev = cfg["evaluation"]
    if ev["signal"] is not None and ev["dynamics"] == "auto":
        raise ValueError(f"evaluation.signal must be null when evaluation.dynamics is 'auto', "
                         f"which picks the signal; got {ev['signal']!r}")
    build_market(cfg)
    build_problem(cfg)


def load_checkpoint(d: dict) -> TrainState:
    """The ``TrainState`` of a checkpoint's JSON object whose fields keep
    ``CHECKPOINT`` and whose grids are (m+1) x m; else a ``ValueError``."""
    _check(d, CHECKPOINT, "checkpoint")
    m = d["hyper"]["m"]
    for where, grid in ((f"{part}.{name}", grid) for part in ("critic", "actor")
                        for name, grid in d[part].items()):
        if list(map(len, grid)) != [m] * (m + 1):
            raise ValueError(f"checkpoint.{where} must be {m + 1} rows of {m}, as hyper.m = {m}")
    return TrainState.from_dict(d)


def build_market(cfg: dict) -> MarketModel:
    """The market section's model; an error of a return spec names its entry
    (``market.<leg>.regime<k>``), and one of the chain or moments ``market``."""
    m, specs, where = cfg["market"], [], "market"
    try:
        for leg in LEGS:
            for k in (1, 2):
                where = f"market.{leg}.regime{k}"
                specs.append(ReturnSpec(**m[leg][f"regime{k}"]))
        where = "market"
        chain = RegimeChain.from_probs(m["P11"], m["P12"], m["P21"], m["P22"], m["p_hat_0"])
        return MarketModel(chain, *zip(specs[::2], specs[1::2]), dt=m["dt"])  # e0, e1, q pairs
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def build_problem(cfg: dict) -> ProblemSpec:
    """The problem section's ``ProblemSpec``; a horizon that is not a whole
    number of ``market.dt`` periods is an error naming ``problem.T_years``."""
    p = cfg["problem"]
    try:
        horizon = periods_in_horizon(p["T_years"], cfg["market"]["dt"])
    except (ValueError, OverflowError) as exc:  # overflow: an infinite period count
        raise ValueError(f"problem.T_years: {exc}") from None
    return ProblemSpec(horizon=horizon, target=p["d"], multiplier=p["w"],
                       explore_weight=p["lambda"], x0=p["x0"], l0=p["l0"])


def build_hyper(cfg: dict, seed: int | None = None) -> Hyperparams:
    """The training section's ``Hyperparams``, at ``seed`` when given."""
    values = {f.name: cfg["training"][key] for key, f in _TRAINING}
    if seed is not None:
        values["seed"] = seed
    return Hyperparams(**values, dt=cfg["market"]["dt"])


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def config_digest(cfg: dict) -> str:
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def manifest(cfg: dict, command: str, extra: dict | None = None) -> dict:
    out = {"command": command, "config": cfg, "config_digest": config_digest(cfg)}
    if extra:
        out.update(extra)
    return out
