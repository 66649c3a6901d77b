"""In-memory span tracer that wraps emvalm functions from outside the package.

Every traced name is patched wherever it is looked up: a module-level function
is replaced in each ``emvalm`` module whose globals hold it (``regime_path``
lives in ``market``, ``rl`` and ``evaluate``), a method is replaced on its
class.  ``Tracer.restore`` puts every original back, then searches the globals
of every ``emvalm`` module and the attributes of every ``emvalm`` class for a
wrapper left behind.
A span records its name, start, end and the index of its parent span; self
time is the span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Per layer, the functions whose calls become spans ("Class.method" for methods).
SPAN_TARGETS = (
    "rl.train",
    "rl._build_env",
    "rl._sample_training_episode",
    "rl._expand_critic",
    "rl._expand_actor",
    "rl._ml_gradients_arrays",
    "rl._policy_gradient_arrays",
    "rl._linear_rollout",
    "rl.policy_from_state",
    "rl.features",
    "market.stream",
    "market.regime_path",
    "market.sample_return_paths",
    "market.sample_skewed_t",
    "market.deterministic_rates",
    "evaluate.out_of_sample",
    "evaluate._affine_tables",
    "evaluate._regime_affine_tables",
    "evaluate.empirical_train",
    "evaluate.evaluate_on_market_paths",
    "evaluate.BlockSource.sample",
    "closed_form.schedule_policy",
    "closed_form.regime_policy",
    "closed_form._ScheduleTables.policy_at",
    "filtering.filter_states",
    "filtering.filtered_schedule",
    "filtering.expectation_schedule",
    "filtering.regime_schedule",
    "data_ingest.PriceSeries.from_closes",
    "data_ingest.label_regimes",
    "data_ingest.estimate_params",
    "cli.cmd_train",
    "cli.cmd_evaluate",
    "config.resolve_config",
)

SKEWED_T = "skewed_t_variates"
NORMAL = "normal_variates"


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "emvalm" or name.startswith("emvalm."))
    ]


class Tracer:
    """Collects spans and call/variate counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.calls: Counter = Counter()
        self.variates: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}  # every wrapper installed, by id

    def _span(self, name: str, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[name] += 1
            rec = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def _count_skewed_t(self, fn):
        variates = self.variates

        @functools.wraps(fn)
        def counted(mean, vol, dof, skew, rng, size=None):
            variates[SKEWED_T] += 1 if size is None else size
            return fn(mean, vol, dof, skew, rng, size=size)

        return counted

    def _count_normal(self, fn):
        """``ReturnSpec.sample`` is where normal legs are drawn; it is counted, not timed."""
        variates = self.variates

        @functools.wraps(fn)
        def counted(spec, dt, rng, size=None):
            if spec.kind == "normal":
                variates[NORMAL] += 1 if size is None else size
            return fn(spec, dt, rng, size=size)

        return counted

    def install(self) -> None:
        """Patch every target; names that no longer exist are listed in ``missing``."""
        modules = _package_modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        counters = {
            "market.sample_skewed_t": lambda fn: self._span(
                "market.sample_skewed_t", self._count_skewed_t(fn)),
            "market.ReturnSpec.sample": self._count_normal,
        }
        for target in (*SPAN_TARGETS, "market.ReturnSpec.sample"):
            make = counters.get(target) or functools.partial(self._span, target)
            try:
                self._patch(target, by_name, modules, make)
            except KeyError:
                self.missing.append(target)

    def _patch(self, target: str, by_name: dict, modules: list, make) -> None:
        modname, _, qual = target.partition(".")
        owner = by_name[modname]
        if "." in qual:  # a method: replace it on its class
            cls_name, attr = qual.split(".")
            cls = vars(owner)[cls_name]
            raw = vars(cls)[attr]
            bound = isinstance(raw, (classmethod, staticmethod))
            wrapper = make(raw.__func__ if bound else raw)
            self._set(cls, attr, type(raw)(wrapper) if bound else wrapper)
        else:
            original = vars(owner)[qual]
            wrapper = make(original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapper)
        self._wrappers[id(wrapper)] = wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> list[str]:
        """Put every original back, then search every emvalm module and class for
        a wrapper that is still reachable; return where each one was found."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        left = []
        for mod in _package_modules():
            owners = [mod] + [v for v in vars(mod).values()
                              if isinstance(v, type) and v.__module__.startswith("emvalm")]
            for owner in owners:
                for attr, value in vars(owner).items():
                    fn = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                    if id(fn) in self._wrappers:
                        where = mod.__name__ if owner is mod else f"{mod.__name__}.{owner.__qualname__}"
                        left.append(f"{where}.{attr}")
        return sorted(set(left))

    def snapshot(self) -> tuple[Counter, Counter]:
        return Counter(self.calls), Counter(self.variates)

    def _self_ns(self) -> list[int]:
        own = [end - start for _, start, end, _ in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                own[rec[3]] -= rec[2] - rec[1]
        # spans nest on one stack in one thread, so a child never outlasts its parent
        assert min(own, default=0) >= 0, "negative self time"
        return own

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self time in milliseconds."""
        stats = {t: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0} for t in SPAN_TARGETS}
        for (name, start, end, _), own in zip(self.spans, self._self_ns()):
            s = stats[name]
            s["calls"] += 1
            s["total_ms"] += (end - start) / 1e6
            s["self_ms"] += own / 1e6
        return stats

    def dump(self) -> list[list]:
        """Spans as [name, start_ns, end_ns, parent] with times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return [[n, s - t0, e - t0, p] for n, s, e, p in self.spans]
