"""Tracing of xrlayout from outside the package.

The tracer wraps the package's public entry points at every module binding
(``agent`` imports ``place_body_fixed`` by name, so ``agent.place_body_fixed``
is patched along with ``placement.place_body_fixed``) and counts ``Vec3`` and
``Rotation`` constructions by wrapping their constructors.  Spans are kept in
memory as (name, start_ns, end_ns, parent index, op id) and written out once,
by the caller, when the run ends.  No file under ``src/`` is touched.

Self time of a span is its duration minus the time its child spans cover;
children run on the caller's thread inside their parent, so that is the sum
of their durations.  Busy time of a function counts only its outermost spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter_ns

# (module, attribute path, span name).  Span names follow the per-layer
# metric names: <module>.<function> or <module>.<Class>.<method>.
SPAN_TARGETS = (
    ("scenario", "parse_scenario", "scenario.parse_scenario"),
    ("scenario", "Scenario.state_at", "scenario.state_at"),
    ("designspace", "validate_object", "designspace.validate_object"),
    ("placement", "place_body_fixed", "placement.place_body_fixed"),
    ("placement", "place_environment_referenced", "placement.place_environment_referenced"),
    ("placement", "EnvironmentReferencedPlacer.place", "placement.EnvironmentReferencedPlacer.place"),
    ("placement", "emit_layouts", "placement.emit_layouts"),
    ("frames", "resolve_world_pose", "frames.resolve_world_pose"),
    ("agent", "simulate_session", "agent.simulate_session"),
    ("agent", "search_and_open", "agent.search_and_open"),
    ("agent", "focus_target", "agent.focus_target"),
    ("agent", "SessionTrace.tick_samples", "agent.SessionTrace.tick_samples"),
    ("metrics", "session_metrics", "metrics.session_metrics"),
    ("metrics", "aggregate", "metrics.aggregate"),
    ("metrics", "results_to_json", "metrics.results_to_json"),
    ("cli", "main", "cli.main"),
)

COUNTED_CLASSES = (
    ("geometry", "Vec3", "geometry.Vec3.constructed"),
    ("geometry", "Rotation", "geometry.Rotation.constructed"),
)


class Tracer:
    """Patches xrlayout on install(), restores it on uninstall()."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.state_keys: set = set()
        self.op = None  # id of the session / frame / CLI run in progress
        self._stack: list[int] = []
        self._undo: list = []

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        for module, path, name in SPAN_TARGETS:
            owner_name, _, attr = path.rpartition(".")
            mod = importlib.import_module(f"xrlayout.{module}")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                self._set(owner, attr, self._wrap(name, original))
            else:
                original = getattr(mod, attr)
                wrapper = self._wrap(name, original)
                for bound_mod in _xrlayout_modules():
                    for key, value in list(vars(bound_mod).items()):
                        if value is original:
                            self._set(bound_mod, key, wrapper)
        for module, cls_name, key in COUNTED_CLASSES:
            cls = getattr(importlib.import_module(f"xrlayout.{module}"), cls_name)
            self._set(cls, "__init__", self._counting_init(cls.__init__, key))

    def uninstall(self) -> None:
        for owner, attr, had, old in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _set(self, owner, attr, value) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, had, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def _counting_init(self, init, key):
        counts = self.counts

        @functools.wraps(init)
        def __init__(obj, *args, **kwargs):
            counts[key] += 1
            init(obj, *args, **kwargs)

        return __init__

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = _HOOKS.get(name, (None, None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(tracer, args, kwargs) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.op)
            if after:
                after(tracer, args, kwargs, result, token)
            return result

        return wrapper

    # -- results --------------------------------------------------------

    def report(self) -> dict:
        """Per-layer numbers: calls, busy_s, self_s per layer, counters."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        calls: Counter = Counter()
        busy_ns: Counter = Counter()
        self_ns: Counter = Counter()
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            calls[name] += 1
            self_ns[name.split(".", 1)[0]] += (t1 - t0) - child_ns[i]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy_ns[name] += t1 - t0
        out: dict = dict(self.counts)
        for name, n in calls.items():
            out[f"{name}.calls"] = n
            out[f"{name}.busy_s"] = busy_ns[name] / 1e9
        for layer, ns in self_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        n_state = calls["scenario.state_at"]
        out["scenario.state_at.distinct_ratio"] = (
            len(self.state_keys) / n_state if n_state else 0.0
        )
        return out

    def span_records(self) -> list[dict]:
        origin = self.spans[0][1] if self.spans else 0
        return [
            {
                "name": name,
                "start_ns": t0 - origin,
                "end_ns": t1 - origin,
                "parent": parent,
                "op": op,
            }
            for name, t0, t1, parent, op in self.spans
        ]


def write_spans(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _xrlayout_modules():
    return [
        mod
        for key, mod in list(sys.modules.items())
        if mod is not None and (key == "xrlayout" or key.startswith("xrlayout."))
    ]


# -- per-target hooks: counters measured where the work happens -------------


def _state_at_before(tracer, args, kwargs):
    scenario = args[0]
    t = args[1] if len(args) > 1 else kwargs["t"]
    tracer.state_keys.add((scenario.name, t))


def _place_before(tracer, args, kwargs):
    return len(args[0].warnings)


def _place_after(tracer, args, kwargs, result, n_before):
    tracer.counts["placement.warnings"] += len(args[0].warnings) - n_before


def _simulate_after(tracer, args, kwargs, trace, _):
    tracer.counts["agent.segments"] += len(trace.segments)


def _tick_after(tracer, args, kwargs, samples, _):
    tracer.counts["agent.SessionTrace.tick_samples.samples"] += len(samples)


def _json_after(tracer, args, kwargs, text, _):
    tracer.counts["metrics.json_bytes"] += len(text.encode("utf-8"))


_HOOKS = {
    "scenario.state_at": (_state_at_before, None),
    "placement.EnvironmentReferencedPlacer.place": (_place_before, _place_after),
    "agent.simulate_session": (None, _simulate_after),
    "agent.SessionTrace.tick_samples": (None, _tick_after),
    "metrics.results_to_json": (None, _json_after),
}
