"""Layer spans and work counts, recorded from outside the library.

A :class:`Tracer` replaces each public function of every layer module of
``lvjumps`` with a wrapper that records a span (name, start, end, parent) and
the work counts visible in the call's arguments and result.  The modules
import each other's functions by name, so the wrapper is bound in place of
the original on every ``lvjumps`` module that binds it.  The coefficient
layer has no free functions on the hot path; its spans come from the
evaluation methods of the three coefficient classes.

Spans stay in memory until :meth:`Tracer.write` stores them.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans add up to the time covered by the top-level spans.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "noise",
    "model",
    "coefficients",
    "integrate",
    "closedform",
    "conditions",
    "analysis",
    "cli",
)

# The CLI module declares no __all__; its public entry point is main.
PUBLIC = {"cli": ("main",)}
COEFFICIENT_CLASSES = ("Const", "Sinusoid", "PiecewiseConst")
COEFFICIENT_METHODS = ("__call__", "value_left", "antiderivative", "square_antiderivative")
# Called once per written number: a span each would cost more than the work
# it measures, so its time stays with write_trajectory_csv.
UNTRACED = frozenset({"integrate.format_float"})


def _count_path(tracer, args, result, before):
    tracer.units["noise.sample_driving_path"] += len(result.node_times)
    tracer.counts["noise.nodes"] += len(result.node_times)
    tracer.counts["noise.jumps"] += result.jump_count


def _count_grid(tracer, args, result, before):
    tracer.units["noise.merge_grid"] += result.n_nodes


def _count_trajectory(name):
    def count(tracer, args, result, before):
        tracer.units[name] += result.grid.n_nodes - 1
        tracer.counts["integrate.diverged"] += int(result.diverged)

    return count


def _tell(args):
    return args[1].tell()


def _count_csv(tracer, args, result, before):
    traj = args[0]
    # numbers per row: the time column plus one per species
    tracer.units["integrate.write_trajectory_csv"] += traj.grid.n_slots * (traj.species_count + 1)
    tracer.counts["integrate.write_trajectory_csv.bytes"] += args[1].tell() - before


def _count_slots(tracer, args, result, before):
    tracer.units["closedform.explicit_logistic_log"] += result.grid.n_slots


def _count_report(tracer, args, result, before):
    tracer.counts["conditions.sampled_bounds"] += _sampled_bounds(result.to_payload())


def _count_validation(tracer, args, result, before):
    model = args[0]
    tracer.models.setdefault((tracer.repetition, id(model)), model)


# name -> (value taken before the call from its arguments, or None; counter)
COUNTERS = {
    "noise.sample_driving_path": (None, _count_path),
    "noise.merge_grid": (None, _count_grid),
    "integrate.simulate_system": (None, _count_trajectory("integrate.simulate_system")),
    "integrate.simulate_upper": (None, _count_trajectory("integrate.simulate_upper")),
    "integrate.simulate_lower": (None, _count_trajectory("integrate.simulate_lower")),
    "integrate.write_trajectory_csv": (_tell, _count_csv),
    "closedform.explicit_logistic_log": (None, _count_slots),
    "conditions.compute_regime_report": (None, _count_report),
    "model.validate_model": (None, _count_validation),
}


def _sampled_bounds(payload) -> int:
    """Bounds in a regime-report payload that were sampled, not exact."""
    if isinstance(payload, dict):
        own = int(payload.get("exact") is False)
        return own + sum(_sampled_bounds(v) for v in payload.values())
    if isinstance(payload, list):
        return sum(_sampled_bounds(v) for v in payload)
    return 0


class Tracer:
    """Records spans and counts while installed on the ``lvjumps`` modules."""

    def __init__(self):
        self.spans: list = []
        self.units: Counter = Counter()
        self.counts: Counter = Counter()
        self.models: dict = {}
        self.repetition = 0
        self._stack: list[int] = []
        self._patches: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, count = COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            taken = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count:
                count(self, args, result, taken)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "lvjumps" or n.startswith("lvjumps.")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"lvjumps.{layer}"]
            for attr in PUBLIC.get(layer, getattr(module, "__all__", ())):
                fn = getattr(module, attr)
                name = f"{layer}.{attr}"
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and name not in UNTRACED:
                    wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(module, attr, wrappers[id(value)][1])
        coefficients = sys.modules["lvjumps.coefficients"]
        for cls_name in COEFFICIENT_CLASSES:
            cls = getattr(coefficients, cls_name)
            for method in COEFFICIENT_METHODS:
                name = f"coefficients.{cls_name}.{method}"
                self._patch(cls, method, self._wrap(name, vars(cls)[method]))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Self seconds and call count per span name, and the top-level seconds."""
        child = [0.0] * len(self.spans)
        top = 0.0
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                top += end - start
        own: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
            calls[name] += 1
        return own, calls, top

    def metrics(self, traced_wall: float, untraced_wall: float) -> dict:
        """Every per-layer metric as name -> (value, unit)."""
        own, calls, top = self.self_times()
        units = self.units

        def per_unit(name, scale):
            return own[name] * scale / units[name] if units[name] else 0.0

        out = {}
        for layer in LAYERS:
            layer_self = sum(v for n, v in own.items() if n.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = (layer_self, "s")
            out[f"{layer}.share"] = (layer_self / traced_wall, "ratio")
        out["coefficients.calls"] = (
            sum(c for n, c in calls.items() if n.startswith("coefficients.")), "count"
        )
        for kernel in ("simulate_system", "simulate_upper", "simulate_lower"):
            name = f"integrate.{kernel}"
            out[f"{name}.ns_per_step"] = (per_unit(name, 1e9), "ns")
            out[f"{name}.calls"] = (calls[name], "count")
        out["integrate.simulate_system.self_s"] = (own["integrate.simulate_system"], "s")
        out["integrate.diverged"] = (self.counts["integrate.diverged"], "count")
        out["integrate.write_trajectory_csv.ns_per_value"] = (
            per_unit("integrate.write_trajectory_csv", 1e9), "ns"
        )
        out["integrate.write_trajectory_csv.bytes"] = (
            self.counts["integrate.write_trajectory_csv.bytes"], "count"
        )
        out["closedform.explicit_logistic_log.ns_per_slot"] = (
            per_unit("closedform.explicit_logistic_log", 1e9), "ns"
        )
        out["closedform.explicit_logistic_log.calls"] = (
            calls["closedform.explicit_logistic_log"], "count"
        )
        out["noise.sample_driving_path.ns_per_node"] = (
            per_unit("noise.sample_driving_path", 1e9), "ns"
        )
        out["noise.merge_grid.ns_per_node"] = (per_unit("noise.merge_grid", 1e9), "ns")
        derive = "noise.derive_path_seed"
        out[f"{derive}.us_per_call"] = (
            own[derive] * 1e6 / calls[derive] if calls[derive] else 0.0, "us"
        )
        out["noise.nodes"] = (self.counts["noise.nodes"], "count")
        out["noise.jumps"] = (self.counts["noise.jumps"], "count")
        report = "conditions.compute_regime_report"
        out[f"{report}.self_s"] = (own[report], "s")
        out[f"{report}.calls"] = (calls[report], "count")
        out["conditions.sampled_bounds"] = (self.counts["conditions.sampled_bounds"], "count")
        validate = "model.validate_model"
        out[f"{validate}.calls_per_model"] = (
            calls[validate] / len(self.models) if self.models else 0.0, "calls/model"
        )
        out[f"{validate}.self_s"] = (own[validate], "s")
        out["model.load_model.self_s"] = (own["model.load_model"], "s")
        for estimator in ("lyapunov_functional_mc", "coupling_contraction"):
            out[f"analysis.{estimator}.self_s"] = (own[f"analysis.{estimator}"], "s")
        out["cli.main.self_s"] = (own["cli.main"], "s")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.untraced_wall_s"] = (untraced_wall, "s")
        out["trace.unattributed_s"] = (traced_wall - top, "s")
        out["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write(self, path) -> None:
        """Store every span as [name index, start, end, parent index] in gzipped JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "names": names,
            "spans": [
                [index[n], round(s - origin, 9), round(e - origin, 9), p]
                for n, s, e, p in self.spans
            ],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
