"""Spans around calls into tsl's public functions, recorded from outside.

The library is not changed.  `Tracer.install` replaces selected functions in
every loaded ``tsl`` module namespace that binds them (``from .algebra import
generate_closure`` binds the name in the importing module too), so calls made
inside the library are caught as well.  `Tracer.uninstall` puts the originals
back.  Each span records name, start, end, parent span, workload, problem and
pass; spans stay in memory until `write` dumps them at the end of a run.

Every span's self time (its duration minus its children's) is charged to
exactly one layer metric, so the layer metrics other than ``cli.main_s`` add up
to ``cli.main_s``, the traced equivalent of ``run_s``.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module that defines it, function name, span name)
TRACED = (
    ("cli", "parse_spec", "cli.parse_spec"),
    ("cli", "compile_problem", "cli.compile_problem"),
    ("cli", "_guard_closure", "cli.guard"),
    ("algebra", "generate_closure", "algebra.generate_closure"),
    ("algebra", "classify_elements", "algebra.classify_elements"),
    ("algebra", "power_core", "algebra.power_core"),
    ("algebra", "core_orbit", "algebra.core_orbit"),
    ("algebra", "is_left_cancellative", "algebra.is_left_cancellative"),
    ("algebra", "find_subgroups", "algebra.find_subgroups"),
    ("algebra", "full_transformation_monoid", "algebra.full_transformation_monoid"),
    ("measures", "build_product_chain", "measures.build_product_chain"),
    ("measures", "limit_analysis", "measures.limit_analysis"),
    ("solver", "classify", "solver.classify"),
    ("solver", "stationary_law", "solver.stationary_law"),
    ("solver", "fourier_trichotomy", "solver.fourier_trichotomy"),
    ("montecarlo", "estimate_law", "montecarlo.estimate_law"),
    ("montecarlo", "stopping_time_stats", "montecarlo.stopping_time_stats"),
    ("montecarlo", "exact_product_law", "montecarlo.exact_product_law"),
)

# span name -> the layer metric its self time is charged to
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.guard": "cli.self_s",
    "cli.parse_spec": "cli.parse_s",
    "cli.compile_problem": "cli.compile_s",
    "algebra.classify_elements": "algebra.structure_s",
    "algebra.power_core": "algebra.structure_s",
    "algebra.core_orbit": "algebra.structure_s",
    "algebra.is_left_cancellative": "algebra.structure_s",
    "algebra.find_subgroups": "algebra.subgroups_s",
    "algebra.full_transformation_monoid": "algebra.subgroups_s",
    "measures.build_product_chain": "measures.chain_s",
    "measures.limit_analysis": "measures.limit_self_s",
    "solver.classify": "solver.classify_self_s",
    "solver.stationary_law": "solver.stationary_s",
    "solver.fourier_trichotomy": "solver.fourier_s",
    "montecarlo.estimate_law": "montecarlo.estimate_s",
    "montecarlo.stopping_time_stats": "montecarlo.stopping_s",
    "montecarlo.exact_product_law": "montecarlo.exact_law_s",
}
# generate_closure is charged by caller: under the CLI guard it is the guard.

TIME_METRICS = (
    "cli.main_s", "cli.self_s", "cli.parse_s", "cli.compile_s",
    "algebra.closure_s", "algebra.guard_s", "algebra.structure_s",
    "algebra.subgroups_s",
    "measures.chain_s", "measures.limit_self_s",
    "solver.classify_self_s", "solver.stationary_s", "solver.fourier_s",
    "montecarlo.estimate_s", "montecarlo.stopping_s", "montecarlo.exact_law_s",
)
COUNT_METRICS = (
    "algebra.closure_size", "algebra.cayley_entries", "algebra.subgroups_found",
    "measures.chain_states", "measures.transient_states",
    "measures.recurrent_classes", "measures.largest_class",
    "measures.chain_nonzeros",
    "solver.families",
    "montecarlo.trials", "montecarlo.draws", "montecarlo.absorbed",
    "trace.spans",
)

_MASK = (1 << 64) - 1
# The calls that draw random numbers, one trial stream per trial.
DRAWING = ("montecarlo.estimate_law", "montecarlo.stopping_time_stats")


class Tracer:
    """One run's spans; `pass_index`, `workload` and `problem` tag new spans."""

    def __init__(self, workload: str):
        self.workload = workload
        self.problem = None
        self.pass_index = 0
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []
        self._streams: list[tuple[object, int]] = []
        self._gamma_inverse = None

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "workload": self.workload,
            "problem": self.problem,
            "pass": self.pass_index,
            "counts": {},
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called `name`; used for ``cli.main``."""
        span = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            if name in DRAWING:
                del tracer._streams[:]
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._count(span, result)
            return result

        return traced

    def _wrap_stream(self, fn):
        tracer = self

        def traced_stream(seed, trial):
            rng = fn(seed, trial)
            tracer._streams.append((rng, rng.state))
            return rng

        return traced_stream

    def _count(self, span: dict, result) -> None:
        counts = span["counts"]
        name = span["name"]
        if name == "algebra.generate_closure":
            counts["algebra.closure_size"] = result.size
            counts["algebra.cayley_entries"] = result.size * result.size
        elif name == "algebra.find_subgroups":
            counts["algebra.subgroups_found"] = len(result)
        elif name == "measures.build_product_chain":
            classes = result.recurrent_classes
            counts["measures.chain_states"] = len(result.states)
            counts["measures.transient_states"] = len(result.transient_ids)
            counts["measures.recurrent_classes"] = len(classes)
            counts["measures.largest_class"] = max(
                (len(c.member_ids) for c in classes), default=0
            )
            counts["measures.chain_nonzeros"] = sum(
                1 for row in result.transitions for w in row if w != 0
            )
        elif name == "solver.classify":
            counts["solver.families"] = len(result.extremals)
        elif name in DRAWING:
            # SplitMix64 advances its state by GAMMA per draw, so the state
            # difference of each trial stream counts that stream's draws.
            counts["montecarlo.draws"] = sum(
                ((rng.state - start) * self._gamma_inverse) & _MASK
                for rng, start in self._streams
            )
            del self._streams[:]
            if name == "montecarlo.stopping_time_stats":
                counts["montecarlo.trials"] = result.trials
                counts["montecarlo.absorbed"] = result.absorbed

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Patch every tsl namespace that binds a traced function."""
        modules = [
            m for n, m in sorted(sys.modules.items())
            if (n == "tsl" or n.startswith("tsl.")) and m is not None
        ]
        for home, attr, name in TRACED:
            original = getattr(sys.modules.get(f"tsl.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)
        montecarlo = sys.modules.get("tsl.montecarlo")
        stream = getattr(montecarlo, "trial_stream", None)
        gamma = getattr(montecarlo, "GAMMA", None)
        if stream is not None and gamma is not None:
            self._gamma_inverse = pow(gamma, -1, 1 << 64)
            self._patched.append((montecarlo, "trial_stream", stream))
            montecarlo.trial_stream = self._wrap_stream(stream)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        del self._patched[:]

    # -- results ---------------------------------------------------------

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh)
            fh.write("\n")


def pass_metrics(spans: list[dict], pass_index: int) -> dict[str, float]:
    """Layer self times and counts of one traced pass."""
    spans = [s for s in spans if s["pass"] == pass_index]
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = (
                child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
            )
    out = {m: 0.0 for m in TIME_METRICS}
    out.update({m: 0 for m in COUNT_METRICS})
    for s in spans:
        duration = s["end"] - s["start"]
        own = duration - child_time.get(s["id"], 0.0)
        name = s["name"]
        if name == "cli.main":
            out["cli.main_s"] += duration
        if name == "algebra.generate_closure":
            parent = by_id.get(s["parent"])
            under_guard = parent is not None and parent["name"] == "cli.guard"
            out["algebra.guard_s" if under_guard else "algebra.closure_s"] += own
        else:
            out[SELF_METRIC[name]] += own
        for key, value in s["counts"].items():
            if key == "measures.largest_class":
                out[key] = max(out[key], value)
            else:
                out[key] += value
    out["trace.spans"] = len(spans)
    return out


UNITS = {
    **{m: "s" for m in TIME_METRICS},
    **{m: "count" for m in COUNT_METRICS if m != "montecarlo.absorbed"},
    "montecarlo.draws_per_s": "1/s",
    "montecarlo.absorbed_ratio": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, passes: int, untraced_run_s: float) -> dict:
    """(value, unit) per layer metric: medians over the traced passes for
    times, the first pass for counts (they repeat exactly), and the tracing
    overhead as the traced ``cli.main_s`` minus the untraced pass time."""
    per_pass = [pass_metrics(tracer.spans, i) for i in range(passes)]
    out = {m: statistics.median(p[m] for p in per_pass) for m in TIME_METRICS}
    out.update({m: per_pass[0][m] for m in COUNT_METRICS})
    sim_s = statistics.median(
        sum(
            s["end"] - s["start"]
            for s in tracer.spans
            if s["pass"] == i and s["name"] in DRAWING
        )
        for i in range(passes)
    )
    out["montecarlo.draws_per_s"] = out["montecarlo.draws"] / sim_s if sim_s else 0.0
    absorbed = out.pop("montecarlo.absorbed")
    trials = out["montecarlo.trials"]
    out["montecarlo.absorbed_ratio"] = absorbed / trials if trials else 0.0
    out["trace.overhead_s"] = out["cli.main_s"] - untraced_run_s
    return {m: (out[m], UNITS[m]) for m in UNITS}
