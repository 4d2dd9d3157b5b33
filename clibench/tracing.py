"""Layer spans for the traced pass, recorded from the benchmark's own files.

Each layer's public functions are wrapped in place, in every ``cone_audit``
module that bound them by name, for the length of a traced pass; nothing in
``src/`` is edited.  Spans are kept in memory and written out at the end.
A layer's self time is its spans' time minus the time of their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> "module:qualified name" of its public entry points
LAYERS = {
    "dd": ("cone_audit.dd:double_description",),
    "linalg": ("cone_audit.linalg:rref", "cone_audit.linalg:solve_linear",
               "cone_audit.linalg:row_space_basis"),
    "lp": ("cone_audit.lp:solve_lp",),
    "geometry": ("cone_audit.geometry:Polyhedron.tangent_cone",
                 "cone_audit.geometry:Polyhedron.second_order_tangent_set",
                 "cone_audit.geometry:Polyhedron.normal_cone"),
    "checks": ("cone_audit.optimality:first_order_check", "cone_audit.optimality:check_c1",
               "cone_audit.optimality:classical_second_order_check"),
    "copositivity": ("cone_audit.optimality:check_c2_copositivity",),
    "ssd": ("cone_audit.ssd:ssd_membership", "cone_audit.ssd:estimate_calmness",
            "cone_audit.ssd:theorem41_check"),
    "problem": ("cone_audit.problem:parse_problem",),
    "analysis": ("cone_audit.analysis:run_analysis", "cone_audit.analysis:revalidate_report"),
    "cli": ("cone_audit.cli:main",),
}

# the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = (
    ("dd.calls", "count"), ("dd.self_s", "s"), ("dd.generators", "count"),
    ("linalg.calls", "count"), ("linalg.self_s", "s"),
    ("lp.calls", "count"), ("lp.self_s", "s"), ("lp.calls_per_command", "count"),
    ("geometry.second_order_sets", "count"), ("geometry.self_s", "s"),
    ("checks.calls", "count"), ("checks.self_s", "s"),
    ("copositivity.calls", "count"), ("copositivity.self_s", "s"),
    ("copositivity.cells_certified", "count"), ("copositivity.max_depth", "count"),
    ("copositivity.falsifier_runs", "count"),
    ("ssd.calls", "count"), ("ssd.self_s", "s"),
    ("problem.self_s", "s"),
    ("analysis.self_s", "s"), ("analysis.verify_self_s", "s"),
    ("cli.self_s", "s"),
    ("tracing.overhead_pct", "%"),
)


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "command", "child_time")

    def __init__(self, layer, name, start, parent, command):
        self.layer, self.name, self.start = layer, name, start
        self.parent, self.command = parent, command
        self.end = start
        self.child_time = 0.0


class Tracer:
    """Wraps the layers' functions while installed and records their spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.command = -1   # id of the command running, set by the caller
        self.counts = {"dd.generators": 0, "copositivity.cells_certified": 0,
                       "copositivity.max_depth": 0, "copositivity.falsifier_runs": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, qualname = target.split(":")
                owner = sys.modules[module_name]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, qualname, original)
                holders = [owner] if path else [
                    m for n, m in sys.modules.items()
                    if (n == "cone_audit" or n.startswith("cone_audit."))
                    and getattr(m, attr, None) is original
                ]
                for holder in holders:
                    self._patches.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def _wrap(self, layer: str, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(layer, name, time.perf_counter(), parent, tracer.command)
            tracer.stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                tracer.spans.append(span)
            tracer._count(name, result)
            return result

        return wrapper

    def _count(self, name: str, result) -> None:
        if name == "double_description":
            self.counts["dd.generators"] += len(result.rays) + len(result.lineality)
        elif name == "check_c2_copositivity":
            self.counts["copositivity.cells_certified"] += result.cells_certified
            self.counts["copositivity.max_depth"] = max(
                self.counts["copositivity.max_depth"], result.depth_reached)
            # the falsifier runs exactly when the partition ends inconclusive
            if result.method == "sphere-sampling" or result.status.value == "inconclusive":
                self.counts["copositivity.falsifier_runs"] += 1

    # -- results ----------------------------------------------------------

    def layer_metrics(self, factors: dict[int, float], passes: int, commands: int) -> dict:
        """Per-pass layer metrics; self times are drift-corrected by the
        factor of the command each span ran in."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        second_order_sets = 0
        verify_self = 0.0
        for span in self.spans:
            calls[span.layer] = calls.get(span.layer, 0) + 1
            own = (span.end - span.start - span.child_time) * factors[span.command]
            self_s[span.layer] = self_s.get(span.layer, 0.0) + own
            if span.name == "revalidate_report":
                verify_self += own
            elif span.name == "Polyhedron.second_order_tangent_set":
                second_order_sets += 1
        out = {f"{layer}.calls": calls.get(layer, 0) / passes
               for layer in ("dd", "linalg", "lp", "checks", "copositivity", "ssd")}
        out.update({f"{layer}.self_s": self_s.get(layer, 0.0) / passes for layer in LAYERS})
        out["analysis.self_s"] -= verify_self / passes
        out["analysis.verify_self_s"] = verify_self / passes
        out["lp.calls_per_command"] = calls.get("lp", 0) / commands
        out["geometry.second_order_sets"] = second_order_sets / passes
        for key, value in self.counts.items():
            out[key] = value if key.endswith("max_depth") else value / passes
        return out

    def write(self, path: str) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.layer, s.name, s.command, round(s.start, 7),
                                         round(s.end, 7), index.get(id(s.parent))]) + "\n")
