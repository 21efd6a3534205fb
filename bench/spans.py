"""Spans around the layer boundaries of ``mdimlab``, recorded from outside.

``Tracer.install`` replaces each traced public function in every module
namespace where callers look it up (``from .graph import build_graph``
binds a second name), and ``uninstall`` puts the originals back, so nothing
under ``src/`` changes.  Spans carry name, start, end, parent, the item
they belong to and the phase (``setup`` or ``item``); they stay in memory
until the run ends.  Times are CPU times, as in the workloads, and are not
corrected for host speed.  Only layer entry points are wrapped: per-element
primitives such as ``vertex_edge_distance`` run inside inner loops, where
a wrapper would cost more than the work it measures.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

FAMILY_FUNCTIONS = ("generate", "path_graph", "cycle_graph", "star_graph", "complete_graph",
                    "gn_graph", "random_tree", "random_cactus", "enumerate_small_trees")
PARSE_FUNCTIONS = ("parse_graph", "parse_graph6", "parse_edge_list", "read_graphs")
PARSE = "formats.parse"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _universe(g, kind):
    return {"dim": g.n, "edim": g.m}.get(kind, g.n + g.m)


def _first(args, kwargs):
    return args[0] if args else next(iter(kwargs.values()))


# (module, attribute, span name, counters(args, kwargs, result) -> dict);
# result is None when the call raised, and counters that need it give {}
TARGETS = [
    ("graph", "build_graph", "graph.build_graph",
     lambda a, k, r: {"distance_entries": _arg(a, k, 0, "n") ** 2}),
    *[("transforms", f, f"transforms.{f}",
       lambda a, k, r: {"derived_elements": r.graph.n + r.graph.m} if r else {})
      for f in ("subdivision", "middle", "total")],
    ("transforms", "check_distance_identities", "transforms.check_distance_identities", None),
    ("solvers", "solve_dimension", "solvers.solve_dimension",
     lambda a, k, r: {"universe_elements": _universe(_arg(a, k, 0, "g"), _arg(a, k, 1, "kind"))}),
    ("solvers", "phi_of_graph", "solvers.phi_of_graph",
     lambda a, k, r: {"phi_bases": r.bases_enumerated} if r else {}),
    ("solvers", "is_mixed_resolving", "solvers.is_mixed_resolving", None),
    ("structural", "cactus_decompose", "structural.cactus_decompose", None),
    ("harness", "run_checks", "harness.run_checks", None),
    ("harness", "Report.to_json", "harness.report.to_json", lambda a, k, r: {"report_bytes": len(r or "")}),
    ("harness", "Report.to_csv", "harness.report.to_csv", lambda a, k, r: {"report_bytes": len(r or "")}),
    *[("formats", f, PARSE, lambda a, k, r: {"input_bytes": len(_first(a, k))})
      for f in PARSE_FUNCTIONS],
    *[("families", f, "families.generate", None) for f in FAMILY_FUNCTIONS],
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    item: int | None
    phase: str
    start: float
    end: float = 0.0
    counters: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0


class Tracer:
    """Records spans while ``phase`` is set; ``item`` tags the current item."""

    def __init__(self):
        self.spans: list[Span] = []
        self.phase: str | None = None
        self.item: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    @property
    def enabled(self) -> bool:
        return bool(self._patches)

    def install(self) -> None:
        for module_name, _, _, _ in TARGETS:
            importlib.import_module(f"mdimlab.{module_name}")
        modules = [m for name, m in sys.modules.items()
                   if name == "mdimlab" or name.startswith("mdimlab.")]
        for module_name, attr, span_name, counters in TARGETS:
            module = sys.modules[f"mdimlab.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, method, self._wrap(getattr(cls, method), span_name, counters))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name, counters)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    @contextmanager
    def aside(self):
        """Mark the benchmark's own work inside a traced call, so that it
        counts as a child span and not as the caller's self time."""
        span = self._open("bench.aside")
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> Span | None:
        if self.phase is None:
            return None
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.item, self.phase, time.process_time())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span | None) -> None:
        if span is not None:
            span.end = time.process_time()
            self._stack.pop()

    def _wrap(self, fn, span_name, counters):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time each resumption: the consumer's work between steps is not ours
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    span = tracer._open(span_name)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    yield value

            return gen_wrapper

        def wrapper(*args, **kwargs):
            span = tracer._open(span_name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(span)
                if span is not None:
                    if span_name == "solvers.solve_dimension":
                        span.name = f"{span_name}.{_arg(args, kwargs, 1, 'kind')}"
                    if counters is not None:
                        span.counters = counters(args, kwargs, result)

        return wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover, in ms."""
    own = {s.id: s.ms for s in spans}
    for s in spans:
        if s.parent is not None and s.parent in own:
            own[s.parent] -= s.ms
    return own


LAYER_METRICS = [
    # (metric, unit, span name, phase, quantity): quantity is "calls", "ms"
    # (self time) or the name of a counter summed over the spans
    ("graph.build_graph.calls", "count", "graph.build_graph", "item", "calls"),
    ("graph.build_graph.ms", "ms", "graph.build_graph", "item", "ms"),
    ("graph.distance_entries", "count", "graph.build_graph", "item", "distance_entries"),
    ("setup.graph.build_graph.ms", "ms", "graph.build_graph", "setup", "ms"),
    ("transforms.subdivision.ms", "ms", "transforms.subdivision", "item", "ms"),
    ("transforms.middle.ms", "ms", "transforms.middle", "item", "ms"),
    ("transforms.total.ms", "ms", "transforms.total", "item", "ms"),
    ("transforms.derived_elements", "count", "transforms.*", "item", "derived_elements"),
    ("transforms.check_distance_identities.ms", "ms", "transforms.check_distance_identities", "item", "ms"),
    ("solvers.solve_dimension.calls", "count", "solvers.solve_dimension.*", "item", "calls"),
    ("solvers.solve_dimension.dim.ms", "ms", "solvers.solve_dimension.dim", "item", "ms"),
    ("solvers.solve_dimension.edim.ms", "ms", "solvers.solve_dimension.edim", "item", "ms"),
    ("solvers.solve_dimension.mdim.ms", "ms", "solvers.solve_dimension.mdim", "item", "ms"),
    ("solvers.universe_elements", "count", "solvers.solve_dimension.*", "item", "universe_elements"),
    ("solvers.phi_of_graph.ms", "ms", "solvers.phi_of_graph", "item", "ms"),
    ("solvers.phi_bases", "count", "solvers.phi_of_graph", "item", "phi_bases"),
    ("solvers.is_mixed_resolving.ms", "ms", "solvers.is_mixed_resolving", "item", "ms"),
    ("structural.cactus_decompose.ms", "ms", "structural.cactus_decompose", "item", "ms"),
    ("harness.run_checks.self_ms", "ms", "harness.run_checks", "item", "ms"),
    ("harness.report.to_json.ms", "ms", "harness.report.to_json", "item", "ms"),
    ("harness.report.to_csv.ms", "ms", "harness.report.to_csv", "item", "ms"),
    ("harness.report_bytes", "bytes", "harness.report.*", "item", "report_bytes"),
    ("formats.parse.ms", "ms", PARSE, "item", "ms"),
    ("formats.input_bytes", "bytes", PARSE, "item", "input_bytes"),
    ("families.generate.ms", "ms", "families.generate", "setup", "ms"),
]


def _matches(pattern: str, name: str) -> bool:
    return name == pattern or (pattern.endswith(".*") and name.startswith(pattern[:-1]))


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer totals; item-phase figures are divided by the traced rounds.

    Input bytes count only the outermost parse call, since ``parse_graph``
    hands its input on to ``parse_graph6`` or ``parse_edge_list``.
    """
    own = self_times(spans)
    by_id = {s.id: s for s in spans}
    out = {}
    for metric, unit, pattern, phase, quantity in LAYER_METRICS:
        total = 0.0
        for s in spans:
            if s.phase != phase or not _matches(pattern, s.name):
                continue
            if quantity == "calls":
                total += 1
            elif quantity == "ms":
                total += own[s.id]
            elif quantity == "input_bytes":
                parent = by_id.get(s.parent)
                if parent is None or parent.name != PARSE:
                    total += s.counters.get(quantity, 0)
            else:
                total += s.counters.get(quantity, 0)
        out[metric] = (total / rounds if phase == "item" else total, unit)
    return out
