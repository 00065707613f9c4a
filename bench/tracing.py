"""Outside-in spans per whydb module, for the traced run.

The tracer replaces the module-level names through which whydb's layers
call one another with wrappers that record a span per call: layer, start,
end, parent span and, for the repair layer, the number of repairs returned.
whydb's own code is not changed; `uninstall` puts the original names back.
A layer's self time is its span's duration minus that of its child spans.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass

# (module, name, layer). Names are wrapped where they are looked up, so a
# function imported into two modules is wrapped in both.
TARGETS = (
    ("whydb.cli", "load_instance", "core.load"),
    ("whydb.cli", "parse_query", "query.parse"),
    ("whydb.cli", "parse_constraints", "query.parse"),
    ("whydb.cli", "eval_bcq", "query.eval"),
    ("whydb.cli", "answers", "query.eval"),
    ("whydb.cli", "actual_causes", "causality.assemble"),
    ("whydb.cli", "causes_under_ics", "causality.assemble"),
    ("whydb.cli", "contingency_sets", "causality.assemble"),
    ("whydb.cli", "responsibility", "causality.assemble"),
    ("whydb.cli", "counterfactual_causes", "causality.assemble"),
    ("whydb.cli", "most_responsible_causes", "causality.assemble"),
    ("whydb.cli", "emit_causality_program", "asp.emit"),
    ("whydb.cli", "emit_repair_program", "asp.emit"),
    ("whydb.cli", "s_repairs", "repair.search"),
    ("whydb.cli", "c_repairs", "repair.search"),
    ("whydb.causality", "s_repairs", "repair.search"),
    ("whydb.causality", "c_repairs", "repair.search"),
    ("whydb.causality", "eval_bcq", "query.eval"),
    ("whydb.repair", "violations", "query.ground"),
    ("whydb.repair", "s_repairs", "repair.search"),
)
ROOT_LAYER = "cli.render"
TIME_LAYERS = (
    "core.load", "query.parse", "query.ground", "query.eval", "repair.search",
    "causality.assemble", "cli.render", "asp.emit",
)


@dataclass
class Span:
    op: int
    layer: str
    name: str
    parent: int | None
    start_ns: int
    end_ns: int = 0
    returned: int | None = None


class Tracer:
    """Collects spans in memory while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op = 0

    def _wrap(self, fn, layer: str):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(Span(self.op, layer, fn.__name__, stack[-1] if stack else None,
                              time.perf_counter_ns()))
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index].end_ns = time.perf_counter_ns()
            if layer == "repair.search":
                spans[index].returned = len(result)
            return result

        return traced

    def install(self) -> None:
        for module_name, name, layer in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, name)
            self._saved.append((module, name, original))
            setattr(module, name, self._wrap(original, layer))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def run(self, op: int, main, argv) -> int:
        """Call the CLI's main under a root span of the cli layer."""
        self.op = op
        return self._wrap(main, ROOT_LAYER)(argv)


def layer_totals(spans: list[Span]) -> dict:
    """Self time per layer (ns), S-repairs enumerated and repairs kept.

    Enumerated counts every s_repairs result; kept counts the results of
    repair-layer calls made from outside the repair layer. A call that
    raised returned nothing and counts for neither.
    """
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    totals = {layer: 0 for layer in TIME_LAYERS}
    enumerated = kept = 0
    for i, span in enumerate(spans):
        totals[span.layer] += span.end_ns - span.start_ns - child_ns[i]
        if span.layer == "repair.search" and span.returned is not None:
            if span.name == "s_repairs":
                enumerated += span.returned
            if span.parent is None or spans[span.parent].layer != "repair.search":
                kept += span.returned
    return {"self_ns": totals, "enumerated": enumerated, "kept": kept}
