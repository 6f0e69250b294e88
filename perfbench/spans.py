"""In-memory spans for the traced run.

A span is ``[name, layer, start, end, parent, scale]``; ``parent`` is the
index of the enclosing span (-1 at top level).  Spans come from two
sources:

* :class:`StageSpans`, a pipeline observer opening one span per stage;
* :meth:`Tracer.patched`, which swaps wrappers in for public functions
  as they are bound in their caller modules (so the caller's own global
  lookup reaches the wrapper) and restores the originals afterwards.

A span's self time is its duration minus the durations of its direct
children.  Durations are multiplied by the span's ``scale`` (set by
:meth:`Tracer.scale`), which converts them to nominal seconds.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

from repro.api import PipelineObserver

#: Module layer of each pipeline stage, per flow family.
STAGE_LAYERS = {
    "bds": {
        "load-input": "network", "build-bdds": "network", "reorder": "bdd",
        "decompose": "core", "rewrite": "core", "map": "mapping", "verify": "verify",
    },
    "abc": {
        "load-input": "network", "strash": "aig", "rewrite": "aig", "emit": "aig",
        "map": "mapping", "verify": "verify",
    },
    "dc": {
        "load-input": "network", "collapse": "network", "rewrite": "sop",
        "map": "mapping", "verify": "verify",
    },
}

#: Engine functions wrapped in the traced run: (caller module, attribute,
#: span name, layer).  The span name is the metric name without ``_s``.
ENGINE_TARGETS = (
    ("repro.core.engine", "find_simple_decompositions", "core.simple_scan", "core"),
    ("repro.core.engine", "decompose_majority", "core.maj_search", "core"),
    ("repro.core.majority", "find_m_dominators", "core.alpha", "core"),
    ("repro.core.majority", "construct", "core.beta", "core"),
    ("repro.core.majority", "optimize", "core.gamma", "core"),
    ("repro.core.majority", "xor_split", "bdd.xor_split", "bdd"),
)


def flow_family(flow: str) -> str:
    return "bds" if flow.startswith("bds") else flow


class Tracer:
    """Spans of one traced run, kept in memory in start order."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def begin(self, name: str, layer: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, time.perf_counter(), 0.0, parent, 1.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` and any span still open inside it (a
        stage that raised never reaches ``on_stage_end``)."""
        now = time.perf_counter()
        while self._stack:
            top = self._stack.pop()
            self.spans[top][3] = now
            if top == index:
                return

    def scale(self, first: int, factor: float) -> None:
        """Set the scale of every span from index ``first`` on."""
        for span in self.spans[first:]:
            span[5] = factor

    def _wrap(self, function, name: str, layer: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.begin(name, layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    @contextlib.contextmanager
    def patched(self, targets=ENGINE_TARGETS):
        originals = []
        try:
            for module_name, attribute, name, layer in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attribute)
                originals.append((module, attribute, original))
                setattr(module, attribute, self._wrap(original, name, layer))
            yield
        finally:
            for module, attribute, original in reversed(originals):
                setattr(module, attribute, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Self seconds and call count per span name, self seconds per layer."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent, scale in self.spans:
            if parent >= 0:
                child_time[parent] += (end - start) * scale
        by_name: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        by_layer: dict[str, float] = defaultdict(float)
        for (name, layer, start, end, _, scale), children in zip(self.spans, child_time):
            own = (end - start) * scale - children
            by_name[name] += own
            calls[name] += 1
            by_layer[layer] += own
        return by_name, calls, by_layer

    def uncovered_frac(self, outer_layer: str) -> float:
        """Share of the ``outer_layer`` spans (the benchmark's own job
        spans) that no layer span directly inside them covers."""
        outer = covered = 0.0
        for _, layer, start, end, parent, _ in self.spans:
            if layer == outer_layer:
                outer += end - start
            elif parent >= 0 and self.spans[parent][1] == outer_layer:
                covered += end - start
        return 1 - covered / outer if outer else 0.0


class StageSpans(PipelineObserver):
    """Pipeline observer recording one span per stage."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._open: list[int] = []

    def on_stage_start(self, ctx, stage) -> None:
        layer = STAGE_LAYERS[flow_family(ctx.flow)].get(stage.name, "other")
        self._open.append(self.tracer.begin(f"{ctx.flow}.{stage.name}", layer))

    def on_stage_end(self, ctx, stage, seconds) -> None:
        self.tracer.end(self._open.pop())
