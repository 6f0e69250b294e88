"""The state threaded through a synthesis pipeline.

A :class:`SynthesisContext` is created by :meth:`Pipeline.run` and
handed to every stage in turn.  Well-known fields (``network``,
``optimized``, ``mapped``, ``node_counts``, ``cache_stats``, ...) carry
the data the final :class:`~repro.flows.FlowResult` is assembled from;
``scratch`` holds stage-private intermediates (partitions, factoring
trees, AIGs) that downstream stages of the same flow consume; and
``timings`` / ``events`` record what actually ran, per stage, for
observability (the batch service and the future async server stream
progress from them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..flows.common import FlowResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from ..mapping import MappedCircuit, TimingReport
    from ..mapping.library import CellLibrary
    from ..network import EquivalenceResult, LogicNetwork
    from .inputs import InputItem


class PipelineError(RuntimeError):
    """Raised when a pipeline is driven inconsistently (no input bound,
    result requested before the producing stage ran, unknown stage...)."""


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock seconds one stage took (nondeterministic; never part
    of the serialized deterministic reports)."""

    stage: str
    seconds: float


@dataclass(frozen=True)
class StageEvent:
    """One entry of the context's event log.

    ``kind`` is ``"stage_start"`` or ``"stage_end"``; ``seconds`` is
    filled on end events only.
    """

    kind: str
    stage: str
    seconds: float | None = None

    def to_payload(self) -> dict[str, str | float]:
        """Wire-ready dict (what the serving layer streams); ``seconds``
        is included only on end events."""
        payload: dict[str, str | float] = {"kind": self.kind, "stage": self.stage}
        if self.seconds is not None:
            payload["seconds"] = self.seconds
        return payload


@dataclass
class SynthesisContext:
    """Everything a pipeline run accumulates.

    Stages read the fields earlier stages populated and fill in their
    own; :meth:`to_result` converts a completed context into a
    :class:`~repro.flows.FlowResult`.
    """

    #: Pipeline (flow) name, e.g. ``"bds-maj"``.
    flow: str
    #: Pending input descriptor; ``load-input`` turns it into ``network``.
    item: "InputItem | None" = None
    #: The source network being synthesized.
    network: "LogicNetwork | None" = None
    #: Flow-specific configuration object (``BdsFlowConfig``...).
    config: Any = None
    #: Equivalence-check the output against the source (``verify`` stage).
    verify: bool = True
    #: Cell library for the ``map`` stage (None = default 22 nm library).
    library: "CellLibrary | None" = None

    # -- produced by the optimization stages ---------------------------
    optimized: "LogicNetwork | None" = None
    node_counts: dict[str, int] = field(default_factory=dict)
    cache_stats: dict[str, int | float] = field(default_factory=dict)

    # -- produced by the map / verify stages ---------------------------
    mapped: "MappedCircuit | None" = None
    timing_report: "TimingReport | None" = None
    equivalence: "EquivalenceResult | None" = None

    # -- observability --------------------------------------------------
    #: Per-stage wall-clock timings, in execution order.
    timings: list[StageTiming] = field(default_factory=list)
    #: Stage start/end event log (what observers saw, kept on the ctx).
    events: list[StageEvent] = field(default_factory=list)
    #: Summed wall-clock of the stages flagged ``optimize_timed`` — the
    #: quantity the paper's Table I reports as optimization runtime.
    optimize_seconds: float = 0.0

    #: Stage-private intermediates (partitions, builders, AIGs...).
    scratch: dict[str, Any] = field(default_factory=dict)

    def require(self, attribute: str) -> Any:
        """Fetch a well-known field, raising a stage-friendly error when
        the producing stage has not run."""
        value = getattr(self, attribute)
        if value is None:
            raise PipelineError(
                f"pipeline {self.flow!r} needs {attribute!r} but no earlier "
                "stage produced it"
            )
        return value

    def to_result(self) -> FlowResult:
        """Assemble the flow's :class:`~repro.flows.FlowResult`."""
        network = self.require("network")
        optimized = self.require("optimized")
        if self.mapped is None or self.timing_report is None:
            raise PipelineError(
                f"pipeline {self.flow!r} did not run a map stage; use "
                "run_context() to inspect optimize-only prefixes"
            )
        return FlowResult(
            flow=self.flow,
            benchmark=network.name,
            optimized=optimized,
            mapped=self.mapped,
            timing=self.timing_report,
            optimize_seconds=self.optimize_seconds,
            node_counts=self.node_counts,
            equivalence=self.equivalence,
            cache_stats=self.cache_stats,
        )
