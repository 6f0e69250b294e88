"""Composable synthesis pipelines.

A :class:`Pipeline` is an ordered stage list plus a name and a default
configuration factory.  Running it threads a
:class:`~repro.api.SynthesisContext` through the stages, timing each
one and notifying every :class:`PipelineObserver` before and after it —
the seam the batch service and the serving layer stream per-stage
progress from.

Pipelines are immutable values: the composition helpers (:meth:`up_to`,
:meth:`replace`, :meth:`insert_after`, :meth:`with_stages`) return new
pipelines, so deriving a custom flow from a registered one is a
one-liner that cannot corrupt the registry.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable, Sequence

from ..flows.common import FlowResult
from ..network import LogicNetwork
from .context import PipelineError, StageEvent, StageTiming, SynthesisContext
from .inputs import InputItem, resolve_source
from .stage import Stage, stage_is_optimize_timed


class PipelineObserver:
    """Base observer: subclass and override what you need.

    ``on_stage_start(ctx, stage)`` fires before a stage runs;
    ``on_stage_end(ctx, stage, seconds)`` after it finished, with its
    wall-clock duration.  Observers must not mutate the context.
    """

    def on_stage_start(self, ctx: SynthesisContext, stage: Stage) -> None:
        """Called before ``stage`` runs."""

    def on_stage_end(
        self, ctx: SynthesisContext, stage: Stage, seconds: float
    ) -> None:
        """Called after ``stage`` finished."""


class StageEventExporter(PipelineObserver):
    """Observer that forwards every stage start/end as a
    :class:`~repro.api.StageEvent` to ``emit``, as it happens.

    This mirrors the events a run appends to ``ctx.events``, but live —
    the seam through which the batch service and the async serving
    layer (:mod:`repro.serve`) stream per-stage progress while a
    pipeline is still running.  End events carry the stage's wall-clock
    seconds, exactly like the :class:`~repro.api.StageTiming` recorded
    on the context.
    """

    def __init__(self, emit: Callable[[StageEvent], None]) -> None:
        self._emit = emit

    def on_stage_start(self, ctx: SynthesisContext, stage: Stage) -> None:
        self._emit(StageEvent("stage_start", stage.name))

    def on_stage_end(
        self, ctx: SynthesisContext, stage: Stage, seconds: float
    ) -> None:
        self._emit(StageEvent("stage_end", stage.name, seconds))


class Pipeline:
    """A named, ordered composition of stages.

    ``default_config`` builds the flow configuration when the caller
    passes none; ``prepare_config`` (optional) maps whatever
    configuration is in effect to the one the stages see — the BDS
    pipelines use it to set majority decomposition from the flow name,
    on a copy.
    """

    def __init__(
        self,
        name: str,
        stages: Iterable[Stage],
        default_config: Callable[[], Any] | None = None,
        prepare_config: Callable[[Any], Any] | None = None,
        description: str = "",
    ) -> None:
        self.name = name
        self.stages = tuple(stages)
        self.default_config = default_config
        self.prepare_config = prepare_config
        self.description = description
        names = [s.name for s in self.stages]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise PipelineError(
                f"pipeline {name!r} has duplicate stage names: {sorted(duplicates)}"
            )

    # ------------------------------------------------------------------
    # Composition (all return new pipelines)
    # ------------------------------------------------------------------
    def stage_names(self) -> tuple[str, ...]:
        return tuple(s.name for s in self.stages)

    def _index_of(self, stage_name: str) -> int:
        for i, candidate in enumerate(self.stages):
            if candidate.name == stage_name:
                return i
        raise PipelineError(
            f"pipeline {self.name!r} has no stage {stage_name!r} "
            f"(stages: {list(self.stage_names())})"
        )

    def with_stages(self, stages: Iterable[Stage], name: str | None = None) -> "Pipeline":
        """A copy of this pipeline with a different stage list."""
        return Pipeline(
            name if name is not None else self.name,
            stages,
            default_config=self.default_config,
            prepare_config=self.prepare_config,
            description=self.description,
        )

    def up_to(self, stage_name: str) -> "Pipeline":
        """The prefix ending at (and including) ``stage_name``."""
        return self.with_stages(self.stages[: self._index_of(stage_name) + 1])

    def optimize_prefix(self) -> "Pipeline":
        """The prefix covering every optimization stage, without map or
        verify — what Table I and the batch service run (the batch layer
        appends the ``verify`` stage when asked to verify)."""
        last = max(
            (i for i, s in enumerate(self.stages) if stage_is_optimize_timed(s)),
            default=len(self.stages) - 1,
        )
        return self.with_stages(self.stages[: last + 1])

    def replace(self, stage_name: str, stage: Stage) -> "Pipeline":
        """Swap the named stage for another one."""
        index = self._index_of(stage_name)
        stages = list(self.stages)
        stages[index] = stage
        return self.with_stages(stages)

    def insert_after(self, stage_name: str, stage: Stage) -> "Pipeline":
        """Insert ``stage`` right after the named stage."""
        index = self._index_of(stage_name)
        stages = list(self.stages)
        stages.insert(index + 1, stage)
        return self.with_stages(stages)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _bind(self, source: "LogicNetwork | InputItem | str") -> SynthesisContext:
        if isinstance(source, LogicNetwork):
            return SynthesisContext(flow=self.name, network=source)
        if isinstance(source, InputItem):
            return SynthesisContext(flow=self.name, item=source)
        if isinstance(source, str):
            items = resolve_source(source).items()
            if len(items) != 1:
                raise PipelineError(
                    f"spec {source!r} matched {len(items)} circuits; a pipeline "
                    "runs exactly one (use run_batch for suites)"
                )
            return SynthesisContext(flow=self.name, item=items[0])
        raise PipelineError(
            f"cannot run pipeline on {type(source).__name__}: expected a "
            "LogicNetwork, InputItem or spec string"
        )

    def run_context(
        self,
        source: "LogicNetwork | InputItem | str",
        config: Any = None,
        *,
        observers: Sequence[PipelineObserver] = (),
    ) -> SynthesisContext:
        """Run every stage and return the full context (use this for
        optimize-only prefixes or to inspect scratch state/timings)."""
        ctx = self._bind(source)
        if config is None and self.default_config is not None:
            config = self.default_config()
        if self.prepare_config is not None:
            config = self.prepare_config(config)
        ctx.config = config
        ctx.verify = bool(getattr(config, "verify", True))
        ctx.library = getattr(config, "library", None)

        for pipeline_stage in self.stages:
            ctx.events.append(StageEvent("stage_start", pipeline_stage.name))
            for observer in observers:
                observer.on_stage_start(ctx, pipeline_stage)
            start = time.perf_counter()
            result = pipeline_stage.run(ctx)
            if result is not None:
                ctx = result
            seconds = time.perf_counter() - start
            ctx.timings.append(StageTiming(pipeline_stage.name, seconds))
            if stage_is_optimize_timed(pipeline_stage):
                ctx.optimize_seconds += seconds
            ctx.events.append(StageEvent("stage_end", pipeline_stage.name, seconds))
            for observer in observers:
                observer.on_stage_end(ctx, pipeline_stage, seconds)
        return ctx

    def run(
        self,
        source: "LogicNetwork | InputItem | str",
        config: Any = None,
        *,
        observers: Sequence[PipelineObserver] = (),
    ) -> FlowResult:
        """Run the full pipeline and return its :class:`FlowResult`."""
        return self.run_context(source, config, observers=observers).to_result()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Pipeline {self.name!r} stages={list(self.stage_names())}>"
