"""The ``Stage`` protocol and helpers for writing custom stages.

A stage is any object with a ``name`` and a
``run(ctx: SynthesisContext) -> SynthesisContext`` method.  Stages that
should count toward the flow's reported optimization runtime (the
Table I ``Sec`` column) set ``optimize_timed = True``; mapping and
verification stages leave it False, so only the optimization body counts
toward that runtime.

Custom stages can subclass nothing at all (duck typing), or use
:func:`stage` to lift a plain function::

    @stage("strip-buffers", optimize_timed=True)
    def strip_buffers(ctx):
        ctx.optimized = remove_buffers(ctx.optimized)
        return ctx
"""

from __future__ import annotations

from typing import Callable, Protocol, runtime_checkable

from .context import SynthesisContext


@runtime_checkable
class Stage(Protocol):
    """Structural interface every pipeline stage satisfies."""

    name: str

    def run(self, ctx: SynthesisContext) -> SynthesisContext: ...


class FunctionStage:
    """Adapter lifting ``fn(ctx) -> ctx`` into a :class:`Stage`.

    A function returning ``None`` is treated as mutating the context in
    place (the common case).
    """

    def __init__(
        self,
        name: str,
        fn: Callable[[SynthesisContext], SynthesisContext | None],
        optimize_timed: bool = False,
    ) -> None:
        self.name = name
        self._fn = fn
        self.optimize_timed = optimize_timed

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        result = self._fn(ctx)
        return ctx if result is None else result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FunctionStage {self.name!r}>"


def stage(
    name: str, *, optimize_timed: bool = False
) -> Callable[[Callable[[SynthesisContext], SynthesisContext | None]], FunctionStage]:
    """Decorator form of :class:`FunctionStage`."""

    def wrap(
        fn: Callable[[SynthesisContext], SynthesisContext | None],
    ) -> FunctionStage:
        return FunctionStage(name, fn, optimize_timed=optimize_timed)

    return wrap


def stage_is_optimize_timed(candidate: Stage) -> bool:
    """Whether ``candidate``'s wall time counts as optimization runtime."""
    return bool(getattr(candidate, "optimize_timed", False))
