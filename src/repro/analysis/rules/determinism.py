"""DET — determinism rules.

The repository's load-bearing contract (PRs 1-7) is that batch and
serve reports are **byte-identical** across worker counts, warm vs
cold pools and journal replay.  Three language features break
that silently, so in the report-affecting modules (``repro.api``,
``repro.core``, ``repro.flows``, ``repro.network``, ``repro.bdd``,
``repro.aig``, ``repro.sop``, ``repro.mapping``, ``repro.serve.wire``)
they are banned:

* iterating a ``set`` in an order-sensitive position (DET001) — set
  order varies with ``PYTHONHASHSEED`` and insertion history;
* the builtin ``hash()`` (DET002) — salted per process for str/bytes,
  so any hash-derived key or counter differs between workers;
* wall-clock reads (DET003) — timestamps flowing into report fields
  outside the sanctioned ``timings`` gate differ run to run.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import REGISTRY, Finding, Rule
from ..scopes import ModuleContext

#: The report-affecting modules.  ``repro.api`` (the stages every flow
#: runs) and ``repro.core`` (the decomposition engine) hold each flow's
#: report-affecting code; ``repro.aig`` and ``repro.sop`` build the abc
#: and dc flows' graphs, and ``repro.mapping`` every flow's netlist.
DET_MODULES = (
    "repro.api",
    "repro.core",
    "repro.flows",
    "repro.network",
    "repro.bdd",
    "repro.aig",
    "repro.sop",
    "repro.mapping",
    "repro.serve.wire",
)


@REGISTRY.register
class UnsortedSetIteration(Rule):
    """DET001: a set iterated where order reaches the output."""

    id = "DET001"
    name = "unsorted-set-iteration"
    severity = "error"
    rationale = (
        "set iteration order varies with PYTHONHASHSEED; in report-"
        "affecting code it must pass through sorted() first"
    )
    modules = DET_MODULES
    node_types = (ast.For, ast.AsyncFor, ast.comprehension, ast.Call, ast.Starred)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        if isinstance(node, (ast.For, ast.AsyncFor)):
            candidates = [node.iter]
        elif isinstance(node, ast.comprehension):
            candidates = [node.iter]
        elif isinstance(node, ast.Starred):
            candidates = [node.value]
        else:  # Call — order-sensitive consumers taking an iterable
            assert isinstance(node, ast.Call)
            candidates = list(self._call_iterables(node, ctx))
        scope = None
        for expr in candidates:
            if scope is None:
                scope = ctx.enclosing_function(expr) or ctx.tree
            if ctx.is_set_expression(expr, scope):
                yield self.finding(
                    ctx,
                    expr,
                    "set iterated in an order-sensitive position; wrap in "
                    "sorted() (or consume order-insensitively)",
                )

    def _call_iterables(self, node: ast.Call, ctx: ModuleContext):
        """Arguments of ``node`` whose iteration order survives into
        the result — ``list()``, ``tuple()``, ``enumerate()``,
        ``zip()`` and ``str.join()``."""
        for name in ("list", "tuple", "enumerate"):
            if ctx.is_builtin_call(node, name) and node.args:
                yield node.args[0]
                return
        if ctx.is_builtin_call(node, "zip"):
            yield from node.args
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            yield node.args[0]


@REGISTRY.register
class BuiltinHash(Rule):
    """DET002: builtin ``hash()`` anywhere in report-affecting code."""

    id = "DET002"
    name = "builtin-hash"
    severity = "error"
    rationale = (
        "hash() is salted per process for str/bytes; cache keys and "
        "counters derived from it differ across workers — use "
        "hashlib or int-only keys"
    )
    modules = DET_MODULES
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if ctx.is_builtin_call(node, "hash"):
            yield self.finding(
                ctx,
                node,
                "builtin hash() is PYTHONHASHSEED-dependent; use hashlib "
                "digests or structural int keys",
            )


#: Wall-clock reads.  ``time.perf_counter``/``monotonic`` are fine:
#: they only ever feed the explicitly non-deterministic timings gate.
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@REGISTRY.register
class WallClockInReportCode(Rule):
    """DET003: wall-clock reads in report-affecting modules."""

    id = "DET003"
    name = "wall-clock-read"
    severity = "warning"
    rationale = (
        "wall-clock values flowing into report fields differ run to "
        "run; only the timings gate may carry non-deterministic data"
    )
    modules = DET_MODULES
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = ctx.resolve_call(node)
        if dotted in _WALL_CLOCK:
            yield self.finding(
                ctx,
                node,
                f"wall-clock read {dotted}() in report-affecting code; "
                "keep non-deterministic values behind the timings gate",
            )
