"""ASY — async-safety rules for ``repro.serve``.

Every coroutine in the serve layer runs on the single event loop; one
blocking call stalls every open connection and heartbeat.
Blocking work belongs in the executor (``loop.run_in_executor``) — the
pattern ``SynthesisService.submit_async`` already uses.  The rules flag
the known blockers when called *directly* inside an ``async def``; a
sync ``def`` nested in a coroutine is exempt because it is exactly the
thing handed to the executor.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import REGISTRY, Finding, Rule
from ..scopes import ModuleContext

SERVE_MODULES = ("repro.serve",)


class _AsyncCallRule(Rule):
    """Shared shape: flag calls matching a dotted-name set when the
    nearest enclosing function is ``async def``."""

    modules = SERVE_MODULES
    node_types = (ast.Call,)
    targets: frozenset[str] = frozenset()
    hint = ""

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not ctx.in_async_function(node):
            return
        dotted = ctx.resolve_call(node)
        if dotted in self.targets:
            yield self.finding(
                ctx, node, f"{dotted}() called inside async def; {self.hint}"
            )


@REGISTRY.register
class AsyncTimeSleep(_AsyncCallRule):
    """ASY001: ``time.sleep`` on the event loop."""

    id = "ASY001"
    name = "async-time-sleep"
    severity = "error"
    rationale = (
        "time.sleep() in a coroutine freezes the whole event loop; "
        "use await asyncio.sleep()"
    )
    targets = frozenset({"time.sleep"})
    hint = "use await asyncio.sleep()"


@REGISTRY.register
class AsyncBlockingIo(Rule):
    """ASY002: blocking file/socket I/O on the event loop."""

    id = "ASY002"
    name = "async-blocking-io"
    severity = "error"
    rationale = (
        "open()/os.fsync()/socket calls block the loop; offload them "
        "via loop.run_in_executor"
    )
    modules = SERVE_MODULES
    node_types = (ast.Call,)

    _DOTTED = frozenset(
        {
            "os.fsync",
            "os.fdatasync",
            "socket.socket",
            "socket.create_connection",
            "socket.getaddrinfo",
        }
    )

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not ctx.in_async_function(node):
            return
        if ctx.is_builtin_call(node, "open"):
            yield self.finding(
                ctx,
                node,
                "open() called inside async def; run file I/O in the "
                "executor (loop.run_in_executor)",
            )
            return
        dotted = ctx.resolve_call(node)
        if dotted in self._DOTTED:
            yield self.finding(
                ctx,
                node,
                f"{dotted}() called inside async def; run blocking I/O "
                "in the executor (loop.run_in_executor)",
            )


@REGISTRY.register
class AsyncSubprocess(Rule):
    """ASY003: blocking ``subprocess`` calls on the event loop."""

    id = "ASY003"
    name = "async-subprocess"
    severity = "error"
    rationale = (
        "subprocess.run/Popen/etc. block until the child responds; "
        "use asyncio.create_subprocess_exec"
    )
    modules = SERVE_MODULES
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not ctx.in_async_function(node):
            return
        dotted = ctx.resolve_call(node)
        if dotted is not None and (
            dotted == "subprocess" or dotted.startswith("subprocess.")
        ):
            yield self.finding(
                ctx,
                node,
                f"{dotted}() called inside async def; use "
                "asyncio.create_subprocess_exec instead",
            )


@REGISTRY.register
class AsyncPoolJoin(Rule):
    """ASY004: blocking pool/executor teardown on the event loop.

    Flags zero-argument ``.join()`` / ``.terminate()`` method calls
    (the zero-arg shape discriminates process/thread teardown from
    ``str.join(iterable)``) and ``.shutdown(wait=True)``.  Awaited
    calls are exempt — ``await process.wait()`` style teardown is the
    sanctioned idiom.  ``asyncio.subprocess.Process.terminate()`` is
    actually non-blocking, which is why this rule is a *warning*: the
    known-safe sites carry justified suppressions instead of silently
    widening the rule.
    """

    id = "ASY004"
    name = "async-pool-join"
    severity = "warning"
    rationale = (
        "pool.join()/terminate() and executor.shutdown(wait=True) "
        "block until workers exit; drain pools from the executor"
    )
    modules = SERVE_MODULES
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not ctx.in_async_function(node):
            return
        if isinstance(ctx.parent(node), ast.Await):
            return
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr in ("join", "terminate") and not node.args and not node.keywords:
            yield self.finding(
                ctx,
                node,
                f".{attr}() called inside async def; worker teardown "
                "blocks the loop — drain via the executor",
            )
        elif attr == "shutdown" and any(
            keyword.arg == "wait"
            and isinstance(keyword.value, ast.Constant)
            and keyword.value.value is True
            for keyword in node.keywords
        ):
            yield self.finding(
                ctx,
                node,
                ".shutdown(wait=True) called inside async def; it joins "
                "every worker thread before returning",
            )
