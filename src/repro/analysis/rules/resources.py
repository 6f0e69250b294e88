"""RES — resource-lifecycle rules.

Shared-memory blocks, journal files and worker pools each have exactly
one sanctioned acquire/release idiom in this repository:

* nothing attaches a shared-memory block by name: a raw
  ``SharedMemory(name=...)`` registers the segment with the attaching
  process's resource tracker, which unlinks it under its owner when
  that process exits (RES001);
* a journal append must hit the platter — ``write`` → ``flush`` →
  ``os.fsync`` — before the HTTP response acknowledges the job, or a
  crash loses an acknowledged submission (RES002);
* pool construction/acquisition must be followed by a terminating
  error path (a ``with`` block or an immediate ``try``), or a raise
  between acquire and release leaks live worker processes (RES003);
* an awaited stream read in the serving layer must be bounded by
  ``asyncio.wait_for`` (or carry a justified suppression), or one
  silent peer pins a handler — and the resources behind it — forever
  (RES004).
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import REGISTRY, Finding, Rule
from ..scopes import ModuleContext


@REGISTRY.register
class RawShmAttach(Rule):
    """RES001: raw SharedMemory attach by name."""

    id = "RES001"
    name = "raw-shm-attach"
    severity = "error"
    rationale = (
        "attaching SharedMemory(name=...) registers the segment with the "
        "attaching process's resource tracker, so the first attacher to "
        "exit unlinks it under everyone else"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = ctx.resolve_call(node)
        if dotted is None or not dotted.endswith("SharedMemory"):
            return
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        creates = (
            isinstance(keywords.get("create"), ast.Constant)
            and keywords["create"].value is True
        )
        if "name" in keywords and not creates:
            yield self.finding(
                ctx,
                node,
                "raw SharedMemory(name=...) attach; the attaching "
                "process's resource tracker would unlink the segment "
                "under its owner",
            )


@REGISTRY.register
class JournalWriteWithoutFsync(Rule):
    """RES002: a journal function writing without fsync."""

    id = "RES002"
    name = "journal-write-without-fsync"
    severity = "error"
    rationale = (
        "an acknowledged journal append that never reached the platter "
        "is lost on crash; every .write() path must os.fsync before "
        "the response"
    )
    modules = ("repro.serve.journal",)
    node_types = (ast.FunctionDef, ast.AsyncFunctionDef)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        writes = False
        fsyncs = False
        for child in ast.walk(node):
            if not isinstance(child, ast.Call):
                continue
            if (
                isinstance(child.func, ast.Attribute)
                and child.func.attr == "write"
            ):
                writes = True
            dotted = ctx.resolve_call(child)
            if dotted in ("os.fsync", "os.fdatasync"):
                fsyncs = True
        if writes and not fsyncs:
            yield self.finding(
                ctx,
                node,
                f"journal function {node.name}() calls .write() but "
                "never os.fsync(); the append is not durable",
            )


@REGISTRY.register
class UnguardedPoolAcquire(Rule):
    """RES003: pool construction/acquisition with no error path."""

    id = "RES003"
    name = "unguarded-pool-acquire"
    severity = "warning"
    rationale = (
        "a raise between pool acquire and release leaks live worker "
        "processes; acquire inside `with` or follow immediately with "
        "try/finally"
    )
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in ("Pool", "acquire"):
            return
        if node.func.attr == "acquire":
            # Only pool-manager acquisition is in scope; lock.acquire()
            # and friends are someone else's contract.
            dotted = ctx.resolve_call(node)
            if dotted is None or "pool" not in dotted.lower():
                return
        for ancestor in ctx.ancestors(node):
            if isinstance(ancestor, (ast.With, ast.AsyncWith, ast.Try)):
                return
        following = ctx.next_statement(node)
        if isinstance(following, ast.Try):
            return
        yield self.finding(
            ctx,
            node,
            f".{node.func.attr}() result has no terminating error path; "
            "wrap in `with` or follow immediately with try/finally",
        )


#: Stream-read coroutine methods of asyncio readers / subprocess pipes.
_AWAITED_READ_METHODS = frozenset({"read", "readline", "readexactly", "readuntil"})


@REGISTRY.register
class UnboundedAwaitedRead(Rule):
    """RES004: awaited stream read without an ``asyncio.wait_for`` bound."""

    id = "RES004"
    name = "unbounded-awaited-read"
    severity = "error"
    rationale = (
        "an awaited socket/pipe read with no wait_for bound lets one "
        "silent peer pin a serve handler (and its connection, job and "
        "worker resources) forever; reads that are unbounded by design "
        "carry a justified suppression"
    )
    modules = ("repro.serve",)
    node_types = (ast.Call,)

    def check(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _AWAITED_READ_METHODS:
            return
        # Walk outward (innermost-first) toward the enclosing function:
        # a wait_for call anywhere between the read and its await bounds
        # it; an Await reached without one is the unbounded pattern.
        # Synchronous reads (file.read() with no await) never match.
        awaited = False
        for ancestor in ctx.ancestors(node):
            if isinstance(
                ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                break
            if isinstance(ancestor, ast.Await):
                awaited = True
                continue
            if isinstance(ancestor, ast.Call):
                dotted = ctx.resolve_call(ancestor)
                if dotted == "asyncio.wait_for":
                    return
        if awaited:
            yield self.finding(
                ctx,
                node,
                f"awaited .{node.func.attr}() has no asyncio.wait_for "
                "bound; a silent peer pins this handler forever",
            )
