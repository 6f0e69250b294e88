"""Cross-process shared-memory BDD arena.

A :class:`BddArena` is a **read-only snapshot** of a manager's flat
node-store arrays — ``levels``/``highs``/``lows`` with complement-edge
encoding, plus the variable order and a root directory keyed by
caller-chosen strings (the serving layer uses ``"circuit/output"``) —
serialized into one :mod:`multiprocessing.shared_memory` block.

What it buys is a formal verify, not a faster one.  Without an arena,
verify builds no BDDs: :func:`~repro.network.check_equivalence`
simulates, exhaustively up to 12 inputs and with 2,048 random vectors
above that.  With one, the server builds the registry circuits' global
BDDs **once**, publishes the block, and each long-lived pool worker
attaches (zero-copy: the arrays are memoryview casts over the shared
block), pulls the spec cones into its private manager *copy-on-miss* —
a linear walk through the unique table, never the operation cache, so
nothing an attached worker synthesizes changes any published counter —
and compares them against the optimized network's global BDD.
Measured on a 2-CPU Xeon (bds-maj output, medians of 5, a fresh verify
manager per call), arena verify against simulation: alu2 5.4 vs
1.4 ms and f51m 4.0 vs 0.4 ms, where simulation is already exhaustive;
vda 29.9 vs 1.8 ms and misex3 36.2 vs 3.6 ms, where it is random.

Block layout (position-independent, one block per arena)::

    [0:8)   little-endian uint64: JSON header length H
    [8:8+H) UTF-8 JSON header {"schema", "vars", "nodes", "roots"}
    then 3 x nodes x int64 columns: levels, highs, lows

Lifecycle: the publishing process owns the block and must
:meth:`~BddArena.unlink` it (the server does so at shutdown); attached
views just :meth:`~BddArena.close`.  Worker-side module state
(:func:`attach_worker_arena` / :func:`current_arena`) lets a
multiprocessing pool initializer attach once per worker process.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping

from ..faults import inject as inject_fault
from .manager import BDD

#: Schema tag of the serialized header.
ARENA_SCHEMA = "bdsmaj-arena/v1"

_HEADER_LEN = struct.Struct("<Q")
_INT64 = 8


class ArenaError(RuntimeError):
    """Raised for malformed arena blocks or incompatible attach targets."""


def _tracked_name(block: shared_memory.SharedMemory) -> str:
    """The name the resource tracker knows ``block`` by.

    POSIX platforms register the platform-internal slash-prefixed form,
    not the public ``block.name`` — derived here from public attributes
    only, so alternative implementations without the private ``_name``
    still work.
    """
    name = block.name
    if os.name == "posix" and not name.startswith("/"):
        name = "/" + name
    return name


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker ownership.

    An attaching process must never unlink the block: on Pythons before
    3.13 a plain attach still *registers* the segment with the process'
    resource tracker, which would unlink it (with a spurious "leaked
    shared_memory" warning) when the attaching worker exits — killing
    the arena for everyone else.  3.13+ has ``track=False`` for exactly
    this; earlier versions need the explicit unregister.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13 path
        block = shared_memory.SharedMemory(name=name)
        try:
            resource_tracker.unregister(_tracked_name(block), "shared_memory")
        except Exception:  # noqa: BLE001 - best effort: platforms without
            pass  # tracker registration must not kill the worker here
        return block


class BddArena:
    """One published (or attached) shared-memory BDD snapshot."""

    def __init__(
        self,
        block: shared_memory.SharedMemory,
        var_names: tuple[str, ...],
        num_nodes: int,
        roots: dict[str, int],
        levels,
        highs,
        lows,
        owner: bool,
    ) -> None:
        self._block = block
        self._owner = owner
        self._closed = False
        self.var_names = var_names
        self.num_nodes = num_nodes
        self.roots = roots
        self._levels = levels
        self._highs = highs
        self._lows = lows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def publish(
        cls, manager: BDD, roots: Mapping[str, int], name: str | None = None
    ) -> "BddArena":
        """Snapshot the cones of ``roots`` out of ``manager`` into a new
        shared-memory block; the returned arena owns the block."""
        var_names, levels, highs, lows, root_edges = manager.export_arrays(dict(roots))
        header = json.dumps(
            {
                "schema": ARENA_SCHEMA,
                "vars": list(var_names),
                "nodes": len(levels),
                "roots": root_edges,
            },
            sort_keys=True,
        ).encode("utf-8")
        columns = len(levels) * _INT64
        size = _HEADER_LEN.size + len(header) + 3 * columns
        block = shared_memory.SharedMemory(create=True, size=size, name=name)
        buffer = block.buf
        _HEADER_LEN.pack_into(buffer, 0, len(header))
        offset = _HEADER_LEN.size
        buffer[offset : offset + len(header)] = header
        offset += len(header)
        for column in (levels, highs, lows):
            buffer[offset : offset + columns] = column.tobytes()
            offset += columns
        return cls._from_block(block, owner=True)

    @classmethod
    def attach(cls, name: str) -> "BddArena":
        """Attach a read-only view of a published arena by block name."""
        return cls._from_block(_attach_block(name), owner=False)

    @classmethod
    def _from_block(
        cls, block: shared_memory.SharedMemory, owner: bool
    ) -> "BddArena":
        buffer = block.buf
        try:
            (header_len,) = _HEADER_LEN.unpack_from(buffer, 0)
            offset = _HEADER_LEN.size
            header = json.loads(bytes(buffer[offset : offset + header_len]))
            if header.get("schema") != ARENA_SCHEMA:
                raise ArenaError(f"unknown arena schema {header.get('schema')!r}")
            nodes = int(header["nodes"])
            offset += header_len
            columns = nodes * _INT64
            views = []
            for _ in range(3):
                views.append(buffer[offset : offset + columns].cast("q"))
                offset += columns
        except ArenaError:
            block.close()
            raise
        except Exception as exc:
            block.close()
            raise ArenaError(f"malformed arena block {block.name!r}: {exc}") from exc
        return cls(
            block,
            tuple(header["vars"]),
            nodes,
            {str(key): int(edge) for key, edge in header["roots"].items()},
            *views,
            owner=owner,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The shared-memory block name (what workers attach by)."""
        return self._block.name

    def keys(self) -> list[str]:
        """Root-directory keys, sorted."""
        return sorted(self.roots)

    def __contains__(self, key: str) -> bool:
        return key in self.roots

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BddArena {self.name!r} nodes={self.num_nodes} "
            f"roots={len(self.roots)}{' owner' if self._owner else ''}>"
        )

    # ------------------------------------------------------------------
    # Copying cones out
    # ------------------------------------------------------------------
    def manager(self, **manager_kwargs) -> BDD:
        """A fresh private manager declared with the arena's variable
        order — the natural binding target for a worker."""
        return BDD(self.var_names, **manager_kwargs)

    def binding(self, target: BDD) -> "ArenaBinding":
        """Bind ``target`` for copy-on-miss imports.

        The arena's variables must already exist in ``target`` with
        their relative order preserved (any interleaved extra variables
        are fine); otherwise the imported nodes would violate the
        target's ordering invariant.
        """
        level_map: dict[int, int] = {}
        previous = -1
        for arena_level, var in enumerate(self.var_names):
            target_level = target.level_of(var)  # raises on unknown names
            if target_level <= previous:
                raise ArenaError(
                    f"target variable order incompatible with arena at {var!r}"
                )
            previous = target_level
            level_map[arena_level] = target_level
        return ArenaBinding(self, target, level_map)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release this view (memoryview casts, then the mapping).
        Idempotent — the worker-detach path and :meth:`unlink` may both
        get here."""
        if self._closed:
            return
        self._closed = True
        for view in (self._levels, self._highs, self._lows):
            if view is not None:
                view.release()
        self._levels = self._highs = self._lows = None
        self._block.close()

    def unlink(self) -> None:
        """Destroy the block (owner only — attached views just close)."""
        self.close()
        if self._owner:
            # Pre-3.13 attaches in fork-mode children share the owner's
            # resource tracker, and their protective unregister (see
            # ``_attach_block``) may have stolen the owner's entry — the
            # tracker would then log a spurious KeyError for unlink's
            # own unregister.  Re-registering first is an idempotent
            # set-add, so unlink always finds its entry.
            with contextlib.suppress(Exception):
                resource_tracker.register(_tracked_name(self._block), "shared_memory")
            self._block.unlink()


class ArenaBinding:
    """Copy-on-miss channel from one arena into one private manager.

    Keeps the snapshot-index -> rebuilt-edge memo across copies, so a
    long-lived worker pulls every shared subfunction out of the arena
    exactly once for its whole lifetime.
    """

    def __init__(
        self, arena: BddArena, target: BDD, level_map: dict[int, int]
    ) -> None:
        self.arena = arena
        self.target = target
        self._level_map = level_map
        self._memo: dict[int, int] = {}
        #: Cone copies that found every node already imported.
        self.hits = 0
        #: Cone copies that had to import at least one node.
        self.misses = 0

    def copy(self, key: str) -> int:
        """The arena root ``key`` rebuilt in the target manager."""
        try:
            edge = self.arena.roots[key]
        except KeyError:
            raise ArenaError(f"arena has no root {key!r}") from None
        return self.copy_edge(edge)

    def copy_edge(self, edge: int) -> int:
        before = len(self._memo)
        rebuilt = self.target.import_cone(
            self.arena._levels,  # noqa: SLF001 - binding is the arena's friend
            self.arena._highs,  # noqa: SLF001
            self.arena._lows,  # noqa: SLF001
            edge,
            self._level_map,
            self._memo,
        )
        if len(self._memo) == before:
            self.hits += 1
        else:
            self.misses += 1
        return rebuilt

    def imported_nodes(self) -> int:
        """Snapshot nodes pulled into the target so far."""
        return len(self._memo)


# ----------------------------------------------------------------------
# Worker-process attachment (multiprocessing pool initializer seam)
# ----------------------------------------------------------------------
_worker_arena: BddArena | None = None


def attach_worker_arena(
    name: "str | BddArena | None",
    *,
    close_previous: bool = True,
) -> None:
    """Attach this process to the arena named ``name`` (pool
    initializers call this once per worker).  A failed attach — the
    server already unlinked, permissions, a torn block — leaves the
    worker arena-less rather than dead: every consumer falls back to
    building from scratch.

    Passing an existing :class:`BddArena` installs that view directly —
    the publishing server does this so its own serial jobs share the
    snapshot without a second mapping.  ``None`` detaches (closing a
    previously attached view; an installed owner view is closed too,
    which its later :meth:`~BddArena.unlink` tolerates).

    ``close_previous=False`` swaps without closing the outgoing view —
    the serve layer's snapshot *refresh* uses it so an executor thread
    mid-verify on the old arena never reads a released memoryview; the
    retired view's owner stays responsible for its eventual close.  A
    previously installed view that is being re-installed is never
    closed, regardless.
    """
    global _worker_arena
    previous, _worker_arena = _worker_arena, None
    if isinstance(name, BddArena):
        _worker_arena = name
    elif name is not None:
        try:
            inject_fault("arena.attach", name)
            _worker_arena = BddArena.attach(name)
        except Exception:  # noqa: BLE001 - degraded beats dead
            _worker_arena = None
    if close_previous and previous is not None and previous is not _worker_arena:
        with contextlib.suppress(Exception):
            previous.close()


def current_arena() -> BddArena | None:
    """The arena this process attached to, if any."""
    return _worker_arena
