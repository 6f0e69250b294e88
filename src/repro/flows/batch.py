"""Parallel batch-synthesis service: whole benchmark suites in one call.

The paper's headline results (Tables I/II) are produced by running
BDS-MAJ over entire benchmark suites: ``bdsmaj table1``/``table2``
format one :func:`run_batch` report per flow.  :func:`run_batch` fans
circuits out across a :mod:`multiprocessing` worker pool — every worker
synthesizes its circuits with its own private :class:`~repro.bdd.BDD`
managers, so nothing is shared and nothing needs locking — and folds
the per-circuit results into one :class:`BatchReport`.

Circuits come from the pluggable input layer (:mod:`repro.api.inputs`):
plain registry keys keep working, and any mix of
:class:`~repro.api.InputItem` descriptors or an
:class:`~repro.api.InputSource` (e.g. ``BlifGlobSource("out/*.blif")``)
is accepted.  Work is executed through the pipeline registry
(:mod:`repro.api.registry`): each circuit runs the optimize prefix of
its flow's pipeline (Table I, ``batch``, serve), or the whole pipeline
with :attr:`BatchConfig.mapped` (Table II), so every registered flow —
including ``abc`` and ``dc`` — can be batched, not just the two BDD
flows.  Verification is the pipeline's ``verify`` stage: a
counterexample makes the row ``status="error"``, so ``verified`` is
``True`` or ``None``, never ``False``.

Determinism contract
--------------------
The serialized report (:meth:`BatchReport.to_json` /
:meth:`BatchReport.to_csv`) is **byte-identical for 1 worker and N
workers**:

* results are emitted in input order, never completion order;
* every reported quantity (node counts, decomposition steps, unified
  op-cache counters) is a deterministic function of the circuit alone —
  the cache uses int-only keys and deterministic FIFO eviction, so its
  hit/miss counts do not depend on ``PYTHONHASHSEED`` or scheduling;
* wall-clock timings are collected but excluded from serialization
  unless ``include_timing=True`` is requested explicitly.

Failure isolation
-----------------
A circuit that raises does not abort the batch: its report row carries
``status="error"`` and the exception text, and every other circuit is
still synthesized.  The same holds for infrastructure failures: the
parallel dispatcher polls every in-flight attempt (it never blocks on a
single pool result), enforces the per-circuit wall-clock deadline
(:attr:`BatchConfig.circuit_timeout`), and watches the pool's worker
table for deaths — a SIGKILLed worker or a runaway sift pass costs
bounded retries (:attr:`BatchConfig.max_retries`, deterministic
exponential backoff) and, once exhausted, one ``status="error"`` row
with ``reason="timeout"`` or ``reason="worker_died"``; it never hangs
or sinks the batch.  Because a worker death does not say which circuit
the victim was running, every in-flight attempt is charged one retry
when a death is observed — surviving attempts keep running and their
results still win, so the only cost is budget.  Error rows use
deterministic text (a function of config and attempt count only), so
the 1-vs-N byte-identity contract survives exhaustion too.

Interruption and cancellation
-----------------------------
An empty input (a source that resolves to zero items) returns an empty
— but valid and serializable — :class:`BatchReport` instead of raising.
``Ctrl-C`` during a parallel batch terminates and joins the worker pool
before the :class:`KeyboardInterrupt` propagates, so no orphaned
workers survive the batch.  A caller-supplied ``cancel`` hook (polled
between circuits, and while waiting on pool results) aborts the batch
with :class:`BatchCancelled` and reaps the pool the same way — the
seam the async serving layer (:mod:`repro.serve`) cancels in-flight
jobs through.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import io
import json
import multiprocessing
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from ..bdd.manager import combine_cache_stats
from ..benchgen import build_benchmark
from ..faults import active as faults_active
from ..faults import inject as inject_fault

if TYPE_CHECKING:  # pragma: no cover - hints only (runtime import is lazy)
    from ..api import InputItem, InputSource, Stage, StageEvent

#: Flows the batch service can run — every pipeline in the default
#: registry, in Table II's column order (the two BDD flows define the
#: Table-I node counts and the op-cache columns; abc/dc rows report
#: status, verification and, when mapped, the Table-II row only).
BATCH_FLOWS = ("bds-maj", "bds-pga", "abc", "dc")

#: Schema tag written into every JSON report.
REPORT_SCHEMA = "bdsmaj-batch-report/v1"

_CSV_COLUMNS = (
    "benchmark",
    "flow",
    "status",
    "and",
    "or",
    "xor",
    "xnor",
    "maj",
    "total",
    "supernodes",
    "sifted",
    "majority_steps",
    "and_or_steps",
    "xor_steps",
    "mux_steps",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
    "cache_hit_rate",
    "verified",
    "error",
)


class BatchCancelled(RuntimeError):
    """Raised when a ``cancel`` hook asked :func:`run_batch` to stop.

    The partially built report is discarded; the worker pool (if any)
    has already been terminated and joined when this propagates.
    """


@dataclass(frozen=True)
class BatchConfig:
    """Batch-run knobs."""

    flow: str = "bds-maj"
    workers: int = 1
    #: Equivalence-check every synthesized circuit (slow on big ones).
    verify: bool = False
    #: Run the whole pipeline (map included) and record the Table-II
    #: row, instead of stopping after the optimize prefix.
    mapped: bool = False
    #: Per-circuit wall-clock deadline in seconds (``None`` = none).  A
    #: parallel batch abandons the attempt at the deadline and retries
    #: or errors it; the serial path enforces the same budget post-hoc
    #: (it cannot preempt itself) with identical report bytes.
    circuit_timeout: float | None = None
    #: Extra attempts a circuit gets after a timeout or a worker death
    #: before finishing as ``status="error"`` (0 = fail fast).
    max_retries: int = 2
    #: Base seconds of the deterministic exponential retry backoff:
    #: the retry after attempt ``n`` waits ``retry_backoff * 2**(n-1)``.
    retry_backoff: float = 0.05

    def __post_init__(self) -> None:
        if self.flow not in BATCH_FLOWS:
            raise ValueError(f"unknown batch flow {self.flow!r} (known: {BATCH_FLOWS})")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.circuit_timeout is not None and self.circuit_timeout <= 0:
            raise ValueError("circuit_timeout must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")


@dataclass
class CircuitReport:
    """Everything the batch service records for one circuit."""

    benchmark: str
    flow: str
    status: str  # "ok" | "error"
    node_counts: dict[str, int] = field(default_factory=dict)
    #: Aggregated decomposition-step counts (the EngineStats totals the
    #: bds flow accumulates into its trace); empty for non-BDS flows.
    steps: dict[str, int] = field(default_factory=dict)
    #: Unified op-cache counters summed over the circuit's managers;
    #: empty for non-BDS flows.
    cache: dict[str, int | float] = field(default_factory=dict)
    verified: bool | None = None
    error: str | None = None
    #: Machine-readable failure class for infrastructure errors
    #: (``"timeout"`` | ``"worker_died"``); ``None`` for ok rows and
    #: for ordinary circuit exceptions.  Serialized only when set, so
    #: pre-existing report bytes are untouched.
    reason: str | None = None
    #: ``(area um^2, gates, delay ns)`` of the mapped netlist; set only
    #: by a :attr:`BatchConfig.mapped` run and serialized only when set.
    table2_row: tuple[float, int, float] | None = None
    #: Wall-clock synthesis time; nondeterministic, therefore excluded
    #: from serialized reports unless explicitly requested.
    seconds: float = 0.0
    #: Summed time of the optimization stages (Table I's runtime),
    #: measured in the worker; never serialized.
    optimize_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def total_nodes(self) -> int:
        return sum(self.node_counts.values())

    def to_payload(self, include_timing: bool = False) -> dict:
        payload: dict = {
            "benchmark": self.benchmark,
            "flow": self.flow,
            "status": self.status,
            "node_counts": dict(self.node_counts),
            "total_nodes": self.total_nodes,
            "steps": dict(self.steps),
            "cache": dict(self.cache),
            "verified": self.verified,
            "error": self.error,
        }
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.table2_row is not None:
            payload["table2_row"] = list(self.table2_row)
        if include_timing:
            payload["seconds"] = self.seconds
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "CircuitReport":
        """Rebuild a report from its :meth:`to_payload` dict (the job
        journal's replay path).  Round-trip contract: the rebuilt
        report's ``to_payload``/``to_json`` bytes equal the original's
        (timing excluded — wall-clock is nondeterministic and is not
        journaled)."""
        row = payload.get("table2_row")
        return cls(
            benchmark=payload["benchmark"],
            flow=payload["flow"],
            status=payload["status"],
            node_counts=dict(payload.get("node_counts") or {}),
            steps=dict(payload.get("steps") or {}),
            cache=dict(payload.get("cache") or {}),
            verified=payload.get("verified"),
            error=payload.get("error"),
            reason=payload.get("reason"),
            table2_row=None if row is None else (row[0], row[1], row[2]),
            seconds=float(payload.get("seconds", 0.0)),
        )


@dataclass
class BatchReport:
    """Ordered per-circuit reports plus suite-level aggregates."""

    flow: str
    circuits: list[CircuitReport] = field(default_factory=list)
    #: True start-to-finish wall-clock of the batch (shrinks as workers
    #: are added); nondeterministic, so serialized only on request.
    elapsed_seconds: float = 0.0
    #: Robustness-layer tallies, never serialized: they count retry
    #: *events*, which depend on scheduling, not on the input.  The
    #: serving layer folds them into ``/metrics`` counters.
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0

    @property
    def ok_circuits(self) -> list[CircuitReport]:
        return [c for c in self.circuits if c.ok]

    @property
    def failed_circuits(self) -> list[CircuitReport]:
        return [c for c in self.circuits if not c.ok]

    @property
    def total_seconds(self) -> float:
        """Summed per-circuit synthesis time (CPU-ish, not wall-clock:
        with N workers this exceeds :attr:`elapsed_seconds`)."""
        return sum(c.seconds for c in self.circuits)

    def summary(self) -> dict[str, int | float]:
        ok = self.ok_circuits
        cache = combine_cache_stats(c.cache for c in ok)
        return {
            "circuits": len(self.circuits),
            "ok": len(ok),
            "failed": len(self.failed_circuits),
            "total_nodes": sum(c.total_nodes for c in ok),
            "maj_nodes": sum(c.node_counts.get("maj", 0) for c in ok),
            "cache_hits": cache["hits"],
            "cache_misses": cache["misses"],
            "cache_evictions": cache["evictions"],
            "cache_hit_rate": cache["hit_rate"],
        }

    def to_json(self, include_timing: bool = False) -> str:
        payload = {
            "schema": REPORT_SCHEMA,
            "flow": self.flow,
            "circuits": [c.to_payload(include_timing) for c in self.circuits],
            "summary": self.summary(),
        }
        if include_timing:
            payload["total_seconds"] = self.total_seconds
            payload["elapsed_seconds"] = self.elapsed_seconds
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self, include_timing: bool = False) -> str:
        columns = _CSV_COLUMNS + (("seconds",) if include_timing else ())
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for report in self.circuits:
            row: list[object] = [
                report.benchmark,
                report.flow,
                report.status,
                report.node_counts.get("and", 0),
                report.node_counts.get("or", 0),
                report.node_counts.get("xor", 0),
                report.node_counts.get("xnor", 0),
                report.node_counts.get("maj", 0),
                report.total_nodes,
                report.steps.get("supernodes", 0),
                report.steps.get("sifted", 0),
                report.steps.get("majority", 0),
                report.steps.get("and_or", 0),
                report.steps.get("xor", 0),
                report.steps.get("mux", 0),
                report.cache.get("hits", 0),
                report.cache.get("misses", 0),
                report.cache.get("evictions", 0),
                repr(float(report.cache.get("hit_rate", 0.0))),
                "" if report.verified is None else str(report.verified),
                report.error or "",
            ]
            if include_timing:
                row.append(repr(report.seconds))
            writer.writerow(row)
        return buffer.getvalue()

    @classmethod
    def from_payload(cls, payload: dict) -> "BatchReport":
        """Rebuild a report from its parsed :meth:`to_json` payload.

        The inverse the journal replay path relies on: ``summary`` and
        every per-circuit ``total_nodes`` are derived fields, so they
        are recomputed (not trusted), and a rebuilt report re-serializes
        **byte-identical** to the original ``to_json``/``to_csv`` output
        (timing fields excluded — they are not journaled)."""
        return cls(
            flow=payload["flow"],
            circuits=[
                CircuitReport.from_payload(entry)
                for entry in payload.get("circuits") or []
            ],
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        )


def _load_item(item: "InputItem"):
    """Load one input item.

    Registry items resolve through this module's ``build_benchmark``
    binding (tests monkeypatch it to inject failures)."""
    if item.kind == "registry":
        return build_benchmark(item.name)
    return item.load()


class _StageGuard:
    """Pipeline observer run before every stage of one circuit: the
    ``batch.stage`` fault site and the cancellation poll.

    It duck-types :class:`~repro.api.PipelineObserver` because
    :mod:`repro.api` imports this package and cannot be imported at
    module level here.
    """

    def __init__(self, benchmark: str, cancel: Callable[[], bool] | None) -> None:
        self._benchmark = benchmark
        self._cancel = cancel

    def on_stage_start(self, ctx: object, stage: "Stage") -> None:
        if faults_active():
            inject_fault("batch.stage", f"{self._benchmark}:{stage.name}")
        if self._cancel is not None and self._cancel():
            raise BatchCancelled(f"cancelled while synthesizing {self._benchmark!r}")

    def on_stage_end(self, ctx: object, stage: "Stage", seconds: float) -> None:
        """Nothing to do once a stage finished."""


def synthesize_one(
    item: "str | InputItem",
    config: BatchConfig,
    stage_progress: "Callable[[str, StageEvent], None] | None" = None,
    cancel: Callable[[], bool] | None = None,
    *,
    attempt: int = 1,
) -> CircuitReport:
    """Synthesize one circuit; never raises for circuit errors.

    This is the unit of work a pool worker executes: it loads the
    circuit (registry key or BLIF file item), runs the flow's registered
    pipeline with fresh private managers — the optimize prefix, plus the
    ``verify`` stage when ``config.verify``, or the whole pipeline when
    ``config.mapped`` — and snapshots node counts, decomposition steps,
    op-cache counters and the Table-II row into a :class:`CircuitReport`.

    ``stage_progress`` and ``cancel`` are for in-process callers only
    (callbacks do not cross the pool's pickle boundary):
    ``stage_progress`` receives ``(benchmark, StageEvent)`` for every
    stage start/end as it happens, via the pipeline observer hooks —
    the serving layer streams per-stage progress from it; ``cancel`` is
    polled before every stage, raising :class:`BatchCancelled` mid-
    circuit instead of only between circuits.

    ``attempt`` is the 1-based retry ordinal the dispatcher is on; it
    never affects the result, only the fault-injection key
    (``"<benchmark>:<attempt>"`` at site ``batch.worker``), so a chaos
    plan can target exactly one attempt of one circuit.
    """
    from ..api import InputItem, StageEventExporter, get_pipeline
    from ..api.stages import VerifyEquivalence

    if isinstance(item, str):
        item = InputItem(name=item, kind="registry")
    benchmark = item.name
    # The exporter fires before the guard, so a stage's start event is
    # streamed even when the guard then cancels or faults that stage.
    observers: list = []
    if stage_progress is not None:
        observers.append(StageEventExporter(lambda event: stage_progress(benchmark, event)))

    start = time.perf_counter()
    try:
        inject_fault("batch.worker", f"{benchmark}:{attempt}")
        network = _load_item(item)
        if cancel is not None or faults_active():
            observers.append(_StageGuard(benchmark, cancel))
        pipeline = get_pipeline(config.flow)
        flow_config = dataclasses.replace(pipeline.default_config(), verify=config.verify)
        if not config.mapped:
            pipeline = pipeline.optimize_prefix()
            if config.verify:
                pipeline = pipeline.with_stages(pipeline.stages + (VerifyEquivalence(),))
        ctx = pipeline.run_context(network, flow_config, observers=observers)
        trace = ctx.scratch.get("trace")
        steps: dict[str, int] = {}
        if trace is not None:
            steps = {
                "supernodes": trace.supernodes,
                "sifted": trace.sifted,
                "majority": trace.majority_steps,
                "and_or": trace.and_or_steps,
                "xor": trace.xor_steps,
                "mux": trace.mux_steps,
                "tree_nodes": trace.tree_nodes,
            }
        return CircuitReport(
            benchmark=item.name,
            flow=config.flow,
            status="ok",
            node_counts=ctx.node_counts,
            steps=steps,
            cache=ctx.cache_stats,
            verified=True if ctx.equivalence is not None else None,
            table2_row=ctx.require("timing_report").row() if config.mapped else None,
            seconds=time.perf_counter() - start,
            optimize_seconds=ctx.optimize_seconds,
        )
    except BatchCancelled:
        raise  # cancellation is a batch-level abort, not a circuit error
    except Exception as exc:  # noqa: BLE001 — failure isolation by design
        return CircuitReport(
            benchmark=item.name,
            flow=config.flow,
            status="error",
            error=f"{type(exc).__name__}: {exc}",
            seconds=time.perf_counter() - start,
        )


def _pool_worker(args: "tuple[InputItem, BatchConfig, int]") -> CircuitReport:
    item, config, attempt = args
    return synthesize_one(item, config, attempt=attempt)


def _normalize_items(
    keys: "Sequence[str | InputItem] | Iterable[str | InputItem] | InputSource",
) -> "list[InputItem]":
    from ..api import InputItem, InputSource

    if isinstance(keys, InputSource):
        return keys.items()
    items: list[InputItem] = []
    for entry in keys:
        if isinstance(entry, InputItem):
            items.append(entry)
        else:
            # Plain strings stay registry keys; unknown keys surface as
            # per-circuit error rows, not batch aborts.
            items.append(InputItem(name=str(entry), kind="registry"))
    return items


def _init_pool_worker() -> None:
    """Restore default signal handling in forked pool workers.

    Workers inherit the parent's handlers, and when the pool is forked
    from a process with custom ones — the asyncio serving layer installs
    loop handlers for SIGTERM/SIGINT — an inherited handler swallows the
    SIGTERM that ``pool.terminate()`` sends, deadlocking the join that
    follows.  SIGINT is ignored instead: Ctrl-C is the parent's job (it
    reaps the pool on :class:`KeyboardInterrupt`), and workers staying
    quiet avoids a traceback storm from every child.
    """
    try:
        signal.set_wakeup_fd(-1)  # detach any inherited asyncio wakeup pipe
    except (ValueError, OSError):  # pragma: no cover - platform-dependent
        pass
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _pool_ping() -> bool:
    """Health-check task a :class:`WarmPoolManager` runs on acquire."""
    return True


class WarmPoolManager:
    """Reusable worker pools for the serving layer.

    ``batch_pool`` creates and tears down a pool per batch; under a
    server that is pure overhead — every job pays process spawn plus
    (with ``spawn``/``forkserver``) a full interpreter import.  A
    :class:`WarmPoolManager` keeps idle pools parked between jobs:

    * :meth:`acquire` hands out an idle pool of the requested size if
      one is parked (after a ping health-check; an unresponsive pool is
      replaced), else spawns a fresh one;
    * :meth:`release` parks a healthy pool for reuse (bounded per size;
      overflow pools are closed);
    * :meth:`discard` destroys a pool whose batch raised — after a
      ``terminate()`` mid-``imap`` the pool's internal state is
      undefined, so it is never reused;
    * :meth:`drain` tears everything down (server shutdown).

    Pools are keyed by worker count, created through :func:`_pool_context`
    with :func:`_init_pool_worker`.
    Thread-safe: the serving layer calls it from executor threads.
    """

    def __init__(
        self,
        max_idle_per_size: int = 2,
        ping_timeout: float = 10.0,
    ) -> None:
        self._max_idle_per_size = max_idle_per_size
        self._ping_timeout = ping_timeout
        self._lock = threading.Lock()
        self._idle: dict[int, list[multiprocessing.pool.Pool]] = {}
        self._sizes: dict[int, int] = {}  # id(pool) -> worker count
        self._drained = False
        #: Acquires served from a parked pool.
        self.warm_acquires = 0
        #: Acquires that had to spawn a fresh pool.
        self.cold_acquires = 0
        #: Parked pools found dead on acquire and replaced.
        self.respawns = 0
        #: Pools destroyed after a failed batch.
        self.discards = 0

    # -- lifecycle ------------------------------------------------------
    def _spawn(self, processes: int) -> multiprocessing.pool.Pool:
        pool = _pool_context().Pool(  # bdslint: disable=RES003 -- manager-owned lifetime: every _spawn result is parked in _idle or handed to a caller that must release()/discard(), and drain() terminates stragglers
            processes=processes,
            initializer=_init_pool_worker,
        )
        with self._lock:
            self._sizes[id(pool)] = processes
        return pool

    def _ping_sweep(
        self, candidates: "list[multiprocessing.pool.Pool]"
    ) -> "tuple[list[multiprocessing.pool.Pool], list[multiprocessing.pool.Pool]]":
        """Health-check every candidate pool *concurrently*.

        Returns ``(healthy, dead)`` — dead includes pools whose ping
        crashed or never answered.  Every ping is sent before any answer
        is awaited, and one shared deadline bounds the whole sweep, so
        ``k`` hung pools cost one ``ping_timeout``, not ``k`` of them
        back to back.
        """
        pings: list[tuple[multiprocessing.pool.Pool, multiprocessing.pool.AsyncResult]]
        pings = []
        dead: list[multiprocessing.pool.Pool] = []
        healthy: list[multiprocessing.pool.Pool] = []
        for pool in candidates:
            try:
                pings.append((pool, pool.apply_async(_pool_ping)))
            except Exception:  # noqa: BLE001 - a broken pool is a dead pool
                dead.append(pool)
        deadline = time.monotonic() + self._ping_timeout
        for pool, ping in pings:
            try:
                ok = bool(ping.get(timeout=max(0.0, deadline - time.monotonic())))
            except Exception:  # noqa: BLE001 - crashed or timed-out ping = dead
                ok = False
            (healthy if ok else dead).append(pool)
        return healthy, dead

    def acquire(self, processes: int) -> multiprocessing.pool.Pool:
        """A ready pool with ``processes`` workers (parked or fresh)."""
        with self._lock:
            if self._drained:
                raise RuntimeError("WarmPoolManager is drained")
            candidates = list(self._idle.pop(processes, ()))
        healthy, dead = self._ping_sweep(candidates) if candidates else ([], [])
        for pool in dead:
            # A parked pool died or hung (OOM-killed worker, crashed
            # interpreter): reap it and count the replacement.
            with self._lock:
                self.respawns += 1
                self._sizes.pop(id(pool), None)
            pool.terminate()
            pool.join()
        # Most recently parked first (warmest caches), like the old
        # LIFO pop; the rest go back on the lot unless a concurrent
        # drain() won the race, in which case they are torn down too.
        chosen = healthy.pop() if healthy else None
        with self._lock:
            drained = self._drained
            if not drained and healthy:
                self._idle.setdefault(processes, [])[:0] = healthy
                healthy = []
        if drained:
            if chosen is not None:
                healthy.append(chosen)
            for pool in healthy:
                with self._lock:
                    self._sizes.pop(id(pool), None)
                pool.terminate()
                pool.join()
            raise RuntimeError("WarmPoolManager is drained")
        if chosen is not None:
            with self._lock:
                self.warm_acquires += 1
            return chosen
        with self._lock:
            self.cold_acquires += 1
        return self._spawn(processes)

    def release(self, pool: multiprocessing.pool.Pool) -> None:
        """Park a pool whose batch completed cleanly."""
        with self._lock:
            processes = self._sizes.get(id(pool))
            park = (
                not self._drained
                and processes is not None
                and len(self._idle.setdefault(processes, [])) < self._max_idle_per_size
            )
            if park:
                self._idle[processes].append(pool)
            else:
                self._sizes.pop(id(pool), None)
        if not park:
            pool.terminate()
            pool.join()

    def discard(self, pool: multiprocessing.pool.Pool) -> None:
        """Destroy a pool whose batch raised; never reuse it."""
        with self._lock:
            self.discards += 1
            self._sizes.pop(id(pool), None)
        pool.terminate()
        pool.join()

    def drain(self) -> None:
        """Tear down every parked pool; further acquires raise."""
        with self._lock:
            self._drained = True
            pools = [pool for parked in self._idle.values() for pool in parked]
            self._idle.clear()
            self._sizes.clear()
        for pool in pools:
            pool.terminate()
        for pool in pools:
            pool.join()

    # -- introspection --------------------------------------------------
    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "warm_acquires": self.warm_acquires,
                "cold_acquires": self.cold_acquires,
                "respawns": self.respawns,
                "discards": self.discards,
                "idle_pools": sum(len(parked) for parked in self._idle.values()),
            }


def _pool_context() -> multiprocessing.context.BaseContext:
    """The start method for a new worker pool.

    From the main thread (the CLI) the platform default is kept — fork
    on Linux, cheap and byte-compatible with the published reports.
    From any other thread (the serving layer's executor) forking is
    unsafe: the child inherits every interpreter lock in whatever state
    the *other* threads held it, a latent deadlock — so prefer
    ``forkserver`` (children fork from a clean, single-threaded server
    process), falling back to ``spawn`` where it is unavailable.
    """
    if threading.current_thread() is threading.main_thread():
        return multiprocessing.get_context()
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn"
    )


@contextlib.contextmanager
def batch_pool(
    processes: int,
    manager: WarmPoolManager | None = None,
    tainted: Callable[[], bool] | None = None,
) -> "Iterator[multiprocessing.pool.Pool]":
    """Worker-pool lifecycle shared by :func:`run_batch` and the serving
    layer.

    Without a ``manager`` (the one-shot mode): a fresh pool is created;
    on a clean exit it is closed and joined; on *any* exception —
    including :class:`KeyboardInterrupt` and :class:`BatchCancelled` —
    it is terminated and joined before the exception propagates, so no
    orphaned workers survive the batch.

    With a :class:`WarmPoolManager` (the serving mode): the pool is
    acquired from — and on a clean exit released back to — the manager,
    staying warm for the next batch; on an exception it is discarded
    (terminated), because a pool torn out of a batch mid-flight is not
    safe to reuse.

    ``tainted`` is the dispatcher's exit report: when it returns true on
    a clean exit, the pool saw a worker death or abandoned a
    deadline-expired attempt, so its result cache holds entries no task
    will ever complete — ``close()``/``join()`` would hang forever (and
    parking it warm would hand the hang to the next job).  Such a pool
    is terminated (one-shot) or discarded (managed) instead.
    """
    if manager is not None:
        pool = manager.acquire(processes)
        try:
            yield pool
        except BaseException:
            manager.discard(pool)
            raise
        else:
            if tainted is not None and tainted():
                manager.discard(pool)
            else:
                manager.release(pool)
        return
    pool = _pool_context().Pool(processes=processes, initializer=_init_pool_worker)
    try:
        yield pool
    except BaseException:
        # Ctrl-C / cancellation: reap the workers, then re-raise so the
        # caller (CLI, serve job runner) still sees the interruption.
        pool.terminate()
        pool.join()
        raise
    else:
        if tainted is not None and tainted():
            pool.terminate()
        else:
            pool.close()
        pool.join()


#: Longest (seconds) the parallel dispatcher sleeps between checks of
#: deadlines, worker health and the ``cancel`` hook; a landing result
#: wakes it at once.
_CANCEL_POLL_SECONDS = 0.1


class _PoolWatch:
    """Observes pool worker deaths between dispatcher polls.

    ``multiprocessing.Pool`` transparently respawns a killed worker
    (its ``_maintain_pool`` thread), but the task the victim was running
    is lost forever — its ``AsyncResult`` never completes, which is
    exactly the hang the old ``next(results)`` consumption suffered.
    Sampling the pool's worker table between polls is the sentinel that
    turns that silent loss into a retryable event.
    """

    def __init__(self, pool: multiprocessing.pool.Pool) -> None:
        self._pool = pool
        self._live = self._snapshot()

    def _snapshot(self) -> set[int]:
        workers = list(getattr(self._pool, "_pool", None) or ())  # noqa: SLF001
        return {proc.pid for proc in workers if proc.exitcode is None}

    def poll(self) -> int:
        """Worker deaths observed since the last call."""
        current = self._snapshot()
        died = len(self._live - current)
        self._live = current
        return died


@dataclass
class _Flight:
    """Dispatch state of one circuit in a parallel batch."""

    index: int
    item: "InputItem"
    #: "queued" (never launched) | "running" (attempt in flight) |
    #: "backoff" (attempt failed, waiting out the retry gate); finished
    #: flights leave the table instead of carrying a state.
    state: str = "queued"
    #: Attempts launched so far (1-based once running).
    attempts: int = 0
    #: One landing slot per outstanding attempt, filled by the pool's
    #: result thread.  More than one after a worker-death retry: the
    #: original attempt may still be alive on a surviving worker, and
    #: whichever attempt completes first wins.
    results: "list[list[CircuitReport]]" = field(default_factory=list)
    #: ``time.monotonic()`` of the latest launch (deadline base).
    attempt_started: float = 0.0
    #: Earliest ``time.monotonic()`` the next retry may launch.
    retry_at: float = 0.0


def _retry_error(reason: str, attempts: int, config: BatchConfig) -> str:
    """Deterministic error text for an exhausted circuit — a pure
    function of config and attempt count, so serial and parallel
    batches (and every worker count) emit byte-identical error rows."""
    if reason == "timeout":
        return (
            f"TimeoutError: exceeded circuit_timeout={config.circuit_timeout:g}s "
            f"on {attempts} attempt(s)"
        )
    return f"WorkerLost: worker process died during synthesis ({attempts} attempt(s))"


def _exhausted_report(
    item: "InputItem", config: BatchConfig, reason: str, attempts: int
) -> CircuitReport:
    return CircuitReport(
        benchmark=item.name,
        flow=config.flow,
        status="error",
        error=_retry_error(reason, attempts, config),
        reason=reason,
    )


def _launch(
    workers: multiprocessing.pool.Pool,
    flight: _Flight,
    config: BatchConfig,
    wake: threading.Event,
) -> None:
    """Start one attempt of ``flight``.

    The pool's result thread drops the attempt's report into a fresh
    landing slot and then sets ``wake``, so the dispatcher sees the
    report as soon as it wakes.  :func:`synthesize_one` never raises for
    circuit errors, so a raising task means the task itself broke
    (unpicklable item, pool machinery); it lands as an error row with
    the same failure-isolation contract as in-circuit exceptions.
    """
    flight.attempts += 1
    flight.state = "running"
    flight.attempt_started = time.monotonic()
    landed: list[CircuitReport] = []

    def land(circuit: CircuitReport) -> None:
        landed.append(circuit)
        wake.set()

    def broke(exc: BaseException) -> None:
        land(
            CircuitReport(
                benchmark=flight.item.name,
                flow=config.flow,
                status="error",
                error=f"{type(exc).__name__}: {exc}",
            )
        )

    workers.apply_async(
        _pool_worker,
        ((flight.item, config, flight.attempts),),
        callback=land,
        error_callback=broke,
    )
    flight.results.append(landed)


def _attempt_failed(
    flight: _Flight,
    reason: str,
    config: BatchConfig,
    now: float,
    report: BatchReport,
) -> CircuitReport | None:
    """One attempt of ``flight`` failed (``"timeout"`` or
    ``"worker_died"``): either gate the deterministic-backoff retry
    (returns ``None``) or exhaust the budget into an error row."""
    if reason == "timeout":
        report.timeouts += 1
        # The deadline voids the attempt: a straggler finishing late
        # must not race its own retry, or near-deadline circuits would
        # flap between outcomes run to run.
        flight.results.clear()
    if flight.attempts >= config.max_retries + 1:
        return _exhausted_report(flight.item, config, reason, flight.attempts)
    flight.state = "backoff"
    flight.retry_at = now + config.retry_backoff * (2 ** (flight.attempts - 1))
    return None


def _synthesize_serial(
    item: "InputItem",
    config: BatchConfig,
    stage_progress: "Callable[[str, StageEvent], None] | None",
    cancel: Callable[[], bool] | None,
    report: BatchReport,
) -> CircuitReport:
    """One circuit on the serial path, honoring the same deadline and
    retry budget as the pool path.

    A single-process batch cannot preempt itself, so the deadline is
    enforced post-hoc — a runaway circuit still runs to completion but
    is *reported* exactly as the parallel path reports it: same attempt
    budget, same deterministic error text, keeping serial and parallel
    reports byte-identical for circuits whose runtime is not sitting on
    the deadline itself.
    """
    deadline = config.circuit_timeout
    attempt = 1
    while True:
        circuit = synthesize_one(
            item, config, stage_progress=stage_progress, cancel=cancel, attempt=attempt
        )
        if deadline is None or circuit.seconds < deadline:
            return circuit
        report.timeouts += 1
        if attempt >= config.max_retries + 1:
            return _exhausted_report(item, config, "timeout", attempt)
        report.retries += 1
        time.sleep(config.retry_backoff * (2 ** (attempt - 1)))
        attempt += 1


def run_batch(
    keys: "Sequence[str | InputItem] | Iterable[str | InputItem] | InputSource",
    config: BatchConfig | None = None,
    progress: Callable[[str], None] | None = None,
    *,
    cancel: Callable[[], bool] | None = None,
    stage_progress: "Callable[[str, StageEvent], None] | None" = None,
    pool: "WarmPoolManager | None" = None,
) -> BatchReport:
    """Synthesize every circuit in ``keys``; report in input order.

    ``keys`` may be registry keys, :class:`~repro.api.InputItem`
    descriptors (mixed freely) or a whole :class:`~repro.api.InputSource`.
    With ``config.workers == 1`` the batch runs serially in-process
    (simplest to debug, no pickling); otherwise a worker pool processes
    circuits concurrently.  A one-circuit batch without a ``pool``
    manager also runs serially, since spawning a pool for it buys
    nothing; with one, it runs in a parked worker, so concurrent
    one-circuit jobs spread over CPUs.  Either way the report content
    is identical.

    An input resolving to zero items returns an empty (but valid and
    serializable) report.  ``cancel`` is polled before every pipeline
    stage of a serial batch, and at least every ~100 ms while waiting on
    pool results in a parallel one (which wakes as soon as a result
    lands, not on that tick); once it returns true the batch
    raises :class:`BatchCancelled` after reaping any worker pool.
    ``stage_progress`` streams per-stage :class:`~repro.api.StageEvent`
    progress for serial batches (worker processes cannot call back
    across the pickle boundary, so parallel batches only report
    per-circuit completions through ``progress``).

    ``pool`` is the warm-serving seam: a caller-owned
    :class:`WarmPoolManager` whose parked pools are reused instead of
    spawning a fresh pool per batch.  The report stays byte-identical —
    results are collected into input-order slots, and per-circuit
    determinism does not depend on how the pool was obtained.
    """
    if config is None:
        config = BatchConfig()
    items = _normalize_items(keys)
    report = BatchReport(flow=config.flow)
    batch_start = time.perf_counter()
    # Zero circuits is a valid (if vacuous) batch: a glob-driven or
    # service-driven source may legitimately resolve to nothing, and
    # ``multiprocessing.Pool(processes=0)`` would raise.
    if not items:
        report.elapsed_seconds = time.perf_counter() - batch_start
        return report

    def check_cancel() -> None:
        if cancel is not None and cancel():
            raise BatchCancelled(
                f"batch cancelled after {len(report.circuits)} of "
                f"{len(items)} circuits"
            )

    def note(circuit: CircuitReport) -> None:
        if progress is None:
            return
        if not circuit.ok:
            outcome = f"ERROR {circuit.error}"
        elif circuit.table2_row is not None:
            area, gates, delay = circuit.table2_row
            outcome = f"A={area:.2f} GC={gates} D={delay:.3f}"
        else:
            outcome = f"total={circuit.total_nodes}"
        progress(f"{circuit.benchmark:12s} {circuit.flow:8s} {outcome}")

    if config.workers == 1 or (len(items) <= 1 and pool is None):
        for item in items:
            check_cancel()
            circuit = _synthesize_serial(item, config, stage_progress, cancel, report)
            note(circuit)
            report.circuits.append(circuit)
        report.elapsed_seconds = time.perf_counter() - batch_start
        return report

    # Parallel: deadline-aware dispatch.  Every circuit is a _Flight
    # whose attempts land their reports in slots the loop checks — it
    # never blocks on a single pool result, so a SIGKILLed worker or a
    # runaway circuit stalls one flight, never the batch.  Reports go
    # into input-order slots, so neither completion order nor retries
    # can perturb report bytes; progress lines still stream in input
    # order as the prefix fills.
    cap = min(config.workers, len(items))
    deadline = config.circuit_timeout

    def pool_tainted() -> bool:
        return report.worker_deaths > 0 or report.timeouts > 0

    with batch_pool(cap, manager=pool, tainted=pool_tainted) as workers:
        watch = _PoolWatch(workers)
        wake = threading.Event()  # set by the pool whenever a result lands
        slots: list[CircuitReport | None] = [None] * len(items)
        flights: dict[int, _Flight] = {
            index: _Flight(index=index, item=item)
            for index, item in enumerate(items)
        }
        backlog = collections.deque(flights.values())
        active = 0  # flights in state "running" (attempt window <= cap)
        noted = 0

        def launch_due(now: float) -> None:
            """Fill free attempt slots: backoff-expired retries first
            (oldest work), then fresh circuits in input order.  Capping
            concurrent attempts at the pool size keeps queue wait out
            of the deadline clock — a dispatched attempt is (about to
            be) running, so ``attempt_started`` measures work."""
            nonlocal active
            for flight in flights.values():
                if active >= cap:
                    return
                if flight.state == "backoff" and now >= flight.retry_at:
                    report.retries += 1
                    _launch(workers, flight, config, wake)
                    active += 1
            while backlog and active < cap:
                flight = backlog.popleft()
                if flight.state == "queued":
                    _launch(workers, flight, config, wake)
                    active += 1

        launch_due(time.monotonic())
        while flights:
            check_cancel()
            now = time.monotonic()
            progressed = False
            for flight in list(flights.values()):
                if flight.state != "running":
                    continue
                circuit = next((done[0] for done in flight.results if done), None)
                if (
                    circuit is None
                    and deadline is not None
                    and now - flight.attempt_started >= deadline
                ):
                    circuit = _attempt_failed(flight, "timeout", config, now, report)
                if circuit is not None:
                    slots[flight.index] = circuit
                    del flights[flight.index]
                    active -= 1
                    progressed = True
                elif flight.state != "running":
                    active -= 1  # attempt ended; flight is backing off
            deaths = watch.poll()
            if deaths:
                report.worker_deaths += deaths
                now = time.monotonic()
                # The pool cannot say which flight the victim was
                # running, so every in-flight attempt is charged one
                # failure; surviving originals keep their landing
                # slots and still win if they complete first.
                for flight in list(flights.values()):
                    if flight.state != "running":
                        continue
                    circuit = _attempt_failed(
                        flight, "worker_died", config, now, report
                    )
                    if circuit is not None:
                        slots[flight.index] = circuit
                        del flights[flight.index]
                    active -= 1
                progressed = True
            launch_due(time.monotonic())
            while noted < len(slots) and slots[noted] is not None:
                note(slots[noted])  # type: ignore[arg-type]
                noted += 1
            if flights and not progressed:
                wake.wait(_CANCEL_POLL_SECONDS)
                wake.clear()
        report.circuits.extend(
            circuit for circuit in slots if circuit is not None
        )
    report.elapsed_seconds = time.perf_counter() - batch_start
    return report
