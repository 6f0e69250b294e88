"""Priority queue + bounded-concurrency dispatcher.

The :class:`JobQueue` is the scheduling core of the serving layer: an
:class:`asyncio.PriorityQueue` ordered by ``(priority, submission
sequence)`` feeds a fixed number of runner tasks, so at most
``concurrency`` jobs synthesize at once no matter how many requests are
queued.  Each runner hands its job to a thread-pool executor, where the
thread calls :func:`repro.flows.run_batch` — which in turn owns a
multiprocessing pool when the request asks for ``workers > 1``.  The
event loop therefore never blocks on synthesis: HTTP handling, status
polling and event streaming stay responsive while jobs grind.

Progress flows the other way: the executor thread forwards per-circuit
lines and per-stage :class:`~repro.api.StageEvent` payloads back onto
the loop with ``call_soon_threadsafe``, appending to the job's event
log that the server streams.

Shutdown (:meth:`JobQueue.shutdown`) cancels every non-terminal job —
which makes in-flight ``run_batch`` calls raise
:class:`~repro.flows.BatchCancelled` and reap their worker pools —
then drains the runner tasks with sentinels and joins the executor, so
no thread or pool worker outlives the service.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import TYPE_CHECKING, Iterable

from ..api import StageEvent
from ..flows.batch import BatchCancelled, BatchReport, run_batch
from .jobs import DONE, QUEUED, Job

if TYPE_CHECKING:  # pragma: no cover - hints only
    from ..flows.batch import WarmPoolManager
    from .cache import ResultCache
    from .metrics import ServiceMetrics

#: Sentinel priority that sorts after every real (int) job priority.
_SHUTDOWN_PRIORITY = float("inf")


class JobQueue:
    """Dispatch submitted jobs onto a bounded pool of runner tasks.

    Optional collaborators wire it into the warm-serving stack:

    * ``pool_manager`` — a :class:`~repro.flows.WarmPoolManager` handed
      to every ``run_batch`` call, so parallel jobs reuse parked worker
      pools instead of spawning per job (the queue uses it but does not
      own it: the service drains it at shutdown);
    * ``result_cache`` — finished ``done`` reports are stored under the
      job's content hash for the submit path to answer resubmissions;
    * ``metrics`` — receives ``queue_wait`` and ``run`` latency samples.
    """

    def __init__(
        self,
        concurrency: int = 2,
        pool_manager: "WarmPoolManager | None" = None,
        result_cache: "ResultCache | None" = None,
        metrics: "ServiceMetrics | None" = None,
    ) -> None:
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        self.concurrency = concurrency
        self.pool_manager = pool_manager
        self.result_cache = result_cache
        self.metrics = metrics
        self._queue: asyncio.PriorityQueue = asyncio.PriorityQueue()
        self._seq = itertools.count()
        self._runners: list[asyncio.Task] = []
        self._executor = ThreadPoolExecutor(
            max_workers=concurrency, thread_name_prefix="bdsmaj-job"
        )
        self._closing = False

    def start(self) -> None:
        """Spawn the runner tasks (requires a running event loop)."""
        if self._runners:
            return
        loop = asyncio.get_running_loop()
        self._runners = [
            loop.create_task(self._run_jobs(), name=f"bdsmaj-runner-{i}")
            for i in range(self.concurrency)
        ]

    def submit(self, job: Job) -> None:
        """Enqueue ``job``; lower ``priority`` runs sooner, ties in
        submission order."""
        if self._closing:
            raise RuntimeError("job queue is shutting down")
        self._queue.put_nowait(
            (job.request.priority, next(self._seq), job, time.perf_counter())
        )

    async def shutdown(self, jobs: Iterable[Job] = ()) -> None:
        """Cancel ``jobs`` (typically every job in the store), stop the
        runners, and join the executor — reaping every worker."""
        self._closing = True
        for job in jobs:
            job.request_cancel()
        for _ in self._runners:
            self._queue.put_nowait(
                (_SHUTDOWN_PRIORITY, next(self._seq), None, 0.0)
            )
        if self._runners:
            await asyncio.gather(*self._runners, return_exceptions=True)
            self._runners = []
        # Runner tasks only finish after their in-flight executor calls
        # resolved, so this join cannot block on a live batch.
        self._executor.shutdown(wait=True)  # bdslint: disable=ASY004 -- shutdown path: runners already gathered above, so no executor call is in flight and the join returns immediately

    async def _run_jobs(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            _priority, _seq, job, enqueued_at = await self._queue.get()
            if job is None:  # shutdown sentinel
                return
            if job.state != QUEUED:  # cancelled while waiting
                continue
            if self.metrics is not None:
                self.metrics.observe(
                    "queue_wait", time.perf_counter() - enqueued_at
                )
            job.mark_running()
            run_started = time.perf_counter()
            outcome, value = await loop.run_in_executor(
                self._executor, self._execute, job, loop
            )
            if self.metrics is not None:
                self.metrics.observe("run", time.perf_counter() - run_started)
            if outcome == "done":
                if self.metrics is not None:
                    # Fault-tolerance tallies off the report (inc(0) is
                    # a no-op, so a clean run costs nothing).
                    self.metrics.inc("circuit_retries", value.retries)
                    self.metrics.inc("circuit_timeouts", value.timeouts)
                    self.metrics.inc("worker_deaths", value.worker_deaths)
                job.finish(value)
                # Retain only fully-ok reports: a per-circuit error row
                # *should* be deterministic, but pinning one forever on
                # the strength of that assumption is a bad trade.
                if (
                    self.result_cache is not None
                    and job.state == DONE
                    and all(circuit.ok for circuit in value.circuits)
                ):
                    self.result_cache.put(job.cache_key, value)
            elif outcome == "cancelled":
                job.mark_cancelled()
            else:
                job.fail(value)

    def _execute(
        self, job: Job, loop: asyncio.AbstractEventLoop
    ) -> tuple[str, BatchReport | str | None]:
        """Run one job's batch on the executor thread.

        Returns an ``(outcome, value)`` pair instead of touching the
        job: the runner task applies it on the loop thread, keeping all
        job state single-threaded.
        """

        def emit(payload: dict) -> None:
            loop.call_soon_threadsafe(job.add_event, payload)

        def circuit_progress(line: str) -> None:
            emit({"type": "circuit", "message": " ".join(line.split())})

        def stage_progress(benchmark: str, event: StageEvent) -> None:
            emit(dict(event.to_payload(), type="stage", benchmark=benchmark))

        try:
            report = run_batch(
                job.items,
                job.request.batch_config(),
                progress=circuit_progress,
                cancel=job.cancel_requested,
                stage_progress=stage_progress,
                pool=self.pool_manager,
            )
        except BatchCancelled:
            return "cancelled", None
        except Exception as exc:  # noqa: BLE001 — job isolation by design
            return "error", f"{type(exc).__name__}: {exc}"
        return "done", report
