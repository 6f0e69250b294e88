"""Job model of the async serving layer.

A :class:`Job` is one submitted synthesis request: a
:class:`JobRequest` (flow, per-request knobs, priority), the resolved
:class:`~repro.api.InputItem` list it will synthesize, a state machine
(``queued → running → done | error | cancelled``, plus ``quarantined``
for poison jobs parked by journal replay), an append-only event
log (the wire payloads the ``/jobs/<id>/events`` endpoint streams), and
— once finished — the :class:`~repro.flows.BatchReport` whose
serialization is byte-identical to what :func:`repro.flows.run_batch`
produces for the same circuits.

Threading contract
------------------
All state transitions and event appends happen on the event-loop
thread; the executor thread that actually runs the batch communicates
exclusively through ``loop.call_soon_threadsafe``.  The one exception
is the cancel flag: it is a :class:`threading.Event` so the
``run_batch`` cancel hook can poll it from the worker thread (and the
flag crosses into pool workers only as a polled boolean, never as
shared state).
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..api import InputItem
from ..flows.batch import BatchConfig, BatchReport

if TYPE_CHECKING:  # pragma: no cover - hints only
    from .journal import JobJournal, ReplayedJob

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
ERROR = "error"
CANCELLED = "cancelled"
#: Poison-job parking state: the journal shows this job was (re)started
#: ``max_attempts`` times without ever reaching a terminal record, so
#: replay refuses to enqueue it again (it crash-looped the service).
QUARANTINED = "quarantined"

#: States a job never leaves.
TERMINAL_STATES = frozenset({DONE, ERROR, CANCELLED, QUARANTINED})

#: Default cap on wire events retained per *finished* job.  A
#: long-lived server accumulates per-stage/per-circuit progress lines
#: for every job it ever ran; once a job is terminal only the tail of
#: that log is interesting, so the head is dropped (the stream endpoint
#: reports the truncation explicitly).
DEFAULT_EVENT_CAP = 256


@dataclass(frozen=True)
class JobRequest:
    """What a client asked for: circuits plus per-request batch knobs.

    ``priority`` orders the queue (lower runs sooner; ties run in
    submission order).  Everything else maps 1:1 onto
    :class:`~repro.flows.BatchConfig`, so a served job is exactly a
    ``run_batch`` call.
    """

    circuits: tuple[str, ...]
    flow: str = "bds-maj"
    workers: int = 1
    verify: bool = False
    priority: int = 0

    def batch_config(self) -> BatchConfig:
        """The equivalent :class:`~repro.flows.BatchConfig` (validates
        the numeric/choice fields exactly like the CLI)."""
        return BatchConfig(
            flow=self.flow,
            workers=self.workers,
            verify=self.verify,
        )


class Job:
    """One queued/running/finished synthesis request."""

    def __init__(
        self,
        job_id: str,
        request: JobRequest,
        items: "Sequence[InputItem]",
        event_cap: int | None = None,
    ) -> None:
        self.id = job_id
        self.request = request
        self.items = list(items)
        self.state = QUEUED
        self.error: str | None = None
        self.report: BatchReport | None = None
        #: Content hash of (resolved circuit contents, report-affecting
        #: config) — the result-cache key; ``None`` if uncacheable.
        self.cache_key: str | None = None
        #: True when the report was answered from the result cache
        #: instead of a fresh synthesis.
        self.cache_hit = False
        #: Retained wire-ready event payloads, in emission order.  While
        #: the job runs the log is append-only and complete; once it
        #: reaches a terminal state the head may be dropped down to
        #: ``event_cap`` entries (:attr:`events_dropped` counts them, so
        #: ``events_dropped + index`` is an event's stable absolute
        #: position — the stream endpoint relies on that).
        self.events: list[dict] = []
        #: Events dropped from the *front* of the log by truncation.
        self.events_dropped = 0
        #: Times this job has been started: 1 for the original
        #: submission, +1 for every journal replay that re-enqueued it
        #: (attempt records).  The quarantine gate compares it against
        #: the service's ``max_attempts``.
        self.attempts = 1
        #: Invoked (on the loop thread) the moment the job reaches a
        #: terminal state — the store's journal write-through hook.
        self.on_terminal: Callable[[Job], None] | None = None
        self._event_cap = event_cap
        self._cancel = threading.Event()
        # Event-chain wakeup: every append swaps in a fresh event and
        # sets the old one, so any number of streaming readers can wait
        # without clear() races.
        self._changed = asyncio.Event()
        self.add_event({"type": "state", "status": QUEUED})

    # -- loop-thread side ----------------------------------------------
    def add_event(self, payload: dict) -> None:
        """Append one wire event and wake every streaming reader."""
        self.events.append(dict(payload, job=self.id))
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()

    def change_event(self) -> asyncio.Event:
        """The event the *next* :meth:`add_event` will set.  Capture it
        before draining :attr:`events`, then ``await`` it."""
        return self._changed

    @property
    def total_events(self) -> int:
        """Events ever emitted (retained plus truncated)."""
        return self.events_dropped + len(self.events)

    def _truncate_events(self) -> None:
        """Drop the head of the event log down to the configured cap
        (terminal-state jobs only — a running job's log stays complete
        so a late stream subscriber can replay everything)."""
        cap = self._event_cap
        if cap is None or len(self.events) <= cap:
            return
        drop = len(self.events) - cap
        del self.events[:drop]
        self.events_dropped += drop

    def mark_running(self) -> None:
        self.state = RUNNING
        self.add_event({"type": "state", "status": RUNNING})

    def finish(self, report: BatchReport) -> None:
        self.report = report
        summary = report.summary()
        self._terminate(DONE, ok=summary["ok"], failed=summary["failed"])

    def fail(self, error: str) -> None:
        self.error = error
        self._terminate(ERROR, error=error)

    def mark_cancelled(self) -> None:
        self._terminate(CANCELLED)

    def mark_quarantined(self, error: str) -> None:
        """Park a poison job: terminal, never re-enqueued, with the
        attempt count on the record so operators can see the history."""
        self.error = error
        self._terminate(QUARANTINED, attempts=self.attempts, error=error)

    def _terminate(self, state: str, **fields: object) -> None:
        """Enter terminal ``state``: emit its state event (plus
        ``fields``), cut the log down to the cap, then run the
        ``on_terminal`` hook."""
        self.state = state
        self.add_event({"type": "state", "status": state, **fields})
        self._truncate_events()
        if self.on_terminal is not None:
            self.on_terminal(self)

    def request_cancel(self) -> bool:
        """Ask the job to stop.

        A queued job is cancelled immediately (the dispatcher skips it);
        a running job keeps state ``running`` until its batch observes
        the flag and aborts.  Returns ``False`` for jobs already in a
        terminal state (nothing to do).
        """
        if self.state in TERMINAL_STATES:
            return False
        self._cancel.set()
        if self.state == QUEUED:
            self.mark_cancelled()
        return True

    # -- any-thread side -----------------------------------------------
    def cancel_requested(self) -> bool:
        """Thread-safe read of the cancel flag (the ``run_batch``
        ``cancel`` hook)."""
        return self._cancel.is_set()

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES


class JobStore:
    """All jobs the service has seen, by id, in submission order.

    Long-lived servers bound their memory in two ways:

    * ``event_cap`` — every job that reaches a terminal state keeps at
      most this many wire events (the head of the log is dropped;
      ``/jobs/<id>/events`` reports the truncation explicitly).
      ``None`` retains everything.
    * ``max_finished_jobs`` — at most this many *finished* jobs are
      retained; submitting a new job expires the oldest finished ones
      (their ids then answer 404).  Queued/running jobs never expire.
      ``None`` retains everything.

    With a ``journal`` the store is durable: every create appends a
    ``submit`` record, every terminal transition (wherever it happens —
    queue runner, cancel endpoint, shutdown) appends the matching
    terminal record via the job's ``on_terminal`` hook, and oversized
    journals are compacted down to the live jobs.  Replayed jobs enter
    through :meth:`adopt`, which also keeps the id counter monotonic
    across restarts.
    """

    def __init__(
        self,
        event_cap: int | None = DEFAULT_EVENT_CAP,
        max_finished_jobs: int | None = None,
        journal: "JobJournal | None" = None,
    ) -> None:
        if event_cap is not None and event_cap < 1:
            raise ValueError("event_cap must be >= 1 (or None)")
        if max_finished_jobs is not None and max_finished_jobs < 0:
            raise ValueError("max_finished_jobs must be >= 0 (or None)")
        self._jobs: dict[str, Job] = {}
        self._next_id = 1
        self._event_cap = event_cap
        self._max_finished = max_finished_jobs
        self._journal = journal

    def create(self, request: JobRequest, items: "Sequence[InputItem]") -> Job:
        job = Job(
            f"job-{self._next_id:06d}", request, items, event_cap=self._event_cap
        )
        self._next_id += 1
        self._jobs[job.id] = job
        if self._journal is not None:
            job.on_terminal = self._record_terminal
            self._journal.record_submit(job)
        self._expire_finished()
        return job

    def adopt(
        self,
        replayed: "ReplayedJob",
        next_id: int,
        items: "Sequence[InputItem] | None" = None,
        resubmitted: bool = False,
    ) -> Job:
        """Insert a journal-replayed job under its original id, with its
        attempt count and cache key, and keep the id counter past
        ``next_id`` so new jobs never collide.  ``items`` defaults to
        the journaled item names; the job's log records the replay
        (and whether the job runs again) after its queued event."""
        if replayed.id in self._jobs:
            raise ValueError(f"job id {replayed.id!r} already in the store")
        if items is None:
            items = [InputItem(name=name) for name in replayed.item_names]
        job = Job(replayed.id, replayed.request, items, event_cap=self._event_cap)
        job.attempts = replayed.attempts
        job.cache_key = replayed.cache_key
        job.add_event({"type": "replayed", "resubmitted": resubmitted})
        self._jobs[job.id] = job
        self._next_id = max(self._next_id, next_id)
        if self._journal is not None:
            job.on_terminal = self._record_terminal
        return job

    def _record_terminal(self, job: Job) -> None:
        """Journal write-through for terminal transitions, triggering
        compaction once the file outgrows its threshold."""
        self._journal.record_terminal(job)
        self._journal.maybe_compact(self.jobs, self._next_id)

    def _expire_finished(self) -> None:
        """Evict the oldest finished jobs beyond ``max_finished_jobs``
        (dict order is submission order, so the scan is oldest-first)."""
        if self._max_finished is None:
            return
        finished = [job for job in self._jobs.values() if job.finished]
        for job in finished[: max(0, len(finished) - self._max_finished)]:
            del self._jobs[job.id]

    def get(self, job_id: str) -> Job | None:
        return self._jobs.get(job_id)

    def jobs(self) -> list[Job]:
        return list(self._jobs.values())

    def counts(self) -> dict[str, int]:
        """Job tally by state (the health endpoint's queue gauge)."""
        tally = {
            state: 0
            for state in (QUEUED, RUNNING, DONE, ERROR, CANCELLED, QUARANTINED)
        }
        for job in self._jobs.values():
            tally[job.state] += 1
        return tally
