"""Durable job journal: append-only NDJSON with crash replay.

The serving layer's job store is in-memory by default — a restart loses
every finished report and evicts every result-cache entry.  With
``bdsmaj serve --journal PATH`` the :class:`JobStore` writes through a
:class:`JobJournal`: one fsync'd record per state change, so that on
startup the server replays the file and

* restores every finished job — its ``/jobs/<id>/result`` bytes are
  **identical** to what the pre-crash server returned (the journaled
  report payload round-trips through
  :meth:`~repro.flows.BatchReport.from_payload`);
* rehydrates the content-hash :class:`~repro.serve.ResultCache`, so a
  resubmission of replayed work is a cache hit, not a resynthesis;
* re-enqueues jobs that were submitted but never finished — a crash
  mid-batch loses no work, the interrupted jobs simply run again under
  their original ids.

Poison jobs are the exception to that last point: every re-enqueue is
journaled *before* the job runs again, so a job that crashes the
service on every run accumulates evidence across restarts.  Once its
start count reaches the service's ``--max-attempts``, replay parks it
as ``quarantined`` instead of re-enqueueing — ending the restart crash
loop while keeping the job inspectable via ``/jobs/<id>``.

Records
-------
Every record carries ``"v"`` (:data:`JOURNAL_VERSION`), ``"type"`` and,
except ``meta``, the job ``"id"``.  Write-through and compaction build
them with the same three builders (:func:`_submit_record`,
:func:`_attempt_record`, :func:`_terminal_record`), so each kind is
built in one place.

``submit``      request knobs and item names of a new job
``attempt``     ``count``: the job's start count at a replay re-enqueue
``finish``      ``report`` payload and ``cache_key`` of a done job
``error``       ``error`` message of a failed job
``cancel``      the job was cancelled
``quarantine``  ``attempts`` and ``error`` of a parked poison job
``meta``        ``next_id``: the id counter (written by compaction)

Replay skips record types it does not know, which is how ``attempt``
and ``quarantine`` joined without a version bump.

Record framing
--------------
One record per line: ``CRC32<TAB>JSON\\n``, where the CRC is over the
exact JSON bytes.  A torn final line (the crash happened mid-``write``)
fails the CRC or framing check and is *tolerated*: replay stops trusting
the tail, and :meth:`JobJournal.open` truncates the file back to the
last intact record so subsequent appends cannot corrupt the framing.
A corrupt line in the *middle* of the file (bit rot) is skipped and
counted, never silently replayed.

Compaction
----------
The journal only ever appends, so a long-lived server accumulates dead
records (expired jobs, superseded states).  When the file grows past
``compact_bytes`` (and past twice its size after the previous rewrite,
so a genuinely large live set does not thrash), the store triggers
:meth:`JobJournal.compact`: the journal is rewritten to a temp file
holding only the *live* records — a ``meta`` record preserving the id
counter, then per job still in the store its ``submit``, its
``attempt`` (if restarted) and its terminal record (if terminal) —
fsync'd and atomically renamed over the old file.

Threading: every journal method is called on the event-loop thread
(job state transitions are loop-thread by the serve layer's threading
contract), so the class needs no locking.
"""

from __future__ import annotations

import io
import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..faults import inject as inject_fault
from ..flows.batch import BatchReport
from .jobs import CANCELLED, DONE, ERROR, QUARANTINED, JobRequest

if TYPE_CHECKING:  # pragma: no cover - hints only
    from collections.abc import Callable

    from .jobs import Job

#: Default file size (bytes) past which an append triggers compaction.
DEFAULT_COMPACT_BYTES = 4 << 20

#: Journal format tag, checked on replay (a future incompatible format
#: bumps it; an unknown version refuses to replay rather than guess).
JOURNAL_VERSION = 1


class JournalError(RuntimeError):
    """The journal file cannot be used (unreadable, wrong version)."""


@dataclass
class ReplayedJob:
    """One job reconstructed from the journal, ready for adoption."""

    id: str
    request: JobRequest
    #: Display names of the resolved items (the journal does not store
    #: file contents; unfinished jobs re-resolve from the request).
    item_names: list[str]
    #: Terminal state (``done`` / ``error`` / ``cancelled`` /
    #: ``quarantined``) or ``None`` for a job that was submitted but
    #: never finished — the crash interrupted it, and the server
    #: re-enqueues (or, past ``max_attempts``, quarantines) it on
    #: replay.
    state: str | None = None
    report: BatchReport | None = None
    cache_key: str | None = None
    error: str | None = None
    #: Times this job has been started (submit = 1, plus one per
    #: journaled ``attempt`` record) — the quarantine gate's evidence.
    attempts: int = 1


@dataclass
class ReplayResult:
    """What :meth:`JobJournal.open` recovered from an existing file."""

    jobs: list[ReplayedJob] = field(default_factory=list)
    #: Id counter floor: the next created job must number past every
    #: journaled one, even when compaction dropped the high records.
    next_id: int = 1
    #: Intact records read.
    records: int = 0
    #: Mid-file lines that failed CRC/framing and were skipped.
    corrupt_lines: int = 0
    #: Bytes of torn tail truncated away (0 for a clean file).
    truncated_bytes: int = 0


def _encode_record(record: dict[str, Any]) -> bytes:
    """One journal line: CRC32 of the canonical JSON, tab, the JSON."""
    payload = json.dumps(record, sort_keys=True, separators=(",", ":"))
    raw = payload.encode("utf-8")
    return b"%08x\t" % (zlib.crc32(raw) & 0xFFFFFFFF) + raw + b"\n"


def _decode_line(line: bytes) -> dict[str, Any] | None:
    """Parse one journal line; ``None`` for anything not intact."""
    if not line.endswith(b"\n"):
        return None  # torn tail: the final write never completed
    crc_hex, sep, raw = line[:-1].partition(b"\t")
    if not sep or len(crc_hex) != 8:
        return None
    try:
        expected = int(crc_hex, 16)
    except ValueError:
        return None
    if zlib.crc32(raw) & 0xFFFFFFFF != expected:
        return None
    try:
        record = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _request_payload(request: JobRequest) -> dict[str, Any]:
    return {
        "circuits": list(request.circuits),
        "flow": request.flow,
        "workers": request.workers,
        "verify": request.verify,
        "priority": request.priority,
    }


def _request_from_payload(payload: dict[str, Any]) -> JobRequest:
    """The request of a ``submit`` record.  Keys earlier versions wrote
    for BDD knobs that are gone (the op-cache policy and capacity, the
    reordering policy) are ignored, so such a job replays as the
    default request."""
    return JobRequest(
        circuits=tuple(payload["circuits"]),
        flow=payload["flow"],
        workers=payload["workers"],
        verify=payload["verify"],
        priority=payload["priority"],
    )


def _report_payload(report: BatchReport) -> dict[str, Any]:
    return {
        "flow": report.flow,
        "circuits": [circuit.to_payload() for circuit in report.circuits],
    }


def _record(kind: str, **fields: Any) -> dict[str, Any]:
    """A journal record of ``kind``, stamped with the format version."""
    return {"v": JOURNAL_VERSION, "type": kind, **fields}


def _submit_record(job: "Job") -> dict[str, Any]:
    return _record(
        "submit",
        id=job.id,
        request=_request_payload(job.request),
        items=[item.name for item in job.items],
    )


def _attempt_record(job: "Job") -> dict[str, Any]:
    return _record("attempt", id=job.id, count=job.attempts)


def _terminal_record(job: "Job") -> dict[str, Any] | None:
    """The record of the terminal state ``job`` is in (``None`` while
    it is queued or running)."""
    if job.state == DONE and job.report is not None:
        return _record(
            "finish", id=job.id, cache_key=job.cache_key, report=_report_payload(job.report)
        )
    if job.state == ERROR:
        return _record("error", id=job.id, error=job.error or "unknown error")
    if job.state == QUARANTINED:
        return _record(
            "quarantine",
            id=job.id,
            attempts=job.attempts,
            error=job.error or "crash-looped the service",
        )
    if job.state == CANCELLED:
        return _record("cancel", id=job.id)
    return None


def _fsync_dir(directory: Path) -> None:
    """Flush ``directory``'s entry table to stable storage.

    ``os.fsync`` on a file makes its *contents* durable, but a freshly
    created name or an ``os.replace`` lives in the parent directory's
    entries — on ext4/XFS those need their own fsync or a crash can
    resurrect the replaced file (or lose the new one).  Best effort:
    platforms that refuse ``open(dir)`` (Windows) skip it.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class JobJournal:
    """Append-only NDJSON journal the :class:`~repro.serve.JobStore`
    writes through.  See the module docstring for the record framing,
    replay and compaction stories."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        fsync: bool = True,
        compact_bytes: int = DEFAULT_COMPACT_BYTES,
    ) -> None:
        if compact_bytes < 1:
            raise ValueError("compact_bytes must be >= 1")
        self.path = Path(path)
        self._fsync = fsync
        self._compact_bytes = compact_bytes
        self._file: io.BufferedWriter | None = None
        self._bytes = 0
        self._last_compact_bytes = 0
        # Ids whose submit/terminal records are already on disk —
        # replayed jobs re-run their state transitions, and the
        # write-through hooks must not duplicate their records.
        self._submitted: set[str] = set()
        self._terminal: set[str] = set()
        #: Counters surfaced through ``/metrics``.
        self.records_written = 0
        self.compactions = 0
        self.replayed_jobs = 0

    # ------------------------------------------------------------------
    # Open + replay
    # ------------------------------------------------------------------
    def open(self) -> ReplayResult:
        """Replay an existing journal (if any) and open for appending.

        Returns what was recovered; raises :class:`JournalError` only
        for an unusable file (undecodable version record), never for a
        torn tail — that is the crash case the journal exists for."""
        result = ReplayResult()
        good_end = 0
        raw_records: list[dict[str, Any]] = []
        existed = self.path.exists()
        if existed:
            with open(self.path, "rb") as stream:
                data = stream.read()
            offset = 0
            while offset < len(data):
                newline = data.find(b"\n", offset)
                end = len(data) if newline < 0 else newline + 1
                record = _decode_line(data[offset:end])
                if record is None:
                    if end >= len(data):
                        break  # torn tail: everything past good_end goes
                    result.corrupt_lines += 1
                else:
                    version = record.get("v", JOURNAL_VERSION)
                    if version != JOURNAL_VERSION:
                        raise JournalError(
                            f"journal {self.path} is version {version!r}, "
                            f"this build reads {JOURNAL_VERSION}"
                        )
                    raw_records.append(record)
                    result.records += 1
                    good_end = end
                offset = end
            result.truncated_bytes = len(data) - good_end
        self._replay_records(raw_records, result)
        self.replayed_jobs = len(result.jobs)
        # Truncate the torn tail *before* appending: new records written
        # after a partial line would be unreadable on the next replay.
        self._file = open(self.path, "ab")
        if not existed and self._fsync:
            # The first append's fsync makes the *contents* durable,
            # but the new name itself lives in the parent directory.
            _fsync_dir(self.path.parent)
        if result.truncated_bytes:
            self._file.truncate(good_end)
        self._bytes = good_end
        self._last_compact_bytes = good_end
        return result

    def _replay_records(self, records: list[dict[str, Any]], result: ReplayResult) -> None:
        jobs: dict[str, ReplayedJob] = {}
        for record in records:
            kind = record.get("type")
            if kind == "meta":
                result.next_id = max(result.next_id, int(record.get("next_id", 1)))
                continue
            job_id = record.get("id")
            if not isinstance(job_id, str):
                continue
            if kind == "submit":
                try:
                    request = _request_from_payload(record["request"])
                except (KeyError, TypeError, ValueError):
                    continue  # unreadable request: nothing to restore
                jobs[job_id] = ReplayedJob(
                    id=job_id,
                    request=request,
                    item_names=list(record.get("items") or []),
                )
                self._submitted.add(job_id)
            elif kind == "finish":
                job = jobs.get(job_id)
                if job is None:
                    continue
                try:
                    report = BatchReport.from_payload(record["report"])
                except (KeyError, TypeError, ValueError):
                    # Unreadable report: the job ran once, but its bytes
                    # are gone — re-enqueue it instead of serving junk.
                    continue
                job.state = DONE
                job.report = report
                key = record.get("cache_key")
                job.cache_key = key if isinstance(key, str) else None
                self._terminal.add(job_id)
            elif kind == "error":
                job = jobs.get(job_id)
                if job is None:
                    continue
                job.state = ERROR
                job.error = str(record.get("error") or "unknown error")
                self._terminal.add(job_id)
            elif kind == "cancel":
                job = jobs.get(job_id)
                if job is None:
                    continue
                job.state = CANCELLED
                self._terminal.add(job_id)
            elif kind == "attempt":
                job = jobs.get(job_id)
                if job is None:
                    continue
                try:
                    count = int(record.get("count", job.attempts + 1))
                except (TypeError, ValueError):
                    continue
                job.attempts = max(job.attempts, count)
            elif kind == "quarantine":
                job = jobs.get(job_id)
                if job is None:
                    continue
                job.state = QUARANTINED
                job.error = str(record.get("error") or "quarantined")
                try:
                    job.attempts = max(job.attempts, int(record.get("attempts", 1)))
                except (TypeError, ValueError):
                    pass
                self._terminal.add(job_id)
        result.jobs = list(jobs.values())
        for job in result.jobs:
            number = _job_number(job.id)
            if number is not None:
                result.next_id = max(result.next_id, number + 1)

    # ------------------------------------------------------------------
    # Write-through
    # ------------------------------------------------------------------
    def record_submit(self, job: "Job") -> None:
        """Journal a new submission (no-op for replayed ids)."""
        if job.id in self._submitted:
            return
        self._submitted.add(job.id)
        self._append(_submit_record(job))

    def record_attempt(self, job: "Job") -> None:
        """Journal a replay re-enqueue *before* the job runs again: a
        job that crashes the service on every run accumulates one
        ``attempt`` record per restart, the quarantine gate's evidence."""
        if job.id not in self._submitted or job.id in self._terminal:
            return
        self._append(_attempt_record(job))

    def record_terminal(self, job: "Job") -> None:
        """Journal a job reaching its terminal state (exactly once per
        id: replayed jobs and double transitions are no-ops)."""
        if job.id in self._terminal or job.id not in self._submitted:
            return
        record = _terminal_record(job)
        if record is not None:
            self._terminal.add(job.id)
            self._append(record)

    def _append(self, record: dict[str, Any]) -> None:
        if self._file is None:
            raise JournalError("journal is not open")
        inject_fault("journal.append", str(record["type"]))
        line = _encode_record(record)
        self._file.write(line)
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())
        self._bytes += len(line)
        self.records_written += 1

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def compact(self, jobs: "list[Job]", next_id: int) -> None:
        """Rewrite the journal to the live records only: a ``meta``
        record pinning the id counter, then per retained job its
        ``submit``, its ``attempt`` (if restarted) and its terminal
        record (if terminal).  Written to a temp file, fsync'd,
        atomically renamed."""
        if self._file is None:
            raise JournalError("journal is not open")
        records = [_record("meta", next_id=next_id)]
        for job in jobs:
            records.append(_submit_record(job))
            if job.attempts > 1:
                # Keep the start count: the quarantine gate must still
                # see the history after a rewrite.
                records.append(_attempt_record(job))
            terminal = _terminal_record(job)
            if terminal is not None:
                records.append(terminal)
        temp_path = self.path.with_name(self.path.name + ".compact")
        with open(temp_path, "wb") as sink:
            for record in records:
                sink.write(_encode_record(record))
            sink.flush()
            os.fsync(sink.fileno())
        # The window the crash test targets: the temp file is complete
        # and durable, but the rename has not happened yet — a crash
        # here must leave the *old* journal fully replayable.
        inject_fault("journal.compact", str(self.compactions))
        self._file.close()
        os.replace(temp_path, self.path)
        if self._fsync:
            _fsync_dir(self.path.parent)
        self._file = open(self.path, "ab")
        self._bytes = self.path.stat().st_size
        self._last_compact_bytes = self._bytes
        self.compactions += 1
        # Only live ids can still receive records; the sets exist to
        # dedupe, and dead ids never come back (ids are never reused).
        live = {job.id for job in jobs}
        self._submitted &= live
        self._terminal &= live

    def maybe_compact(self, jobs: "Callable[[], list[Job]]", next_id: int) -> bool:
        """Compact once the file outgrew the threshold *and* doubled
        since the previous rewrite (so a large live set does not
        thrash); returns whether it did.  ``jobs`` lists the live jobs;
        it is called only when compaction runs, so a transition below
        the threshold costs O(1)."""
        if self._bytes < max(self._compact_bytes, 2 * self._last_compact_bytes):
            return False
        self.compact(jobs(), next_id)
        return True

    # ------------------------------------------------------------------
    # Lifecycle + introspection
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            if self._fsync:
                os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def stats(self) -> dict[str, Any]:
        """The ``/metrics`` journal gauge."""
        return {
            "path": str(self.path),
            "bytes": self._bytes,
            "records_written": self.records_written,
            "compactions": self.compactions,
            "replayed_jobs": self.replayed_jobs,
        }


def _job_number(job_id: str) -> int | None:
    """The numeric suffix of a ``job-NNNNNN`` id (``None`` otherwise)."""
    prefix, _, suffix = job_id.rpartition("-")
    if prefix.endswith("job") and suffix.isdigit():
        return int(suffix)
    return None
