"""Chaos tests: poison-job quarantine and crash-safe journal compaction.

The headline test stages the crash loop the quarantine exists for: a
fault plan SIGKILLs the server every time one circuit is synthesized,
and after ``--max-attempts`` starts the replay must park the job as
``quarantined`` — terminal, inspectable, counted — instead of letting
it kill the service forever.
"""

from __future__ import annotations

import asyncio
import json
import signal
from pathlib import Path

import pytest

from repro.serve import JobRequest, JobStore, SynthesisService
from repro.serve.journal import JobJournal

from .client import http_json, http_request, poll_job
from .harness import spawn_serve, with_service


def run(coro):
    return asyncio.run(coro)


def _journal_with_attempts(path: Path, attempts: int) -> str:
    """Write a journal holding one non-terminal job started ``attempts``
    times; returns the job id."""
    journal = JobJournal(path, fsync=False)
    journal.open()
    store = JobStore(journal=journal)
    job = store.create(JobRequest(circuits=("alu2",)), [])
    if attempts > 1:
        job.attempts = attempts
        journal.record_attempt(job)
    journal.close()
    return job.id


class TestReplayGate:
    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match="max_attempts"):
            SynthesisService(port=0, max_attempts=0)

    def test_below_threshold_replays_with_incremented_attempts(self, tmp_path):
        path = tmp_path / "jobs.journal"
        job_id = _journal_with_attempts(path, attempts=2)

        async def scenario(service, host, port):
            final = await poll_job(host, port, job_id)
            assert final["status"] == "done"
            # The replay re-enqueue is itself one more start.
            assert final["attempts"] == 3

        run(
            with_service(
                scenario, concurrency=1, journal_path=path, max_attempts=3
            )
        )

    def test_at_threshold_quarantines_without_running(self, tmp_path):
        path = tmp_path / "jobs.journal"
        job_id = _journal_with_attempts(path, attempts=3)

        async def scenario(service, host, port):
            status, payload = await http_json(
                host, port, "GET", f"/jobs/{job_id}"
            )
            assert status == 200
            assert payload["status"] == "quarantined"
            assert payload["attempts"] == 3
            assert "quarantined after 3 attempt(s)" in payload["error"]
            status, metrics = await http_json(host, port, "GET", "/metrics")
            assert metrics["counters"]["jobs_quarantined"] == 1

        run(
            with_service(
                scenario, concurrency=1, journal_path=path, max_attempts=3
            )
        )

    def test_quarantine_is_terminal_across_restarts(self, tmp_path):
        path = tmp_path / "jobs.journal"
        job_id = _journal_with_attempts(path, attempts=3)

        async def quarantined(service, host, port):
            status, payload = await http_json(
                host, port, "GET", f"/jobs/{job_id}"
            )
            assert payload["status"] == "quarantined"
            assert payload["attempts"] == 3

        run(
            with_service(
                quarantined, concurrency=1, journal_path=path, max_attempts=3
            )
        )
        # Second restart: the quarantine record replays as terminal
        # state — the job is not re-counted, re-enqueued, or re-parked.
        run(
            with_service(
                quarantined, concurrency=1, journal_path=path, max_attempts=3
            )
        )


class TestReplayedEventCap:
    def test_quarantined_and_unresolvable_jobs_honour_event_cap(self, tmp_path):
        """Every replayed job keeps at most ``event_cap`` events, the
        parked and the unresolvable ones too, and reports the head it
        dropped (queued, replayed) in its status and its stream."""
        path = tmp_path / "jobs.journal"
        journal = JobJournal(path, fsync=False)
        journal.open()
        store = JobStore(journal=journal)
        poison = store.create(JobRequest(circuits=("alu2",)), [])
        poison.attempts = 3
        journal.record_attempt(poison)
        missing = store.create(JobRequest(circuits=("no-such-circuit",)), [])
        journal.close()

        async def scenario(service, host, port):
            for job_id, status in ((poison.id, "quarantined"), (missing.id, "error")):
                _, payload = await http_json(host, port, "GET", f"/jobs/{job_id}")
                assert payload["status"] == status
                assert payload["events"] == 3
                assert payload["events_dropped"] == 2
                _, raw = await http_request(host, port, "GET", f"/jobs/{job_id}/events")
                events = [json.loads(line) for line in raw.decode().splitlines()]
                assert events[0] == {"type": "truncated", "dropped": 2, "job": job_id}
                assert [event["status"] for event in events[1:]] == [status]

        run(with_service(scenario, concurrency=1, journal_path=path, max_attempts=3, event_cap=1))


#: Stall long enough for the HTTP 202 to flush, then kill the process:
#: the poison job crashes the whole server on every run.
_POISON_PLAN = json.dumps(
    {
        "seed": 7,
        "faults": [
            {"site": "batch.worker", "action": "stall", "match": "f51m:", "seconds": 0.5},
            {"site": "batch.worker", "action": "kill", "match": "f51m:"},
        ],
    }
)


def _spawn_poisoned(journal: Path, wait_listen: bool):
    """Start a ``bdsmaj serve --max-attempts 3`` subprocess whose fault
    plan SIGKILLs it whenever f51m is synthesized."""
    return spawn_serve(journal, ["--max-attempts", "3"], _POISON_PLAN, wait_listen)


class TestPoisonJobCrashLoop:
    def test_poison_job_quarantined_after_exactly_max_attempts_starts(
        self, tmp_path
    ):
        """Submit a job the fault plan turns poisonous.  Run 1 accepts
        it and dies; restarts 2 and 3 replay, re-enqueue (attempts 2
        and 3) and die again; restart 4 quarantines it instead of
        running it — and stays up to serve other work."""
        journal = tmp_path / "jobs.journal"
        process, port = _spawn_poisoned(journal, wait_listen=True)
        try:

            async def submit():
                status, job = await http_json(
                    "127.0.0.1", port, "POST", "/jobs", {"circuits": ["f51m"]}
                )
                assert status == 202
                return job["id"]

            job_id = run(submit())
            # The fault plan SIGKILLs the server as soon as it starts
            # synthesizing (start 1 of max_attempts=3).
            assert process.wait(timeout=120) == -signal.SIGKILL
        finally:
            process.kill()
            process.wait()

        # Starts 2 and 3: replay re-enqueues the job (journaling the
        # incremented attempt count first) and the poison kills the
        # server again each time.
        for _ in range(2):
            process, _ = _spawn_poisoned(journal, wait_listen=False)
            try:
                assert process.wait(timeout=120) == -signal.SIGKILL
            finally:
                process.kill()
                process.wait()

        # Start 4: the attempt budget is spent; the job is parked.
        process, port = _spawn_poisoned(journal, wait_listen=True)
        try:

            async def after_quarantine():
                status, payload = await http_json(
                    "127.0.0.1", port, "GET", f"/jobs/{job_id}"
                )
                assert status == 200
                assert payload["status"] == "quarantined"
                assert payload["attempts"] == 3
                assert "quarantined after 3 attempt(s)" in payload["error"]
                status, metrics = await http_json(
                    "127.0.0.1", port, "GET", "/metrics"
                )
                assert metrics["counters"]["jobs_quarantined"] == 1
                # The service survives and still does real work (the
                # plan is armed but alu2 never matches it).
                status, job = await http_json(
                    "127.0.0.1", port, "POST", "/jobs", {"circuits": ["alu2"]}
                )
                assert status == 202
                final = await poll_job("127.0.0.1", port, job["id"])
                assert final["status"] == "done"

            run(after_quarantine())
        finally:
            process.terminate()
            process.wait(timeout=30)


#: Kill the server inside :meth:`JobJournal.compact`, in the window
#: where the temp rewrite is durable but ``os.replace`` has not run —
#: the old journal must still replay everything.
_COMPACT_CRASH_PLAN = json.dumps(
    {"seed": 7, "faults": [{"site": "journal.compact", "action": "kill"}]}
)


def _spawn_compacting(journal: Path, plan: "str | None"):
    """Start a serve subprocess with ``--journal-compact-bytes 1`` (the
    first terminal record triggers compaction); ``plan`` arms the fault
    plan, ``None`` runs clean.  Returns (process, port)."""
    return spawn_serve(journal, ["--journal-compact-bytes", "1"], plan)


class TestCrashDuringCompaction:
    def test_sigkill_between_temp_write_and_rename_replays_bytes(
        self, tmp_path
    ):
        """SIGKILL the server *inside* compaction — after the temp
        rewrite is fsync'd, before the rename.  The orphaned ``.compact``
        temp must be ignored, the old journal must replay the finished
        job, and its result bytes must match a clean run's exactly."""
        journal = tmp_path / "jobs.journal"
        process, port = _spawn_compacting(journal, _COMPACT_CRASH_PLAN)
        try:

            async def submit():
                status, job = await http_json(
                    "127.0.0.1", port, "POST", "/jobs", {"circuits": ["alu2"]}
                )
                assert status == 202
                return job["id"]

            job_id = run(submit())
            # The terminal record lands (fsync'd), compaction starts,
            # and the fault kills the process before the rename.
            assert process.wait(timeout=120) == -signal.SIGKILL
        finally:
            process.kill()
            process.wait()

        # The crash signature: a completed temp rewrite next to the
        # intact old journal.
        assert journal.with_name(journal.name + ".compact").exists()
        assert journal.stat().st_size > 0

        # Restart clean: replay restores the finished job and the next
        # compaction (same tiny threshold) completes normally.
        process, port = _spawn_compacting(journal, None)
        try:

            async def after_crash():
                status, payload = await http_json(
                    "127.0.0.1", port, "GET", f"/jobs/{job_id}"
                )
                assert status == 200
                assert payload["status"] == "done"
                status, body = await http_request(
                    "127.0.0.1", port, "GET", f"/jobs/{job_id}/result"
                )
                assert status == 200
                status, metrics = await http_json(
                    "127.0.0.1", port, "GET", "/metrics"
                )
                assert metrics["journal"]["replayed_jobs"] == 1
                return body

            replayed_bytes = run(after_crash())
        finally:
            process.terminate()
            process.wait(timeout=30)

        # Byte-identity: an uncrashed server answers the same submission
        # with exactly the same result bytes.
        reference_journal = tmp_path / "reference.journal"
        process, port = _spawn_compacting(reference_journal, None)
        try:

            async def reference():
                status, job = await http_json(
                    "127.0.0.1", port, "POST", "/jobs", {"circuits": ["alu2"]}
                )
                assert status == 202
                await poll_job("127.0.0.1", port, job["id"])
                status, body = await http_request(
                    "127.0.0.1", port, "GET", f"/jobs/{job['id']}/result"
                )
                assert status == 200
                return body

            reference_bytes = run(reference())
        finally:
            process.terminate()
            process.wait(timeout=30)
        assert replayed_bytes == reference_bytes

