"""Journal durability tests: framing, replay, compaction, crash-replay.

The headline test mirrors the acceptance criteria: a server is
SIGKILL'd mid-batch, restarted on the same journal, and must (a) serve
the already-finished job's report byte-identical to the pre-crash
bytes, (b) re-run the interrupted job to completion, and (c) answer a
resubmission of replayed work from the rehydrated result cache.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import time
from pathlib import Path

import pytest

from repro.api import InputItem
from repro.flows import BatchConfig, BatchReport, run_batch
from repro.serve import JobRequest, JobStore
from repro.serve.cache import submission_key
from repro.serve.journal import (
    JobJournal,
    JournalError,
    ReplayResult,
    _decode_line,
    _encode_record,
    _report_payload,
)

from .client import http_json, http_request, poll_job
from .harness import spawn_serve, with_service


def run(coro):
    return asyncio.run(coro)


class TestFraming:
    def test_roundtrip(self):
        record = {"type": "submit", "id": "job-000001", "v": 1}
        assert _decode_line(_encode_record(record)) == record

    def test_rejects_bad_crc_missing_newline_and_garbage(self):
        line = _encode_record({"type": "cancel", "id": "job-000002", "v": 1})
        corrupted = bytearray(line)
        corrupted[12] ^= 0xFF  # flip a byte inside the JSON
        assert _decode_line(bytes(corrupted)) is None
        assert _decode_line(line[:-1]) is None  # torn: no newline
        assert _decode_line(b"not a journal line\n") is None
        assert _decode_line(b"00000000\t[1,2]\n") is None  # CRC mismatch


def _replay(path: Path) -> ReplayResult:
    """Replay the journal at ``path`` and close it again."""
    journal = JobJournal(path, fsync=False)
    try:
        return journal.open()
    finally:
        journal.close()


def _fill_store(path: Path, **journal_kwargs) -> tuple[JobJournal, JobStore]:
    journal = JobJournal(path, fsync=False, **journal_kwargs)
    journal.open()
    store = JobStore(journal=journal)
    return journal, store


class TestReplay:
    def test_terminal_states_and_interrupted_jobs_replay(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal, store = _fill_store(path)
        report = run_batch(["alu2"], BatchConfig())
        done = store.create(JobRequest(circuits=("alu2",)), [])
        done.cache_key = "key-alu2"
        done.finish(report)
        failed = store.create(JobRequest(circuits=("f51m",)), [])
        failed.fail("boom")
        cancelled = store.create(JobRequest(circuits=("vda",)), [])
        cancelled.mark_cancelled()
        interrupted = store.create(JobRequest(circuits=("misex3",)), [])
        assert interrupted.state == "queued"  # no terminal record written
        journal.close()

        replay = _replay(path)
        by_id = {job.id: job for job in replay.jobs}
        assert len(by_id) == 4
        assert by_id[done.id].state == "done"
        assert by_id[done.id].cache_key == "key-alu2"
        # The byte-identity contract: the journaled report re-serializes
        # to exactly the bytes the original produced.
        assert by_id[done.id].report.to_json() == report.to_json()
        assert by_id[done.id].report.to_csv() == report.to_csv()
        assert by_id[failed.id].state == "error"
        assert by_id[failed.id].error == "boom"
        assert by_id[cancelled.id].state == "cancelled"
        assert by_id[interrupted.id].state is None  # to be re-enqueued
        assert replay.next_id == 5
        assert replay.corrupt_lines == 0
        assert replay.truncated_bytes == 0

    def test_torn_tail_is_truncated_and_tolerated(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal, store = _fill_store(path)
        store.create(JobRequest(circuits=("alu2",)), []).mark_cancelled()
        journal.close()
        intact_size = path.stat().st_size
        with open(path, "ab") as stream:
            stream.write(b"deadbeef\t{\"type\": \"torn")  # crash mid-write

        journal = JobJournal(path, fsync=False)
        replay = journal.open()
        assert replay.truncated_bytes > 0
        assert len(replay.jobs) == 1
        # The tail is physically gone, so future appends stay framed.
        journal.close()
        assert path.stat().st_size == intact_size

    def test_midfile_corruption_is_skipped_and_counted(self, tmp_path):
        path = tmp_path / "jobs.journal"
        journal, store = _fill_store(path)
        first = store.create(JobRequest(circuits=("alu2",)), [])
        first.mark_cancelled()
        second = store.create(JobRequest(circuits=("f51m",)), [])
        second.mark_cancelled()
        journal.close()
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = b"00000000\tcorrupted-but-terminated\n"
        path.write_bytes(b"".join(lines))

        replay = _replay(path)
        assert replay.corrupt_lines == 1
        by_id = {job.id: job for job in replay.jobs}
        # first lost its cancel record to bit rot -> replays interrupted;
        # second is untouched.
        assert by_id[first.id].state is None
        assert by_id[second.id].state == "cancelled"

    def test_unknown_version_refuses_to_replay(self, tmp_path):
        path = tmp_path / "jobs.journal"
        path.write_bytes(_encode_record({"v": 99, "type": "meta", "next_id": 7}))
        with pytest.raises(JournalError):
            _replay(path)

    def test_compaction_keeps_live_records_and_id_counter(self, tmp_path):
        path = tmp_path / "jobs.journal"
        # A tiny threshold so every terminal transition compacts once
        # the doubling rule allows it.
        journal, store = _fill_store(path, compact_bytes=1)
        for key in ("alu2", "f51m", "vda"):
            store.create(JobRequest(circuits=(key,)), []).mark_cancelled()
        assert journal.compactions >= 1
        journal.close()

        replay = _replay(path)
        assert len(replay.jobs) == 3
        assert all(job.state == "cancelled" for job in replay.jobs)
        assert replay.next_id == 4  # the meta record pinned the counter

    def test_compaction_doubling_rule_prevents_thrash(self, tmp_path):
        journal, store = _fill_store(
            tmp_path / "jobs.journal", compact_bytes=1
        )
        store.create(JobRequest(circuits=("alu2",)), []).mark_cancelled()
        first_compactions = journal.compactions
        assert first_compactions >= 1
        # The next append is far below 2x the post-compaction size, so
        # no rewrite happens.
        store.create(JobRequest(circuits=("f51m",)), [])
        assert journal.compactions == first_compactions
        journal.close()


class TestTransitionCost:
    def test_terminal_transition_cost_does_not_grow_with_the_store(self, tmp_path, monkeypatch):
        """Cancelling every job of a journaled store costs the same per
        job with N and with 4N jobs: below the compaction threshold a
        terminal transition appends one record and lists no jobs (the
        job list is built only when compaction runs)."""
        listed = []
        jobs_of = JobStore.jobs

        def counted(store):
            jobs = jobs_of(store)
            listed.append(len(jobs))
            return jobs

        monkeypatch.setattr(JobStore, "jobs", counted)
        per_job = {}
        for count in (300, 1200):
            journal, store = _fill_store(tmp_path / f"{count}.journal")
            jobs = [store.create(JobRequest(circuits=("alu2",)), []) for _ in range(count)]
            listed.clear()
            gc.collect()
            start = time.process_time()
            for job in jobs:
                job.mark_cancelled()
            seconds = time.process_time() - start
            assert journal.compactions == 0
            journal.close()
            per_job[count] = (sum(listed) / count, seconds / count)
        assert per_job[300][0] == per_job[1200][0] == 0
        # Generous: a transition that walked the store would cost 4x.
        assert per_job[1200][1] < 2.5 * per_job[300][1]


class TestEarlierFormat:
    """Journals written before the op cache lost its eviction-policy and
    capacity knobs, and before reordering lost its policy knob, still
    replay: their ``submit`` requests carry ``cache_policy``,
    ``cache_capacity`` and ``reorder`` keys, and their result-cache
    keys hashed all three."""

    REQUEST = {
        "circuits": ["alu2"],
        "flow": "bds-maj",
        "workers": 2,
        "verify": False,
        "cache_policy": "lru",
        "cache_capacity": 1024,
        "reorder": "once",
        "priority": 3,
    }

    @classmethod
    def _earlier_key(cls, request: dict | None = None) -> str:
        """The result-cache key the earlier format computed for a request."""
        request = cls.REQUEST if request is None else request
        config = {
            key: request[key]
            for key in ("flow", "verify", "cache_policy", "cache_capacity", "reorder")
        }
        payload = {"config": config, "items": [["registry", "alu2"]]}
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def _write_journal(self, path: Path, request: dict | None = None) -> BatchReport:
        """An earlier-format journal: job 1 finished, job 2 interrupted."""
        request = self.REQUEST if request is None else request
        report = run_batch(["alu2"], BatchConfig())
        records = [
            {
                "v": 1,
                "type": "submit",
                "id": "job-000001",
                "request": request,
                "items": ["alu2"],
            },
            {
                "v": 1,
                "type": "finish",
                "id": "job-000001",
                "cache_key": self._earlier_key(request),
                "report": _report_payload(report),
            },
            {
                "v": 1,
                "type": "submit",
                "id": "job-000002",
                "request": dict(request, circuits=["f51m"]),
                "items": ["f51m"],
            },
        ]
        path.write_bytes(b"".join(_encode_record(record) for record in records))
        return report

    def test_submit_with_cache_policy_replays(self, tmp_path):
        path = tmp_path / "jobs.journal"
        report = self._write_journal(path)

        replay = _replay(path)
        assert replay.corrupt_lines == 0
        done, interrupted = replay.jobs
        assert done.request == JobRequest(circuits=("alu2",), workers=2, priority=3)
        assert done.state == "done"
        assert done.report is not None
        assert done.report.to_json() == report.to_json()
        # The interrupted job re-enqueues under the same knobs.
        assert interrupted.state is None
        assert interrupted.request == JobRequest(circuits=("f51m",), workers=2, priority=3)

    def test_submit_with_converge_reorder_replays_as_default(self, tmp_path):
        """A request that named a non-default reorder policy replays as
        the default request, under the key its own policy hashed to."""
        path = tmp_path / "jobs.journal"
        request = dict(self.REQUEST, reorder="converge")
        self._write_journal(path, request)

        done, interrupted = _replay(path).jobs
        assert done.request == JobRequest(circuits=("alu2",), workers=2, priority=3)
        assert done.state == "done"
        assert done.cache_key == self._earlier_key(request)
        assert done.cache_key != self._earlier_key()
        assert interrupted.request == JobRequest(circuits=("f51m",), workers=2, priority=3)

    def test_replayed_job_keeps_its_stored_cache_key(self, tmp_path):
        path = tmp_path / "jobs.journal"
        self._write_journal(path)

        done, _ = _replay(path).jobs
        assert done.cache_key == self._earlier_key()
        # Old keys hashed the policies and the capacity, so no new
        # submission of the same work can be answered from a report
        # stored under one.
        new_key = submission_key([InputItem(name="alu2")], done.request.batch_config())
        assert new_key is not None
        assert new_key != done.cache_key


class TestServiceReplay:
    def test_restart_serves_identical_bytes_and_rehydrates_cache(self, tmp_path):
        """Run a job to completion, shut down cleanly, restart on the
        same journal: the result bytes must match and a resubmission
        must be answered from the rehydrated cache."""
        journal = tmp_path / "jobs.journal"

        async def first_run(service, host, port):
            status, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            await poll_job(host, port, job["id"])
            status, body = await http_request(
                host, port, "GET", f"/jobs/{job['id']}/result"
            )
            assert status == 200
            return job["id"], body

        job_id, first_bytes = run(
            with_service(first_run, concurrency=1, journal_path=journal)
        )

        async def second_run(service, host, port):
            replay = service.last_replay
            assert replay is not None and len(replay.jobs) == 1
            status, body = await http_request(
                host, port, "GET", f"/jobs/{job_id}/result"
            )
            assert status == 200
            assert body == first_bytes
            # Resubmission of replayed work: a cache hit, no queue trip.
            status, again = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            assert again["cached"] is True
            assert again["id"] != job_id  # ids keep counting past replay
            status, metrics = await http_json(host, port, "GET", "/metrics")
            assert metrics["result_cache"]["hits"] == 1
            assert metrics["journal"]["replayed_jobs"] == 1
            status, body = await http_request(
                host, port, "GET", f"/jobs/{again['id']}/result"
            )
            return body

        second_bytes = run(
            with_service(second_run, concurrency=1, journal_path=journal)
        )
        assert second_bytes == first_bytes

    def test_graceful_shutdown_journals_queued_jobs_as_cancelled(self, tmp_path):
        journal = tmp_path / "jobs.journal"

        async def scenario(service, host, port):
            # Submit without letting the queue run it (the queue seam
            # the backpressure tests use too): the job stays queued, and
            # shutdown's cancel sweep must journal it.
            service.queue.submit = lambda job: None
            status, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            return job["id"]

        job_id = run(with_service(scenario, concurrency=1, journal_path=journal))

        async def after_restart(service, host, port):
            status, payload = await http_json(host, port, "GET", f"/jobs/{job_id}")
            assert status == 200
            assert payload["status"] == "cancelled"

        run(with_service(after_restart, concurrency=1, journal_path=journal))


class TestCrashReplay:
    def test_sigkill_mid_batch_replays_and_reruns(self, tmp_path):
        """SIGKILL a journaled server mid-batch; the restart must serve
        the finished job byte-identically, re-run the interrupted ones,
        and answer resubmissions from the rehydrated cache."""
        journal = tmp_path / "jobs.journal"
        process, port = spawn_serve(journal)
        try:

            async def submit_and_wait():
                status, first = await http_json(
                    "127.0.0.1", port, "POST", "/jobs", {"circuits": ["alu2"]}
                )
                assert status == 202
                await poll_job("127.0.0.1", port, first["id"])
                status, first_bytes = await http_request(
                    "127.0.0.1", port, "GET", f"/jobs/{first['id']}/result"
                )
                assert status == 200
                # Pile up more work than concurrency=1 drains instantly;
                # these are the jobs the SIGKILL interrupts.
                pending = []
                for key in ("f51m", "vda", "misex3"):
                    status, job = await http_json(
                        "127.0.0.1", port, "POST", "/jobs", {"circuits": [key]}
                    )
                    assert status == 202
                    pending.append(job["id"])
                return first["id"], first_bytes, pending

            first_id, first_bytes, pending = run(submit_and_wait())
        finally:
            process.kill()  # SIGKILL: no shutdown hooks, no cancel records
            process.wait()

        process, port = spawn_serve(journal)
        try:

            async def after_crash():
                # The finished job replays byte-identically...
                status, body = await http_request(
                    "127.0.0.1", port, "GET", f"/jobs/{first_id}/result"
                )
                assert status == 200
                assert body == first_bytes
                # ...and every interrupted job re-runs to completion
                # under its original id ("a crash loses nothing").
                for job_id in pending:
                    final = await poll_job("127.0.0.1", port, job_id)
                    assert final["status"] == "done"
                # Resubmitting replayed work hits the rehydrated cache.
                status, again = await http_json(
                    "127.0.0.1", port, "POST", "/jobs", {"circuits": ["alu2"]}
                )
                assert status == 202
                assert again["cached"] is True
                status, metrics = await http_json(
                    "127.0.0.1", port, "GET", "/metrics"
                )
                assert metrics["journal"]["replayed_jobs"] == 4

            run(after_crash())
        finally:
            process.terminate()
            process.wait(timeout=30)
