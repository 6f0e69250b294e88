"""Event-log truncation and finished-job expiry (long-lived servers).

A server that runs for weeks accumulates per-stage/per-circuit progress
events for every job it ever ran.  :class:`~repro.serve.JobStore`
bounds that: finished jobs keep at most ``event_cap`` wire events (the
head of the log is dropped, and ``/jobs/<id>/events`` reports the
truncation explicitly instead of silently skipping history), and at
most ``max_finished_jobs`` finished jobs are retained at all.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.flows import BatchReport
from repro.serve import (
    DEFAULT_EVENT_CAP,
    SynthesisService,
    JobRequest,
    JobStore,
    job_payload,
)

from .client import http_json, http_request
from .hold import stalled_first_stage


def run(coro):
    return asyncio.run(coro)


def _request(circuits=("alu2",)):
    return JobRequest(circuits=tuple(circuits))


class TestJobTruncation:
    def test_running_job_keeps_every_event(self):
        async def scenario():
            store = JobStore(event_cap=3)
            job = store.create(_request(), [])
            job.mark_running()
            for i in range(10):
                job.add_event({"type": "circuit", "message": f"line {i}"})
            # Still running: nothing dropped, late subscribers can
            # replay the full history.
            assert job.events_dropped == 0
            assert len(job.events) == 12
            return job

        run(scenario())

    def test_finish_truncates_to_cap_and_keeps_the_tail(self):
        async def scenario():
            store = JobStore(event_cap=3)
            job = store.create(_request(), [])
            job.mark_running()
            for i in range(10):
                job.add_event({"type": "circuit", "message": f"line {i}"})
            job.finish(BatchReport(flow="bds-maj"))
            assert len(job.events) == 3
            assert job.events_dropped == 10
            assert job.total_events == 13
            # The tail survives — most recent progress plus the
            # terminal state event.
            assert job.events[-1]["type"] == "state"
            assert job.events[-1]["status"] == "done"
            assert job.events[0]["message"] == "line 8"
            payload = job_payload(job)
            assert payload["events"] == 13
            assert payload["events_dropped"] == 10
            return job

        run(scenario())

    def test_cancel_and_fail_truncate_too(self):
        async def scenario():
            store = JobStore(event_cap=2)
            failed = store.create(_request(), [])
            failed.mark_running()
            for i in range(5):
                failed.add_event({"type": "circuit", "message": str(i)})
            failed.fail("boom")
            assert len(failed.events) == 2
            assert failed.events[-1]["status"] == "error"

            cancelled = store.create(_request(), [])
            cancelled.mark_running()
            for i in range(5):
                cancelled.add_event({"type": "circuit", "message": str(i)})
            cancelled.request_cancel()
            cancelled.mark_cancelled()
            assert len(cancelled.events) == 2
            assert cancelled.events[-1]["status"] == "cancelled"

        run(scenario())

    def test_unlimited_and_default_caps(self):
        async def scenario():
            unlimited = JobStore(event_cap=None).create(_request(), [])
            unlimited.mark_running()
            for i in range(600):
                unlimited.add_event({"type": "circuit", "message": str(i)})
            unlimited.finish(BatchReport(flow="bds-maj"))
            assert unlimited.events_dropped == 0

            capped = JobStore().create(_request(), [])  # default cap
            capped.mark_running()
            for i in range(600):
                capped.add_event({"type": "circuit", "message": str(i)})
            capped.finish(BatchReport(flow="bds-maj"))
            assert len(capped.events) == DEFAULT_EVENT_CAP
            assert capped.events_dropped == 603 - DEFAULT_EVENT_CAP

        run(scenario())

    def test_store_validates_knobs(self):
        with pytest.raises(ValueError):
            JobStore(event_cap=0)
        with pytest.raises(ValueError):
            JobStore(max_finished_jobs=-1)


class TestFinishedJobExpiry:
    def test_oldest_finished_jobs_expire_on_submission(self):
        async def scenario():
            store = JobStore(max_finished_jobs=2)
            finished = []
            for _ in range(3):
                job = store.create(_request(), [])
                job.mark_running()
                job.finish(BatchReport(flow="bds-maj"))
                finished.append(job)
            running = store.create(_request(), [])
            running.mark_running()
            # Creating one more job expires the oldest finished one.
            store.create(_request(), [])
            ids = [job.id for job in store.jobs()]
            assert finished[0].id not in ids
            assert finished[1].id in ids and finished[2].id in ids
            assert running.id in ids  # non-terminal jobs never expire
            assert store.get(finished[0].id) is None

        run(scenario())

    def test_unlimited_by_default(self):
        async def scenario():
            store = JobStore()
            for _ in range(10):
                job = store.create(_request(), [])
                job.mark_running()
                job.finish(BatchReport(flow="bds-maj"))
            assert len(store.jobs()) == 10

        run(scenario())


class TestStreamReportsTruncation:
    def test_stream_of_truncated_job_starts_with_explicit_notice(self):
        """End to end over HTTP: a finished job whose log was truncated
        streams one ``{"type": "truncated", "dropped": N}`` line, then
        the retained tail — never a silent gap."""

        async def scenario():
            service = SynthesisService(port=0, concurrency=1, event_cap=4)
            host, port = await service.start()
            try:
                # Hold the job until the follower below has attached: a
                # job that finishes first truncates its log before the
                # live follow starts.
                async with stalled_first_stage("alu2") as hold:
                    _, job = await http_json(
                        host, port, "POST", "/jobs", {"circuits": ["alu2"]}
                    )
                    status, raw = await http_request(
                        host, port, "GET", f"/jobs/{job['id']}/events"
                    )
                assert hold.stats()["fired"] == 1
                assert status == 200
                live = [json.loads(line) for line in raw.decode().splitlines()]
                # The live follow saw everything: no truncation line.
                assert all(event["type"] != "truncated" for event in live)

                # Replaying the finished job hits the truncated log.
                status, raw = await http_request(
                    host, port, "GET", f"/jobs/{job['id']}/events"
                )
                assert status == 200
                replay = [json.loads(line) for line in raw.decode().splitlines()]
                assert replay[0]["type"] == "truncated"
                assert replay[0]["job"] == job["id"]
                assert replay[0]["dropped"] == len(live) - 4
                assert replay[1:] == live[-4:]
                assert replay[-1]["status"] == "done"

                _, payload = await http_json(
                    host, port, "GET", f"/jobs/{job['id']}"
                )
                assert payload["events"] == len(live)
                assert payload["events_dropped"] == len(live) - 4
            finally:
                await service.shutdown()

        run(scenario())
