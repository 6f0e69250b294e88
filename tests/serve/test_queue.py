"""Scheduler tests: priority ordering, bounded concurrency, cancellation
of queued and running jobs, error isolation, shutdown reaping.

These drive :class:`JobQueue` directly with a monkeypatched
``run_batch`` so scheduling behaviour is tested deterministically and
without synthesizing real circuits.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.api import InputItem
from repro.flows import BatchCancelled, BatchReport
from repro.serve import (
    CANCELLED,
    DONE,
    ERROR,
    JobQueue,
    JobRequest,
    JobStore,
)
from repro.serve import queue as queue_module


def _job(store: JobStore, name: str, priority: int = 0) -> object:
    request = JobRequest(circuits=(name,), priority=priority)
    return store.create(request, [InputItem(name=name)])


async def _wait(predicate, timeout: float = 10.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        if asyncio.get_running_loop().time() > deadline:
            raise TimeoutError("condition never became true")
        await asyncio.sleep(0.01)


class TestScheduling:
    def test_priority_orders_execution(self, monkeypatch):
        ran: list[str] = []

        def fake_run_batch(
            items, config, progress=None, *, cancel=None, stage_progress=None, pool=None
        ):
            ran.append(items[0].name)
            return BatchReport(flow=config.flow)

        monkeypatch.setattr(queue_module, "run_batch", fake_run_batch)

        async def main():
            store = JobStore()
            queue = JobQueue(concurrency=1)
            # Submit before starting the runners: the queue must pop in
            # priority order, FIFO within equal priorities.
            jobs = [
                _job(store, "late", priority=5),
                _job(store, "first", priority=-1),
                _job(store, "mid-a", priority=2),
                _job(store, "mid-b", priority=2),
            ]
            for job in jobs:
                queue.submit(job)
            queue.start()
            await _wait(lambda: all(j.finished for j in jobs))
            await queue.shutdown()

        asyncio.run(main())
        assert ran == ["first", "mid-a", "mid-b", "late"]

    def test_cancelled_queued_job_is_skipped(self, monkeypatch):
        ran: list[str] = []

        def fake_run_batch(
            items, config, progress=None, *, cancel=None, stage_progress=None, pool=None
        ):
            ran.append(items[0].name)
            return BatchReport(flow=config.flow)

        monkeypatch.setattr(queue_module, "run_batch", fake_run_batch)

        async def main():
            store = JobStore()
            queue = JobQueue(concurrency=1)
            keep, drop = _job(store, "keep"), _job(store, "drop")
            queue.submit(keep)
            queue.submit(drop)
            assert drop.request_cancel() is True
            assert drop.state == CANCELLED
            queue.start()
            await _wait(lambda: keep.finished)
            await queue.shutdown()
            return keep, drop

        keep, drop = asyncio.run(main())
        assert ran == ["keep"]
        assert keep.state == DONE
        assert drop.state == CANCELLED

    def test_running_job_cancel_does_not_disturb_others(self, monkeypatch):
        started = threading.Event()

        def fake_run_batch(
            items, config, progress=None, *, cancel=None, stage_progress=None, pool=None
        ):
            if items[0].name == "victim":
                started.set()
                while not cancel():
                    time.sleep(0.01)
                raise BatchCancelled("cancelled mid-flight")
            return BatchReport(flow=config.flow)

        monkeypatch.setattr(queue_module, "run_batch", fake_run_batch)

        async def main():
            store = JobStore()
            queue = JobQueue(concurrency=1)
            victim, bystander = _job(store, "victim"), _job(store, "bystander")
            queue.submit(victim)
            queue.submit(bystander)
            queue.start()
            await _wait(lambda: started.is_set() and victim.state == "running")
            assert victim.request_cancel() is True
            await _wait(lambda: victim.finished and bystander.finished)
            await queue.shutdown()
            return victim, bystander

        victim, bystander = asyncio.run(main())
        assert victim.state == CANCELLED
        assert bystander.state == DONE

    def test_job_error_is_isolated(self, monkeypatch):
        def fake_run_batch(
            items, config, progress=None, *, cancel=None, stage_progress=None, pool=None
        ):
            if items[0].name == "bad":
                raise RuntimeError("synthesis exploded")
            return BatchReport(flow=config.flow)

        monkeypatch.setattr(queue_module, "run_batch", fake_run_batch)

        async def main():
            store = JobStore()
            queue = JobQueue(concurrency=2)
            bad, good = _job(store, "bad"), _job(store, "good")
            queue.start()
            queue.submit(bad)
            queue.submit(good)
            await _wait(lambda: bad.finished and good.finished)
            await queue.shutdown()
            return bad, good

        bad, good = asyncio.run(main())
        assert bad.state == ERROR
        assert "synthesis exploded" in bad.error
        assert good.state == DONE

    def test_shutdown_cancels_everything(self, monkeypatch):
        def fake_run_batch(
            items, config, progress=None, *, cancel=None, stage_progress=None, pool=None
        ):
            while not cancel():
                time.sleep(0.01)
            raise BatchCancelled("cancelled by shutdown")

        monkeypatch.setattr(queue_module, "run_batch", fake_run_batch)

        async def main():
            store = JobStore()
            queue = JobQueue(concurrency=1)
            running, queued = _job(store, "running"), _job(store, "queued")
            queue.start()
            queue.submit(running)
            queue.submit(queued)
            await _wait(lambda: running.state == "running")
            await queue.shutdown(store.jobs())
            with pytest.raises(RuntimeError):
                queue.submit(_job(store, "rejected"))
            return running, queued

        running, queued = asyncio.run(main())
        assert running.state == CANCELLED
        assert queued.state == CANCELLED

    def test_rejects_nonpositive_concurrency(self):
        with pytest.raises(ValueError):
            JobQueue(concurrency=0)
