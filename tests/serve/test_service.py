"""End-to-end HTTP tests for the serving layer.

The headline test mirrors the acceptance criteria: two concurrent
submissions, one cancelled mid-flight, and the completed job's report
byte-compared against :func:`repro.flows.run_batch` for the same
circuits.
"""

from __future__ import annotations

import asyncio
import json
import os

import pytest

from repro.flows import BatchConfig, run_batch
from repro.serve import SynthesisService

from .client import HttpClient, http_json, http_request, poll_job
from .harness import with_service
from .hold import stalled_first_stage

CIRCUITS = ["alu2", "f51m"]


def run(coro):
    return asyncio.run(coro)


class TestEndToEnd:
    def test_served_report_matches_run_batch_and_cancel_is_isolated(self):
        """Submit two jobs over HTTP; cancel the queued one mid-flight;
        the survivor's report must be byte-identical to run_batch."""

        async def scenario(service, host, port):
            # Concurrency is 1, so the second job queues behind the
            # first — cancelling it must not disturb the survivor.  The
            # first job is held so the cancel lands while the second
            # one is still queued.
            async with stalled_first_stage(CIRCUITS[0]):
                status, first = await http_json(
                    host, port, "POST", "/jobs", {"circuits": CIRCUITS}
                )
                assert status == 202
                assert first["status"] in ("queued", "running")
                status, second = await http_json(
                    host, port, "POST", "/jobs", {"circuits": ["vda"]}
                )
                assert status == 202
                status, cancelled = await http_json(
                    host, port, "POST", f"/jobs/{second['id']}/cancel"
                )
            assert status == 200
            assert cancelled["status"] == "cancelled"

            done = await poll_job(host, port, first["id"])
            assert done["status"] == "done"
            assert done["result_ready"] is True
            status, served = await http_request(
                host, port, "GET", f"/jobs/{first['id']}/result"
            )
            assert status == 200
            expected = run_batch(CIRCUITS, BatchConfig()).to_json().encode()
            assert served == expected

            status, final = await http_json(
                host, port, "GET", f"/jobs/{second['id']}"
            )
            assert final["status"] == "cancelled"
            assert final["result_ready"] is False
            return served

        run(with_service(scenario, concurrency=1))

    def test_concurrent_submissions_all_complete(self):
        async def scenario(service, host, port):
            submissions = await asyncio.gather(
                *(
                    http_json(host, port, "POST", "/jobs", {"circuits": [key]})
                    for key in ("alu2", "f51m", "vda")
                )
            )
            payloads = [payload for status, payload in submissions]
            assert all(status == 202 for status, _ in submissions)
            assert len({p["id"] for p in payloads}) == 3
            finals = await asyncio.gather(
                *(poll_job(host, port, p["id"]) for p in payloads)
            )
            assert [f["status"] for f in finals] == ["done"] * 3

        run(with_service(scenario, concurrency=2))

    def test_event_stream_carries_stage_progress(self):
        async def scenario(service, host, port):
            _, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["f51m"]}
            )
            # The stream endpoint follows the job live until terminal,
            # so reading it to EOF doubles as waiting for completion.
            status, raw = await http_request(
                host, port, "GET", f"/jobs/{job['id']}/events"
            )
            assert status == 200
            events = [json.loads(line) for line in raw.decode().splitlines()]
            assert all(event["job"] == job["id"] for event in events)
            states = [e["status"] for e in events if e["type"] == "state"]
            assert states == ["queued", "running", "done"]
            stages = [e for e in events if e["type"] == "stage"]
            starts = [e["stage"] for e in stages if e["kind"] == "stage_start"]
            ends = [e["stage"] for e in stages if e["kind"] == "stage_end"]
            # The bds-maj optimize prefix, streamed live per stage.
            assert starts == ends
            assert "decompose" in starts
            assert all("seconds" in e for e in stages if e["kind"] == "stage_end")
            circuit_lines = [e for e in events if e["type"] == "circuit"]
            assert any("f51m" in e["message"] for e in circuit_lines)

        run(with_service(scenario, concurrency=1))

    def test_result_formats_and_conflict(self):
        async def scenario(service, host, port):
            _, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["f51m"]}
            )
            await poll_job(host, port, job["id"])
            status, csv_body = await http_request(
                host, port, "GET", f"/jobs/{job['id']}/result?format=csv"
            )
            assert status == 200
            expected = run_batch(["f51m"], BatchConfig()).to_csv().encode()
            assert csv_body == expected
            status, timed = await http_request(
                host, port, "GET", f"/jobs/{job['id']}/result?timings=1"
            )
            assert status == 200
            assert b"elapsed_seconds" in timed

        run(with_service(scenario, concurrency=1))


class TestKeepAlive:
    def test_many_requests_share_one_connection(self):
        """HTTP/1.1 default: the socket survives framed responses, and a
        whole submit/poll/result conversation rides one connection."""

        async def scenario(service, host, port):
            client = await HttpClient.connect(host, port)
            try:
                for _ in range(3):
                    status, health = await client.request_json("GET", "/healthz")
                    assert status == 200
                    assert health["status"] == "ok"
                    assert client.last_headers["connection"] == "keep-alive"
                status, job = await client.request_json(
                    "POST", "/jobs", {"circuits": ["f51m"]}
                )
                assert status == 202
                while True:
                    _, payload = await client.request_json(
                        "GET", f"/jobs/{job['id']}"
                    )
                    if payload["status"] == "done":
                        break
                    await asyncio.sleep(0.05)
                status, served = await client.request(
                    "GET", f"/jobs/{job['id']}/result"
                )
                assert status == 200
                assert client.requests_sent >= 5  # all on one socket
                expected = run_batch(["f51m"], BatchConfig()).to_json().encode()
                assert served == expected
            finally:
                await client.aclose()

        run(with_service(scenario, concurrency=1))

    def test_connection_close_is_honored(self):
        """A ``Connection: close`` request ends the persistent
        connection after the response."""

        async def scenario(service, host, port):
            client = await HttpClient.connect(host, port)
            try:
                status, _body = await client.request(
                    "GET", "/healthz", close=True
                )
                assert status == 200
                assert client.last_headers["connection"] == "close"
                assert await client._reader.read() == b""  # EOF: closed
            finally:
                await client.aclose()

        run(with_service(scenario, concurrency=1))


class TestProtocolErrors:
    def test_error_statuses(self):
        async def scenario(service, host, port):
            checks = [
                ("GET", "/nope", None, 404),
                ("GET", "/jobs/job-999999", None, 404),
                ("POST", "/jobs/job-999999/cancel", None, 404),
                ("DELETE", "/jobs", None, 405),
                ("POST", "/healthz", None, 405),
                ("POST", "/jobs", {"circuits": []}, 400),
                ("POST", "/jobs", {"circuits": ["no-such-circuit-or-file"]}, 400),
                ("POST", "/jobs", {"circuits": ["alu2"], "workers": 0}, 400),
                ("POST", "/jobs", {"circuits": ["alu2"], "typo": 1}, 400),
                # The op-cache size is no request knob (test_wire.py has the message).
                ("POST", "/jobs", {"circuits": ["alu2"], "cache_capacity": 4096}, 400),
            ]
            for method, path, body, expected in checks:
                status, payload = await http_json(host, port, method, path, body)
                assert status == expected, (method, path, payload)
                assert "error" in payload

        run(with_service(scenario, concurrency=1))

    def test_result_before_done_is_conflict(self):
        async def scenario(service, host, port):
            # Hold the job so the result request lands while it is
            # still queued or running.
            async with stalled_first_stage("alu2"):
                _, job = await http_json(
                    host, port, "POST", "/jobs", {"circuits": ["alu2"]}
                )
                status, payload = await http_json(
                    host, port, "GET", f"/jobs/{job['id']}/result"
                )
            assert status == 409
            assert "no result" in payload["error"]
            await poll_job(host, port, job["id"])

        run(with_service(scenario, concurrency=1))

    def test_healthz_counts_jobs(self):
        async def scenario(service, host, port):
            _, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["f51m"]}
            )
            await poll_job(host, port, job["id"])
            status, health = await http_json(host, port, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            assert health["jobs"]["done"] == 1
            status, listing = await http_json(host, port, "GET", "/jobs")
            assert [j["id"] for j in listing["jobs"]] == [job["id"]]

        run(with_service(scenario, concurrency=1))


@pytest.mark.parametrize("concurrency", [0, -1])
def test_service_rejects_bad_concurrency(concurrency):
    with pytest.raises(ValueError):
        SynthesisService(concurrency=concurrency)


class TestRunningPooledJobCancel:
    def test_cancel_running_pooled_job_reaps_workers(self, monkeypatch):
        """Regression: pool workers forked from a process with asyncio
        loop signal handlers (as installed by ``run_server``) inherit
        them; without the pool initializer resetting SIGTERM, the
        ``pool.terminate()`` on cancel deadlocked in ``join()`` and the
        whole service froze.

        The service's executor thread would start its pool through a
        forkserver; forking it here instead puts the handlers in the
        workers, and the workers inherit the installed stall, so c6288
        is held at its first stage until the cancel reaps the pool.
        """
        import multiprocessing
        import signal

        from repro.flows import batch

        monkeypatch.setattr(batch, "_pool_context", lambda: multiprocessing.get_context("fork"))

        async def scenario(service, host, port):
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, lambda: None)
            try:
                async with stalled_first_stage("c6288", seconds=60) as hold:
                    _, job = await http_json(
                        host,
                        port,
                        "POST",
                        "/jobs",
                        {"circuits": ["c6288", "wallace16"], "workers": 2},
                    )
                    # A forked pool worker is held at c6288's first stage.
                    assert await hold.fired() != os.getpid()
                    _, cancelled = await http_json(host, port, "POST", f"/jobs/{job['id']}/cancel")
                assert cancelled["cancel_requested"] is True
                # The service must stay responsive and the job must
                # reach "cancelled" promptly — a deadlocked pool join
                # would block the executor and time this out.
                final = await poll_job(host, port, job["id"], timeout=30)
                assert final["status"] == "cancelled"
                _, health = await http_json(host, port, "GET", "/healthz")
                assert health["status"] == "ok"
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        run(with_service(scenario, concurrency=1))


class TestMetricsPayload:
    def test_metrics_keys(self):
        async def scenario(service, host, port):
            status, metrics = await http_json(host, port, "GET", "/metrics")
            assert status == 200
            return metrics

        metrics = run(with_service(scenario, concurrency=1))
        assert "arena" not in metrics
        assert {"jobs", "worker_pools", "result_cache", "stages"} <= set(metrics)

    def test_arena_options_are_gone(self):
        with pytest.raises(TypeError):
            SynthesisService(arena_circuits=("alu2",))
