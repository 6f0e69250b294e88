"""Shard dispatcher tests: the ring, routing, byte-identity, failover.

The end-to-end tests spawn real ``bdsmaj serve`` subprocesses behind a
:class:`~repro.serve.ShardDispatcher`, exactly like ``bdsmaj shard``
does — including the acceptance scenario: identical submissions land on
the same shard (whose cache answers the second one), served bytes match
``run_batch``, and a SIGKILL'd backend is respawned with its journal
replayed so its namespaced job ids stay valid.
"""

from __future__ import annotations

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.flows import BatchConfig, run_batch
from repro.serve import ShardDispatcher, WireError
from repro.serve.shard import BREAKER_CLOSED, HashRing

from .client import http_json, http_request, poll_job


#: Bound on the proxied events read: an alu2 job streams to its terminal
#: event in a few seconds, and a lost wake-up must fail, not hang.
EVENTS_TIMEOUT = 60.0


def run(coro):
    return asyncio.run(coro)


class TestHashRing:
    def test_deterministic_and_rejects_empty(self):
        with pytest.raises(ValueError):
            HashRing(0)
        ring = HashRing(4)
        assert all(ring.owner(f"key-{i}") == HashRing(4).owner(f"key-{i}") for i in range(64))

    def test_every_shard_owns_keys_and_split_is_roughly_even(self):
        ring = HashRing(3)
        counts = [0, 0, 0]
        for i in range(3000):
            counts[ring.owner(f"key-{i}")] += 1
        assert all(count > 500 for count in counts)

    def test_growing_the_ring_moves_a_bounded_fraction(self):
        """Consistent hashing's point: going 3 -> 4 shards remaps only
        about 1/4 of the key space, not everything."""
        before, after = HashRing(3), HashRing(4)
        keys = [f"key-{i}" for i in range(2000)]
        moved = sum(1 for key in keys if before.owner(key) != after.owner(key))
        assert 0 < moved < len(keys) // 2

    def test_moved_keys_only_land_on_the_new_shard(self):
        before, after = HashRing(3), HashRing(4)
        for i in range(2000):
            key = f"key-{i}"
            if before.owner(key) != after.owner(key):
                assert after.owner(key) == 3


class TestIdNamespacing:
    def test_locate_roundtrip_and_bad_ids(self):
        dispatcher = ShardDispatcher(backends=3)  # never started: no spawns
        assert dispatcher._locate("s0-job-000001") == (0, "job-000001")
        assert dispatcher._locate("s2-job-000042") == (2, "job-000042")
        for bad in ("job-000001", "s9-job-000001", "sX-job-000001", "s1-"):
            with pytest.raises(WireError) as err:
                dispatcher._locate(bad)
            assert err.value.status == 404

    def test_status_payloads_are_namespaced(self):
        dispatcher = ShardDispatcher(backends=2)
        payload = dispatcher._namespace({"id": "job-000007", "status": "done"}, 1)
        assert payload["id"] == "s1-job-000007"
        assert dispatcher._namespace({"error": "nope"}, 1) == {"error": "nope"}


async def _with_dispatcher(test, **kwargs):
    kwargs.setdefault("backends", 2)
    kwargs.setdefault("backend_concurrency", 1)
    kwargs.setdefault("health_interval", 0.2)
    dispatcher = ShardDispatcher(port=0, **kwargs)
    host, port = await dispatcher.start()
    try:
        return await test(dispatcher, host, port)
    finally:
        await dispatcher.shutdown()


class TestShutdown:
    def test_shutdown_ends_a_supervisor_whose_cancel_was_swallowed(self):
        """On Python 3.11 ``asyncio.wait_for`` returns its inner result
        instead of raising when a cancel lands as that result arrives.
        A health probe can sit in that window when shutdown cancels the
        supervisor, and shutdown must still end it."""

        async def scenario():
            dispatcher = ShardDispatcher(backends=1, health_interval=0.01)
            reply = asyncio.get_running_loop().create_future()
            parked = asyncio.Event()
            probes = []

            async def probe(backend, method, path, timeout=60.0):
                probes.append(path)
                parked.set()
                return await asyncio.wait_for(reply, timeout)

            async def stop():
                pass

            dispatcher.backends = [
                SimpleNamespace(
                    breaker_state=BREAKER_CLOSED,
                    process=None,
                    alive=True,
                    health_failures=0,
                    started_at=float("-inf"),
                    failure_streak=0,
                    open_streak=0,
                    stop=stop,
                )
            ]
            dispatcher._backend_request = probe
            supervisor = asyncio.ensure_future(dispatcher._supervise())
            dispatcher._supervisor_task = supervisor
            await parked.wait()
            reply.set_result((200, {}, b""))
            closing = asyncio.ensure_future(dispatcher.shutdown())
            done, _ = await asyncio.wait({closing}, timeout=2.0)
            supervisor.cancel()  # lets a failing run end
            assert closing in done, "shutdown is still waiting on the supervisor"
            assert probes == ["/healthz"]

        run(scenario())


class TestEndToEnd:
    def test_routing_byte_identity_and_owning_shard_cache_hit(self, tmp_path):
        """The acceptance scenario: identical submissions route to the
        same shard, the dispatcher's /result bytes equal ``bdsmaj
        batch`` output, and the aggregated /metrics shows the cache hit
        on the owning shard."""

        async def scenario(dispatcher, host, port):
            status, first = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            shard = int(first["id"].split("-", 1)[0][1:])
            done = await poll_job(host, port, first["id"])
            assert done["status"] == "done"
            status, served = await http_request(
                host, port, "GET", f"/jobs/{first['id']}/result"
            )
            assert status == 200
            assert served == run_batch(["alu2"], BatchConfig()).to_json().encode()

            # Identical work -> same shard, answered from its cache.
            status, second = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            assert second["cached"] is True
            assert int(second["id"].split("-", 1)[0][1:]) == shard

            status, metrics = await http_json(host, port, "GET", "/metrics")
            assert status == 200
            assert metrics["backends"] == 2
            assert metrics["result_cache"]["hits"] == 1
            owner = metrics["shards"][shard]["metrics"]
            assert owner["result_cache"]["hits"] == 1
            assert metrics["shards"][shard]["routed"] == 2
            other = metrics["shards"][1 - shard]
            assert other["routed"] == 0
            assert other["metrics"]["result_cache"]["hits"] == 0

            # The job list is the namespaced union of every shard's.
            status, listing = await http_json(host, port, "GET", "/jobs")
            assert {job["id"] for job in listing["jobs"]} == {
                first["id"],
                second["id"],
            }
            assert listing["unavailable_shards"] == []

        run(_with_dispatcher(scenario, journal_dir=tmp_path))

    def test_events_stream_is_proxied_with_namespaced_ids(self, tmp_path):
        async def scenario(dispatcher, host, port):
            status, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            events_path = f"/jobs/{job['id']}/events"
            try:
                status, raw = await asyncio.wait_for(
                    http_request(host, port, "GET", events_path),
                    timeout=EVENTS_TIMEOUT,
                )
            except asyncio.TimeoutError:
                pytest.fail(
                    f"proxied event stream GET {events_path} did not end within "
                    f"{EVENTS_TIMEOUT:.0f} s (ShardDispatcher._stream_events -> "
                    "SynthesisService._stream_events): a lost wake-up or a "
                    "missed terminal event"
                )
            assert status == 200
            events = [json.loads(line) for line in raw.splitlines() if line]
            assert events, "event stream came back empty"
            assert all(event["job"] == job["id"] for event in events)
            assert events[-1]["type"] == "state"
            assert events[-1]["status"] == "done"

        run(_with_dispatcher(scenario, journal_dir=tmp_path))

    def test_killed_backend_is_respawned_and_replays_its_journal(self, tmp_path):
        """Failover: SIGKILL the owning backend; the supervisor must
        respawn it, and journal replay must bring the finished job back
        byte-identically under the same namespaced id."""

        async def scenario(dispatcher, host, port):
            status, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            await poll_job(host, port, job["id"])
            status, before = await http_request(
                host, port, "GET", f"/jobs/{job['id']}/result"
            )
            assert status == 200

            shard = int(job["id"].split("-", 1)[0][1:])
            backend = dispatcher.backends[shard]
            backend.process.kill()  # SIGKILL: no graceful shutdown
            deadline = asyncio.get_running_loop().time() + 60.0
            while not (backend.alive and backend.restarts >= 1):
                assert asyncio.get_running_loop().time() < deadline, (
                    "supervisor never respawned the killed backend"
                )
                await asyncio.sleep(0.1)

            status, after = await http_request(
                host, port, "GET", f"/jobs/{job['id']}/result"
            )
            assert status == 200
            assert after == before
            status, metrics = await http_json(host, port, "GET", "/metrics")
            assert metrics["respawns"] >= 1
            assert metrics["shards"][shard]["restarts"] >= 1
            # One isolated kill is no crash loop: the breaker stays
            # closed, but its state is observable per-shard and in the
            # aggregated rollup.
            breaker = metrics["shards"][shard]["breaker"]
            assert breaker["state"] == "closed"
            assert breaker["opens"] == 0
            states = metrics["breakers"]["states"]
            assert states["closed"] == len(dispatcher.backends)
            assert metrics["breakers"]["opens"] == 0

        run(_with_dispatcher(scenario, journal_dir=tmp_path))

    def test_dispatcher_is_the_auth_edge(self, tmp_path):
        async def scenario(dispatcher, host, port):
            status, _ = await http_json(host, port, "GET", "/jobs")
            assert status == 401
            status, _ = await http_json(
                host,
                port,
                "GET",
                "/jobs",
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200
            # /healthz stays probe-able without credentials.
            status, health = await http_json(host, port, "GET", "/healthz")
            assert status == 200
            assert health["backends"]["total"] == 1
            # Backends themselves trust loopback: the cleared token env
            # means direct backend access needs no credentials.
            backend = dispatcher.backends[0]
            status, _ = await http_json(
                backend.host, backend.port, "GET", "/jobs"
            )
            assert status == 200

        run(
            _with_dispatcher(
                scenario, backends=1, auth_token="sesame", journal_dir=tmp_path
            )
        )
