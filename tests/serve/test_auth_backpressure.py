"""Bearer auth, queue backpressure, and latency-histogram tests."""

from __future__ import annotations

import asyncio

import pytest

from repro.flows import BatchConfig, run_batch
from repro.serve import JobRequest, SynthesisService, WireError
from repro.serve.metrics import LATENCY_BUCKET_BOUNDS, ServiceMetrics

from .client import HttpClient, http_json, poll_job
from .harness import with_service


def run(coro):
    return asyncio.run(coro)


class TestAuth:
    def test_token_required_on_everything_but_healthz(self):
        async def scenario(service, host, port):
            status, _ = await http_json(host, port, "GET", "/jobs")
            assert status == 401
            status, _ = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 401
            status, _ = await http_json(
                host,
                port,
                "GET",
                "/jobs",
                headers={"Authorization": "Bearer wrong"},
            )
            assert status == 401
            status, _ = await http_json(
                host,
                port,
                "GET",
                "/jobs",
                headers={"Authorization": "Basic c2VzYW1l"},
            )
            assert status == 401
            status, _ = await http_json(
                host,
                port,
                "GET",
                "/jobs",
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200
            # Scheme matching is case-insensitive per RFC 6750.
            status, _ = await http_json(
                host,
                port,
                "GET",
                "/jobs",
                headers={"Authorization": "bearer sesame"},
            )
            assert status == 200
            status, _ = await http_json(host, port, "GET", "/healthz")
            assert status == 200

        run(with_service(scenario, auth_token="sesame"))

    def test_401_carries_www_authenticate_challenge(self):
        async def scenario(service, host, port):
            client = await HttpClient.connect(host, port)
            try:
                status, _ = await client.request("GET", "/metrics")
            finally:
                await client.aclose()
            assert status == 401
            assert client.last_headers.get("www-authenticate") == "Bearer"

        run(with_service(scenario, auth_token="sesame"))

    def test_no_token_means_open_service(self):
        async def scenario(service, host, port):
            status, _ = await http_json(host, port, "GET", "/jobs")
            assert status == 200

        run(with_service(scenario))


class TestBackpressure:
    def test_max_pending_must_be_positive(self):
        with pytest.raises(ValueError):
            SynthesisService(port=0, max_pending=0)

    def test_429_with_retry_after_when_queue_is_full(self):
        async def scenario(service, host, port):
            # Keep submissions queued forever: the no-op queue seam
            # makes "pending" deterministic without slow circuits.
            service.queue.submit = lambda job: None
            status, _ = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            client = await HttpClient.connect(host, port)
            try:
                status, payload = await client.request_json(
                    "POST", "/jobs", {"circuits": ["f51m"]}
                )
            finally:
                await client.aclose()
            assert status == 429
            assert "queue is full" in payload["error"]
            retry_after = int(client.last_headers["retry-after"])
            assert 1 <= retry_after <= 300

        run(with_service(scenario, max_pending=1, result_cache_size=None))

    def test_cache_hits_bypass_the_gate(self):
        async def scenario(service, host, port):
            service.queue.submit = lambda job: None
            request = JobRequest(circuits=("alu2",))
            _items, key = service._resolve_items_keyed(request)
            service.result_cache.put(key, run_batch(["alu2"], BatchConfig()))
            status, _ = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["f51m"]}
            )
            assert status == 202  # fills the queue
            status, rejected = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["vda"]}
            )
            assert status == 429
            # The cached submission consumes no queue slot -> accepted.
            status, cached = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            assert cached["cached"] is True
            assert cached["status"] == "done"

        run(with_service(scenario, max_pending=1))

    def test_metrics_reports_the_limit(self):
        async def scenario(service, host, port):
            status, metrics = await http_json(host, port, "GET", "/metrics")
            assert metrics["max_pending"] == 7

        run(with_service(scenario, max_pending=7))


class TestLatencyHistograms:
    def test_observations_land_in_fixed_buckets_with_quantiles(self):
        metrics = ServiceMetrics()
        for seconds in (0.0005, 0.002, 0.002, 0.3, 120.0):
            metrics.observe("run", seconds)
        summary = metrics.stage_summaries()["run"]
        assert summary["count"] == 5
        assert summary["min_seconds"] == 0.0005
        assert summary["max_seconds"] == 120.0
        buckets = summary["buckets"]
        # Cumulative (Prometheus-style `le`) buckets: mergeable across
        # servers by summing bucket-by-bucket.
        assert buckets["le_0.001"] == 1
        assert buckets["le_0.0025"] == 3
        assert buckets["le_0.5"] == 4
        assert buckets["le_60"] == 4
        assert buckets["le_inf"] == 5
        assert len(buckets) == len(LATENCY_BUCKET_BOUNDS) + 1
        # p50 lands in the 0.0025 bucket, p99 in the overflow bucket
        # (which quotes the observed max).
        assert summary["p50_seconds"] == 0.0025
        assert summary["p90_seconds"] == 120.0
        assert summary["p99_seconds"] == 120.0

    def test_quantile_estimate_never_exceeds_observed_max(self):
        metrics = ServiceMetrics()
        metrics.observe("resolve", 0.0011)  # inside the 0.0025 bucket
        summary = metrics.stage_summaries()["resolve"]
        assert summary["p50_seconds"] == pytest.approx(0.0011)
        assert summary["p99_seconds"] == pytest.approx(0.0011)

    def test_served_job_populates_stage_histograms(self):
        async def scenario(service, host, port):
            status, job = await http_json(
                host, port, "POST", "/jobs", {"circuits": ["alu2"]}
            )
            assert status == 202
            await poll_job(host, port, job["id"])
            status, metrics = await http_json(host, port, "GET", "/metrics")
            stages = metrics["stages"]
            for stage in ("resolve", "queue_wait", "run"):
                assert stages[stage]["count"] >= 1
                assert stages[stage]["buckets"]["le_inf"] == stages[stage]["count"]
                assert (
                    stages[stage]["p50_seconds"]
                    <= stages[stage]["p99_seconds"]
                    <= stages[stage]["max_seconds"] + 1e-9
                )

        run(with_service(scenario, concurrency=1))


class TestWireErrorHeaders:
    def test_custom_headers_survive_the_error_funnel(self):
        err = WireError("slow down", status=429, headers={"Retry-After": "7"})
        assert err.status == 429
        assert err.headers == {"Retry-After": "7"}
        assert WireError("plain").headers == {}
