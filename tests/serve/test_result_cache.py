"""Content-hash result cache: key normalization, LRU behaviour, and the
served fast path (identical resubmission answered without resynthesis).
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api import InputItem
from repro.flows import BatchConfig, BatchReport
from repro.serve import ResultCache, submission_key

from .client import http_json, http_request, poll_job
from .harness import with_service


def run(coro):
    return asyncio.run(coro)


class TestSubmissionKey:
    ITEMS = (InputItem(name="alu2"), InputItem(name="f51m"))

    def test_key_ignores_workers_and_scheduling(self):
        """The determinism contract makes 1- and N-worker reports
        byte-identical, so worker count must not split cache slots."""
        one = submission_key(self.ITEMS, BatchConfig(workers=1))
        four = submission_key(self.ITEMS, BatchConfig(workers=4))
        assert one is not None
        assert one == four

    def test_key_tracks_report_affecting_config(self):
        base = submission_key(self.ITEMS, BatchConfig())
        assert base != submission_key(self.ITEMS, BatchConfig(verify=True))

    def test_key_tracks_item_order_and_identity(self):
        base = submission_key(self.ITEMS, BatchConfig())
        reversed_key = submission_key(list(reversed(self.ITEMS)), BatchConfig())
        assert base != reversed_key
        assert base != submission_key([InputItem(name="alu2")], BatchConfig())

    def test_blif_items_hash_file_contents(self, tmp_path):
        path = tmp_path / "c.blif"
        path.write_text(".model c\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n")
        item = [InputItem(name="c", kind="blif", path=str(path))]
        before = submission_key(item, BatchConfig())
        assert before is not None
        # Same path, changed bytes: the resubmission must miss.
        path.write_text(".model c\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n")
        assert submission_key(item, BatchConfig()) != before

    def test_unreadable_or_unknown_items_are_uncacheable(self, tmp_path):
        missing = [InputItem(name="m", kind="blif", path=str(tmp_path / "no"))]
        assert submission_key(missing, BatchConfig()) is None
        weird = [InputItem(name="w", kind="martian")]
        assert submission_key(weird, BatchConfig()) is None


class TestResultCache:
    def test_lru_eviction_and_stats(self):
        cache = ResultCache(max_entries=2)
        a, b, c = (BatchReport(flow="bds-maj") for _ in range(3))
        cache.put("a", a)
        cache.put("b", b)
        assert cache.get("a") is a  # refreshes "a" to most-recent
        cache.put("c", c)  # evicts "b", the least recently used
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("c") is c
        stats = cache.stats()
        assert stats["entries"] == 2 and stats["max_entries"] == 2
        assert stats["hits"] == 2 and stats["misses"] == 1
        assert stats["hit_rate"] == pytest.approx(2 / 3)

    def test_none_keys_never_store_or_hit(self):
        cache = ResultCache()
        cache.put(None, BatchReport(flow="bds-maj"))
        assert len(cache) == 0
        assert cache.get(None) is None
        assert cache.stats()["misses"] == 1


class TestServedFastPath:
    def test_resubmission_hits_cache_and_is_byte_identical(self):
        async def scenario(service, host, port):
            body = {"circuits": ["alu2"]}
            status, first = await http_json(host, port, "POST", "/jobs", body)
            assert status == 202
            assert first["cached"] is False
            done = await poll_job(host, port, first["id"])
            assert done["status"] == "done"
            _, cold = await http_request(
                host, port, "GET", f"/jobs/{first['id']}/result"
            )

            status, second = await http_json(host, port, "POST", "/jobs", body)
            assert status == 202
            # The hit finishes the job at submit time — never queued.
            assert second["cached"] is True
            assert second["status"] == "done"
            _, warm = await http_request(
                host, port, "GET", f"/jobs/{second['id']}/result"
            )
            assert warm == cold

            status, payload = await http_request(host, port, "GET", "/metrics")
            assert status == 200
            metrics = json.loads(payload)
            cache = metrics["result_cache"]
            assert cache["hits"] == 1 and cache["entries"] == 1
            assert metrics["jobs"]["done"] == 2
            assert {"queue_wait", "resolve", "run"} <= set(metrics["stages"])

        run(with_service(scenario))

    def test_different_config_misses(self):
        async def scenario(service, host, port):
            body = {"circuits": ["alu2"]}
            _, first = await http_json(host, port, "POST", "/jobs", body)
            await poll_job(host, port, first["id"])
            _, second = await http_json(
                host, port, "POST", "/jobs", dict(body, verify=True)
            )
            assert second["cached"] is False
            await poll_job(host, port, second["id"])

        run(with_service(scenario))

    def test_cache_can_be_disabled(self):
        async def scenario(service, host, port):
            assert service.result_cache is None
            body = {"circuits": ["alu2"]}
            _, first = await http_json(host, port, "POST", "/jobs", body)
            await poll_job(host, port, first["id"])
            _, second = await http_json(host, port, "POST", "/jobs", body)
            assert second["cached"] is False
            done = await poll_job(host, port, second["id"])
            assert done["status"] == "done"
            _, metrics = await http_request(host, port, "GET", "/metrics")
            assert json.loads(metrics)["result_cache"] is None

        run(with_service(scenario, result_cache_size=None))
