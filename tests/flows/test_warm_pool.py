"""Warm worker pools.

The load-bearing assertion: a batch run through a reused
:class:`WarmPoolManager` pool produces **byte-identical** reports to
the cold-pool (and serial) paths, for 1 and 4 workers alike, verify
included.  Warm serving is a latency optimization, never a different
answer.
"""

from __future__ import annotations

import pytest

from repro.flows import BatchConfig, WarmPoolManager, run_batch
from repro.flows.batch import batch_pool

CIRCUITS = ["alu2", "f51m"]


class TestWarmPoolManager:
    def test_arena_name_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            WarmPoolManager(arena_name="bdsmaj-block")

    def test_acquire_release_cycle_counts_warm_and_cold(self):
        manager = WarmPoolManager()
        try:
            pool = manager.acquire(2)
            assert manager.stats()["cold_acquires"] == 1
            manager.release(pool)
            assert manager.stats()["idle_pools"] == 1
            again = manager.acquire(2)
            assert again is pool
            assert manager.stats()["warm_acquires"] == 1
            manager.release(again)
        finally:
            manager.drain()
        assert manager.stats()["idle_pools"] == 0
        with pytest.raises(RuntimeError, match="drained"):
            manager.acquire(2)

    def test_pools_are_keyed_by_size(self):
        manager = WarmPoolManager()
        try:
            two = manager.acquire(2)
            manager.release(two)
            # A different size must not reuse the parked pool.
            one = manager.acquire(1)
            assert one is not two
            manager.release(one)
            assert manager.stats()["cold_acquires"] == 2
        finally:
            manager.drain()

    def test_dead_parked_pool_is_respawned(self):
        manager = WarmPoolManager(ping_timeout=5.0)
        try:
            pool = manager.acquire(1)
            manager.release(pool)
            pool.terminate()  # simulate OOM-killed workers while parked
            pool.join()
            replacement = manager.acquire(1)
            assert replacement is not pool
            assert manager.stats()["respawns"] == 1
            manager.release(replacement)
        finally:
            manager.drain()

    def test_batch_pool_discards_on_exception(self):
        manager = WarmPoolManager()
        try:
            with pytest.raises(RuntimeError, match="boom"):
                with batch_pool(1, manager=manager):
                    raise RuntimeError("boom")
            assert manager.stats()["discards"] == 1
            assert manager.stats()["idle_pools"] == 0
        finally:
            manager.drain()

    def test_one_circuit_batch_runs_in_the_warm_pool(self):
        """With a manager, a one-circuit ``workers > 1`` batch runs in a
        pool worker, not in the caller's thread, and keeps the serial
        run's bytes."""
        expected = run_batch(["f51m"], BatchConfig()).to_json()
        manager = WarmPoolManager()
        try:
            report = run_batch(["f51m"], BatchConfig(workers=2), pool=manager)
            stats = manager.stats()
        finally:
            manager.drain()
        assert stats["cold_acquires"] + stats["warm_acquires"] == 1
        assert report.to_json() == expected


class TestByteIdentity:
    def test_cold_and_warm_paths_are_byte_identical(self):
        """Cold 1-worker, cold 4-worker and warm 4-worker runs (twice,
        so the second run really reuses a parked pool) must serialize
        identically — verification included."""
        config_serial = BatchConfig(flow="bds-maj", workers=1, verify=True)
        config_parallel = BatchConfig(flow="bds-maj", workers=4, verify=True)
        expected = run_batch(CIRCUITS, config_serial).to_json()
        assert run_batch(CIRCUITS, config_parallel).to_json() == expected

        warm = WarmPoolManager()
        try:
            first = run_batch(CIRCUITS, config_parallel, pool=warm)
            second = run_batch(CIRCUITS, config_parallel, pool=warm)
            assert first.to_json() == expected
            assert second.to_json() == expected
            stats = warm.stats()
            assert stats["cold_acquires"] == 1
            assert stats["warm_acquires"] == 1
        finally:
            warm.drain()
