"""Tests for the unified, size-bounded operation cache."""

from __future__ import annotations

import random

import pytest

from repro.bdd import BDD, OperationCache, exists
from repro.bdd.manager import DEFAULT_CACHE_CAPACITY

from ..conftest import all_assignments, random_function


class TestOperationCache:
    def test_counters_start_at_zero(self):
        cache = OperationCache()
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
            "capacity": DEFAULT_CACHE_CAPACITY,
            "hit_rate": 0.0,
        }

    def test_get_put_counts(self):
        cache = OperationCache(capacity=8)
        assert cache.get((0, 1, 2)) is None
        cache.put((0, 1, 2), 42)
        assert cache.get((0, 1, 2)) == 42
        assert cache.hits == 1 and cache.misses == 1

    def test_fifo_eviction_respects_bound(self):
        cache = OperationCache(capacity=3)
        for i in range(10):
            cache.put((0, i), i)
        assert len(cache) == 3
        assert cache.evictions == 7
        # FIFO: the three most recently inserted keys survive.
        assert cache.get((0, 9)) == 9
        assert cache.get((0, 0)) is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            OperationCache(capacity=0)

    def test_clear_keeps_counters(self):
        cache = OperationCache()
        cache.put((0, 1), 2)
        cache.get((0, 1))
        cache.clear()
        assert len(cache) == 0 and cache.hits == 1


class TestManagerCacheStats:
    def test_repeated_ite_hits(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        mgr.and_(a, b)
        hits_before = mgr.cache_stats()["hits"]
        mgr.and_(a, b)
        after = mgr.cache_stats()
        assert after["hits"] == hits_before + 1
        assert 0.0 < after["hit_rate"] <= 1.0

    def test_commuted_and_shares_cache_entry(self, mgr):
        """The standard-triple fast path folds AND(a,b)/AND(b,a) together."""
        a, b = mgr.var("a"), mgr.var("b")
        f = mgr.and_(a, b)
        hits_before = mgr.cache_stats()["hits"]
        assert mgr.and_(b, a) == f
        assert mgr.cache_stats()["hits"] == hits_before + 1

    def test_commuted_or_and_xnor_share_entries(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.or_(a, b) == mgr.or_(b, a)
        assert mgr.xnor(a, b) == mgr.xnor(b, a)
        stats = mgr.cache_stats()
        assert stats["hits"] >= 2

    def test_cofactor_shares_unified_cache(self, mgr):
        f = mgr.from_expr("a & b & c | ~a & ~b & ~c")
        first = mgr.cofactor(f, mgr.level_of("c"), True)
        hits_before = mgr.cache_stats()["hits"]
        assert mgr.cofactor(f, mgr.level_of("c"), True) == first
        assert mgr.cache_stats()["hits"] >= hits_before + 1

    def test_exists_shares_unified_cache(self, mgr):
        f = mgr.from_expr("a & b | c & ~b")
        first = exists(mgr, f, ["b"])
        hits_before = mgr.cache_stats()["hits"]
        assert exists(mgr, f, ["b"]) == first
        assert mgr.cache_stats()["hits"] >= hits_before + 1

    def test_eviction_respects_size_bound(self):
        mgr = BDD(list("abcdefgh"), cache_capacity=16)
        rng = random.Random(3)
        for _ in range(20):
            random_function(mgr, "abcdefgh", rng, depth=5)
        stats = mgr.cache_stats()
        assert stats["entries"] <= 16
        assert stats["evictions"] > 0

    def test_tiny_cache_still_correct(self):
        """A capacity-2 cache thrashes but must never change results."""
        reference = BDD(list("abcde"))
        tiny = BDD(list("abcde"), cache_capacity=2)
        rng_a, rng_b = random.Random(23), random.Random(23)
        for _ in range(10):
            f_ref = random_function(reference, "abcde", rng_a, depth=4)
            f_tiny = random_function(tiny, "abcde", rng_b, depth=4)
            for assignment in all_assignments("abcde"):
                assert reference.eval(f_ref, assignment) == tiny.eval(
                    f_tiny, assignment
                )

    def test_clear_caches_preserves_functions(self, mgr):
        rng = random.Random(5)
        f = random_function(mgr, "abc", rng, depth=4)
        table_before = mgr.truth_table(f, "abc")
        mgr.clear_caches()
        assert mgr.cache_stats()["entries"] == 0
        g = mgr.and_(f, mgr.ONE)
        assert g == f
        assert mgr.truth_table(f, "abc") == table_before
