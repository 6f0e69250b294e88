"""Writable shared unique table: find-or-create canonicity, the
vars+roots directory, store-backed managers, and cross-process
determinism.

The store's contract is *global canonicity*: one node triple maps to
one index forever, for every process, so a BDD edge computed against a
store-backed manager is the same integer no matter which worker (or
how many workers) computed it.
"""

from __future__ import annotations

import itertools
import multiprocessing
from multiprocessing import shared_memory

import pytest

from repro.bdd import BDD, BDDError, TERMINAL_LEVEL
from repro.bdd.arena import (
    ArenaError,
    SharedNodeStore,
    SharedStoreFull,
    WorkerArenaSpec,
    attach_worker_arena,
    current_store,
)
from repro.flows.batch import _init_pool_worker_arena


def _truth(mgr: BDD, edge: int, names: list[str]) -> list[bool]:
    return [
        mgr.eval(edge, dict(zip(names, bits)))
        for bits in itertools.product((0, 1), repeat=len(names))
    ]


def _sample_edges(mgr: BDD) -> dict[str, int]:
    a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
    return {
        "f": mgr.or_(mgr.and_(a, b), mgr.not_(c)),
        "g": mgr.xor(a, mgr.xor(b, c)),
        "h": mgr.ite(a, b, c),
    }


class TestLayout:
    def test_create_seeds_terminal_and_vars(self):
        store = SharedNodeStore.create(("a", "b"), capacity=64)
        try:
            assert store.count == 1  # the terminal node
            assert store.capacity == 64
            assert store.levels[0] == TERMINAL_LEVEL
            assert store.var_names() == ("a", "b")
            assert store.roots() == {}
        finally:
            store.unlink()

    def test_attach_sees_the_same_nodes(self):
        store = SharedNodeStore.create(("a",), capacity=64)
        try:
            index = store.find_or_create(0, 0, 1)
            view = SharedNodeStore.attach(store.handle())
            try:
                assert view.var_names() == ("a",)
                assert view.count == store.count
                assert view.find_or_create(0, 0, 1) == index
                assert view.counters()["local_hits"] == 1
            finally:
                view.close()
        finally:
            store.unlink()

    def test_attaching_a_foreign_block_is_rejected(self):
        block = shared_memory.SharedMemory(create=True, size=1 << 12)
        try:
            store = SharedNodeStore.create((), capacity=16)
            try:
                bad = type(
                    "Handle",
                    (),
                    {"name": block.name},
                )  # only the name matters to the magic check
                with pytest.raises(ArenaError, match="not a shared node store"):
                    SharedNodeStore.attach(bad)
            finally:
                store.unlink()
        finally:
            block.close()
            block.unlink()

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ArenaError, match="capacity"):
            SharedNodeStore.create((), capacity=1)


class TestFindOrCreate:
    def test_insert_then_hit(self):
        store = SharedNodeStore.create((), capacity=64)
        try:
            first = store.find_or_create(3, 2, 5)
            assert first == 1
            assert store.count == 2
            assert store.find_or_create(3, 2, 5) == first
            counters = store.counters()
            assert counters["local_misses"] == 1
            assert counters["local_hits"] == 1
            assert counters["misses"] == 1
            # Hits are batched locally before the shared flush.
            assert counters["hits"] == 1
        finally:
            store.unlink()

    def test_distinct_triples_get_distinct_indices(self):
        store = SharedNodeStore.create((), capacity=256)
        try:
            triples = [(level, 2 * level + 2, 1) for level in range(100)]
            indices = [store.find_or_create(*t) for t in triples]
            assert len(set(indices)) == len(triples)
            assert store.count == 1 + len(triples)
            # Re-querying in reverse order finds every one again.
            assert [store.find_or_create(*t) for t in reversed(triples)] == list(
                reversed(indices)
            )
        finally:
            store.unlink()

    def test_capacity_exhaustion_raises(self):
        store = SharedNodeStore.create((), capacity=4)
        try:
            for level in range(3):  # nodes 1..3 on top of the terminal
                store.find_or_create(level, 0, 1)
            with pytest.raises(SharedStoreFull, match="full"):
                store.find_or_create(99, 0, 1)
            # The failed insert must not have published anything.
            assert store.count == 4
        finally:
            store.unlink()


class TestDirectory:
    def test_ensure_var_appends_in_arrival_order(self):
        store = SharedNodeStore.create((), capacity=16)
        try:
            assert store.ensure_var("x") == 0
            assert store.ensure_var("y") == 1
            assert store.ensure_var("x") == 0  # idempotent
            view = SharedNodeStore.attach(store.handle())
            try:
                assert view.ensure_var("z") == 2
                # The declaring view and the owner both see the merge.
                assert store.var_names() == ("x", "y", "z")
            finally:
                view.close()
        finally:
            store.unlink()

    def test_publish_roots_merges(self):
        store = SharedNodeStore.create((), capacity=16)
        try:
            store.publish_roots({"f": 4})
            store.publish_roots({"g": 7})
            assert store.roots() == {"f": 4, "g": 7}
        finally:
            store.unlink()

    def test_directory_overflow_raises(self):
        store = SharedNodeStore.create((), capacity=16, dir_bytes=64)
        try:
            with pytest.raises(SharedStoreFull, match="directory"):
                store.ensure_var("v" * 128)
        finally:
            store.unlink()


class TestStoreBackedManager:
    def test_equivalence_with_private_manager(self):
        names = ["a", "b", "c"]
        private = BDD(names)
        reference = _sample_edges(private)
        store = SharedNodeStore.create(tuple(names))
        try:
            mgr = BDD(names, store=store)
            edges = _sample_edges(mgr)
            for key, edge in edges.items():
                assert _truth(mgr, edge, names) == _truth(
                    private, reference[key], names
                )
            # The manager counts the global store, not a private table.
            assert mgr.num_nodes() == store.count
        finally:
            store.unlink()

    def test_two_managers_share_canonical_edges(self):
        """The whole point: identical functions built through different
        managers (any insertion order) are the same edge integer."""
        store = SharedNodeStore.create(("a", "b", "c"))
        try:
            first = _sample_edges(BDD((), store=store))
            second = _sample_edges(BDD((), store=store))
            assert first == second
        finally:
            store.unlink()

    def test_vars_declared_elsewhere_become_visible(self):
        store = SharedNodeStore.create(())
        try:
            one = BDD((), store=store)
            two = BDD((), store=store)
            one.add_var("a")
            assert two.level_of("a") == 0  # resyncs from the store
            two.add_var("b")
            assert one.var("b") == one.var_at(1)
        finally:
            store.unlink()

    def test_mutating_operations_are_rejected(self):
        store = SharedNodeStore.create(("a", "b"))
        try:
            mgr = BDD((), store=store)
            edge = mgr.and_(mgr.var("a"), mgr.var("b"))
            with pytest.raises(BDDError, match="append-only"):
                mgr.gc([edge])
            with pytest.raises(BDDError, match="append-only"):
                mgr.swap_adjacent(0)
            # Refcounting is a no-op, never an error.
            mgr.pin(edge)
            mgr.unpin(edge)
        finally:
            store.unlink()

    def test_store_full_surfaces_through_mk(self):
        store = SharedNodeStore.create(("a", "b", "c", "d"), capacity=4)
        try:
            mgr = BDD((), store=store)
            with pytest.raises(SharedStoreFull):
                for name in ("a", "b", "c", "d"):
                    mgr.var(name)
        finally:
            store.unlink()


def _pool_build(order: tuple[str, ...]) -> dict[str, int]:
    """Worker body: build the sample functions against the store the
    production initializer attached, touching vars in ``order``."""
    store = current_store()
    assert store is not None
    mgr = BDD((), store=store)
    for name in order:
        assert mgr.var(name) == mgr.var_at(mgr.level_of(name))
    return _sample_edges(mgr)


class TestCrossProcess:
    def test_workers_agree_on_every_edge(self):
        """Four fork workers attach through the production pool
        initializer and build the same functions with different
        variable-touch orders: every edge must be the same integer in
        every process, and equal to the owner's."""
        store = SharedNodeStore.create(("a", "b", "c"))
        try:
            owner_edges = _sample_edges(BDD((), store=store))
            spec = WorkerArenaSpec(store=store.handle())
            context = multiprocessing.get_context("fork")
            orders = [
                ("a", "b", "c"),
                ("c", "b", "a"),
                ("b", "c", "a"),
                ("c", "a", "b"),
            ]
            with context.Pool(
                4, initializer=_init_pool_worker_arena, initargs=(spec,)
            ) as pool:
                results = pool.map(_pool_build, orders)
            assert all(edges == owner_edges for edges in results)
            # Counter sanity: the shared table saw cross-process hits.
            assert store.counters()["misses"] >= len(owner_edges)
        finally:
            store.unlink()

    def test_attach_worker_arena_spec_roundtrip(self):
        store = SharedNodeStore.create(("a",))
        try:
            attach_worker_arena(WorkerArenaSpec(store=store.handle()))
            try:
                attached = current_store()
                assert attached is not None
                assert attached.name == store.name
                assert attached.find_or_create(0, 0, 1) == store.find_or_create(
                    0, 0, 1
                )
            finally:
                attach_worker_arena(None)
            assert current_store() is None
        finally:
            store.unlink()
