"""Property tests for the in-place reordering machinery.

The mutable node store (per-level subtables, swaps, refcount frees,
mark-and-sweep GC) must preserve two things under arbitrary operation
sequences: every root's *function* (checked by evaluation over random
and exhaustive assignments) and the store's *canonicity* invariants
(checked by :meth:`BDD.check_invariants` — `_mk` normal form, subtable
consistency, refcount soundness)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, SiftResult, sift_rebuild
from repro.bdd.reorder import sift

from ..conftest import all_assignments, random_function

NAMES = list("abcdef")


def _truth_vector(mgr: BDD, edge: int) -> list[bool]:
    """Function of ``edge`` over NAMES as a by-name truth vector (stable
    under reordering, unlike level-indexed evaluation)."""
    return [mgr.eval(edge, assignment) for assignment in all_assignments(NAMES)]


@st.composite
def manager_with_roots(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_roots = draw(st.integers(min_value=1, max_value=3))
    rng = random.Random(seed)
    mgr = BDD(NAMES)
    roots = [random_function(mgr, NAMES, rng, depth=5) for _ in range(num_roots)]
    return mgr, roots


class TestSwapAdjacent:
    @settings(max_examples=60, deadline=None)
    @given(manager_with_roots(), st.lists(st.integers(0, 4), max_size=12))
    def test_swap_sequence_preserves_function_and_invariants(self, built, levels):
        mgr, roots = built
        before = [_truth_vector(mgr, root) for root in roots]
        # Raw swaps free nodes whose last DAG parent is rewritten, so
        # externally held edges must be pinned (sift pins its roots).
        for root in roots:
            mgr.pin(root)
        for level in levels:
            mgr.swap_adjacent(level)
            mgr.check_invariants()
        for root in roots:
            mgr.unpin(root)
        for root, expected in zip(roots, before):
            assert _truth_vector(mgr, root) == expected

    def test_unpinned_scratch_may_die_but_pinned_roots_survive(self):
        """The refcount contract: a swap can collect scratch whose only
        parent was rewritten, while pinned handles stay valid."""
        mgr = BDD(NAMES)
        f = mgr.from_expr("a & b | ~a & c")
        expected = _truth_vector(mgr, f)
        mgr.pin(f)
        live = mgr.live_nodes()
        for level in (0, 1, 0, 1):
            mgr.swap_adjacent(level)
            mgr.check_invariants()
        mgr.unpin(f)
        assert _truth_vector(mgr, f) == expected
        assert mgr.live_nodes() <= live + 2  # no unbounded garbage

    def test_swap_twice_restores_order_and_size(self):
        mgr = BDD(NAMES)
        f = mgr.from_expr("a & d | b & e | c & f")
        order = mgr.var_names
        size = mgr.size(f)
        mgr.swap_adjacent(2)
        assert mgr.var_names != order
        mgr.swap_adjacent(2)
        assert mgr.var_names == order
        assert mgr.size(f) == size
        mgr.check_invariants()

    def test_swap_invalidates_level_keyed_cache_entries(self):
        """Regression: cofactor/exists results are memoized by *level*;
        a swap that frees no nodes must still flush them, or a later
        cofactor at that level answers for the wrong variable."""
        mgr = BDD(["a", "b", "c"])
        f = mgr.xor(mgr.var("a"), mgr.var("c"))
        mgr.pin(f)
        assert mgr.cofactor(f, 2, True) == mgr.var("a") ^ 1  # w.r.t. c
        mgr.swap_adjacent(1)  # levels 1/2 now hold c/b
        # f does not depend on b (now level 2): cofactor is f itself.
        assert mgr.cofactor(f, 2, True) == f
        mgr.unpin(f)

    def test_swap_rejects_bad_level(self):
        mgr = BDD(NAMES)
        from repro.bdd import BDDError

        with pytest.raises(BDDError):
            mgr.swap_adjacent(len(NAMES) - 1)
        with pytest.raises(BDDError):
            mgr.swap_adjacent(-1)


class TestGc:
    @settings(max_examples=40, deadline=None)
    @given(manager_with_roots())
    def test_gc_preserves_roots_and_compacts(self, built):
        mgr, roots = built
        before = [_truth_vector(mgr, root) for root in roots]
        live_before = mgr.live_nodes()
        collected = mgr.gc(roots)
        assert collected >= 0
        assert mgr.live_nodes() == live_before - collected
        # Post-GC the store holds exactly the reachable nodes.
        assert mgr.live_nodes() == mgr.size_many(roots) + 1
        mgr.check_invariants()
        for root, expected in zip(roots, before):
            assert _truth_vector(mgr, root) == expected

    def test_gc_is_idempotent(self):
        mgr = BDD(NAMES)
        f = mgr.from_expr("a & b | ~c & d")
        assert mgr.gc([f]) > 0  # construction scratch dies
        assert mgr.gc([f]) == 0

    def test_num_nodes_keeps_counting_allocations(self):
        mgr = BDD(NAMES)
        f = mgr.from_expr("a & b | c")
        created = mgr.num_nodes()
        assert created == len(mgr._level)
        mgr.gc([f])
        assert mgr.num_nodes() == created  # monotone allocation counter
        assert mgr.live_nodes() < created
        g = mgr.and_(f, mgr.var("d"))
        assert mgr.num_nodes() > created  # recycled slots still count
        assert mgr.eval(g, {"a": 1, "b": 1, "c": 0, "d": 1})


class TestInPlaceSift:
    @settings(max_examples=40, deadline=None)
    @given(manager_with_roots())
    def test_sift_preserves_function_never_worsens(self, built):
        mgr, roots = built
        before = [_truth_vector(mgr, root) for root in roots]
        result = mgr.sift(roots)
        assert isinstance(result, SiftResult)
        assert result.final_size <= result.initial_size
        assert result.final_size == mgr.live_nodes()
        mgr.check_invariants()
        for root, expected in zip(roots, before):
            assert _truth_vector(mgr, root) == expected

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_inplace_matches_rebuild_quality(self, seed):
        """The in-place pass searches the same neighborhood with the
        same tie-breaks as the rebuild-based baseline, so both must
        land on orders of identical size."""
        rng = random.Random(seed)
        mgr_a = BDD(NAMES)
        f_a = random_function(mgr_a, NAMES, rng, depth=5)
        rng = random.Random(seed)
        mgr_b = BDD(NAMES)
        f_b = random_function(mgr_b, NAMES, rng, depth=5)
        mgr_a.sift([f_a])
        rebuilt, (g,) = sift_rebuild(mgr_b, [f_b])
        assert mgr_a.size(f_a) == rebuilt.size(g)
        assert mgr_a.var_names == rebuilt.var_names

    def test_sift_finds_interleaved_order_in_place(self):
        mgr = BDD(["a1", "a2", "a3", "b1", "b2", "b3"])
        f = mgr.from_expr("a1 & b1 | a2 & b2 | a3 & b3")
        result = mgr.sift([f])
        assert result.changed
        assert mgr.size(f) <= 7  # optimal comparator order is 6 nodes

    def test_sift_reports_no_change_on_optimal_input(self):
        mgr = BDD(["a", "b"])
        f = mgr.from_expr("a & b")
        result = mgr.sift([f])
        assert not result.changed
        assert result.initial_size == result.final_size

    def test_max_growth_aborts_explosive_walks(self):
        mgr = BDD(NAMES)
        f = mgr.from_expr("a & d | b & e | c & f")
        tight = mgr.sift([f], max_growth=1.0)
        # With zero tolerated growth the walks stop at the first uphill
        # step; the pass must still terminate, keep the function, and
        # never worsen (best-seen backtracking).
        assert tight.final_size <= tight.initial_size
        mgr.check_invariants()


class TestLargeConesAreReordered:
    def test_wide_supernode_gets_sifted(self):
        """Regression: >14-variable supernodes were skipped by the old
        rebuild-sift guards; the in-place engine reorders them."""
        from repro.api import get_pipeline
        from repro.network import LogicNetwork

        pairs = 8  # 16 boundary variables on one node — over the old guard
        net = LogicNetwork("wide")
        names = []
        for i in range(pairs):
            names += [f"a{i}", f"b{i}"]
        for name in names:
            net.add_input(name)
        # One wide comparator-style node a0&b0 | a1&b1 | ... with the
        # pathological separated order a0..a7 b0..b7 baked into the
        # fanin list: sifting must interleave it.
        fanins = [f"a{i}" for i in range(pairs)] + [f"b{i}" for i in range(pairs)]
        rows = []
        for i in range(pairs):
            row = ["-"] * (2 * pairs)
            row[i] = "1"
            row[pairs + i] = "1"
            rows.append("".join(row))
        net.add_node("y", fanins, rows)
        net.add_output("y")

        ctx = get_pipeline("bds-maj").optimize_prefix().run_context(net)
        trace = ctx.scratch["trace"]
        assert trace.supernodes >= 1
        assert trace.sifted >= 1  # the old guards left this at 0

    def test_reorder_sift_wrapper_handles_wide_functions(self):
        mgr = BDD([f"v{i}" for i in range(16)])
        f = mgr.or_many(
            mgr.and_(mgr.var(f"v{i}"), mgr.var(f"v{i + 8}")) for i in range(8)
        )
        before = mgr.size(f)
        same_mgr, (g,) = sift(mgr, [f])  # no guards: wide inputs sift too
        assert same_mgr is mgr and g == f
        assert mgr.size(f) < before
