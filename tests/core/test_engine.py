"""Tests for the combined BDS+MAJ decomposition engine."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD
from repro.core import DecompositionEngine, EngineConfig, TreeBuilder

from ..conftest import all_assignments, random_function


def engine_for(mgr, **config_kwargs):
    return DecompositionEngine(mgr, TreeBuilder(), EngineConfig(**config_kwargs))


def assert_tree_equals_bdd(engine, f, names):
    mgr, builder = engine.mgr, engine.builder
    root = engine.decompose(f)
    for assignment in all_assignments(names):
        assert builder.eval(root, assignment) == mgr.eval(f, assignment), (
            f"mismatch at {assignment}"
        )
    return root


class TestBaseCases:
    def test_constants(self, mgr):
        engine = engine_for(mgr)
        assert engine.decompose(mgr.ONE) == TreeBuilder.CONST1
        assert engine.decompose(mgr.ZERO) == TreeBuilder.CONST0

    def test_literal(self, mgr):
        engine = engine_for(mgr)
        root = engine.decompose(mgr.var("a"))
        assert engine.builder.op(root) == "lit"

    def test_negated_literal(self, mgr):
        engine = engine_for(mgr)
        root = engine.decompose(mgr.var("a") ^ 1)
        assert engine.builder.op(root) == "not"


class TestEquivalence:
    def test_random_functions_five_vars(self, mgr):
        rng = random.Random(109)
        engine = engine_for(mgr)
        for _ in range(25):
            f = random_function(mgr, "abcde", rng, depth=5)
            assert_tree_equals_bdd(engine, f, "abcde")

    def test_full_adder(self, mgr):
        engine = engine_for(mgr)
        carry = mgr.from_expr("a & b | (a ^ b) & c")
        total = mgr.from_expr("a ^ b ^ c")
        assert_tree_equals_bdd(engine, carry, "abc")
        assert_tree_equals_bdd(engine, total, "abc")

    def test_without_majority_still_equivalent(self, mgr):
        rng = random.Random(113)
        engine = engine_for(mgr, enable_majority=False)
        for _ in range(25):
            f = random_function(mgr, "abcde", rng, depth=5)
            assert_tree_equals_bdd(engine, f, "abcde")


class TestMajorityUsage:
    def test_majority_function_becomes_single_maj(self, mgr):
        engine = engine_for(mgr)
        f = mgr.from_expr("a & b | b & c | a & c")
        root = engine.decompose(f)
        assert engine.builder.op(root) == "maj"
        counts = engine.builder.count_ops([root])
        assert counts["maj"] == 1
        assert sum(counts.values()) == 1

    def test_bds_pga_mode_emits_no_maj(self, mgr):
        rng = random.Random(127)
        engine = engine_for(mgr, enable_majority=False)
        roots = []
        for _ in range(20):
            f = random_function(mgr, "abcde", rng, depth=5)
            roots.append(engine.decompose(f))
        counts = engine.builder.count_ops(roots)
        assert counts["maj"] == 0
        assert engine.stats.majority == 0

    def test_majority_reduces_node_count(self, mgr):
        """On the carry chain the MAJ engine must not be worse than the
        radix-2-only engine (Table I's claim in miniature)."""
        carry2 = mgr.from_expr(
            "(a & b | (a ^ b) & c) "  # carry of stage 1 ...
        )
        with_maj = engine_for(mgr)
        without_maj = engine_for(mgr, enable_majority=False)
        maj_nodes = with_maj.builder.total_nodes([with_maj.decompose(carry2)])
        plain_nodes = without_maj.builder.total_nodes([without_maj.decompose(carry2)])
        assert maj_nodes <= plain_nodes

    def test_stats_track_steps(self, mgr):
        engine = engine_for(mgr)
        engine.decompose(mgr.from_expr("a & b | b & c | a & c"))
        assert engine.stats.majority == 1


class TestSharing:
    def test_cache_hit_on_repeat(self, mgr):
        engine = engine_for(mgr)
        f = mgr.from_expr("a ^ b ^ c")
        first = engine.decompose(f)
        second = engine.decompose(f)
        assert first == second
        assert engine.stats.cache_hits >= 1

    def test_complement_shared_via_inverter(self, mgr):
        engine = engine_for(mgr)
        f = mgr.from_expr("a & b | c & d")
        tree_f = engine.decompose(f)
        tree_not_f = engine.decompose(f ^ 1)
        assert tree_not_f == engine.builder.not_(tree_f)

    def test_shared_subfunctions_share_trees(self, mgr):
        engine = engine_for(mgr)
        shared = mgr.from_expr("a ^ b")
        f = mgr.and_(shared, mgr.var("c"))
        g = mgr.or_(shared, mgr.var("d"))
        roots = [engine.decompose(f), engine.decompose(g)]
        counts = engine.builder.count_ops(roots)
        assert counts["xor"] + counts["xnor"] == 1  # a^b built once


class TestConfigGuards:
    def test_size_window_skips_majority(self, mgr):
        f = mgr.from_expr("a & b | b & c | a & c")
        assert mgr.size(f) == 4
        # MAJ3's 4 nodes are outside a window ending at 3 ...
        engine = engine_for(mgr, max_majority_size=3)
        root = engine.decompose(f)
        assert engine.stats.majority == 0
        assert engine.builder.count_ops([root])["maj"] == 0
        # ... and inside one ending at 4.
        engine = engine_for(mgr, max_majority_size=4)
        root = engine.decompose(f)
        assert engine.stats.majority == 1
        assert engine.builder.count_ops([root])["maj"] == 1

    def test_global_k_influences_acceptance(self, mgr):
        # With an absurd k nothing passes the global gate.
        engine = engine_for(mgr, global_k=100.0)
        f = mgr.from_expr("a & b | b & c | a & c")
        engine.decompose(f)
        assert engine.stats.majority == 0


@settings(max_examples=80, deadline=None)
@given(
    table=st.integers(min_value=0, max_value=(1 << 16) - 1),
    enable_majority=st.booleans(),
)
def test_property_engine_preserves_function(table, enable_majority):
    """End-to-end: decomposed tree == original function, bit for bit,
    for arbitrary 4-variable functions in both engine modes."""
    names = ["a", "b", "c", "d"]
    mgr = BDD(names)
    f = mgr.from_truth_table(table, names)
    engine = DecompositionEngine(mgr, TreeBuilder(), EngineConfig(enable_majority=enable_majority))
    root = engine.decompose(f)
    for row in range(16):
        assignment = {name: bool(row >> i & 1) for i, name in enumerate(names)}
        assert engine.builder.eval(root, assignment) == mgr.eval(f, assignment)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    enable_majority=st.booleans(),
)
def test_property_random_expression_tree_equivalence(seed, enable_majority):
    """For random expression-tree functions (the conftest generator),
    the factored tree — majority on and off — evaluates identically to
    the source BDD on every assignment."""
    names = "abcde"
    mgr = BDD(list(names))
    rng = random.Random(seed)
    f = random_function(mgr, names, rng, depth=5)
    engine = DecompositionEngine(
        mgr, TreeBuilder(), EngineConfig(enable_majority=enable_majority)
    )
    root = engine.decompose(f)
    for assignment in all_assignments(names):
        assert engine.builder.eval(root, assignment) == mgr.eval(f, assignment)
    if not enable_majority:
        assert engine.stats.majority == 0
        assert engine.builder.count_ops([root]).get("maj", 0) == 0
