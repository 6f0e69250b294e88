"""Tests for structural rewrites: replace_node, edge statistics, cut nodes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import (
    BDD,
    cut_nodes,
    edge_statistics,
    function_at,
    replace_node,
)

from ..conftest import random_function
from .reference_dominators import path_dominators


class TestFunctionAt:
    def test_function_at_variable_node(self, mgr):
        a = mgr.var("a")
        assert function_at(mgr, a >> 1) == a

    def test_function_at_is_regular(self, mgr):
        f = mgr.from_expr("~(a & b)")
        edge = function_at(mgr, f >> 1)
        assert edge & 1 == 0


class TestReplaceNode:
    def test_replace_with_one_simplifies_and(self, mgr):
        f = mgr.from_expr("a & b")
        b_node = mgr.var("b") >> 1
        g = replace_node(mgr, f, b_node, mgr.ONE)
        assert g == mgr.var("a")

    def test_replace_with_zero_simplifies_or(self, mgr):
        f = mgr.from_expr("a | b")
        b_node = mgr.var("b") >> 1
        g = replace_node(mgr, f, b_node, mgr.ZERO)
        assert g == mgr.var("a")

    def test_replace_terminal_rejected(self, mgr):
        with pytest.raises(ValueError):
            replace_node(mgr, mgr.var("a"), 0, mgr.ONE)

    def test_replace_node_with_itself_is_identity(self, mgr):
        rng = random.Random(41)
        for _ in range(20):
            f = random_function(mgr, "abcd", rng)
            if mgr.is_constant(f):
                continue
            for index in mgr.nodes_reachable([f]):
                g = replace_node(mgr, f, index, function_at(mgr, index))
                assert g == f

    def test_substitution_identity(self, mgr):
        """Replacing node d by a fresh function then composing back with
        func(d) must reproduce F whenever d's variable does not appear
        above it (here guaranteed by choosing the bottom-most node)."""
        f = mgr.from_expr("(a & b) ^ (c | d)")
        nodes = mgr.nodes_reachable([f])
        bottom = nodes[-1]
        h = function_at(mgr, bottom)
        g_one = replace_node(mgr, f, bottom, mgr.ONE)
        g_zero = replace_node(mgr, f, bottom, mgr.ZERO)
        rebuilt = mgr.ite(h, g_one, g_zero)
        assert rebuilt == f

    def test_replacement_respects_complement_references(self, mgr):
        # f references node(b) both regular (via a) and complemented.
        f = mgr.from_expr("a & b | ~a & ~b")
        b_node = mgr.var("b") >> 1
        g = replace_node(mgr, f, b_node, mgr.var("c"))
        expected = mgr.from_expr("a & c | ~a & ~c")
        assert g == expected


class TestEdgeStatistics:
    def test_majority_fanin_counts(self, mgr):
        # In the BDD of ab+bc+ac (order a,b,c) the node for c is entered
        # once by a 1-edge and once by a 0-edge.
        f = mgr.from_expr("a & b | b & c | a & c")
        stats = edge_statistics(mgr, [f])
        c_node = mgr.var("c") >> 1
        entry = stats.of(c_node)
        assert entry.one == 1
        assert entry.regular_zero + entry.complemented_zero == 1

    def test_root_reference_counted_separately(self, mgr):
        f = mgr.from_expr("a & b")
        stats = edge_statistics(mgr, [f])
        assert stats.of(f >> 1).root_refs == 1

    def test_total_matches_edge_count(self, mgr):
        rng = random.Random(43)
        roots = [random_function(mgr, "abcde", rng) for _ in range(5)]
        roots = [r for r in roots if not mgr.is_constant(r)]
        stats = edge_statistics(mgr, roots)
        # Every internal node contributes exactly two out-edges; count
        # how many of them land on internal nodes.
        expected_internal_edges = 0
        for index in mgr.nodes_reachable(roots):
            _, high, low = mgr.node_fields(index)
            expected_internal_edges += (high >> 1 != 0) + (low >> 1 != 0)
        counted = sum(
            entry.one + entry.regular_zero + entry.complemented_zero
            for entry in stats.fanin.values()
        )
        assert counted == expected_internal_edges


class TestPathDominators:
    def test_conjunction_chain_one_dominators(self, mgr):
        # a & b & c: the single value-1 path visits every node, so all
        # non-root nodes are 1-dominators; value-0 paths escape early,
        # so there are no 0-dominators.
        f = mgr.from_expr("a & b & c")
        doms = path_dominators(mgr, f)
        nodes = mgr.nodes_reachable([f])
        assert doms.to_one == set(nodes[1:])
        assert doms.to_zero == set()

    def test_disjunction_chain_zero_dominators(self, mgr):
        f = mgr.from_expr("a | b | c")
        doms = path_dominators(mgr, f)
        nodes = mgr.nodes_reachable([f])
        assert doms.to_zero == set(nodes[1:])
        assert doms.to_one == set()

    def test_root_never_a_dominator(self, mgr):
        f = mgr.from_expr("a & b | c")
        doms = path_dominators(mgr, f)
        assert (f >> 1) not in doms.to_one | doms.to_zero

    def test_constant_has_no_dominators(self, mgr):
        assert cut_nodes(mgr, mgr.ONE) == []
        assert path_dominators(mgr, mgr.ZERO).to_one == set()

    def test_diamond_reconverges_at_one_dominator(self, mgr):
        # (a xor b) & c: both value-1 branches of the xor reconverge at
        # the node testing c.
        f = mgr.from_expr("(a ^ b) & c")
        doms = path_dominators(mgr, f)
        c_node = mgr.var("c") >> 1
        assert c_node in doms.to_one

    def test_edge_over_a_level_breaks_the_cut(self, mgr):
        # a ? b : c -- a's low edge jumps over b's level and b's edges
        # jump over c's level to the terminal: no cut node at all.
        f = mgr.from_expr("a & b | ~a & c")
        assert cut_nodes(mgr, f) == []
        # (a | b) ^ c: a's low edge reaches b, its high edge jumps to
        # the c level, where a single node (in both polarities) sits.
        g = mgr.from_expr("(a | b) ^ c")
        assert cut_nodes(mgr, g) == [mgr.var("c") >> 1]

    def test_xor_tail_is_all_path_dominator(self, mgr):
        # (a xor b) xor c: every path must consult c.
        f = mgr.from_expr("(a ^ b) ^ c")
        c_node = mgr.var("c") >> 1
        assert c_node in cut_nodes(mgr, f)

    def test_one_dominators_block_value_one_paths(self, mgr):
        rng = random.Random(47)
        for _ in range(20):
            f = random_function(mgr, "abcde", rng)
            if mgr.is_constant(f):
                continue
            doms = path_dominators(mgr, f)
            for node in doms.to_one:
                assert _parity_paths_avoiding(mgr, f, node, 0) == 0
            for node in doms.to_zero:
                assert _parity_paths_avoiding(mgr, f, node, 1) == 0


def _parity_paths_avoiding(mgr: BDD, root: int, banned: int, parity: int) -> int:
    """Count root->terminal paths of the given parity avoiding ``banned``."""
    def walk(index: int, acc: int) -> int:
        if index == banned:
            return 0
        if index == 0:
            return 1 if acc == parity else 0
        _, high, low = mgr.node_fields(index)
        return walk(high >> 1, acc ^ (high & 1)) + walk(low >> 1, acc ^ (low & 1))

    return walk(root >> 1, root & 1)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
    depth=st.integers(min_value=2, max_value=6),
    negate=st.booleans(),
)
def test_property_cut_nodes_match_path_dominators(seed, depth, negate):
    """The one-pass structural cut equals the per-candidate
    reachability definition, complemented roots included."""
    mgr = BDD(list("abcdef"))
    f = random_function(mgr, "abcdef", random.Random(seed), depth) ^ int(negate)
    assert cut_nodes(mgr, f) == sorted(path_dominators(mgr, f).all_paths)
