"""Tests for Algorithm 1: majority construction, balancing, selection.

Each of the paper's theorems gets a direct test, the worked example of
Sections III.C/III.D is reproduced literally, and hypothesis drives the
certification over random functions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD
from repro.bdd.substitute import function_at
from repro.core import (
    MajorityConfig,
    MajorityDecomposition,
    MajorityDecompositionError,
    accepts_globally,
    balance_pair,
    certify,
    construct,
    decompose_majority,
    is_better,
    optimize,
)

from ..conftest import random_function


@pytest.fixture
def majority_function(mgr):
    return mgr.from_expr("a & b | b & c | a & c")


class TestTheorem31Existence:
    """Theorem 3.1: every function admits a majority decomposition.

    The constructive proof sets two of the three functions equal to F
    row-wise; the β-construction realizes this for any non-constant Fa,
    so construction must never fail regardless of the candidate.
    """

    def test_construction_succeeds_for_every_internal_node(self, mgr):
        rng = random.Random(71)
        for _ in range(25):
            f = random_function(mgr, "abcde", rng)
            if mgr.is_constant(f):
                continue
            for node in mgr.nodes_reachable([f]):
                fa = function_at(mgr, node)
                decomposition = construct(mgr, f, fa)
                certify(mgr, f, decomposition)

    def test_construction_with_unrelated_fa(self, mgr):
        # Fa need not even appear in F's BDD.
        f = mgr.from_expr("a & b | c")
        fa = mgr.from_expr("d ^ e")
        decomposition = construct(mgr, f, fa)
        certify(mgr, f, decomposition)

    def test_constant_fa_rejected(self, mgr):
        f = mgr.from_expr("a | b")
        with pytest.raises(MajorityDecompositionError):
            construct(mgr, f, mgr.ONE)


class TestTheorem32Construction:
    def test_fb_fc_equal_f_on_disagreement_set(self, mgr):
        """Where Fa != F both Fb and Fc must equal F (proof case i)."""
        rng = random.Random(73)
        for _ in range(20):
            f = random_function(mgr, "abcd", rng)
            if mgr.is_constant(f):
                continue
            for node in mgr.nodes_reachable([f]):
                fa = function_at(mgr, node)
                decomposition = construct(mgr, f, fa)
                disagreement = mgr.xor(fa, f)
                assert mgr.and_(disagreement, mgr.xor(decomposition.fb, f)) == mgr.ZERO
                assert mgr.and_(disagreement, mgr.xor(decomposition.fc, f)) == mgr.ZERO

    def test_h_or_w_agrees_with_f_elsewhere(self, mgr):
        """On the agreement set at least one of Fb, Fc equals F
        (Equation 2 instantiated by the Theorem 3.3 seeds)."""
        rng = random.Random(79)
        for _ in range(20):
            f = random_function(mgr, "abcd", rng)
            if mgr.is_constant(f):
                continue
            for node in mgr.nodes_reachable([f]):
                fa = function_at(mgr, node)
                decomposition = construct(mgr, f, fa)
                either_agrees = mgr.or_(
                    mgr.xnor(decomposition.fb, f), mgr.xnor(decomposition.fc, f)
                )
                assert either_agrees == mgr.ONE


class TestPaperExampleSectionIIIC:
    """F = ab + bc + ac with Fa = a: H = b + c, W = bc,
    Fb = b + c, Fc = bc, Maj(a, b+c, bc) == F."""

    def test_construction_matches_paper(self, mgr, majority_function):
        fa = mgr.var("a")
        decomposition = construct(mgr, majority_function, fa)
        assert decomposition.fb == mgr.from_expr("b | c")
        assert decomposition.fc == mgr.from_expr("b & c")
        certify(mgr, majority_function, decomposition)

    def test_balancing_matches_paper(self, mgr, majority_function):
        """Section III.D: rebalancing (Fb, Fc) = (b+c, bc) must yield
        (b, c) — i.e. Maj(a, b, c)."""
        fa = mgr.var("a")
        decomposition = construct(mgr, majority_function, fa)
        optimized = optimize(mgr, majority_function, decomposition)
        sizes = sorted(optimized.sizes(mgr))
        assert sizes == [1, 1, 1], "expected the literal triple (a, b, c)"
        certify(mgr, majority_function, optimized)

    def test_full_algorithm_finds_literal_triple(self, mgr, majority_function):
        decomposition = decompose_majority(mgr, majority_function)
        assert decomposition is not None
        assert sorted(decomposition.sizes(mgr)) == [1, 1, 1]
        assert {decomposition.fa, decomposition.fb, decomposition.fc} == {
            mgr.var("a"),
            mgr.var("b"),
            mgr.var("c"),
        }


class TestTheorem34Balancing:
    def test_balance_pair_preserves_majority(self, mgr):
        rng = random.Random(83)
        for _ in range(25):
            f = random_function(mgr, "abcd", rng)
            if mgr.is_constant(f):
                continue
            nodes = mgr.nodes_reachable([f])
            fa = function_at(mgr, nodes[rng.randrange(len(nodes))])
            decomposition = construct(mgr, f, fa)
            fb, fc = balance_pair(mgr, decomposition.fb, decomposition.fc)
            certify(mgr, f, MajorityDecomposition(decomposition.fa, fb, fc))
            fa2, fb2 = balance_pair(mgr, decomposition.fa, decomposition.fb)
            certify(mgr, f, MajorityDecomposition(fa2, fb2, decomposition.fc))

    def test_balance_pair_identity_when_equal(self, mgr):
        x = mgr.from_expr("a & b")
        assert balance_pair(mgr, x, x) == (x, x)

    def test_optimize_never_worsens(self, mgr):
        rng = random.Random(89)
        for _ in range(20):
            f = random_function(mgr, "abcde", rng)
            if mgr.is_constant(f):
                continue
            nodes = mgr.nodes_reachable([f])
            fa = function_at(mgr, nodes[-1])
            decomposition = construct(mgr, f, fa)
            optimized = optimize(mgr, f, decomposition)
            assert optimized.total_size(mgr) <= decomposition.total_size(mgr)
            certify(mgr, f, optimized)

    def test_optimize_respects_iteration_limit(self, mgr, majority_function):
        config = MajorityConfig(max_balance_iterations=0)
        fa = mgr.var("a")
        decomposition = construct(mgr, majority_function, fa, config)
        optimized = optimize(mgr, majority_function, decomposition, config)
        assert optimized.parts() == decomposition.parts()


class TestSelectionMetrics:
    def _triple(self, mgr, *exprs):
        return MajorityDecomposition(*(mgr.from_expr(e) for e in exprs))

    def test_smaller_sum_wins(self, mgr):
        small = self._triple(mgr, "a", "b", "c")
        large = self._triple(mgr, "a & b | c", "b | c", "a ^ c")
        assert is_better(mgr, small, large)
        assert not is_better(mgr, large, small)

    def test_k_dominance_certificate(self, mgr):
        small = self._triple(mgr, "a", "b", "c")
        scaled = self._triple(mgr, "a & b", "b & c", "a ^ b ^ c")
        # Every component of `small` is >= 1.5x smaller: dominance.
        assert is_better(mgr, small, scaled, k=1.5)

    def test_tie_breaks_on_largest_component(self, mgr):
        balanced = self._triple(mgr, "a & b", "b & c", "a & c")  # sizes 2,2,2
        skewed = MajorityDecomposition(
            mgr.from_expr("a"), mgr.from_expr("b"), mgr.from_expr("a ^ b ^ c ^ d")
        )  # sizes 1,1,4
        assert is_better(mgr, balanced, skewed)

    def test_global_acceptance_requires_progress(self, mgr, majority_function):
        good = self._triple(mgr, "a", "b", "c")
        assert accepts_globally(mgr, mgr.size(majority_function), good, k=1.6)
        trivial = MajorityDecomposition(
            mgr.var("a"), majority_function, majority_function
        )
        assert not accepts_globally(
            mgr, mgr.size(majority_function), trivial, k=1.6
        )

    def test_global_acceptance_checks_each_component(self, mgr):
        f = mgr.from_expr("(a | b) & (c | d) & (a ^ d)")  # a larger function
        original = mgr.size(f)
        # Component as large as the original: rejected even if sum is less.
        lopsided = MajorityDecomposition(mgr.var("a"), mgr.var("b"), f)
        assert not accepts_globally(mgr, original, lopsided, k=1.6)

    def test_triple_sizes_are_walked_once(self, mgr, monkeypatch):
        triple = self._triple(mgr, "a & b", "b | c", "a ^ c")
        expected = tuple(mgr.size(part) for part in triple.parts())
        walks = []
        size = mgr.size
        monkeypatch.setattr(mgr, "size", lambda edge: walks.append(edge) or size(edge))
        assert triple.sizes(mgr) == expected
        assert triple.total_size(mgr) == sum(expected)
        assert is_better(mgr, triple, self._triple(mgr, "a", "b", "c")) is False
        assert len(walks) == 6  # three for `triple`, three for the new one


class TestAlgorithmEndToEnd:
    def test_always_certified(self, mgr):
        rng = random.Random(97)
        for _ in range(30):
            f = random_function(mgr, "abcde", rng)
            decomposition = decompose_majority(mgr, f)
            if decomposition is not None:
                certify(mgr, f, decomposition)

    def test_constant_has_no_decomposition(self, mgr):
        assert decompose_majority(mgr, mgr.ONE) is None
        assert decompose_majority(mgr, mgr.ZERO) is None

    def test_adder_carry_is_pure_majority(self, mgr):
        """The full-adder carry is MAJ(a, b, cin) — the motivating
        datapath pattern; Algorithm 1 must reduce it to literals."""
        carry = mgr.from_expr("a & b | (a ^ b) & c")
        decomposition = decompose_majority(mgr, carry)
        assert decomposition is not None
        assert sorted(decomposition.sizes(mgr)) == [1, 1, 1]

    def test_respects_candidate_cap(self, mgr):
        from repro.core import MDominatorConfig

        f = mgr.from_expr("a & b | b & c | a & c")
        config = MajorityConfig()
        config.mdominator = MDominatorConfig(max_candidates=1)
        decomposition = decompose_majority(mgr, f, config)
        assert decomposition is not None
        certify(mgr, f, decomposition)


@settings(max_examples=120, deadline=None)
@given(table=st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_property_majority_decomposition_certified(table):
    """For arbitrary 4-variable functions, whenever Algorithm 1 returns
    a triple it must satisfy Maj(Fa,Fb,Fc) == F."""
    names = ["a", "b", "c", "d"]
    mgr = BDD(names)
    f = mgr.from_truth_table(table, names)
    decomposition = decompose_majority(mgr, f)
    if decomposition is not None:
        certify(mgr, f, decomposition)


@settings(max_examples=80, deadline=None)
@given(
    table=st.integers(min_value=0, max_value=(1 << 16) - 1),
    node_choice=st.integers(min_value=0, max_value=63),
)
def test_property_construction_valid_for_any_candidate(table, node_choice):
    """β-construction (Thm 3.2 + 3.3) is valid for *any* internal node."""
    names = ["a", "b", "c", "d"]
    mgr = BDD(names)
    f = mgr.from_truth_table(table, names)
    if mgr.is_constant(f):
        return
    nodes = mgr.nodes_reachable([f])
    fa = function_at(mgr, nodes[node_choice % len(nodes)])
    decomposition = construct(mgr, f, fa)
    certify(mgr, f, decomposition)
