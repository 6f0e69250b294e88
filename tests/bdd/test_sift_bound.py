"""The sifter's lower bounds: a pass or a walk that cannot gain stops.

A reduced BDD keeps at least one node per support variable in every
order, and a sifting walk moves its variable only on a strict gain.  So
a "thin" store (one node per occupied level, plus the terminal) is
returned unchanged without a swap, and variables outside the support
are never walked.  A walk also stops once the levels it has passed,
whose nodes no longer change, prove that no further stop can win.
These tests pin that the skips change no result: the bounded
:meth:`BDD.sift` ends on the same order, size and ``changed`` flag as
the rebuild baseline (:func:`sift_rebuild`) and as the frozen unbounded
pass (:func:`.reference_kernels.ref_sift`).
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, DEFAULT_MAX_GROWTH, sift_rebuild

from ..conftest import random_function
from .reference_kernels import ref_sift

_OPS = ("and", "or", "xor")


def _literal(mgr: BDD, name: str, rng: random.Random) -> int:
    edge = mgr.var(name)
    return edge ^ 1 if rng.random() < 0.5 else edge


def _chain(mgr: BDD, names: list[str], rng: random.Random) -> int:
    """``l1 op1 (l2 op2 (... ln))``: AND/OR/XOR of literals in random
    phases.  Thin when ``names`` runs top-down in the manager's order."""
    edge = _literal(mgr, names[-1], rng)
    for name in reversed(names[:-1]):
        op = rng.choice(_OPS)
        literal = _literal(mgr, name, rng)
        if op == "and":
            edge = mgr.and_(literal, edge)
        elif op == "or":
            edge = mgr.or_(literal, edge)
        else:
            edge = mgr.xor(literal, edge)
    return edge


def _build(order: list[str], support: list[str], kind: str, seed: int):
    """A fresh manager over ``order`` holding one function of ``support``;
    the other declared variables stay outside the support."""
    rng = random.Random(seed)
    mgr = BDD(order)
    if kind == "chain":
        names = list(support)
        rng.shuffle(names)
        return mgr, _chain(mgr, names, rng)
    if kind == "thin":
        names = sorted(support, key=order.index)
        return mgr, _chain(mgr, names, rng)
    return mgr, random_function(mgr, support, rng, depth=5)


@st.composite
def sift_cases(draw):
    support_size = draw(st.integers(min_value=1, max_value=6))
    extra = draw(st.integers(min_value=0, max_value=2))
    names = [f"x{i}" for i in range(support_size + extra)]
    order = draw(st.permutations(names))
    kind = draw(st.sampled_from(["random", "chain", "thin"]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return list(order), names[:support_size], kind, seed


class TestBoundKeepsResults:
    @settings(max_examples=150, deadline=None)
    @given(sift_cases())
    def test_same_order_size_and_changed_as_rebuild_and_reference(self, case):
        order, support, kind, seed = case
        mgr, f = _build(order, support, kind, seed)
        result = mgr.sift([f])
        mgr.check_invariants()

        base_mgr, base_f = _build(order, support, kind, seed)
        rebuilt, (g,) = sift_rebuild(base_mgr, [base_f])
        assert mgr.var_names == rebuilt.var_names
        # ``size`` counts internal nodes; sift sizes include the terminal.
        assert result.final_size == mgr.size(f) + 1 == rebuilt.size(g) + 1
        assert result.changed == (rebuilt.var_names != tuple(order))

        ref_mgr, ref_f = _build(order, support, kind, seed)
        reference = ref_sift(ref_mgr, [ref_f], DEFAULT_MAX_GROWTH)
        assert mgr.var_names == ref_mgr.var_names
        assert result.initial_size == reference.initial_size
        assert result.final_size == reference.final_size
        assert result.changed == reference.changed
        assert result.swaps <= reference.swaps


class TestThinStoresAreNotWalked:
    @settings(max_examples=60, deadline=None)
    @given(sift_cases())
    def test_thin_bdd_sifts_without_a_swap(self, case):
        order, support, _kind, seed = case
        mgr, f = _build(order, support, "thin", seed)
        mgr.gc([f])
        assert mgr.live_nodes() == mgr.size(f) + 1 == len(support) + 1
        before = mgr.var_names
        result = mgr.sift([f])
        assert result.swaps == 0
        assert result.changed is False
        assert result.initial_size == result.final_size == len(support) + 1
        assert mgr.var_names == before

    def test_thin_skip_keeps_the_op_cache(self):
        mgr = BDD(["c", "a", "b"])
        g = mgr.from_expr("c & (a | b)")
        mgr.gc([g])
        live = mgr.live_nodes()
        # ``g & (a | b) == g`` fills the cache without allocating a
        # node, so the sift's initial gc has nothing to collect.
        _level, a_or_b, _low = mgr.node_fields(g >> 1)
        assert mgr.and_(g, a_or_b) == g
        assert mgr.live_nodes() == live
        entries = len(mgr.op_cache)
        assert entries
        assert mgr.sift([g]).swaps == 0
        assert len(mgr.op_cache) == entries


class TestTightness:
    def test_one_node_of_slack_is_still_sifted(self):
        """``a & (b | c)`` over ``(b, a, c, d)`` has 5 live nodes, one
        over the bound: the pass must still walk and reach 4 nodes."""
        mgr = BDD(["b", "a", "c", "d"])
        f = mgr.from_expr("a & (b | c)")
        result = mgr.sift([f])
        assert result.initial_size == 5
        assert result.final_size == mgr.size(f) + 1 == 4
        assert result.changed is True
        assert mgr.var_names == ("a", "b", "c", "d")

        ref_mgr = BDD(["b", "a", "c", "d"])
        reference = ref_sift(ref_mgr, [ref_mgr.from_expr("a & (b | c)")], None)
        assert ref_mgr.var_names == mgr.var_names
        # The reference also walks ``d``, which is outside the support.
        assert result.swaps < reference.swaps

    def test_upward_cut_keeps_the_topmost_tie(self):
        """An upward walk may stop only once its bound *exceeds* the best
        size seen: a higher stop of equal size wins the tie.  Stopping
        when the bound merely reaches it leaves ``c`` under ``a``."""
        names = list("abcd")
        mgr = BDD(names)
        f = mgr.from_truth_table(0xF0FC, names)
        result = mgr.sift([f])
        assert mgr.var_names == ("c", "a", "b", "d")

        ref_mgr = BDD(names)
        reference = ref_sift(ref_mgr, [ref_mgr.from_truth_table(0xF0FC, names)], None)
        assert ref_mgr.var_names == mgr.var_names
        assert result.final_size == reference.final_size
        assert result.swaps < reference.swaps
