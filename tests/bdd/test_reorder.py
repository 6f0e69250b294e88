"""Tests for variable reordering: the rebuild-based ``reorder``
construction and in-place sifting through :meth:`BDD.sift`.  The
in-place machinery's own property tests live in
``test_sift_inplace.py``."""

from __future__ import annotations

import random

import pytest

from repro.bdd import BDD, reorder

from ..conftest import all_assignments, random_function


class TestReorder:
    def test_reorder_preserves_function(self):
        mgr = BDD(["a", "b", "c", "d"])
        f = mgr.from_expr("a & c | b & d")
        new_mgr, (g,) = reorder(mgr, [f], ["a", "c", "b", "d"])
        for assignment in all_assignments("abcd"):
            assert mgr.eval(f, assignment) == new_mgr.eval(g, assignment)

    def test_reorder_rejects_non_permutation(self):
        mgr = BDD(["a", "b"])
        with pytest.raises(ValueError):
            reorder(mgr, [mgr.var("a")], ["a"])

    def test_interleaving_shrinks_comparator(self):
        """The classic (a1&b1)|(a2&b2)|(a3&b3) example: the grouped order
        is exponentially better than the separated order."""
        separated = BDD(["a1", "a2", "a3", "b1", "b2", "b3"])
        f = separated.from_expr("a1 & b1 | a2 & b2 | a3 & b3")
        bad_size = separated.size(f)
        good_mgr, (g,) = reorder(
            separated, [f], ["a1", "b1", "a2", "b2", "a3", "b3"]
        )
        assert good_mgr.size(g) < bad_size


class TestSift:
    def test_sift_never_worsens(self):
        rng = random.Random(61)
        for _ in range(10):
            mgr = BDD(list("abcdef"))
            f = random_function(mgr, "abcdef", rng, depth=5)
            before = mgr.size(f)
            mgr.sift([f])
            assert mgr.size(f) <= before

    def test_sift_preserves_function(self):
        rng = random.Random(67)
        mgr = BDD(list("abcde"))
        f = random_function(mgr, "abcde", rng, depth=5)
        before = [mgr.eval(f, assignment) for assignment in all_assignments("abcde")]
        mgr.sift([f])
        assert [mgr.eval(f, assignment) for assignment in all_assignments("abcde")] == before

    def test_sift_finds_interleaved_order(self):
        mgr = BDD(["a1", "a2", "a3", "b1", "b2", "b3"])
        f = mgr.from_expr("a1 & b1 | a2 & b2 | a3 & b3")
        mgr.sift([f])
        # Optimal size for n=3 comparator-style function is 6 nodes.
        assert mgr.size(f) <= 7

    def test_sift_multiple_roots_consistent(self):
        mgr = BDD(list("abcd"))
        f = mgr.from_expr("a & c")
        g = mgr.from_expr("b | d")
        assignments = list(all_assignments("abcd"))
        before = [(mgr.eval(f, a), mgr.eval(g, a)) for a in assignments]
        mgr.sift([f, g])
        assert [(mgr.eval(f, a), mgr.eval(g, a)) for a in assignments] == before
