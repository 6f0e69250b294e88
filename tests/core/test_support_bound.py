"""The support-count bound that lets the engine skip Algorithm 1.

``Maj(Fa, Fb, Fc) = F`` implies that every support variable of ``F`` is
in the support of ``Fa``, ``Fb`` or ``Fc``, and a reduced BDD has a node
per support variable, so every triple's summed size is at least
``|supp(F)|``.  When ``F``'s BDD has
exactly one node per support variable ("thin"), the global selection
metric rejects every triple, and the engine does not search.

The property tests check the lemma on random functions; the oracle
engine runs the skipped search on every thin function of real circuits
and requires it to be rejected, and requires that only thin functions
are skipped (the bound is tight: slack-1 triples are accepted).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.bdd import BDD
from repro.bdd.dominators import find_simple_decompositions
from repro.benchgen import build_benchmark
from repro.benchgen.random_logic import random_control_network
from repro.core import DecompositionEngine, accepts_globally, decompose_majority

from ..conftest import random_function
from .test_memo import decompose_network


def check_triple(mgr, f, k=1.6):
    """Run the unpruned search on ``f``; check the lemma on its triple.
    Returns ``(thin, found, accepted)``."""
    size = mgr.size(f)
    support = len(mgr.support_levels(f))
    thin = size == support
    triple = decompose_majority(mgr, f)
    if triple is None:
        return thin, False, False
    assert sum(triple.sizes(mgr)) >= support
    accepted = accepts_globally(mgr, size, triple, k)
    if thin:
        assert not accepted, "a thin function's triple passed the global test"
    return thin, True, accepted


@settings(max_examples=150, deadline=None)
@given(
    num_vars=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    depth=st.integers(min_value=2, max_value=5),
)
def test_property_bound_holds_on_random_expressions(num_vars, seed, depth):
    names = "abcdef"[:num_vars]
    mgr = BDD(list(names))
    f = random_function(mgr, names, random.Random(seed), depth=depth)
    if mgr.size(f) > 1:
        check_triple(mgr, f)


@settings(max_examples=100, deadline=None)
@given(table=st.integers(min_value=0, max_value=(1 << 64) - 1))
def test_property_bound_holds_on_random_truth_tables(table):
    names = list("abcdef")
    mgr = BDD(names)
    f = mgr.from_truth_table(table, names)
    if mgr.size(f) > 1:
        check_triple(mgr, f)


def test_sweep_searches_thin_functions():
    """The random sweep behind the properties reaches thin functions on
    which Algorithm 1 finds a triple (which the global test rejects)."""
    rng = random.Random(23)
    names = "abcde"
    thin_searched = 0
    for _ in range(300):
        mgr = BDD(list(names))
        f = random_function(mgr, names, rng, depth=4)
        if mgr.size(f) > 1:
            thin, found, _ = check_triple(mgr, f)
            thin_searched += thin and found
    assert thin_searched > 0


def test_bound_is_tight(mgr):
    """MAJ3 has 4 nodes over 3 variables (slack 1) and is accepted: a
    bound that also skipped slack 1 would lose it."""
    f = mgr.from_expr("a & b | b & c | a & c")
    assert mgr.size(f) == 4
    assert check_triple(mgr, f) == (False, True, True)


def test_small_functions_are_thin():
    """Every function of at most 3 BDD nodes is thin (so a minimum-size
    window of 3 for the search would never fire)."""
    names = list("abc")
    mgr = BDD(names)
    for table in range(256):
        f = mgr.from_truth_table(table, names)
        if mgr.size(f) <= 3:
            assert mgr.size(f) == len(mgr.support_levels(f))


def assert_skips_are_rejections(network):
    """Decompose ``network`` with an engine that, on every decision
    where the majority search was skipped, asserts that the function is
    thin and that the full search would have been rejected.  Returns
    the slacks ``|F| - |supp(F)|`` of the accepted majority splits."""
    counts = {"searches": 0, "skipped": 0}
    accepted_slacks = []

    def counting_search(*args, **kwargs):
        counts["searches"] += 1
        return decompose_majority(*args, **kwargs)

    class BoundCheckingEngine(DecompositionEngine):
        def _decide(self, f, shape, levels):
            searches = counts["searches"]
            decision = super()._decide(f, shape, levels)
            mgr, config = self.mgr, self.config
            size = len(shape[1])
            if decision[0] == "maj":
                accepted_slacks.append(size - len(levels))
            if counts["searches"] > searches or size > config.max_majority_size:
                return decision
            assert size == len(levels), f"a function with slack {size - len(levels)} was skipped"
            counts["skipped"] += 1
            simple_nodes = {d.node for d in find_simple_decompositions(mgr, f)}
            triple = decompose_majority(mgr, f, config.majority, simple_dominators=simple_nodes)
            assert triple is None or not accepts_globally(mgr, size, triple, config.global_k)
            assert decision[0] != "maj"
            return decision

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(engine_module, "decompose_majority", counting_search)
        decompose_network(network, "bds-maj", BoundCheckingEngine)
    assert counts["skipped"] > 0, "the bound skipped no search"
    return accepted_slacks


@pytest.mark.parametrize("circuit", ["alu2", "c6288", "add4x16", "vda"])
def test_registry_skipped_searches_would_be_rejected(circuit):
    accepted_slacks = assert_skips_are_rejections(build_benchmark(circuit))
    if circuit != "vda":  # vda takes no majority split
        assert 1 in accepted_slacks, "no slack-1 function was split by majority"


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    xor_fraction=st.sampled_from([0.08, 0.3, 0.6]),
)
def test_property_skipped_searches_would_be_rejected_on_random_networks(seed, xor_fraction):
    network = random_control_network("rnd", 8, 4, 40, seed=seed, xor_fraction=xor_fraction)
    assert_skips_are_rejections(network)
