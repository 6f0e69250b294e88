"""The majority search on truth tables against the BDD operations it
replaces.

While ``F`` has at most 12 support levels,
``repro.core.majority.decompose_majority`` runs β (``construct``), γ
(``optimize``) and ω on truth tables over the support of ``F`` and
builds only the triple whose parts are read.  These properties pin each
table operation to its BDD counterpart on random functions of up to 8
variables, complemented roots included: the table BDD size, the
table/edge round trip, the cut-node functions, ``restrict``, the XOR
split, pair balancing, the balancing iteration and the whole search.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.majority as majority
from repro.bdd import BDD, BDDError, cut_nodes, function_at, restrict, simple_dominator_nodes
from repro.bdd import xor_split as xor_split_edge
from repro.core import (
    MajorityDecompositionError,
    accepts_globally,
    balance_pair,
    certify,
    construct,
    decompose_majority,
    optimize,
)
from repro.truthtable import bdd_size, cut_functions
from repro.truthtable import restrict as restrict_table

from ..conftest import random_function

_specs = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)


def _draw(spec) -> tuple[BDD, list[int], int]:
    """A manager over ``num_vars`` variables, all its levels, and a
    random (possibly complemented) function."""
    seed, num_vars, depth, negate = spec
    names = [f"x{i}" for i in range(num_vars)]
    mgr = BDD(names)
    f = random_function(mgr, names, random.Random(seed), depth) ^ int(negate)
    return mgr, list(range(num_vars)), f


def _table(mgr: BDD, edge: int, levels: list[int]) -> int:
    return mgr.edge_tables([edge], levels)[0]


def _space(mgr: BDD, f: int, candidates: list[int]) -> majority._Tables:
    """The table space of a search on ``f`` with ``candidates``."""
    return majority._Tables(mgr, f, sorted(mgr.support_levels(f)), candidates, verify=True)


def _bdd_search(mgr: BDD, f: int):
    """``decompose_majority`` on BDDs whatever the support of ``f``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(majority, "EXHAUSTIVE_LEVELS", -1)
        return decompose_majority(mgr, f)


_tables = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
)


@settings(max_examples=200, deadline=None)
@given(spec=_tables)
def test_property_any_table_round_trips_and_sizes(spec):
    num_vars, table = spec
    mgr = BDD([f"x{i}" for i in range(num_vars)])
    levels = list(range(num_vars))
    edge = mgr.table_edge(table, levels)
    assert _table(mgr, edge, levels) == table
    assert bdd_size(table, num_vars) == mgr.size(edge)


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_property_edge_round_trips_and_sizes(spec):
    mgr, levels, f = _draw(spec)
    table = _table(mgr, f, levels)
    assert mgr.table_edge(table, levels) == f
    assert bdd_size(table, len(levels)) == mgr.size(f)
    support = sorted(mgr.support_levels(f))
    assert mgr.table_edge(_table(mgr, f, support), support) == f


def _check_cut_functions(mgr: BDD, levels: list[int], f: int) -> None:
    if mgr.is_constant(f):
        return
    nodes = mgr.nodes_reachable([f])
    cut = set(cut_nodes(mgr, f, nodes))
    expected = [_table(mgr, function_at(mgr, node), levels) for node in nodes if node in cut]
    assert cut_functions(_table(mgr, f, levels), len(levels)) == (mgr.size(f), expected)


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_property_cut_functions_are_the_cut_nodes_in_order(spec):
    _check_cut_functions(*_draw(spec))


@settings(max_examples=200, deadline=None)
@given(spec=_tables)
def test_property_cut_functions_of_any_table(spec):
    num_vars, table = spec
    mgr = BDD([f"x{i}" for i in range(num_vars)])
    levels = list(range(num_vars))
    _check_cut_functions(mgr, levels, mgr.table_edge(table, levels))


@settings(max_examples=200, deadline=None)
@given(spec=_specs, cap=st.sampled_from([0, 4, 150]))
def test_property_xor_split_matches_the_bdd_split(spec, cap):
    mgr, levels, f = _draw(spec)
    m, k = xor_split_edge(mgr, f, max_dominator_nodes=cap)
    split = majority.xor_split(_table(mgr, f, levels), len(levels), max_dominator_nodes=cap)
    assert split == (_table(mgr, m, levels), _table(mgr, k, levels))


@settings(max_examples=200, deadline=None)
@given(spec=_specs, other=st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_property_balance_tables_matches_balance_pair(spec, other):
    mgr, levels, x = _draw(spec)
    y = random_function(mgr, mgr.var_names, random.Random(other), 4)
    expected = [_table(mgr, edge, levels) for edge in balance_pair(mgr, x, y)]
    tables = [_table(mgr, edge, levels) for edge in (x, y)]
    assert list(majority.balance_tables(*tables, len(levels))) == expected


@settings(max_examples=200, deadline=None)
@given(spec=_specs, other=st.integers(min_value=0, max_value=(1 << 32) - 1), skip=st.booleans())
def test_property_table_restrict_matches_restrict(spec, other, skip):
    mgr, levels, f = _draw(spec)
    care = random_function(mgr, mgr.var_names, random.Random(other), 4)
    skipped = sorted(set(levels) - mgr.support_levels(f))
    if skip and skipped:
        # The care set then depends on a level that f skips.
        care = mgr.xor(care, mgr.var(mgr.var_names[skipped[0]]))
    if care == mgr.ZERO:
        with pytest.raises(ValueError, match="empty care set"):
            restrict_table(_table(mgr, f, levels), 0, len(levels))
        return
    expected = _table(mgr, restrict(mgr, f, care), levels)
    tables = [_table(mgr, edge, levels) for edge in (f, care)]
    assert restrict_table(*tables, len(levels)) == expected


@settings(max_examples=200, deadline=None)
@given(spec=_specs, pick=st.integers(min_value=0, max_value=1000))
def test_property_optimize_matches_the_bdd_iteration(spec, pick):
    mgr, _, f = _draw(spec)
    if mgr.is_constant(f):
        return
    nodes = mgr.nodes_reachable([f])
    fa = function_at(mgr, nodes[pick % len(nodes)])
    decomposition = construct(mgr, f, fa, space=_space(mgr, f, [fa]))
    optimized = optimize(mgr, f, decomposition)
    expected = optimize(mgr, f, construct(mgr, f, fa))
    assert optimized.parts() == expected.parts()
    assert optimized.sizes(mgr) == tuple(mgr.size(part) for part in optimized.parts())
    certify(mgr, f, optimized)


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_property_the_table_search_matches_the_bdd_search(spec):
    mgr, _, f = _draw(spec)
    found = decompose_majority(mgr, f)
    expected = _bdd_search(mgr, f)
    if expected is None:
        assert found is None
        return
    assert found.dominator_node == expected.dominator_node
    assert found.sizes(mgr) == expected.sizes(mgr)
    assert found.parts() == expected.parts()


@settings(max_examples=200, deadline=None)
@given(spec=_specs)
def test_property_the_table_search_builds_only_the_parts_read(spec):
    mgr, _, f = _draw(spec)
    if mgr.is_constant(f):
        return
    simple = simple_dominator_nodes(mgr, f)
    before = mgr.num_nodes()
    found = decompose_majority(mgr, f, simple_dominators=simple)
    accepted = found is not None and accepts_globally(mgr, mgr.size(f), found)
    assert mgr.num_nodes() == before
    if accepted:
        certify(mgr, f, found)


def test_a_rejected_search_leaves_the_manager_unchanged():
    mgr = BDD(["a", "b", "c", "d"])
    f = mgr.from_expr("a & b | c & d")
    simple = simple_dominator_nodes(mgr, f)
    before = mgr.num_nodes()
    found = decompose_majority(mgr, f, simple_dominators=simple)
    assert found is not None
    assert not accepts_globally(mgr, mgr.size(f), found)
    assert mgr.num_nodes() == before


@pytest.mark.parametrize("fa", [0, 1])
def test_a_constant_fa_raises_in_the_table_search(fa):
    mgr = BDD(["a", "b", "c"])
    f = mgr.from_expr("a & b | b & c | a & c")
    with pytest.raises(MajorityDecompositionError, match="constant"):
        construct(mgr, f, fa, space=_space(mgr, f, []))


def test_edge_tables_refuse_a_level_outside_the_given_ones():
    mgr = BDD(["a", "b", "c"])
    f = mgr.from_expr("a & c")
    with pytest.raises(BDDError, match=r"levels \[2\] outside \[0, 1\]"):
        mgr.edge_tables([f], [0, 1])


def test_the_table_search_refuses_a_candidate_outside_the_support_of_f():
    mgr = BDD(["a", "b", "c", "d"])
    f = mgr.from_expr("a & b | b & c | a & c")
    with pytest.raises(BDDError, match="outside"):
        _space(mgr, f, [mgr.from_expr("b | d")])


def test_a_wrong_balanced_triple_fails_the_per_iteration_check(monkeypatch):
    mgr = BDD(["a", "b", "c"])
    f = mgr.from_expr("a & b | b & c | a & c")
    decomposition = construct(mgr, f, mgr.var("a"), space=_space(mgr, f, [mgr.var("a")]))
    monkeypatch.setattr(majority, "balance_tables", lambda x, y, num_vars: (x, ~y & 0xFF))
    with pytest.raises(MajorityDecompositionError):
        optimize(mgr, f, decomposition)


def _thirteen_level_function(mgr: BDD) -> int:
    """``x0·x1 + x2·x3 + ... `` XOR-ed with ``x12``: 13 support levels."""
    terms = " | ".join(f"x{i} & x{i + 1}" for i in range(0, 12, 2))
    return mgr.from_expr(f"({terms}) ^ x12")


@pytest.mark.parametrize("num_vars, table_path", [(13, False), (12, True)])
def test_the_table_path_ends_at_twelve_support_levels(monkeypatch, num_vars, table_path):
    mgr = BDD([f"x{i}" for i in range(13)])
    f = _thirteen_level_function(mgr)
    if num_vars == 12:
        f = mgr.cofactor(f, 12, False)
    assert len(mgr.support_levels(f)) == num_vars
    table_calls = []
    split = majority.xor_split
    monkeypatch.setattr(
        majority, "xor_split", lambda *args: table_calls.append(args) or split(*args)
    )
    optimized = decompose_majority(mgr, f)
    assert bool(table_calls) == table_path
    expected = _bdd_search(mgr, f)
    assert optimized.parts() == expected.parts()
    certify(mgr, f, optimized)
