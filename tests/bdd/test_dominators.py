"""Tests for dominator classification and balanced XOR splitting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.bdd.dominators as dominators
from repro.bdd import (
    BDD,
    BDDError,
    KIND_AND,
    KIND_OR,
    KIND_XOR,
    best_simple_decomposition,
    find_simple_decompositions,
    function_at,
    replace_node,
    simple_dominator_nodes,
    xor_split,
)
from repro.bdd.dominators import (
    EVEN,
    EXHAUSTIVE_LEVELS,
    ODD,
    XOR_ZERO,
    find_xor_decompositions,
    simulate_paths,
)

from ..conftest import random_function
from . import reference_dominators


def _check_decomposition(mgr: BDD, root: int, decomposition) -> None:
    """Re-verify the certified identity."""
    if decomposition.kind == KIND_AND:
        rebuilt = mgr.and_(decomposition.upper, decomposition.lower)
    elif decomposition.kind == KIND_OR:
        rebuilt = mgr.or_(decomposition.upper, decomposition.lower)
    else:
        rebuilt = mgr.xor(decomposition.upper, decomposition.lower)
    assert rebuilt == root


class TestSimpleDominators:
    def test_conjunction_yields_and_decomposition(self, mgr):
        f = mgr.from_expr("(a | b) & (c | d)")
        kinds = {d.kind for d in find_simple_decompositions(mgr, f)}
        assert KIND_AND in kinds

    def test_disjunction_yields_or_decomposition(self, mgr):
        f = mgr.from_expr("(a & b) | (c & d)")
        kinds = {d.kind for d in find_simple_decompositions(mgr, f)}
        assert KIND_OR in kinds

    def test_xor_yields_xor_decomposition(self, mgr):
        f = mgr.from_expr("(a & b) ^ (c | d)")
        decompositions = find_simple_decompositions(mgr, f)
        xors = [d for d in decompositions if d.kind == KIND_XOR]
        assert xors
        for d in xors:
            _check_decomposition(mgr, f, d)

    def test_xnor_folds_into_xor(self, mgr):
        f = mgr.from_expr("~((a & b) ^ (c | d))")
        decompositions = find_simple_decompositions(mgr, f)
        assert any(d.kind == KIND_XOR for d in decompositions)
        for d in decompositions:
            _check_decomposition(mgr, f, d)

    def test_all_reported_decompositions_verify(self, mgr):
        rng = random.Random(53)
        for _ in range(40):
            f = random_function(mgr, "abcde", rng)
            if mgr.is_constant(f):
                continue
            for d in find_simple_decompositions(mgr, f):
                _check_decomposition(mgr, f, d)

    def test_majority_has_no_simple_dominator_decomposition(self, mgr):
        """MAJ(a,b,c) is the paper's motivating function: BDS's simple
        dominators cannot break it (that is why m-dominators exist)."""
        f = mgr.from_expr("a & b | b & c | a & c")
        useful = [
            d
            for d in find_simple_decompositions(mgr, f)
            if not mgr.is_constant(d.upper) and not mgr.is_constant(d.lower)
            and mgr.size(d.upper) > 1 and mgr.size(d.lower) >= 1
        ]
        # The only certified decompositions involve trivial (literal)
        # parts that make no structural progress.
        best = best_simple_decomposition(mgr, f)
        if best is not None:
            _check_decomposition(mgr, f, best)

    def test_simple_dominator_nodes_subset_of_cuts(self, mgr):
        f = mgr.from_expr("(a | b) & (c ^ d)")
        nodes = simple_dominator_nodes(mgr, f)
        reachable = set(mgr.nodes_reachable([f]))
        assert nodes <= reachable


class TestBestDecomposition:
    def test_best_prefers_balanced_split(self, mgr):
        f = mgr.from_expr("(a ^ b) & (c ^ d)")
        best = best_simple_decomposition(mgr, f)
        assert best is not None
        assert best.kind == KIND_AND
        _check_decomposition(mgr, f, best)
        upper_size = mgr.size(best.upper)
        lower_size = mgr.size(best.lower)
        assert abs(upper_size - lower_size) <= 1

    def test_best_requires_progress(self, mgr):
        # Constants and literals admit no decomposition.
        assert best_simple_decomposition(mgr, mgr.var("a")) is None

    def test_best_none_for_constant(self, mgr):
        assert best_simple_decomposition(mgr, mgr.ONE) is None


class TestXorSplit:
    def test_split_of_constant(self, mgr):
        m, k = xor_split(mgr, mgr.ZERO)
        assert mgr.xor(m, k) == mgr.ZERO

    def test_split_of_literal(self, mgr):
        f = mgr.var("a")
        m, k = xor_split(mgr, f)
        assert mgr.xor(m, k) == f

    def test_paper_balancing_example(self, mgr):
        # Section III.D: (b + c) xor (bc) = b xor c, which splits into
        # M, K with {M, K} = {b, c} (possibly via the v-split b·1 ⊕ b'·c).
        fx = mgr.from_expr("(b | c) ^ (b & c)")
        assert fx == mgr.from_expr("b ^ c")
        m, k = xor_split(mgr, fx)
        assert mgr.xor(m, k) == fx
        assert mgr.size(m) <= 2 and mgr.size(k) <= 2

    def test_split_is_always_valid(self, mgr):
        rng = random.Random(59)
        for _ in range(40):
            f = random_function(mgr, "abcde", rng)
            m, k = xor_split(mgr, f)
            assert mgr.xor(m, k) == f

    def test_split_balance_quality(self, mgr):
        # A function with an obvious disjoint XOR structure must split
        # into parts strictly smaller than the whole.
        f = mgr.from_expr("(a & b) ^ (c & d) ^ e")
        m, k = xor_split(mgr, f)
        assert mgr.xor(m, k) == f
        assert max(mgr.size(m), mgr.size(k)) < mgr.size(f)


@settings(max_examples=100, deadline=None)
@given(table=st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_property_xor_split_identity(table):
    names = ["a", "b", "c", "d"]
    mgr = BDD(names)
    f = mgr.from_truth_table(table, names)
    m, k = xor_split(mgr, f)
    assert mgr.xor(m, k) == f


@settings(max_examples=100, deadline=None)
@given(table=st.integers(min_value=0, max_value=(1 << 16) - 1))
def test_property_all_decompositions_certified(table):
    names = ["a", "b", "c", "d"]
    mgr = BDD(names)
    f = mgr.from_truth_table(table, names)
    if mgr.is_constant(f):
        return
    for decomposition in find_simple_decompositions(mgr, f):
        if decomposition.kind == KIND_AND:
            rebuilt = mgr.and_(decomposition.upper, decomposition.lower)
        elif decomposition.kind == KIND_OR:
            rebuilt = mgr.or_(decomposition.upper, decomposition.lower)
        else:
            rebuilt = mgr.xor(decomposition.upper, decomposition.lower)
        assert rebuilt == f


# ----------------------------------------------------------------------
# Oracles: the exhaustive per-node scans the linear-time code replaced
# ----------------------------------------------------------------------
def _exhaustive_xor_scan(mgr: BDD, root: int) -> list[tuple[int, int, int, str]]:
    """Certify XOR *and* XNOR at every non-root node:
    ``(node, upper, lower, "xor" | "xnor")`` in reachability order."""
    found = []
    for node_index in mgr.nodes_reachable([root]):
        if node_index == root >> 1:
            continue
        lower = function_at(mgr, node_index)
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        xor_value = mgr.xor(upper_zero, lower)
        if root == xor_value:
            found.append((node_index, upper_zero, lower, "xor"))
        elif root == xor_value ^ 1:
            found.append((node_index, upper_zero, lower ^ 1, "xnor"))
    return found


def _exhaustive_classify(mgr: BDD, root: int, node_index: int):
    """Full AND/OR/XOR/XNOR certification of one node, no cut filter."""
    lower = function_at(mgr, node_index)
    upper_one = replace_node(mgr, root, node_index, mgr.ONE)
    upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
    if root == mgr.and_(upper_one, lower):
        return (KIND_AND, node_index, upper_one, lower)
    if root == mgr.and_(upper_zero, lower ^ 1):
        return (KIND_AND, node_index, upper_zero, lower ^ 1)
    if root == mgr.or_(upper_zero, lower):
        return (KIND_OR, node_index, upper_zero, lower)
    if root == mgr.or_(upper_one, lower ^ 1):
        return (KIND_OR, node_index, upper_one, lower ^ 1)
    xor_value = mgr.xor(upper_zero, lower)
    if root == xor_value:
        return (KIND_XOR, node_index, upper_zero, lower)
    if root == xor_value ^ 1:
        return (KIND_XOR, node_index, upper_zero, lower ^ 1)
    return None


def _built_xor_split(mgr: BDD, f: int, max_dominator_nodes: int = 150) -> tuple[int, int]:
    """``xor_split`` as it was: every candidate scored on built edges."""
    if mgr.is_constant(f):
        return f, mgr.ZERO
    best = None
    best_score = None
    candidates = []
    if mgr.size(f) <= max_dominator_nodes:
        candidates += [(upper, lower) for _, upper, lower, _ in _exhaustive_xor_scan(mgr, f)]
    for level in sorted(mgr.support_levels(f)):
        variable = mgr.var_at(level)
        high = mgr.cofactor(f, level, True)
        low = mgr.cofactor(f, level, False)
        candidates.append((mgr.and_(variable, high), mgr.and_(variable ^ 1, low)))
    for m_edge, k_edge in candidates:
        m_size = mgr.size(m_edge)
        k_size = mgr.size(k_edge)
        score = (max(m_size, k_size), abs(m_size - k_size))
        if best_score is None or score < best_score:
            best = (m_edge, k_edge)
            best_score = score
    return best


_functions = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=2, max_value=6),
    st.booleans(),
)


def _draw(spec) -> tuple[BDD, int]:
    """A manager over a..f and a random (possibly complemented) root."""
    seed, depth, negate = spec
    mgr = BDD(list("abcdef"))
    return mgr, random_function(mgr, "abcdef", random.Random(seed), depth) ^ int(negate)


@settings(max_examples=200, deadline=None)
@given(spec=_functions)
def test_property_xor_candidates_match_exhaustive_scan(spec):
    mgr, f = _draw(spec)
    if mgr.is_constant(f):
        return
    exhaustive = _exhaustive_xor_scan(mgr, f)
    assert all(kind == "xor" for *_, kind in exhaustive)  # XNOR never certifies
    found = [(d.node, d.upper, d.lower) for d in find_xor_decompositions(mgr, f)]
    assert found == [(node, upper, lower) for node, upper, lower, _ in exhaustive]


@settings(max_examples=200, deadline=None)
@given(spec=_functions)
def test_property_simple_decompositions_match_exhaustive_classification(spec):
    mgr, f = _draw(spec)
    if mgr.is_constant(f):
        return
    expected = [
        found
        for node in mgr.nodes_reachable([f])[1:]
        if (found := _exhaustive_classify(mgr, f, node)) is not None
    ]
    found = [(d.kind, d.node, d.upper, d.lower) for d in find_simple_decompositions(mgr, f)]
    assert found == expected


@settings(max_examples=200, deadline=None)
@given(spec=_functions)
def test_property_variable_split_counts_the_products(spec):
    mgr, f = _draw(spec)
    for level in range(mgr.num_vars):
        variable = mgr.var_at(level)
        high, low, high_size, low_size = mgr.variable_split(f, level)
        assert high == mgr.cofactor(f, level, True)
        assert low == mgr.cofactor(f, level, False)
        for g, size in ((high, high_size), (low, low_size)):
            assert size == mgr.size(mgr.and_(variable, g))
            assert size == mgr.size(mgr.and_(variable ^ 1, g))


@settings(max_examples=200, deadline=None)
@given(spec=_functions, cap=st.sampled_from([0, 4, 150]))
def test_property_xor_split_matches_built_scoring(spec, cap):
    mgr, f = _draw(spec)
    split = xor_split(mgr, f, max_dominator_nodes=cap)
    assert split == _built_xor_split(mgr, f, max_dominator_nodes=cap)
    assert mgr.xor(*split) == f


def _path_parities(mgr: BDD, root: int) -> dict[int, int]:
    """Reference parities by walking every root path (no memo)."""
    found: dict[int, int] = {}
    stack = [(root >> 1, root & 1)]
    while stack:
        index, parity = stack.pop()
        if index == 0:
            continue
        found[index] = found.get(index, 0) | (ODD if parity else EVEN)
        _, high, low = mgr.node_fields(index)
        stack.append((high >> 1, parity ^ (high & 1)))
        stack.append((low >> 1, parity ^ (low & 1)))
    return found


@settings(max_examples=200, deadline=None)
@given(spec=_functions)
def test_property_simulated_parities_match_path_walk(spec):
    mgr, f = _draw(spec)
    assert simulate_paths(mgr, f).parities == _path_parities(mgr, f)


def _path_columns(mgr: BDD, root: int) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Each node's truth table over the root's support (the top level
    the most significant minterm bit), its ``through`` column and its
    ``odd_through`` column, found by walking every minterm's path."""
    support = sorted(mgr.support_levels(root))
    names = [mgr.name_of(level) for level in reversed(support)]
    nodes = mgr.nodes_reachable([root])
    function = {node: mgr.truth_table(function_at(mgr, node), names) for node in nodes}
    through = dict.fromkeys(nodes, 0)
    odd_through = dict.fromkeys(nodes, 0)
    for minterm in range(1 << len(support)):
        index, parity = root >> 1, root & 1
        while index:
            through[index] |= 1 << minterm
            odd_through[index] |= parity << minterm
            level, high, low = mgr.node_fields(index)
            edge = high if minterm >> (len(support) - 1 - support.index(level)) & 1 else low
            index, parity = edge >> 1, parity ^ edge & 1
    return function, through, odd_through


@settings(max_examples=100, deadline=None)
@given(spec=_functions)
def test_property_simulated_columns_are_exact_on_small_supports(spec):
    mgr, f = _draw(spec)
    if mgr.is_constant(f):
        return
    simulation = simulate_paths(mgr, f)
    support = len(mgr.support_levels(f))
    assert support <= EXHAUSTIVE_LEVELS
    assert simulation.exact and simulation.num_vars == support
    assert simulation.full == (1 << (1 << support)) - 1
    function, through, odd_through = _path_columns(mgr, f)
    assert {node: simulation.function[node] for node in function} == function
    assert simulation.through == through
    assert simulation.odd_through == odd_through
    assert simulation.root_value == mgr.truth_table(
        f, [mgr.name_of(level) for level in sorted(mgr.support_levels(f), reverse=True)]
    )


def _wide_function(mgr: BDD, names: list[str], rng: random.Random) -> int:
    """A random formula that reads every variable (so its support is all
    of ``names``): disjoint halves joined by AND, OR, XOR or a MUX on a
    variable that appears again inside them, with random negations."""
    if len(names) == 1:
        return mgr.var(names[0]) ^ rng.getrandbits(1)
    names = rng.sample(names, len(names))
    split = rng.randint(1, len(names) - 1)
    left = _wide_function(mgr, names[:split], rng)
    right = _wide_function(mgr, names[split:], rng)
    op = rng.choice(["and", "or", "xor", "mux"])
    if op == "mux":
        joined = mgr.ite(mgr.var(rng.choice(names)), left, right)
    else:
        joined = {"and": mgr.and_, "or": mgr.or_, "xor": mgr.xor}[op](left, right)
    return joined ^ rng.getrandbits(1)


_wide_functions = st.tuples(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=2, max_value=15) | st.integers(min_value=13, max_value=15),
    st.integers(min_value=2, max_value=4),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(spec=_wide_functions)
def test_property_simple_decompositions_match_reference_scan(spec):
    """The simulated scan certifies the same identities, in the same
    order, as the parity-filtered scan it replaced; roots over 2-15
    variables cover both the exact (at most 12 support levels) and the
    refute-only (seeded deep columns) passes."""
    seed, num_vars, depth, wide, negate = spec
    names = [f"x{i}" for i in range(num_vars)]
    mgr = BDD(names)
    rng = random.Random(seed)
    f = _wide_function(mgr, names, rng) if wide else random_function(mgr, names, rng, depth)
    f ^= int(negate)
    _check_against_reference(mgr, f)


def _check_against_reference(mgr: BDD, f: int) -> None:
    """The scan equals the reference scan as ``(kind, node, upper,
    lower)`` lists on the same manager (reading ``upper`` builds it),
    and the sizes it ranks by are those of the built edges."""
    decompositions = find_simple_decompositions(mgr, f)
    sizes = [d.sizes(mgr) for d in decompositions]
    expected = reference_dominators.find_simple_decompositions(mgr, f)
    assert [(d.kind, d.node, d.upper, d.lower) for d in decompositions] == expected
    assert sizes == [(mgr.size(upper), mgr.size(lower)) for _, _, upper, lower in expected]


def test_wide_roots_match_reference_scan():
    """Roots with more than 12 support levels take the seeded columns
    below the exhaustive ones; the result is still the reference's."""
    rng = random.Random(7)
    wide = 0
    for num_vars in (13, 14, 15) * 10:
        names = [f"x{i}" for i in range(num_vars)]
        mgr = BDD(names)
        f = _wide_function(mgr, names, rng)
        wide += len(mgr.support_levels(f)) > EXHAUSTIVE_LEVELS
        _check_against_reference(mgr, f)
    assert wide >= 20  # 24 at this seed: a MUX can drop a variable it reads


def _wide_root(seed: int, num_vars: int) -> tuple[BDD, int]:
    names = [f"x{i}" for i in range(num_vars)]
    mgr = BDD(names)
    return mgr, _wide_function(mgr, names, random.Random(seed))


def test_scan_and_pick_build_only_the_winners_upper():
    """On small supports the scan decides every identity by simulation:
    the scan and :func:`best_simple_decomposition` build no node, and
    reading the winner's ``upper`` (which certifies it) grows the
    manager by exactly what ``replace_node`` alone grows an identical
    manager by."""
    checked = grown = 0
    for seed in range(40):
        mgr, f = _wide_root(seed, 9)
        twin, twin_f = _wide_root(seed, 9)
        before = mgr.num_nodes()
        decompositions = find_simple_decompositions(mgr, f)
        best = best_simple_decomposition(mgr, f, decompositions)
        assert mgr.num_nodes() == before
        if len(decompositions) < 2 or best is None:
            continue
        upper = best.upper
        # AND(U1, h), AND(U0, h'), OR(U0, h), OR(U1, h'), XOR(U0, h)
        one = best.kind != KIND_XOR and (best.kind == KIND_AND) != bool(best.lower & 1)
        twin_before = twin.num_nodes()
        assert replace_node(twin, twin_f, best.node, twin.ONE if one else twin.ZERO) == upper
        assert mgr.num_nodes() - before == twin.num_nodes() - twin_before
        checked += 1
        grown += mgr.num_nodes() > before
    assert checked >= 20 and grown >= 10


def test_wide_roots_take_the_certify_path(monkeypatch):
    """Above 12 support levels the pass only refutes, so every survivor
    is certified during the scan; at most 12 none is."""
    certified: list[int] = []
    classify = dominators.classify_cut_node

    def counting(mgr, root, node_index, candidates):
        certified.append(node_index)
        return classify(mgr, root, node_index, candidates)

    monkeypatch.setattr(dominators, "classify_cut_node", counting)
    mgr, f = _wide_root(1, 14)
    assert len(mgr.support_levels(f)) > EXHAUSTIVE_LEVELS
    found = find_simple_decompositions(mgr, f)
    assert found and {d.node for d in found} <= set(certified)
    certified.clear()
    mgr, f = _wide_root(5, 12)
    assert len(mgr.support_levels(f)) == EXHAUSTIVE_LEVELS
    assert find_simple_decompositions(mgr, f) and not certified


def test_a_failed_certificate_raises(mgr):
    """A simulated identity is certified when its upper is built: one
    that does not hold raises instead of returning an upper."""
    f = mgr.from_expr("(a | b) & (c | d)")
    node = next(d.node for d in find_simple_decompositions(mgr, f) if d.kind == KIND_AND)
    wrong = dominators._SimulatedDecomposition(mgr, f, node, XOR_ZERO, 0, 4)
    with pytest.raises(BDDError, match="fails its BDD certificate"):
        wrong.upper


@settings(max_examples=200, deadline=None)
@given(spec=_functions)
def test_property_parity_lemma_rules_out_and_or_identities(spec):
    """At even parity only U1·h and U0+h can hold, at odd parity only
    U0·h' and U1+h', and at a node reached with both parities none."""
    mgr, f = _draw(spec)
    for node, parities in simulate_paths(mgr, f).parities.items():
        if node == f >> 1:
            continue
        lower = function_at(mgr, node)
        upper_one = replace_node(mgr, f, node, mgr.ONE)
        upper_zero = replace_node(mgr, f, node, mgr.ZERO)
        holds = {
            "and_even": f == mgr.and_(upper_one, lower),
            "or_even": f == mgr.or_(upper_zero, lower),
            "and_odd": f == mgr.and_(upper_zero, lower ^ 1),
            "or_odd": f == mgr.or_(upper_one, lower ^ 1),
        }
        allowed = {
            EVEN: {"and_even", "or_even"},
            ODD: {"and_odd", "or_odd"},
            EVEN | ODD: set(),
        }[parities]
        assert {name for name, ok in holds.items() if ok} <= allowed


@settings(max_examples=200, deadline=None)
@given(spec=_functions)
def test_property_at_most_one_identity_holds_per_node(spec):
    """At a non-root node at most one of the five identities holds, so
    the lowest identity an exact pass leaves is its only one.  (XOR
    holds only at cut nodes, which a non-root node reaches with both
    parities, ruling out AND/OR; a node that paths avoid admits at most
    one of its parity's AND/OR pair, since on the avoiding paths both
    would force the root's cofactor there to equal ``h``.)"""
    mgr, f = _draw(spec)
    for node in mgr.nodes_reachable([f])[1:]:
        lower = function_at(mgr, node)
        upper_one = replace_node(mgr, f, node, mgr.ONE)
        upper_zero = replace_node(mgr, f, node, mgr.ZERO)
        holds = [
            f == mgr.and_(upper_one, lower),
            f == mgr.and_(upper_zero, lower ^ 1),
            f == mgr.or_(upper_zero, lower),
            f == mgr.or_(upper_one, lower ^ 1),
            f == mgr.xor(upper_zero, lower),
        ]
        assert sum(holds) <= 1
