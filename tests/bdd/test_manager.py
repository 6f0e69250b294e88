"""Unit tests for the ROBDD manager core."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD, BDDError

from ..conftest import all_assignments, random_function


class TestConstants:
    def test_one_and_zero_are_distinct(self, mgr):
        assert mgr.ONE != mgr.ZERO

    def test_zero_is_complement_of_one(self, mgr):
        assert mgr.ZERO == mgr.ONE ^ 1

    def test_constants_are_constant(self, mgr):
        assert mgr.is_constant(mgr.ONE)
        assert mgr.is_constant(mgr.ZERO)

    def test_variable_is_not_constant(self, mgr):
        assert not mgr.is_constant(mgr.var("a"))


class TestVariables:
    def test_var_round_trip(self, mgr):
        for name in "abcdef":
            level = mgr.level_of(name)
            assert mgr.name_of(level) == name

    def test_duplicate_variable_rejected(self, mgr):
        with pytest.raises(BDDError):
            mgr.add_var("a")

    def test_unknown_variable_rejected(self, mgr):
        with pytest.raises(BDDError):
            mgr.var("nope")

    def test_var_evaluates_to_itself(self, mgr):
        a = mgr.var("a")
        assert mgr.eval(a, {"a": 1}) is True
        assert mgr.eval(a, {"a": 0}) is False

    def test_add_var_appends_to_order(self):
        mgr = BDD(["x"])
        level = mgr.add_var("y")
        assert level == 1
        assert mgr.var_names == ("x", "y")


class TestCanonicity:
    def test_same_function_same_edge(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        left = mgr.or_(mgr.and_(a, b), mgr.and_(a ^ 1, b))
        assert left == b

    def test_de_morgan(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        assert mgr.and_(a, b) ^ 1 == mgr.or_(a ^ 1, b ^ 1)

    def test_xor_equivalence(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        via_andor = mgr.or_(mgr.and_(a, b ^ 1), mgr.and_(a ^ 1, b))
        assert via_andor == mgr.xor(a, b)

    def test_then_edges_never_complemented(self, mgr):
        rng = random.Random(7)
        roots = [random_function(mgr, "abcdef", rng, depth=5) for _ in range(20)]
        for index in mgr.nodes_reachable(roots):
            _, high, _ = mgr.node_fields(index)
            assert high & 1 == 0, "canonical form violated: complemented 1-edge"

    def test_no_redundant_nodes(self, mgr):
        rng = random.Random(11)
        roots = [random_function(mgr, "abcdef", rng, depth=5) for _ in range(20)]
        for index in mgr.nodes_reachable(roots):
            _, high, low = mgr.node_fields(index)
            assert high != low, "redundant node present"


class TestOperators:
    def test_truth_tables_two_vars(self, mgr):
        a, b = mgr.var("a"), mgr.var("b")
        cases = {
            "and": (mgr.and_(a, b), lambda x, y: x and y),
            "or": (mgr.or_(a, b), lambda x, y: x or y),
            "xor": (mgr.xor(a, b), lambda x, y: x != y),
            "xnor": (mgr.xnor(a, b), lambda x, y: x == y),
            "nand": (mgr.nand(a, b), lambda x, y: not (x and y)),
            "nor": (mgr.nor(a, b), lambda x, y: not (x or y)),
            "implies": (mgr.implies(a, b), lambda x, y: (not x) or y),
        }
        for name, (edge, model) in cases.items():
            for assignment in all_assignments("ab"):
                expected = model(assignment["a"], assignment["b"])
                assert mgr.eval(edge, assignment) == expected, name

    def test_maj_truth_table(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        maj = mgr.maj(a, b, c)
        for assignment in all_assignments("abc"):
            expected = sum(assignment.values()) >= 2
            assert mgr.eval(maj, assignment) == expected

    def test_maj_is_symmetric(self, mgr):
        a, b, c = mgr.var("a"), mgr.var("b"), mgr.var("c")
        reference = mgr.maj(a, b, c)
        assert mgr.maj(b, a, c) == reference
        assert mgr.maj(c, b, a) == reference
        assert mgr.maj(b, c, a) == reference

    def test_ite_matches_definition(self, mgr):
        rng = random.Random(3)
        for _ in range(25):
            f = random_function(mgr, "abc", rng)
            g = random_function(mgr, "abc", rng)
            h = random_function(mgr, "abc", rng)
            combined = mgr.ite(f, g, h)
            manual = mgr.or_(mgr.and_(f, g), mgr.and_(f ^ 1, h))
            assert combined == manual

    def test_many_operand_helpers(self, mgr):
        edges = [mgr.var(n) for n in "abcd"]
        assert mgr.and_many(edges) == mgr.and_(
            mgr.and_(edges[0], edges[1]), mgr.and_(edges[2], edges[3])
        )
        assert mgr.or_many([]) == mgr.ZERO
        assert mgr.and_many([]) == mgr.ONE
        xor_all = mgr.xor_many(edges)
        for assignment in all_assignments("abcd"):
            expected = sum(assignment.values()) % 2 == 1
            assert mgr.eval(xor_all, assignment) == expected

    def test_double_negation(self, mgr):
        f = mgr.from_expr("a & b | ~c")
        assert mgr.not_(mgr.not_(f)) == f


class TestCofactor:
    def test_top_variable_cofactor(self, mgr):
        f = mgr.from_expr("a & b | ~a & c")
        assert mgr.cofactor(f, mgr.level_of("a"), True) == mgr.var("b")
        assert mgr.cofactor(f, mgr.level_of("a"), False) == mgr.var("c")

    def test_deep_variable_cofactor(self, mgr):
        f = mgr.from_expr("a & b | c & ~b")
        level = mgr.level_of("b")
        high = mgr.cofactor(f, level, True)
        low = mgr.cofactor(f, level, False)
        assert high == mgr.var("a")
        assert low == mgr.var("c")

    def test_shannon_expansion(self, mgr):
        rng = random.Random(5)
        for _ in range(20):
            f = random_function(mgr, "abcd", rng)
            for name in "abcd":
                level = mgr.level_of(name)
                v = mgr.var(name)
                high = mgr.cofactor(f, level, True)
                low = mgr.cofactor(f, level, False)
                assert mgr.ite(v, high, low) == f

    def test_compose_identity(self, mgr):
        f = mgr.from_expr("a & b | c")
        level = mgr.level_of("b")
        assert mgr.compose(f, level, mgr.var("b")) == f

    def test_compose_substitutes(self, mgr):
        f = mgr.from_expr("a & b")
        composed = mgr.compose(f, mgr.level_of("b"), mgr.from_expr("c | d"))
        assert composed == mgr.from_expr("a & (c | d)")


class TestSizeSupportEval:
    def test_size_of_constants(self, mgr):
        assert mgr.size(mgr.ONE) == 0
        assert mgr.size(mgr.ZERO) == 0

    def test_size_of_literal(self, mgr):
        assert mgr.size(mgr.var("a")) == 1
        assert mgr.size(mgr.var("a") ^ 1) == 1

    def test_size_counts_shared_nodes_once(self, mgr):
        f = mgr.from_expr("a & b")
        assert mgr.size_many([f, f]) == mgr.size(f)

    def test_support(self, mgr):
        f = mgr.from_expr("a & b | a & ~b")  # collapses to a
        assert mgr.support(f) == {"a"}
        g = mgr.from_expr("a ^ c ^ e")
        assert mgr.support(g) == {"a", "c", "e"}

    def test_eval_requires_support_variables(self, mgr):
        f = mgr.from_expr("a & b")
        with pytest.raises(BDDError):
            mgr.eval(f, {"a": 1})

    def test_eval_levels(self, mgr):
        f = mgr.from_expr("a & ~b | c")
        values = [0] * mgr.num_vars
        values[mgr.level_of("c")] = 1
        assert mgr.eval_levels(f, values) is True

    def test_nodes_reachable_topological(self, mgr):
        # A chain has one path per node, so its preorder is topological
        # (see the test below for a cone where it is not).
        f = mgr.from_expr("a & b & c & d")
        order = mgr.nodes_reachable([f])
        positions = {index: i for i, index in enumerate(order)}
        for index in order:
            _, high, low = mgr.node_fields(index)
            for child in (high >> 1, low >> 1):
                if child != 0:
                    assert positions[child] > positions[index]


def test_nodes_reachable_is_high_first_preorder():
    mgr = BDD(["a", "b", "c"])
    a, b, c = (mgr.var(name) for name in "abc")
    f = mgr.ite(a, c, mgr.and_(b, c))
    order = mgr.nodes_reachable([f])
    node_a, node_c, node_b = (edge >> 1 for edge in (f, c, mgr.and_(b, c)))
    # Preorder, high branch first: c is listed before b, its parent
    # through b's high edge, so the order is not topological.
    assert order == [node_a, node_c, node_b]
    assert mgr.node_fields(node_b)[1] >> 1 == node_c


class TestCountSat:
    def test_constants(self, mgr):
        assert mgr.count_sat(mgr.ONE) == 2 ** mgr.num_vars
        assert mgr.count_sat(mgr.ZERO) == 0

    def test_single_literal(self, mgr):
        assert mgr.count_sat(mgr.var("a")) == 2 ** (mgr.num_vars - 1)
        assert mgr.count_sat(mgr.var("f")) == 2 ** (mgr.num_vars - 1)

    def test_majority_count(self, mgr):
        maj = mgr.from_expr("a & b | b & c | a & c")
        # 4 of 8 assignments of (a,b,c) satisfy MAJ; times 2^3 free vars.
        assert mgr.count_sat(maj) == 4 * 2 ** (mgr.num_vars - 3)

    def test_count_matches_enumeration(self, mgr):
        rng = random.Random(13)
        for _ in range(15):
            f = random_function(mgr, "abcd", rng)
            expected = sum(
                mgr.eval(f, {**assignment, "e": 0, "f": 0})
                for assignment in all_assignments("abcd")
            )
            assert mgr.count_sat(f) == expected * 4  # e, f free

    def test_complement_count(self, mgr):
        f = mgr.from_expr("a & b | c")
        total = 2 ** mgr.num_vars
        assert mgr.count_sat(f) + mgr.count_sat(f ^ 1) == total


class TestPickAssignment:
    def test_unsat_returns_none(self, mgr):
        assert mgr.pick_assignment(mgr.ZERO) is None

    def test_tautology_returns_empty(self, mgr):
        assert mgr.pick_assignment(mgr.ONE) == {}

    def test_assignment_satisfies(self, mgr):
        rng = random.Random(17)
        for _ in range(30):
            f = random_function(mgr, "abcde", rng)
            if f == mgr.ZERO:
                continue
            assignment = mgr.pick_assignment(f)
            full = {name: assignment.get(name, False) for name in mgr.var_names}
            assert mgr.eval(f, full) is True


class TestTruthTableBuilders:
    def test_round_trip(self, mgr):
        names = ["a", "b", "c"]
        for table in (0b10010110, 0b11101000, 0, 0xFF):
            edge = mgr.from_truth_table(table, names)
            assert mgr.truth_table(edge, names) == table

    def test_cube_builder(self, mgr):
        cube = mgr.cube({"a": 1, "b": 0})
        assert cube == mgr.from_expr("a & ~b")

    def test_from_expr_rejects_bad_ops(self, mgr):
        with pytest.raises(BDDError):
            mgr.from_expr("a + b")


class TestTransfer:
    def test_transfer_same_order_preserves_structure(self, mgr):
        f = mgr.from_expr("a & b | c & ~d")
        target = BDD(list(mgr.var_names))
        g = mgr.transfer(f, target)
        assert target.size(g) == mgr.size(f)
        for assignment in all_assignments("abcd"):
            full = {**assignment, "e": 0, "f": 0}
            assert mgr.eval(f, full) == target.eval(g, full)

    def test_transfer_reversed_order_is_equivalent(self, mgr):
        f = mgr.from_expr("a & b | c & d | e & f")
        target = BDD(list(reversed(mgr.var_names)))
        g = mgr.transfer(f, target)
        for assignment in all_assignments("abcdef"):
            assert mgr.eval(f, assignment) == target.eval(g, assignment)

    def test_transfer_declares_missing_vars(self, mgr):
        f = mgr.from_expr("a & b")
        target = BDD()
        g = mgr.transfer(f, target)
        assert set(target.var_names) >= {"a", "b"}
        assert target.eval(g, {"a": 1, "b": 1}) is True


@settings(max_examples=200, deadline=None)
@given(
    table=st.integers(min_value=0, max_value=(1 << 16) - 1),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_property_canonicity_from_truth_tables(table, seed):
    """Two syntactically different constructions of the same function
    must produce the identical edge handle (canonicity)."""
    mgr = BDD(["a", "b", "c", "d"])
    names = ["a", "b", "c", "d"]
    direct = mgr.from_truth_table(table, names)
    # Rebuild via Shannon expansion in a shuffled minterm order.
    rng = random.Random(seed)
    minterms = [row for row in range(16) if table >> row & 1]
    rng.shuffle(minterms)
    rebuilt = mgr.ZERO
    for row in minterms:
        rebuilt = mgr.or_(
            rebuilt,
            mgr.cube({name: bool(row >> j & 1) for j, name in enumerate(names)}),
        )
    assert direct == rebuilt


@settings(max_examples=100, deadline=None)
@given(
    table_f=st.integers(min_value=0, max_value=255),
    table_g=st.integers(min_value=0, max_value=255),
)
def test_property_operators_match_bitwise_semantics(table_f, table_g):
    """BDD operators agree with bitwise truth-table arithmetic."""
    names = ["a", "b", "c"]
    mgr = BDD(names)
    f = mgr.from_truth_table(table_f, names)
    g = mgr.from_truth_table(table_g, names)
    mask = 255
    assert mgr.truth_table(mgr.and_(f, g), names) == table_f & table_g
    assert mgr.truth_table(mgr.or_(f, g), names) == table_f | table_g
    assert mgr.truth_table(mgr.xor(f, g), names) == table_f ^ table_g
    assert mgr.truth_table(f ^ 1, names) == table_f ^ mask
    assert mgr.truth_table(mgr.xnor(f, g), names) == (table_f ^ table_g) ^ mask


@settings(max_examples=60, deadline=None)
@given(
    tables=st.tuples(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
)
def test_property_maj_definition(tables):
    """Maj(f,g,h) == fg + fh + gh for arbitrary functions."""
    names = ["a", "b", "c"]
    mgr = BDD(names)
    f, g, h = (mgr.from_truth_table(t, names) for t in tables)
    expected = mgr.or_many(
        [mgr.and_(f, g), mgr.and_(f, h), mgr.and_(g, h)]
    )
    assert mgr.maj(f, g, h) == expected
