"""Tests for the AIG core, truth utilities and conversions."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    Aig,
    aig_to_network,
    cover_to_table,
    full_mask,
    isop,
    network_to_aig,
    synthesize_table,
    var_mask,
)
from repro.benchgen import ripple_carry_adder
from repro.network import check_equivalence

from . import reference_opt


class TestAigCore:
    def test_constant_folding(self):
        aig = Aig()
        a = aig.add_input("a")
        assert aig.and_(a, Aig.ZERO) == Aig.ZERO
        assert aig.and_(a, Aig.ONE) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, a ^ 1) == Aig.ZERO

    def test_structural_hashing(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        assert aig.and_(a, b) == aig.and_(b, a)
        assert aig.num_nodes() == 1

    def test_de_morgan_via_or(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        or_ab = aig.or_(a, b)
        aig.add_output("o", or_ab)
        values = aig.simulate({"a": 0b0101, "b": 0b0011}, 0b1111)
        assert values["o"] == 0b0111

    def test_xor_and_maj(self):
        aig = Aig()
        a, b, c = (aig.add_input(n) for n in "abc")
        aig.add_output("x", aig.xor_(a, b))
        aig.add_output("m", aig.maj(a, b, c))
        for vector in range(8):
            stim = {"a": vector & 1, "b": vector >> 1 & 1, "c": vector >> 2 & 1}
            values = aig.simulate(stim, 1)
            assert values["x"] == stim["a"] ^ stim["b"]
            assert values["m"] == int(stim["a"] + stim["b"] + stim["c"] >= 2)

    def test_size_counts_only_reachable(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        kept = aig.and_(a, b)
        aig.and_(a, b ^ 1)  # dead node
        aig.add_output("o", kept)
        assert aig.num_nodes() == 2
        assert aig.size() == 1

    def test_num_nodes_counts_ands_with_strash_hits_and_late_inputs(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        ab = aig.and_(a, b)
        assert aig.and_(b, a) == ab  # strash hit: no new node
        c = aig.add_input("c")  # declared after an AND node
        aig.and_(ab, c)
        aig.and_(a, a ^ 1)  # folded: no new node
        d = aig.add_input("d")
        aig.and_(c ^ 1, d)
        assert aig.num_nodes() == 3
        assert aig.num_nodes() == sum(1 for node in range(8) if aig.is_and(node))

    def test_cleanup_drops_dead_logic(self):
        aig = Aig()
        a, b = aig.add_input("a"), aig.add_input("b")
        kept = aig.and_(a, b)
        aig.and_(a ^ 1, b)
        aig.add_output("o", kept)
        fresh = aig.cleanup()
        assert fresh.num_nodes() == 1
        assert fresh.simulate({"a": 1, "b": 1}, 1)["o"] == 1

    def test_depth(self):
        aig = Aig()
        literals = [aig.add_input(f"x{i}") for i in range(8)]
        chain = literals[0]
        for literal in literals[1:]:
            chain = aig.and_(chain, literal)
        aig.add_output("o", chain)
        assert aig.depth() == 7

    def test_duplicate_input_rejected(self):
        aig = Aig()
        aig.add_input("a")
        with pytest.raises(ValueError):
            aig.add_input("a")


class TestTruthTables:
    def test_var_masks(self):
        assert var_mask(0, 2) == 0b1010
        assert var_mask(1, 2) == 0b1100
        assert full_mask(3) == 0xFF

    def test_var_mask_closed_form_matches_the_loop(self):
        for num_vars in range(11):
            for var in range(num_vars + 3):
                assert var_mask(var, num_vars) == reference_opt.var_mask(var, num_vars)
            assert var_mask(num_vars, num_vars) == 0

    @settings(max_examples=120, deadline=None)
    @given(table=st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_isop_round_trip(self, table):
        cubes = isop(table, 4)
        assert cover_to_table(cubes, 4) == table

    @settings(max_examples=60, deadline=None)
    @given(table=st.integers(min_value=0, max_value=255))
    def test_isop_is_irredundant_cover(self, table):
        cubes = isop(table, 3)
        # Each cube must contribute at least one minterm of the function.
        for index, cube in enumerate(cubes):
            rest = cubes[:index] + cubes[index + 1 :]
            assert cover_to_table([cube], 3) & table == cover_to_table([cube], 3)
            assert cover_to_table(rest, 3) != table or len(cubes) == 1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cube_isop_is_the_reference_rows(self, data):
        """Bit 2v of a cube is v', bit 2v+1 is v; cubes come in the
        reference ISOP's row order."""
        num_vars = data.draw(st.integers(min_value=0, max_value=8))
        table = data.draw(st.integers(min_value=0, max_value=full_mask(num_vars)))
        rows = [
            "".join("-01"[cube >> 2 * var & 3] for var in range(num_vars))
            for cube in isop(table, num_vars)
        ]
        assert rows == reference_opt.isop(table, num_vars)

    @settings(max_examples=80, deadline=None)
    @given(table=st.integers(min_value=0, max_value=(1 << 16) - 1))
    def test_synthesize_table_correct(self, table):
        aig = Aig()
        leaves = [aig.add_input(f"x{i}") for i in range(4)]
        literal = synthesize_table(aig, table, leaves, 4)
        aig.add_output("f", literal)
        for minterm in range(16):
            stim = {f"x{i}": minterm >> i & 1 for i in range(4)}
            assert aig.simulate(stim, 1)["f"] == (table >> minterm & 1)


class TestConversions:
    def test_network_round_trip(self):
        net = ripple_carry_adder(5)
        aig = network_to_aig(net)
        back = aig_to_network(aig, name=net.name)
        assert check_equivalence(net, back).equivalent

    def test_aig_network_is_gate_level(self):
        net = ripple_carry_adder(3)
        back = aig_to_network(network_to_aig(net))
        for name in back.node_names:
            node = back.node(name)
            assert len(node.fanins) <= 2

    def test_inverted_and_constant_outputs(self):
        aig = Aig()
        a = aig.add_input("a")
        aig.add_output("not_a", a ^ 1)
        aig.add_output("always", Aig.ONE)
        aig.add_output("never", Aig.ZERO)
        net = aig_to_network(aig)
        values = net.simulate({"a": 1}, 1)
        assert values == {"not_a": 0, "always": 1, "never": 0}

    def test_shared_inverters(self):
        aig = Aig()
        a, b, c = (aig.add_input(n) for n in "abc")
        aig.add_output("x", aig.and_(a ^ 1, b))
        aig.add_output("y", aig.and_(a ^ 1, c))
        net = aig_to_network(aig)
        inverters = [
            n for n in net.node_names if net.node(n).cover == ("0",)
        ]
        assert len(inverters) == 1
