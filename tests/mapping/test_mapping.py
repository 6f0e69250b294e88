"""Tests for the cell library, mapper and STA."""

from __future__ import annotations

import pytest

from repro.benchgen import ripple_carry_adder, wallace_multiplier
from repro.mapping import (
    CellLibrary,
    MappingError,
    analyze,
    classify_gate,
    cmos22_library,
    map_network,
    nand_only_library,
)
from repro.api import get_pipeline
from repro.network import LogicNetwork, check_equivalence, parse_blif


class TestLibrary:
    def test_paper_cells_present(self):
        library = cmos22_library()
        for function in ("inv", "nand2", "nor2", "xor2", "xnor2", "maj3"):
            assert library.has(function)

    def test_relative_ordering(self):
        library = cmos22_library()
        assert library.cell("inv").area < library.cell("nand2").area
        assert library.cell("nand2").area < library.cell("xor2").area
        assert library.cell("xor2").area < library.cell("maj3").area
        assert library.cell("nand2").delay < library.cell("nor2").delay

    def test_duplicate_rejected(self):
        library = cmos22_library()
        with pytest.raises(ValueError):
            library.add(library.cell("inv"))

    def test_nand_only_subset(self):
        library = nand_only_library()
        assert not library.has("xor2")
        assert not library.has("maj3")
        assert library.has("nand2")


class TestClassifyGate:
    def _node(self, net_builder):
        net = LogicNetwork()
        for name in "abc":
            net.add_input(name)
        node_name = net_builder(net)
        return net.node(node_name)

    @pytest.mark.parametrize(
        "builder,expected",
        [
            (lambda n: n.add_and("g", "a", "b"), ("and", False)),
            (lambda n: n.add_nand("g", "a", "b"), ("and", True)),
            (lambda n: n.add_or("g", "a", "b"), ("or", False)),
            (lambda n: n.add_nor("g", "a", "b"), ("or", True)),
            (lambda n: n.add_xor("g", "a", "b"), ("xor", False)),
            (lambda n: n.add_xnor("g", "a", "b"), ("xor", True)),
            (lambda n: n.add_maj("g", "a", "b", "c"), ("maj", False)),
            (lambda n: n.add_mux("g", "a", "b", "c"), ("mux", False)),
            (lambda n: n.add_not("g", "a"), ("buf", True)),
            (lambda n: n.add_buf("g", "a"), ("buf", False)),
            (lambda n: n.add_const("g", True), ("const1", False)),
            (lambda n: n.add_const("g", False), ("const0", False)),
        ],
    )
    def test_classification(self, builder, expected):
        node = self._node(builder)
        kind, out_inv, _ = classify_gate(node)
        assert (kind, out_inv) == expected

    def test_sop_fallback(self):
        net = LogicNetwork()
        for name in "abc":
            net.add_input(name)
        net.add_node("g", ("a", "b", "c"), ("110", "011", "101"))
        kind, _, _ = classify_gate(net.node("g"))
        assert kind == "sop"


def small_gate_network() -> LogicNetwork:
    net = LogicNetwork("gates")
    for name in ("a", "b", "c", "d"):
        net.add_input(name)
    net.add_xor("x", "a", "b")
    net.add_maj("m", "x", "c", "d")
    net.add_nand("n", "a", "c")
    net.add_or("o", "m", "n")
    net.add_not("y", "o")
    net.add_output("y")
    net.add_output("m")
    return net


class TestMapper:
    def test_equivalence_after_mapping(self):
        net = small_gate_network()
        mapped = map_network(net)
        assert check_equivalence(net, mapped.network).equivalent

    def test_only_library_cells_used(self):
        mapped = map_network(small_gate_network())
        legal = set(mapped.library.functions) | {"wire"}
        for cell in mapped.cell_of.values():
            assert cell.function in legal

    def test_direct_assignment_preserves_maj_and_xor(self):
        mapped = map_network(small_gate_network())
        histogram = mapped.cell_histogram()
        assert histogram.get("maj3", 0) >= 1
        assert histogram.get("xor2", 0) + histogram.get("xnor2", 0) >= 1

    def test_phase_assignment_shares_inverters(self):
        # Mapping y = ~(a & b) should produce a single NAND, no INV.
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_nand("y", "a", "b")
        net.add_output("y")
        mapped = map_network(net)
        histogram = mapped.cell_histogram()
        assert histogram.get("nand2", 0) == 1
        assert histogram.get("inv", 0) == 0

    def test_and_maps_to_two_cells_max(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_and("y", "a", "b")
        net.add_output("y")
        mapped = map_network(net)
        assert mapped.gate_count <= 2

    def test_mux_and_sop_are_expanded(self):
        net = LogicNetwork()
        for name in ("s", "t", "e"):
            net.add_input(name)
        net.add_mux("m", "s", "t", "e")
        net.add_node("w", ("s", "t", "e"), ("11-", "-01"))
        net.add_output("m")
        net.add_output("w")
        mapped = map_network(net)
        assert check_equivalence(net, mapped.network).equivalent

    def test_nand_only_library_still_equivalent(self):
        net = small_gate_network()
        mapped = map_network(net, nand_only_library())
        assert check_equivalence(net, mapped.network).equivalent
        assert "xor2" not in mapped.cell_histogram()

    def test_constant_outputs(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_const("k", True)
        net.add_output("k")
        mapped = map_network(net)
        assert check_equivalence(net, mapped.network).equivalent
        assert mapped.gate_count == 0  # tie cells are free

    def test_input_passthrough_output(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_output("a")
        mapped = map_network(net)
        assert mapped.network.outputs == ("a",)

    def test_adder_mapping_equivalence(self):
        net = ripple_carry_adder(6)
        mapped = map_network(net)
        assert check_equivalence(net, mapped.network).equivalent

    @pytest.mark.parametrize(
        "rows, value",
        [
            (("1 1", "- 1"), True),
            (("0 1", "- 1"), True),
            (("1 0", "- 0"), False),
            (("0 0", "- 0"), False),
        ],
    )
    def test_one_input_tautology_maps_to_a_tie_cell(self, rows, value):
        # A cover holding "-" or both "0" and "1" is constant 1 (constant
        # 0 when it lists the off-set), whatever else it holds.
        net = parse_blif(".model taut\n.inputs a\n.outputs y\n.names a y\n"
                         + "\n".join(rows) + "\n.end\n")
        assert classify_gate(net.node("y"))[0] == ("const1" if value else "const0")
        mapped = map_network(net)
        functions = {cell.function for cell in mapped.cell_of.values()}
        assert functions <= {"tie1" if value else "tie0", "wire"}
        assert mapped.gate_count == 0
        assert check_equivalence(net, mapped.network).equivalent
        ctx = get_pipeline("dc").run_context(net)
        assert ctx.equivalence.equivalent
        assert check_equivalence(net, ctx.optimized).equivalent
        assert check_equivalence(net, ctx.mapped.network).equivalent

    def test_missing_cells_raise(self):
        # An empty library cannot map anything.
        net = small_gate_network()
        with pytest.raises((MappingError, KeyError)):
            map_network(net, CellLibrary("empty"))


class TestSta:
    def test_report_fields(self):
        mapped = map_network(small_gate_network())
        report = analyze(mapped)
        assert report.area == pytest.approx(mapped.area)
        assert report.gate_count == mapped.gate_count
        assert report.delay > 0
        assert report.depth >= 2
        assert report.critical_path[-1] in mapped.network.outputs or True

    def test_deeper_circuit_has_larger_delay(self):
        shallow = map_network(ripple_carry_adder(2))
        deep = map_network(ripple_carry_adder(12))
        assert analyze(deep).delay > analyze(shallow).delay

    def test_wallace_mapping_smoke(self):
        net = wallace_multiplier(4)
        mapped = map_network(net)
        report = analyze(mapped)
        assert check_equivalence(net, mapped.network).equivalent
        assert report.gate_count > 40

    def test_empty_network(self):
        net = LogicNetwork()
        net.add_input("a")
        mapped = map_network(net)
        report = analyze(mapped)
        assert report.delay == 0.0
        assert report.gate_count == 0
