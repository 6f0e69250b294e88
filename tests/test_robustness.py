"""Cross-module robustness and failure-injection tests.

Verifies the library fails loudly and precisely on malformed input,
and that the flows survive degenerate circuits (constants, buffers,
single-gate networks, shared outputs, very deep chains).
"""

from __future__ import annotations

import pytest

from repro.aig import aig_to_network, network_to_aig, resyn_quick
from repro.api import get_pipeline
from repro.bdd import BDD, BDDError
from repro.benchgen import ripple_carry_adder
from repro.mapping import map_network
from repro.network import (
    BlifError,
    LogicNetwork,
    NetworkError,
    check_equivalence,
    parse_blif,
    partition_with_bdds,
)


class TestDegenerateNetworks:
    def _run_all_flows(self, net):
        for name in ("bds-maj", "bds-pga", "abc", "dc"):
            result = get_pipeline(name).run(net)
            assert result.equivalence is not None, name
            assert result.equivalence.equivalent, name

    def test_constant_only_circuit(self):
        net = LogicNetwork("consts")
        net.add_input("a")
        net.add_const("one", True)
        net.add_const("zero", False)
        net.add_output("one")
        net.add_output("zero")
        self._run_all_flows(net)

    def test_buffer_chain(self):
        net = LogicNetwork("bufs")
        net.add_input("a")
        previous = "a"
        for i in range(10):
            previous = net.add_buf(f"b{i}", previous)
        net.add_output(previous)
        self._run_all_flows(net)

    def test_single_inverter(self):
        net = LogicNetwork("inv")
        net.add_input("a")
        net.add_not("n", "a")
        net.add_output("n")
        self._run_all_flows(net)

    def test_output_is_input(self):
        net = LogicNetwork("wire")
        net.add_input("a")
        net.add_buf("o", "a")
        net.add_output("o")
        self._run_all_flows(net)

    def test_shared_driver_two_outputs(self):
        net = LogicNetwork("shared")
        net.add_input("a")
        net.add_input("b")
        net.add_and("g", "a", "b")
        net.add_buf("o1", "g")
        net.add_buf("o2", "g")
        net.add_output("o1")
        net.add_output("o2")
        self._run_all_flows(net)

    def test_redundant_function_collapses(self):
        # f = ab + ab' : flows must simplify to a (BDD canonicity).
        net = LogicNetwork("red")
        net.add_input("a")
        net.add_input("b")
        net.add_node("f", ("a", "b"), ("11", "10"))
        net.add_output("f")
        result = get_pipeline("bds-maj").run(net)
        assert result.equivalence.equivalent
        assert result.total_nodes == 0  # plain literal, no gates

    def test_deep_chain_no_recursion_error(self):
        # 3000-level AND chain through every flow stage.
        net = LogicNetwork("deep")
        net.add_input("x0")
        net.add_input("y")
        previous = "x0"
        for i in range(3000):
            previous = net.add_and(f"n{i}", previous, "y")
        net.add_output(previous)
        for flow in ("bds-maj", "abc", "dc"):
            result = get_pipeline(flow).run(net)
            assert result.equivalence.equivalent

    def test_wide_fanin_node(self):
        net = LogicNetwork("wide")
        names = [net.add_input(f"x{i}") for i in range(24)]
        net.add_or("o", *names)
        net.add_output("o")
        self._run_all_flows(net)


class TestErrorMessages:
    def test_bdd_unknown_variable(self):
        mgr = BDD(["a"])
        with pytest.raises(BDDError, match="unknown variable"):
            mgr.var("z")

    def test_network_cycle_message(self):
        net = LogicNetwork()
        net.add_node("x", ("y",), ("1",))
        net.add_node("y", ("x",), ("1",))
        with pytest.raises(NetworkError, match="cycle"):
            net.topological_order()

    def test_blif_reports_bad_row(self):
        with pytest.raises(BlifError, match="outside"):
            parse_blif(".model m\n.inputs a\n1 1\n.end")

    def test_simulate_missing_input(self):
        net = ripple_carry_adder(2)
        with pytest.raises(NetworkError, match="stimulus missing"):
            net.simulate({}, 1)


class TestPartitionPathologies:
    def test_empty_network(self):
        net = LogicNetwork("empty")
        net.add_input("a")
        assert partition_with_bdds(net) == []

    def test_all_outputs_are_nodes(self):
        net = ripple_carry_adder(4)
        entries = partition_with_bdds(net)
        outputs = {s.output for s, _, _ in entries}
        assert set(net.outputs) <= outputs

    def test_tiny_budgets_still_total(self):
        from repro.network import PartitionConfig

        net = ripple_carry_adder(5)
        config = PartitionConfig(max_support=2, max_bdd_nodes=2)
        entries = partition_with_bdds(net, config)
        emitted = set(net.inputs) | {s.output for s, _, _ in entries}
        for supernode, _, _ in entries:
            assert all(signal in emitted for signal in supernode.inputs)


class TestAigPathologies:
    def test_constant_output_network(self):
        net = LogicNetwork("k")
        net.add_input("a")
        net.add_node("o", ("a",), ("1", "0"))  # tautology
        net.add_output("o")
        aig = network_to_aig(net)
        back = aig_to_network(resyn_quick(aig), name="k")
        assert check_equivalence(net, back).equivalent

    def test_mapper_rejects_impossible(self):
        from repro.mapping import CellLibrary, MappingError

        net = LogicNetwork("g")
        net.add_input("a")
        net.add_input("b")
        net.add_and("o", "a", "b")
        net.add_output("o")
        with pytest.raises((MappingError, KeyError)):
            map_network(net, CellLibrary("empty"))

    def test_mapping_preserves_every_output_name(self):
        net = ripple_carry_adder(4)
        mapped = map_network(net)
        assert set(mapped.network.outputs) == set(net.outputs)
