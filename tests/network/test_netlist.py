"""Tests for the LogicNetwork core: construction, structure, simulation."""

from __future__ import annotations

import pytest

from repro.network import LogicNetwork, NetworkError


def full_adder() -> LogicNetwork:
    net = LogicNetwork("full_adder")
    for name in ("a", "b", "cin"):
        net.add_input(name)
    net.add_xor("ab", "a", "b")
    net.add_xor("sum", "ab", "cin")
    net.add_maj("cout", "a", "b", "cin")
    net.add_output("sum")
    net.add_output("cout")
    return net


class TestConstruction:
    def test_duplicate_signal_rejected(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_node("a", (), ())

    def test_cover_row_length_checked(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_node("n", ("a",), ("11",))

    def test_cover_characters_checked(self):
        net = LogicNetwork()
        net.add_input("a")
        with pytest.raises(NetworkError):
            net.add_node("n", ("a",), ("x",))

    def test_replace_node(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_buf("n", "a")
        net.replace_node("n", ("a",), ("0",))
        assert net.node("n").cover == ("0",)

    def test_literal_count(self):
        net = full_adder()
        # xor: 2 rows x 2 lits = 4 each; maj: 3 rows x 2 lits = 6.
        assert net.num_literals == 4 + 4 + 6


class TestStructure:
    def test_topological_order(self):
        net = full_adder()
        order = net.topological_order()
        assert order.index("ab") < order.index("sum")

    def test_cycle_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_node("x", ("a", "y"), ("11",))
        net.add_node("y", ("x",), ("1",))
        with pytest.raises(NetworkError):
            net.topological_order()

    def test_undefined_fanin_detected(self):
        net = LogicNetwork()
        net.add_node("x", ("ghost",), ("1",))
        with pytest.raises(NetworkError):
            net.topological_order()

    def test_undefined_output_detected(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_output("ghost")
        with pytest.raises(NetworkError):
            net.validate()

    def test_deep_network_no_recursion_limit(self):
        # Iterative topological sort must handle very deep chains.
        net = LogicNetwork()
        net.add_input("x0")
        for i in range(5000):
            net.add_not(f"x{i + 1}", f"x{i}")
        net.add_output("x5000")
        assert len(net.topological_order()) == 5000

    def test_topological_order_is_cached_until_a_mutation(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_buf("p", "a")
        net.add_buf("q", "a")
        net.add_output("q")

        def fresh(network):
            # copy() rebuilds the node table in order, with no cache.
            duplicate = network.copy()
            assert duplicate._order is None
            return duplicate.topological_order()

        order = net.topological_order()
        assert order == ("p", "q") == fresh(net)
        assert net.topological_order() is order

        mutations = [
            ("add_input", lambda: net.add_input("b"), ("p", "q")),
            ("add_node", lambda: net.add_and("r", "p", "b"), ("p", "q", "r")),
            ("replace_node", lambda: net.replace_node("p", ("q",), ("1",)), ("q", "p", "r")),
            ("remove_node", lambda: net.remove_node("r"), ("q", "p")),
            ("sweep_dangling", net.sweep_dangling, ("q",)),
        ]
        for mutator, mutate, expected in mutations:
            net.topological_order()
            mutate()
            assert net._order is None, f"{mutator} kept a stale order"
            assert net.topological_order() == expected == fresh(net), mutator

    def test_support_and_fanin_cone(self):
        net = full_adder()
        assert net.support_of(["sum"]) == {"a", "b", "cin"}
        assert net.transitive_fanin(["sum"]) == {"ab", "sum"}

    def test_depth(self):
        net = full_adder()
        assert net.depth() == 2

    def test_fanouts(self):
        net = full_adder()
        fanouts = net.fanouts()
        assert set(fanouts["a"]) == {"ab", "cout"}
        assert fanouts["ab"] == ["sum"]


class TestGateHelpers:
    @pytest.mark.parametrize(
        "builder,model",
        [
            ("add_and", lambda a, b: a & b),
            ("add_or", lambda a, b: a | b),
            ("add_nand", lambda a, b: not (a and b)),
            ("add_nor", lambda a, b: not (a or b)),
            ("add_xor", lambda a, b: a != b),
            ("add_xnor", lambda a, b: a == b),
        ],
    )
    def test_two_input_gates(self, builder, model):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        getattr(net, builder)("g", "a", "b")
        net.add_output("g")
        for a in (0, 1):
            for b in (0, 1):
                result = net.simulate({"a": a, "b": b}, 1)["g"]
                assert result == int(bool(model(a, b)))

    def test_maj_gate(self):
        net = LogicNetwork()
        for name in "abc":
            net.add_input(name)
        net.add_maj("m", "a", "b", "c")
        net.add_output("m")
        for vector in range(8):
            stimulus = {"a": vector & 1, "b": vector >> 1 & 1, "c": vector >> 2 & 1}
            expected = int(sum(stimulus.values()) >= 2)
            assert net.simulate(stimulus, 1)["m"] == expected

    def test_mux_gate(self):
        net = LogicNetwork()
        for name in ("s", "t", "e"):
            net.add_input(name)
        net.add_mux("m", "s", "t", "e")
        net.add_output("m")
        for vector in range(8):
            stimulus = {"s": vector & 1, "t": vector >> 1 & 1, "e": vector >> 2 & 1}
            expected = stimulus["t"] if stimulus["s"] else stimulus["e"]
            assert net.simulate(stimulus, 1)["m"] == expected

    def test_constants(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_const("one", True)
        net.add_const("zero", False)
        net.add_output("one")
        net.add_output("zero")
        values = net.simulate({"a": 0}, 4)
        assert values["one"] == 0b1111
        assert values["zero"] == 0


class TestSimulation:
    def test_bit_parallel_matches_scalar(self):
        net = full_adder()
        width = 8
        stimulus = {"a": 0b10110100, "b": 0b01110010, "cin": 0b11001010}
        packed = net.simulate(stimulus, width)
        for offset in range(width):
            bits = {k: v >> offset & 1 for k, v in stimulus.items()}
            total = bits["a"] + bits["b"] + bits["cin"]
            assert packed["sum"] >> offset & 1 == total % 2
            assert packed["cout"] >> offset & 1 == int(total >= 2)

    def test_missing_stimulus_rejected(self):
        net = full_adder()
        with pytest.raises(NetworkError):
            net.simulate({"a": 1, "b": 0}, 1)

    def test_inverted_cover(self):
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_node("n", ("a", "b"), ("11",), inverted=True)  # NAND
        net.add_output("n")
        assert net.simulate({"a": 1, "b": 1}, 1)["n"] == 0
        assert net.simulate({"a": 0, "b": 1}, 1)["n"] == 1


class TestCleanup:
    def test_sweep_dangling(self):
        net = full_adder()
        net.add_and("unused", "a", "b")
        assert net.sweep_dangling() == 1
        assert "unused" not in net.node_names

    def test_copy_is_deep_enough(self):
        net = full_adder()
        dup = net.copy()
        dup.remove_node("cout")
        assert "cout" in net.node_names
        assert "cout" not in dup.node_names
