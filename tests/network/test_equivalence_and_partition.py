"""Tests for equivalence checking, BDD bridging and partitioning."""

from __future__ import annotations

import dataclasses
import importlib
import random

import pytest

from repro.network import (
    BddSizeExceeded,
    LogicNetwork,
    NetworkError,
    PartitionConfig,
    Supernode,
    bdd_equivalent,
    check_all_equivalent,
    check_equivalence,
    cover_to_bdd,
    exhaustive_equivalent,
    global_bdds,
    partition,
    partition_statistics,
    partition_with_bdds,
    random_equivalent,
)
from repro.api import get_pipeline
from repro.bdd import BDD
from repro.flows import DcFlowConfig
from repro.benchgen import build_benchmark
from repro.network.bdds import supernode_bdd
from repro.network.partition import structure_key

# The module, not the ``partition`` function the package exports.
partition_module = importlib.import_module("repro.network.partition")
stages_module = importlib.import_module("repro.api.stages")


def ripple_adder(bits: int, name: str = "rca") -> LogicNetwork:
    net = LogicNetwork(name)
    for i in range(bits):
        net.add_input(f"a{i}")
        net.add_input(f"b{i}")
    carry = None
    for i in range(bits):
        a, b = f"a{i}", f"b{i}"
        if carry is None:
            net.add_xor(f"s{i}", a, b)
            carry = net.add_and(f"c{i}", a, b)
        else:
            net.add_xor(f"p{i}", a, b)
            net.add_xor(f"s{i}", f"p{i}", carry)
            carry = net.add_maj(f"c{i}", a, b, carry)
        net.add_output(f"s{i}")
    net.add_output(carry)
    return net


def comparator_tree(pairs: int) -> LogicNetwork:
    """``y = OR_i (a_i & b_i)`` as AND nodes under a wide OR.  The input
    order ``a0..a(n-1) b0..b(n-1)`` separates the pairs, so the BDD of
    the collapsed cluster is exponential in ``pairs``."""
    net = LogicNetwork("sepcmp_tree")
    for i in range(pairs):
        net.add_input(f"a{i}")
    for i in range(pairs):
        net.add_input(f"b{i}")
    for i in range(pairs):
        net.add_node(f"t{i}", [f"a{i}", f"b{i}"], ["11"])
    fanins = [f"t{i}" for i in range(pairs)]
    rows = ["-" * i + "1" + "-" * (pairs - 1 - i) for i in range(pairs)]
    net.add_node("y", fanins, rows)
    net.add_output("y")
    return net


def buggy_adder(bits: int) -> LogicNetwork:
    net = ripple_adder(bits, name="buggy")
    # Corrupt the top sum bit: OR instead of XOR.
    top = bits - 1
    fanins = net.node(f"s{top}").fanins
    net.replace_node(f"s{top}", fanins, ("1-", "-1"))
    return net


class TestCoverToBdd:
    def test_cover_matches_simulation(self):
        mgr = BDD(["a", "b", "c"])
        net = LogicNetwork()
        for name in "abc":
            net.add_input(name)
        net.add_maj("m", "a", "b", "c")
        node = net.node("m")
        edge = cover_to_bdd(mgr, node, [mgr.var(n) for n in "abc"])
        assert edge == mgr.from_expr("a & b | b & c | a & c")

    def test_inverted_cover(self):
        mgr = BDD(["a", "b"])
        net = LogicNetwork()
        net.add_input("a")
        net.add_input("b")
        net.add_nand("n", "a", "b")
        edge = cover_to_bdd(mgr, net.node("n"), [mgr.var("a"), mgr.var("b")])
        assert edge == mgr.from_expr("~(a & b)")


class TestGlobalBdds:
    def test_adder_outputs(self):
        net = ripple_adder(3)
        mgr, roots = global_bdds(net)
        # Spot-check: s0 = a0 xor b0.
        assert roots["s0"] == mgr.from_expr("a0 ^ b0")

    def test_size_budget_enforced(self):
        net = ripple_adder(8)
        with pytest.raises(BddSizeExceeded):
            global_bdds(net, max_nodes=10)


class TestEquivalence:
    def test_exhaustive_detects_equality(self):
        left = ripple_adder(3)
        right = ripple_adder(3)
        result = exhaustive_equivalent(left, right)
        assert result.equivalent
        assert result.method == "exhaustive"

    def test_exhaustive_detects_bug_with_counterexample(self):
        left = ripple_adder(3)
        right = buggy_adder(3)
        result = exhaustive_equivalent(left, right)
        assert not result.equivalent
        assert result.counterexample is not None
        # The counterexample must really distinguish the two networks.
        stimulus = result.counterexample
        assert left.simulate(stimulus, 1) != right.simulate(stimulus, 1)

    def test_random_detects_bug(self):
        left = ripple_adder(9)  # 18 inputs: beyond exhaustive default
        right = buggy_adder(9)
        result = random_equivalent(left, right, vectors=512)
        assert not result.equivalent

    def test_bdd_equivalence(self):
        left = ripple_adder(4)
        right = ripple_adder(4)
        assert bdd_equivalent(left, right).equivalent
        assert not bdd_equivalent(left, buggy_adder(4)).equivalent

    def test_check_dispatches_on_width(self):
        small = ripple_adder(3)
        assert check_equivalence(small, ripple_adder(3)).method == "exhaustive"
        large = ripple_adder(10)
        assert check_equivalence(large, ripple_adder(10)).method == "random"

    def test_interface_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            check_equivalence(ripple_adder(3), ripple_adder(4))

    @pytest.mark.parametrize("num_inputs", range(1, 14))
    def test_exhaustive_stimuli_are_every_vector_in_order(self, num_inputs):
        # What the bit-at-a-time loop built: vector ``base + offset``
        # in bit ``offset`` of the batch starting at ``base``.
        names = [f"x{i}" for i in range(num_inputs)]
        total = 1 << num_inputs
        batch = min(total, 4096)
        expected = []
        for base in range(0, total, batch):
            stimulus = {}
            for position, name in enumerate(names):
                packed = 0
                for offset in range(batch):
                    if (base + offset) >> position & 1:
                        packed |= 1 << offset
                stimulus[name] = packed
            expected.append((stimulus, batch))

        seen = []

        class Recording(LogicNetwork):
            def simulate(self, stimulus, width):
                seen.append((dict(stimulus), width))
                return super().simulate(stimulus, width)

        left, right = Recording("left"), LogicNetwork("right")
        for network in (left, right):
            for name in names:
                network.add_input(name)
            network.add_output(names[-1])
        result = check_equivalence(left, right, exhaustive_limit=13)
        assert (result.equivalent, result.method, result.vectors) == (True, "exhaustive", total)
        assert seen == expected

    def test_shared_stimuli_report_the_first_failing_candidate(self):
        # 13 inputs, two exhaustive batches: ``late`` differs from the
        # reference only in the second batch (x12 = 1), ``early`` only
        # in the first.  Checked in turn, the first candidate's failure
        # is the one reported, whichever batch it shows in.
        def network(name, extra=None):
            net = LogicNetwork(name)
            for i in range(13):
                net.add_input(f"x{i}")
            if extra is None:
                net.add_buf("y", "x0")
            else:
                net.add_node("t", ("x1", "x12"), (extra,))
                net.add_xor("y", "x0", "t")
            net.add_output("y")
            return net

        reference = network("reference")
        late, early = network("late", "11"), network("early", "10")
        for candidates in ((late, early), (early, late)):
            shared = check_all_equivalent(reference, candidates, exhaustive_limit=13)
            alone = check_equivalence(reference, candidates[0], exhaustive_limit=13)
            assert not shared.equivalent
            assert shared == alone
        vectors = 4096
        shared = check_all_equivalent(reference, (reference, late), 10, vectors=vectors)
        assert not shared.equivalent
        assert shared == check_equivalence(reference, late, 10, vectors=vectors)
        passed = check_all_equivalent(reference, (reference, reference), 10, vectors=vectors)
        assert (passed.equivalent, passed.method, passed.vectors) == (True, "random", vectors)


class TestPartition:
    def test_every_node_covered(self):
        net = ripple_adder(6)
        supernodes = partition(net)
        covered = set()
        for supernode in supernodes:
            covered |= supernode.members
        assert covered == set(net.node_names)

    def test_outputs_have_supernodes(self):
        net = ripple_adder(6)
        outputs = {s.output for s in partition(net)}
        assert set(net.outputs) <= outputs

    def test_support_budget_respected(self):
        net = ripple_adder(8)
        config = PartitionConfig(max_support=6)
        for supernode in partition(net, config):
            assert len(supernode.inputs) <= 6

    def test_partition_closure_and_equivalence(self):
        """Rebuilding the network from supernode BDDs must reproduce the
        original functions — the partition is only a re-grouping."""
        net = ripple_adder(5)
        entries = partition_with_bdds(net)
        emitted = set(net.inputs) | {s.output for s, _, _ in entries}
        for supernode, _, _ in entries:
            for signal in supernode.inputs:
                assert signal in emitted, f"unresolved boundary {signal!r}"
        # Evaluate supernode BDDs in topological order on random vectors.
        rng = random.Random(7)
        for _ in range(64):
            stimulus = {name: rng.getrandbits(1) for name in net.inputs}
            reference = net.simulate_all(stimulus, 1)
            values = {name: bool(stimulus[name]) for name in net.inputs}
            for supernode, mgr, root in entries:
                values[supernode.output] = mgr.eval(
                    root, {sig: values[sig] for sig in supernode.inputs}
                )
            for output in net.outputs:
                assert values[output] == bool(reference[output])

    def test_oversized_cluster_demoted(self):
        net = ripple_adder(6)
        config = PartitionConfig(max_support=12, max_bdd_nodes=3)
        entries = partition_with_bdds(net, config)
        # With a 3-node budget almost everything is singleton; the
        # closure property must still hold.
        emitted = set(net.inputs) | {s.output for s, _, _ in entries}
        for supernode, _, _ in entries:
            for signal in supernode.inputs:
                assert signal in emitted

    def test_statistics(self):
        net = ripple_adder(6)
        supernodes = partition(net)
        stats = partition_statistics(net, supernodes)
        assert stats["supernodes"] == len(supernodes)
        assert stats["max_support"] <= PartitionConfig().max_support

    def test_partition_reduces_supernode_count(self):
        """Partial collapse must actually collapse: far fewer supernodes
        than nodes on a ripple-carry adder."""
        net = ripple_adder(8)
        supernodes = partition(net)
        assert len(supernodes) < net.num_nodes

    def test_partitioning_a_deep_chain_reads_each_node_a_bounded_number_of_times(
        self, monkeypatch
    ):
        """A cluster's support is updated as it absorbs a node, not
        rebuilt from every member, so partitioning a single-fanout chain
        reads each node a bounded number of times (it used to read
        about n²/2)."""
        levels = 3000
        net = LogicNetwork("deep")
        net.add_input("x0")
        net.add_input("y")
        previous = "x0"
        for i in range(levels):
            previous = net.add_and(f"n{i}", previous, "y")
        net.add_output(previous)
        calls = 0
        node = net.node

        def counting_node(name):
            nonlocal calls
            calls += 1
            return node(name)

        monkeypatch.setattr(net, "node", counting_node)
        for config in (DcFlowConfig().partition, PartitionConfig(max_support=10)):
            calls = 0
            entries = partition_with_bdds(net, config, {})
            assert [(s.output, len(s.members)) for s, _, _ in entries] == [(previous, levels)]
            assert calls <= 10 * levels


class TestNodeBudget:
    PAIRS = 8
    BUDGET = 60

    def test_separated_order_exceeds_budget(self):
        net = comparator_tree(self.PAIRS)
        members = {"y"} | {f"t{i}" for i in range(self.PAIRS)}
        with pytest.raises(BddSizeExceeded):
            supernode_bdd(net, "y", members, list(net.inputs), max_nodes=self.BUDGET)

    def test_overflowing_cluster_is_demoted_to_singletons(self):
        net = comparator_tree(self.PAIRS)
        roomy = partition_with_bdds(
            net, PartitionConfig(max_support=2 * self.PAIRS, max_bdd_nodes=10_000)
        )
        tight = partition_with_bdds(
            net, PartitionConfig(max_support=2 * self.PAIRS, max_bdd_nodes=self.BUDGET)
        )
        assert len(roomy) == 1
        assert len(tight) == self.PAIRS + 1

    def test_dc_collapse_keeps_every_partition_field(self, monkeypatch):
        """The DC flow's collapse adds its hard signals to the caller's
        partition config without dropping its other fields."""
        net = comparator_tree(self.PAIRS)
        partition = PartitionConfig(
            max_support=2 * self.PAIRS,
            max_bdd_nodes=self.BUDGET,
            max_duplication=1,
            duplication_literals=3,
        )
        seen = []

        def recording(network, config, firsts=None):
            seen.append(config)
            return partition_with_bdds(network, config, firsts)

        monkeypatch.setattr(stages_module, "partition_with_bdds", recording)
        pipeline = get_pipeline("dc").up_to("collapse")
        ctx = pipeline.run_context(net, DcFlowConfig(partition=partition))
        assert len(ctx.scratch["partitions"]) == self.PAIRS + 1
        assert seen == [dataclasses.replace(partition, hard_signals=seen[0].hard_signals)]


class TestStructureMemo:
    """``partition_with_bdds(..., firsts)`` builds each distinct
    supernode structure once; every other supernode shares that build."""

    @staticmethod
    def functions(entries, firsts=None):
        """Per supernode: its fields and its function over input positions
        (a shared manager's variables are its first's inputs)."""
        rows = []
        for supernode, mgr, root in entries:
            names = supernode.inputs if firsts is None else firsts[supernode.output].inputs
            function = mgr.truth_table(root, names)
            rows.append((supernode.output, supernode.inputs, sorted(supernode.members), function))
        return rows

    def test_equal_structures_have_equal_keys(self):
        net = ripple_adder(6)
        by_output = {s.output: s for s in partition(net)}
        # Two middle bit slices: same wiring over other input names.
        assert structure_key(net, by_output["s3"]) == structure_key(net, by_output["s4"])
        assert structure_key(net, by_output["s0"]) != structure_key(net, by_output["s3"])

    def test_key_reads_each_field_the_build_reads(self):
        """Supernodes alike but for an ``inverted`` flag, a cover or the
        fanin wiring get different keys, and the flow keeps them apart."""
        net = LogicNetwork("fields")
        for i in range(5):
            net.add_input(f"a{i}")
            net.add_input(f"b{i}")
        net.add_and("y0", "a0", "b0")
        net.add_nand("y1", "a1", "b1")
        net.add_or("y2", "a2", "b2")
        # a·(a + b) vs b·(a + b): the same covers, wired apart.
        net.add_or("t3", "a3", "b3")
        net.add_and("y3", "t3", "a3")
        net.add_or("t4", "a4", "b4")
        net.add_and("y4", "t4", "b4")
        for i in range(5):
            net.add_output(f"y{i}")
        supernodes = partition(net)
        keys = {structure_key(net, s) for s in supernodes}
        assert len(supernodes) == len(keys) == 5
        result = get_pipeline("bds-pga").run(net)
        assert result.equivalence is not None and result.equivalence.equivalent

    @pytest.mark.parametrize("budget", [12, 220])
    def test_each_structure_is_built_or_demoted_once(self, budget, monkeypatch):
        """A tight budget demotes repeated clusters: the memo demotes each
        structure once, and shared and unshared partitions agree."""
        net = build_benchmark("add4x16")
        config = PartitionConfig(max_support=10, max_bdd_nodes=budget)
        builds = []

        def counting_bdd(network, output, members, inputs, max_nodes=None, **kwargs):
            key = (max_nodes, structure_key(network, Supernode(output, members, list(inputs))))
            try:
                result = supernode_bdd(network, output, members, inputs, max_nodes, **kwargs)
            except BddSizeExceeded:
                builds.append((key, "demoted"))
                raise
            builds.append((key, "built"))
            return result

        monkeypatch.setattr(partition_module, "supernode_bdd", counting_bdd)
        plain = partition_with_bdds(net, config)
        plain_builds, builds[:] = list(builds), []
        firsts: dict = {}
        shared = partition_with_bdds(net, config, firsts)
        assert self.functions(shared, firsts) == self.functions(plain)
        assert len(builds) == len(set(builds)) < len(plain_builds)
        assert set(builds) == set(plain_builds)
        if budget == 12:
            demoted = [key for key, outcome in plain_builds if outcome == "demoted"]
            assert len(demoted) > len(set(demoted)), "no repeated structure was demoted"
        for supernode, _mgr, _root in shared:
            first = firsts[supernode.output]
            assert firsts[first.output] is first
            assert structure_key(net, supernode) == structure_key(net, first)
