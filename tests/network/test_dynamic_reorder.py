"""Regression: ``BddSizeExceeded`` rescue by construction-time sifting.

The canonical blow-up: a comparator ``a0&b0 | a1&b1 | ...`` whose fanin
(and therefore DFS input) order separates the ``a`` block from the
``b`` block.  Under that order the BDD is exponential in the pair count
(it must remember every ``a`` seen before meeting the ``b`` side), so
the static build crosses any reasonable node budget — while the
interleaved order the sifter finds is linear.  ``reorder="dynamic"``
must turn that from a demotion (or a hard :class:`BddSizeExceeded`)
into a completed supernode.
"""

from __future__ import annotations

import pytest

from repro.api import get_pipeline
from repro.flows import BdsFlowConfig, DcFlowConfig
from repro.network import (
    LogicNetwork,
    PartitionConfig,
    check_equivalence,
    partition_with_bdds,
)
from repro.network.bdds import BddSizeExceeded, supernode_bdd

PAIRS = 8
BUDGET = 60


def optimize(net: LogicNetwork, config: BdsFlowConfig):
    """The bds-maj optimize prefix; the context carries the trace."""
    return get_pipeline("bds-maj").optimize_prefix().run_context(net, config)


def separated_comparator(pairs: int = PAIRS) -> LogicNetwork:
    """``y = OR_i (a_i & b_i)`` with the pathological separated fanin
    order ``a0..a(n-1) b0..b(n-1)`` baked into one wide node."""
    net = LogicNetwork("sepcmp")
    names = [f"a{i}" for i in range(pairs)] + [f"b{i}" for i in range(pairs)]
    for name in names:
        net.add_input(name)
    rows = []
    for i in range(pairs):
        row = ["-"] * (2 * pairs)
        row[i] = "1"
        row[pairs + i] = "1"
        rows.append("".join(row))
    net.add_node("y", names, rows)
    net.add_output("y")
    return net


def comparator_tree(pairs: int = PAIRS) -> LogicNetwork:
    """The same function as a cone of AND nodes under a wide OR, so the
    partitioner collapses a multi-member cluster (demotion visibly
    shatters it into singletons)."""
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


class TestSupernodeRescue:
    def test_static_build_exceeds_budget(self):
        net = separated_comparator()
        with pytest.raises(BddSizeExceeded):
            supernode_bdd(net, "y", {"y"}, list(net.inputs), max_nodes=BUDGET)

    def test_dynamic_build_completes_within_budget(self):
        net = separated_comparator()
        mgr, root = supernode_bdd(
            net, "y", {"y"}, list(net.inputs), max_nodes=BUDGET, dynamic_reorder=True
        )
        assert mgr.reorderings >= 1
        assert mgr.live_nodes() <= BUDGET
        mgr.check_invariants()
        # Dynamic reordering is a construction-time tool: the returned
        # manager is back under ordinary root discipline.
        assert mgr.reorder_threshold is None
        assert mgr.protected_edges() == []
        # The function is the comparator, order notwithstanding.
        reference, expected_root = supernode_bdd(
            net, "y", {"y"}, list(net.inputs), max_nodes=None
        )
        names = list(net.inputs)
        for trial in range(1 << 8):
            assignment = {
                name: bool(trial >> (i % 8) & (i // 8 + 1) & 1)
                for i, name in enumerate(names)
            }
            assert mgr.eval(root, assignment) == reference.eval(
                expected_root, assignment
            )

    def test_budget_guard_rescue_counts_as_reordering(self):
        """A cone rescued solely by the budget guard (the threshold
        never fires) must still report its reorder in telemetry."""
        net = separated_comparator()
        mgr, root = supernode_bdd(
            net,
            "y",
            {"y"},
            list(net.inputs),
            max_nodes=BUDGET,
            dynamic_reorder=True,
            reorder_threshold=10_000,  # kernels never trigger
        )
        assert mgr.reorderings >= 1
        assert mgr.live_nodes() <= BUDGET
        mgr.check_invariants()
        assert mgr.size(root) <= BUDGET

    def test_dynamic_respects_budget_for_truly_oversized_cones(self):
        """A cone too large under *every* order still raises: dynamic
        reordering rescues bad orders, it does not lift the budget."""
        net = separated_comparator(4)
        with pytest.raises(BddSizeExceeded):
            supernode_bdd(
                net, "y", {"y"}, list(net.inputs), max_nodes=5, dynamic_reorder=True
            )


class TestPartitionRescue:
    def test_demoted_cluster_survives_with_dynamic(self):
        net = comparator_tree()
        static = partition_with_bdds(
            net, PartitionConfig(max_support=2 * PAIRS, max_bdd_nodes=BUDGET)
        )
        dynamic = partition_with_bdds(
            net,
            PartitionConfig(
                max_support=2 * PAIRS, max_bdd_nodes=BUDGET, dynamic_reorder=True
            ),
        )
        # Static: the collapsed cluster overflows and shatters into
        # one singleton per member.  Dynamic: one supernode survives.
        assert len(static) == PAIRS + 1
        assert len(dynamic) == 1
        supernode, mgr, root = dynamic[0]
        assert supernode.output == "y"
        assert mgr.reorderings >= 1
        assert mgr.size(root) <= BUDGET

    def test_dynamic_flow_output_is_equivalent(self):
        net = comparator_tree()
        config = BdsFlowConfig(reorder="dynamic")
        config.partition = PartitionConfig(
            max_support=2 * PAIRS, max_bdd_nodes=BUDGET, dynamic_reorder=True
        )
        ctx = optimize(net, config)
        trace = ctx.scratch["trace"]
        assert trace.supernodes == 1
        assert trace.reorderings >= 1
        assert sum(ctx.node_counts.values()) > 0
        assert check_equivalence(net, ctx.optimized).equivalent

    def test_dc_collapse_keeps_every_partition_field(self):
        """The DC flow's collapse adds its hard signals to the caller's
        partition config without dropping fields such as
        ``dynamic_reorder``."""
        net = comparator_tree()
        partition = PartitionConfig(
            max_support=2 * PAIRS, max_bdd_nodes=BUDGET, dynamic_reorder=True
        )
        pipeline = get_pipeline("dc").up_to("collapse")
        ctx = pipeline.run_context(net, DcFlowConfig(partition=partition))
        partitions = ctx.scratch["partitions"]
        assert len(partitions) == 1
        assert partitions[0][1].reorderings >= 1

    def test_policy_derives_partition_dynamic_flag(self):
        """``reorder="dynamic"`` alone must arm construction-time
        reordering — callers should not have to set the partition flag
        themselves."""
        net = comparator_tree()
        config = BdsFlowConfig(reorder="dynamic")
        config.partition = PartitionConfig(
            max_support=2 * PAIRS, max_bdd_nodes=BUDGET
        )
        trace = optimize(net, config).scratch["trace"]
        assert trace.supernodes == 1
        assert trace.reorderings >= 1
        assert config.partition.dynamic_reorder is False  # armed on a copy
