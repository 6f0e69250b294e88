"""Integration tests: the four synthesis flows on real circuits.

Every flow must (a) preserve the function — checked exhaustively for
small circuits — and (b) expose the qualitative relationships the paper
reports (MAJ nodes only in BDS-MAJ, node reduction vs BDS-PGA, ...).
"""

from __future__ import annotations

import pytest

from repro.api import get_pipeline, pipeline_names
from repro.benchgen import build_benchmark, ripple_carry_adder, wallace_multiplier
from repro.benchgen.random_logic import random_control_network, random_pla_network
from repro.flows import BdsFlowConfig

PAPER_FLOWS = ("bds-maj", "bds-pga", "abc", "dc")


@pytest.fixture(scope="module")
def adder():
    return ripple_carry_adder(5)


@pytest.fixture(scope="module")
def control():
    return random_control_network("ctl", 10, 5, 60, seed=77)


class TestBdsMajFlow:
    def test_adder_equivalent_and_uses_maj(self, adder):
        result = get_pipeline("bds-maj").run(adder)
        assert result.equivalence is not None and result.equivalence.equivalent
        assert result.node_counts["maj"] > 0, "carry chain must yield MAJ nodes"

    def test_mapped_network_uses_maj_cells(self, adder):
        result = get_pipeline("bds-maj").run(adder)
        assert result.mapped.cell_histogram().get("maj3", 0) > 0

    def test_control_logic_equivalent(self, control):
        result = get_pipeline("bds-maj").run(control)
        assert result.equivalence.equivalent

    def test_node_counts_track_tree(self, adder):
        result = get_pipeline("bds-maj").run(adder)
        assert result.total_nodes == sum(result.node_counts.values())
        assert set(result.node_counts) == {"and", "or", "xor", "xnor", "maj"}


class TestBdsPgaFlow:
    def test_never_emits_maj(self, adder, control):
        for net in (adder, control):
            result = get_pipeline("bds-pga").run(net)
            assert result.node_counts["maj"] == 0
            assert result.mapped.cell_histogram().get("maj3", 0) == 0
            assert result.equivalence.equivalent

    def test_maj_flow_not_worse_on_datapath(self, adder):
        """Table I in miniature: BDS-MAJ total nodes <= BDS-PGA on an
        adder (the motivating datapath circuit)."""
        with_maj = get_pipeline("bds-maj").run(adder)
        without = get_pipeline("bds-pga").run(adder)
        assert with_maj.total_nodes <= without.total_nodes

    def test_shared_config_objects_not_required(self, adder):
        config = BdsFlowConfig()
        result = get_pipeline("bds-pga").run(adder, config)
        assert result.node_counts["maj"] == 0


class TestAbcFlow:
    def test_equivalent(self, adder, control):
        for net in (adder, control):
            result = get_pipeline("abc").run(net)
            assert result.equivalence.equivalent

    def test_xor_recovered_but_maj_hidden(self, adder):
        """ABC's Boolean matcher recovers XOR cells, but majority
        structures stay hidden in the AND/INV mass (Section V.B.1)."""
        result = get_pipeline("abc").run(adder)
        histogram = result.mapped.cell_histogram()
        assert histogram.get("xor2", 0) + histogram.get("xnor2", 0) > 0
        assert histogram.get("maj3", 0) == 0


class TestDcFlow:
    def test_equivalent(self, adder, control):
        for net in (adder, control):
            result = get_pipeline("dc").run(net)
            assert result.equivalence.equivalent

    def test_preserves_rtl_xor(self, adder):
        """DC-like flow keeps RTL XOR gates -> XOR cells in the mapping."""
        result = get_pipeline("dc").run(adder)
        histogram = result.mapped.cell_histogram()
        assert histogram.get("xor2", 0) + histogram.get("xnor2", 0) > 0

    def test_never_emits_maj_cells(self, adder):
        result = get_pipeline("dc").run(adder)
        assert result.mapped.cell_histogram().get("maj3", 0) == 0

    def test_pla_collapse_helps(self):
        """On PLA-ish logic the collapsing flow must not blow up."""
        net = random_pla_network("pla", 10, 6, 40, seed=5)
        result = get_pipeline("dc").run(net)
        assert result.equivalence.equivalent


class TestFlowRegistry:
    def test_four_flows_in_paper_order(self):
        assert pipeline_names() == list(PAPER_FLOWS)

    def test_all_flows_on_small_alu(self):
        net = build_benchmark("alu2")
        rows = {}
        for name in PAPER_FLOWS:
            result = get_pipeline(name).run(net)
            assert result.equivalence.equivalent, name
            rows[name] = result.table2_row()
        # The headline claim, in miniature: BDS-MAJ smallest area.
        areas = {name: row[0] for name, row in rows.items()}
        assert areas["bds-maj"] == min(areas.values())
        assert areas["bds-maj"] < areas["bds-pga"]


class TestTrace:
    def test_stage_trace_populated(self, adder):
        ctx = get_pipeline("bds-maj").optimize_prefix().run_context(adder)
        trace = ctx.scratch["trace"]
        assert trace.supernodes > 0
        assert trace.majority_steps > 0
        assert trace.tree_nodes == sum(ctx.node_counts.values())


@pytest.mark.slow
class TestWallaceEndToEnd:
    def test_wallace8_all_flows(self):
        net = wallace_multiplier(8)
        maj_nodes = {}
        for name in PAPER_FLOWS:
            result = get_pipeline(name).run(net)
            assert result.equivalence.equivalent, name
            maj_nodes[name] = result.node_counts.get("maj", 0)
        assert maj_nodes["bds-maj"] > 0
        assert maj_nodes["bds-pga"] == 0
