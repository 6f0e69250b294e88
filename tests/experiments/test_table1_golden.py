"""Golden regression: Table I's node counts for all 17 circuits.

``golden_table1_nodes.json`` holds the AND/OR/XOR/XNOR/MAJ node counts
``bdsmaj table1`` reports for every registry circuit under BDS-MAJ and
BDS-PGA: one ``run_batch`` per tool over the optimize prefix.  Timings and op-cache counters are left out: they move
without the decomposed networks moving.  The MCNC batch golden pins
the ten MCNC circuits byte for byte; this one also covers the seven
HDL circuits (sqrt32, wallace16, cla64, rev19, div18, mac16, add4x16).

If an intentional change moves these numbers, regenerate the golden
with::

    PYTHONPATH=src python tests/experiments/test_table1_golden.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.benchgen import BENCHMARKS
from repro.experiments import TOOLS
from repro.flows import BatchConfig, run_batch

GOLDEN = Path(__file__).with_name("golden_table1_nodes.json")


def table1_nodes() -> dict:
    """``{circuit: {tool: node_counts}}`` over the whole registry."""
    nodes: dict = {}
    for tool in TOOLS:
        for circuit in run_batch(list(BENCHMARKS), BatchConfig(flow=tool)).circuits:
            assert circuit.ok, f"{circuit.benchmark}/{tool}: {circuit.error}"
            nodes.setdefault(circuit.benchmark, {})[tool] = dict(circuit.node_counts)
    return nodes


def render(nodes: dict) -> str:
    return json.dumps(nodes, indent=2, sort_keys=True) + "\n"


def test_golden_covers_every_cell_canonically():
    golden = json.loads(GOLDEN.read_text())
    assert render(golden) == GOLDEN.read_text()
    assert sorted(golden) == sorted(BENCHMARKS)
    for circuit in BENCHMARKS:
        assert sorted(golden[circuit]) == sorted(TOOLS)


@pytest.mark.slow
def test_table1_node_counts_match_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = json.loads(render(table1_nodes()))
    for circuit, tools in golden.items():
        for tool, counts in tools.items():
            assert actual[circuit][tool] == counts, f"{circuit}/{tool}: node counts moved"
    assert actual == golden


if __name__ == "__main__":
    GOLDEN.write_text(render(table1_nodes()))
    print(f"wrote {GOLDEN}")
