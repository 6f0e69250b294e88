"""Ablation benches for the design choices DESIGN.md calls out.

The paper fixes several heuristic constants "by extensive simulations":
global sizing factor k = 1.6, local k = 1.5, 5 balancing iterations,
plus the implicit choices of m-dominator candidate cap and the
MAJ-aware cell library.  Each bench sweeps one knob on a MAJ-rich
benchmark and records the quality impact.
"""

from __future__ import annotations

import pytest

from repro.api import get_pipeline
from repro.benchgen import multiply_accumulate
from repro.core import EngineConfig, MajorityConfig, MDominatorConfig
from repro.flows import BdsFlowConfig
from repro.mapping import nand_only_library

from conftest import run_once


def mac_network():
    return multiply_accumulate(6, name="mac6")


def total_nodes(network, engine_config: EngineConfig) -> dict[str, int]:
    config = BdsFlowConfig(engine=engine_config)
    return get_pipeline("bds-maj").optimize_prefix().run_context(network, config).node_counts


@pytest.mark.parametrize("global_k", [1.0, 1.3, 1.6, 2.0, 3.0])
def test_ablation_global_sizing_factor(benchmark, global_k):
    """Paper: global k = 1.6.  Too small accepts useless radix-3 splits,
    too large rejects profitable ones."""
    network = mac_network()
    engine = EngineConfig(global_k=global_k)
    counts = run_once(benchmark, total_nodes, network, engine)
    benchmark.extra_info.update(
        global_k=global_k, total=sum(counts.values()), maj=counts["maj"]
    )
    assert sum(counts.values()) > 0


@pytest.mark.parametrize("iterations", [0, 1, 5, 10])
def test_ablation_balance_iterations(benchmark, iterations):
    """Paper: 5 cyclic balancing iterations (Section IV.B)."""
    network = mac_network()
    engine = EngineConfig(
        majority=MajorityConfig(max_balance_iterations=iterations)
    )
    counts = run_once(benchmark, total_nodes, network, engine)
    benchmark.extra_info.update(
        iterations=iterations, total=sum(counts.values()), maj=counts["maj"]
    )


@pytest.mark.parametrize("max_candidates", [1, 3, 5, 10])
def test_ablation_mdominator_cap(benchmark, max_candidates):
    """Section III.F: tighter candidate selection trades quality for
    runtime; the default cap keeps the search near-linear."""
    network = mac_network()
    engine = EngineConfig(
        majority=MajorityConfig(mdominator=MDominatorConfig(max_candidates=max_candidates))
    )
    counts = run_once(benchmark, total_nodes, network, engine)
    benchmark.extra_info.update(
        max_candidates=max_candidates, total=sum(counts.values()), maj=counts["maj"]
    )


def test_ablation_balancing_off_vs_on(benchmark):
    """The gamma-phase must never hurt: with balancing disabled the
    decomposed network is at least as large."""

    def run():
        network = mac_network()
        off = total_nodes(
            network, EngineConfig(majority=MajorityConfig(max_balance_iterations=0))
        )
        on = total_nodes(network, EngineConfig())
        return off, on

    off, on = run_once(benchmark, run)
    benchmark.extra_info.update(total_off=sum(off.values()), total_on=sum(on.values()))
    assert sum(on.values()) <= sum(off.values())


def test_ablation_nand_only_library(benchmark):
    """Direct assignment needs the MAJ/XOR cells: mapping the BDS-MAJ
    result onto a NAND/NOR/INV-only library forfeits the area edge."""

    def run():
        network = mac_network()
        full = get_pipeline("bds-maj").run(network)
        slim_config = BdsFlowConfig(library=nand_only_library())
        slim = get_pipeline("bds-maj").run(network, slim_config)
        return full, slim

    full, slim = run_once(benchmark, run)
    benchmark.extra_info.update(
        area_full_library=round(full.timing.area, 2),
        area_nand_only=round(slim.timing.area, 2),
        maj_cells_full=full.mapped.cell_histogram().get("maj3", 0),
    )
    assert slim.mapped.cell_histogram().get("maj3", 0) == 0
    assert full.timing.area < slim.timing.area
