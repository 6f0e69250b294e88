"""Golden regression: every flow's netlists for all 17 circuits.

``golden_suite_netlists.json`` holds, for every registry circuit under
BDS-MAJ, BDS-PGA, the ABC-like and the DC-like baselines (default
configs, ``verify=False``), the sha256 of the optimized and of the
mapped BLIF.
It sits next to the Table I node golden: node counts can stay put while
a netlist's wiring moves, and this pin catches that on the seven HDL
circuits the MCNC batch golden does not cover.  The DC cells pin the
Table II baseline, whose structure memo and factoring tapes must leave
every netlist byte-identical; together with the abc cells they pin the
technology mapper's output on all four flows.

If an intentional change moves these netlists, regenerate the golden
with::

    PYTHONPATH=src python tests/experiments/test_suite_netlists_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import get_pipeline
from repro.benchgen import BENCHMARKS, build_benchmark
from repro.network import to_blif

GOLDEN = Path(__file__).with_name("golden_suite_netlists.json")
FLOWS = ("bds-maj", "bds-pga", "abc", "dc")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def netlist_cell(flow: str, circuit: str) -> dict:
    pipeline = get_pipeline(flow)
    config = pipeline.default_config()
    config.verify = False
    result = pipeline.run(build_benchmark(circuit), config)
    return {
        "optimized_blif_sha256": _sha256(to_blif(result.optimized)),
        "mapped_blif_sha256": _sha256(to_blif(result.mapped.network)),
    }


def suite_netlists() -> dict:
    return {
        circuit: {flow: netlist_cell(flow, circuit) for flow in FLOWS}
        for circuit in sorted(BENCHMARKS)
    }


def render(cells: dict) -> str:
    return json.dumps(cells, indent=2, sort_keys=True) + "\n"


def test_golden_covers_every_cell_canonically():
    golden = json.loads(GOLDEN.read_text())
    assert render(golden) == GOLDEN.read_text()
    assert sorted(golden) == sorted(BENCHMARKS)
    for circuit in BENCHMARKS:
        assert sorted(golden[circuit]) == sorted(FLOWS)


@pytest.mark.slow
def test_suite_netlists_match_golden():
    golden = json.loads(GOLDEN.read_text())
    actual = suite_netlists()
    for circuit, flows in golden.items():
        for flow, cell in flows.items():
            assert actual[circuit][flow] == cell, f"{circuit}/{flow}: netlist moved"
    assert actual == golden


if __name__ == "__main__":
    GOLDEN.write_text(render(suite_netlists()))
    print(f"wrote {GOLDEN}")
