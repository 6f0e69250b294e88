#!/usr/bin/env python3
"""Datapath synthesis: the paper's motivating scenario.

Synthesizes a 16-bit multiply-accumulate unit (one of the Table I/II
HDL benchmarks) with all four flows and prints a Table-II-style
comparison.  XOR/MAJ-intensive datapath logic is exactly where BDS-MAJ
shines: watch the MAJ3 cell count and the area gap.

Run:  python examples/datapath_synthesis.py  [--width 8]
"""

import argparse

from repro.api import get_pipeline, pipeline_names
from repro.benchgen import multiply_accumulate


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--width", type=int, default=8, help="operand width (8 runs in seconds)"
    )
    args = parser.parse_args()

    network = multiply_accumulate(args.width, name=f"mac{args.width}")
    print(
        f"MAC {args.width}x{args.width}+{2 * args.width}: "
        f"{network.num_nodes} SOP nodes, {len(network.inputs)} inputs"
    )
    print(f"{'flow':8s} {'area um2':>9s} {'gates':>6s} {'delay ns':>9s} "
          f"{'MAJ3':>5s} {'XOR2+XNOR2':>11s} {'opt s':>6s}")
    for name in pipeline_names():
        result = get_pipeline(name).run(network)
        histogram = result.mapped.cell_histogram()
        area, gates, delay = result.table2_row()
        print(
            f"{name:8s} {area:9.2f} {gates:6d} {delay:9.3f} "
            f"{histogram.get('maj3', 0):5d} "
            f"{histogram.get('xor2', 0) + histogram.get('xnor2', 0):11d} "
            f"{result.optimize_seconds:6.2f}"
        )
        assert result.equivalence is not None and result.equivalence.equivalent


if __name__ == "__main__":
    main()
