#!/usr/bin/env python3
"""BLIF in, optimized BLIF out — the tool as a drop-in BDS replacement.

BDS-MAJ's original interface is BLIF (Section V.A.1).  This example
writes a benchmark to BLIF, reads it back, synthesizes it with BDS-MAJ
and emits the decomposed network as BLIF again, verifying equivalence
at every step.  Point it at your own combinational BLIF files with
``--blif path``.

Run:  python examples/blif_roundtrip.py [--blif my_circuit.blif]
"""

import argparse
import io

from repro.api import get_pipeline
from repro.benchgen import carry_lookahead_adder
from repro.network import check_equivalence, parse_blif, to_blif


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--blif", help="path to a combinational BLIF file")
    args = parser.parse_args()

    if args.blif:
        with open(args.blif) as stream:
            network = parse_blif(stream.read())
        print(f"read {args.blif}: {network.num_nodes} nodes")
    else:
        network = carry_lookahead_adder(16, name="cla16")
        text = to_blif(network)
        print(f"generated cla16 and round-tripped it through BLIF "
              f"({len(text.splitlines())} lines)")
        network = parse_blif(text)

    result = get_pipeline("bds-maj").run(network)
    print(
        f"BDS-MAJ: {result.total_nodes} nodes "
        f"{result.node_counts}, mapped to {result.timing.gate_count} cells, "
        f"{result.timing.area:.2f} um2, {result.timing.delay:.3f} ns"
    )

    optimized_blif = to_blif(result.optimized)
    reparsed = parse_blif(optimized_blif)
    verdict = check_equivalence(network, reparsed)
    print(f"optimized BLIF re-parsed and verified: {verdict.method} -> "
          f"{'equivalent' if verdict.equivalent else 'MISMATCH'}")
    buffer = io.StringIO()
    buffer.write(optimized_blif)
    print(f"(optimized netlist is {len(optimized_blif.splitlines())} BLIF lines)")


if __name__ == "__main__":
    main()
