#!/usr/bin/env python3
"""Random control logic: the AND/OR-intensive side of the comparison.

The paper claims BDS-MAJ handles random control logic well *too* (the
majority decomposition also restructures AND/OR-heavy functions).  This
example synthesizes a PLA-style control block and a random gate-level
controller and reports how often the majority step fires outside of
datapath circuits.

Run:  python examples/control_logic.py
"""

from repro.api import get_pipeline
from repro.benchgen import random_control_network, random_pla_network


def main() -> None:
    circuits = [
        random_pla_network("pla_ctl", num_inputs=14, num_outputs=10, num_terms=90, seed=7),
        random_control_network("gate_ctl", num_inputs=24, num_outputs=12, num_nodes=220, seed=9),
    ]
    for network in circuits:
        print(f"== {network.name}: {network.num_nodes} nodes ==")
        ctx = get_pipeline("bds-maj").run_context(network)
        trace = ctx.scratch["trace"]
        print(
            f"   decomposition steps: {trace.majority_steps} MAJ, "
            f"{trace.and_or_steps} AND/OR, {trace.xor_steps} XOR, "
            f"{trace.mux_steps} MUX"
        )
        with_maj = ctx.to_result()
        without = get_pipeline("bds-pga").run(network)
        print(
            f"   BDS-MAJ {with_maj.total_nodes} nodes "
            f"({with_maj.node_counts.get('maj', 0)} MAJ) vs "
            f"BDS-PGA {without.total_nodes} nodes"
        )
        area_maj, _, delay_maj = with_maj.table2_row()
        area_pga, _, delay_pga = without.table2_row()
        print(
            f"   mapped: {area_maj:.2f} um2 / {delay_maj:.3f} ns vs "
            f"{area_pga:.2f} um2 / {delay_pga:.3f} ns"
        )
        assert with_maj.equivalence.equivalent and without.equivalence.equivalent


if __name__ == "__main__":
    main()
