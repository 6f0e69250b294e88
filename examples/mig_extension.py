#!/usr/bin/env python3
"""From BDS-MAJ to Majority-Inverter Graphs — the paper's legacy.

BDS-MAJ (DAC'13) introduced BDD-driven majority decomposition; its
authors' follow-up work turned the idea into a full logic
representation, the MIG (DAC'14).  This example connects the two:

1. a carry-lookahead adder is decomposed by the BDS-MAJ engine;
2. the resulting factoring trees are re-expressed as a MIG, where the
   discovered MAJ nodes become native majority nodes;
3. MIG algebraic rewriting (the Omega axioms) reduces depth;
4. the MIG round-trips back to a verified gate-level network.

Run:  python examples/mig_extension.py
"""

from repro.api import get_pipeline
from repro.benchgen import carry_lookahead_adder
from repro.mig import mig_to_network, network_to_mig, rewrite_depth, trees_to_mig
from repro.network import check_equivalence


def main() -> None:
    network = carry_lookahead_adder(16, name="cla16")
    print(f"input: {network.name}, {network.num_nodes} SOP nodes")

    # Run the BDS-MAJ optimization and capture the factoring trees.
    ctx = get_pipeline("bds-maj").optimize_prefix().run_context(network)
    builder, roots = ctx.scratch["builder"], ctx.scratch["roots"]
    print(f"BDS-MAJ decomposition: {ctx.node_counts}")

    # Trees -> MIG: MAJ nodes become native majorities.
    mig = trees_to_mig(builder, roots, list(network.inputs))
    print(f"as MIG: {mig.size()} majority nodes, depth {mig.depth()}")

    # Compare against the naive translation of the *original* network.
    naive = network_to_mig(network)
    print(f"naive network->MIG: {naive.size()} nodes, depth {naive.depth()}")

    # Algebraic depth rewriting (Omega.A).
    shallower = rewrite_depth(mig, passes=4)
    print(f"after Omega rewriting: {shallower.size()} nodes, depth {shallower.depth()}")

    # Round-trip and verify: attach the original outputs.
    back = mig_to_network(shallower, name=network.name)
    # mig outputs were added per supernode root; restrict to POs.
    verdict = check_equivalence(network, _project(back, network))
    print(f"verified against the original adder: {verdict.method} -> "
          f"{'equivalent' if verdict.equivalent else 'MISMATCH'}")


def _project(mig_network, reference):
    """Keep only the reference's primary outputs (the MIG carries every
    supernode root as an output)."""
    from repro.network import LogicNetwork

    projected = LogicNetwork(mig_network.name)
    for name in mig_network.inputs:
        projected.add_input(name)
    for name in mig_network.node_names:
        node = mig_network.node(name)
        projected.add_node(node.name, node.fanins, node.cover, node.inverted)
    for output in reference.outputs:
        projected.add_output(output)
    projected.sweep_dangling()
    return projected


if __name__ == "__main__":
    main()
