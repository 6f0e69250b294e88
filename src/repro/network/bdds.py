"""Bridging networks and BDDs.

* :func:`cover_to_bdd` — a node's SOP cover as a BDD over given edges;
* :func:`global_bdds` — BDDs of the primary outputs of a (small)
  network, used for formal equivalence checking and by tests;
* :func:`supernode_bdd` — the local BDD of a partitioned supernode.
"""

from __future__ import annotations

from typing import Sequence

from ..bdd import BDD
from .netlist import LogicNetwork, NetworkError, Node


class BddSizeExceeded(NetworkError):
    """Raised when a BDD construction crosses its node budget."""


def cover_to_bdd(mgr: BDD, node: Node, fanin_edges: Sequence[int]) -> int:
    """Build the BDD of ``node``'s local function; ``fanin_edges[i]`` is
    the BDD of fanin i."""
    result = mgr.ZERO
    for row in node.cover:
        term = mgr.ONE
        for ch, edge in zip(row, fanin_edges):
            if ch == "1":
                term = mgr.and_(term, edge)
            elif ch == "0":
                term = mgr.and_(term, edge ^ 1)
            if term == mgr.ZERO:
                break
        result = mgr.or_(result, term)
        if result == mgr.ONE:
            break
    return result ^ 1 if node.inverted else result


def global_bdds(
    network: LogicNetwork,
    mgr: BDD | None = None,
    max_nodes: int | None = 200_000,
) -> tuple[BDD, dict[str, int]]:
    """Build BDDs for every primary output over the primary inputs.

    Intended for functional verification of small and medium circuits;
    raises :class:`BddSizeExceeded` when the manager grows beyond
    ``max_nodes`` (monolithic BDDs of e.g. multipliers are intractable —
    the very reason BDS partitions networks, Section IV.A).
    """
    if mgr is None:
        mgr = BDD(list(network.inputs))
    edges: dict[str, int] = {}
    for name in network.inputs:
        if name not in mgr.var_names:
            mgr.add_var(name)
        edges[name] = mgr.var(name)
    for name in network.topological_order():
        node = network.node(name)
        edges[name] = cover_to_bdd(mgr, node, [edges[f] for f in node.fanins])
        # Live, not ever-allocated: a caller that GC'd the manager
        # between outputs is charged only for what is still reachable.
        if max_nodes is not None and mgr.live_nodes() > max_nodes:
            raise BddSizeExceeded(
                f"global BDD exceeded {max_nodes} nodes at {name!r}"
            )
    return mgr, {output: edges[output] for output in network.outputs}


def supernode_bdd(
    network: LogicNetwork,
    output: str,
    members: set[str],
    input_order: Sequence[str],
    max_nodes: int | None = None,
) -> tuple[BDD, int]:
    """Local BDD of the cone ``members`` rooted at ``output``.

    Signals outside ``members`` are treated as free variables in
    ``input_order``.  Raises :class:`BddSizeExceeded` past ``max_nodes``.
    """
    mgr = BDD(list(input_order))
    cache: dict[str, int] = {name: mgr.var(name) for name in input_order}

    # Iterative post-order build: member chains can be thousands of
    # nodes deep (long single-fanout chains collapse into one cone).
    stack: list[tuple[str, bool]] = [(output, False)]
    while stack:
        name, expanded = stack.pop()
        if name in cache:
            continue
        if name not in members:
            raise NetworkError(
                f"supernode input {name!r} missing from input order"
            )
        node = network.node(name)
        if not expanded:
            stack.append((name, True))
            for fanin in node.fanins:
                if fanin not in cache:
                    stack.append((fanin, False))
            continue
        edge = cover_to_bdd(mgr, node, [cache[f] for f in node.fanins])
        if max_nodes is not None and mgr.live_nodes() > max_nodes:
            raise BddSizeExceeded(
                f"supernode BDD for {output!r} exceeded {max_nodes} nodes"
            )
        cache[name] = edge
    return mgr, cache[output]
