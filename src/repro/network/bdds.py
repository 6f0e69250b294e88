"""Bridging networks and BDDs.

* :func:`cover_to_bdd` — a node's SOP cover as a BDD over given edges;
* :func:`global_bdds` — BDDs of the primary outputs of a (small)
  network, used for formal equivalence checking and by tests;
* :func:`supernode_bdd` — the local BDD of a partitioned supernode.
"""

from __future__ import annotations

from typing import Sequence

from ..bdd import BDD, DEFAULT_CACHE_CAPACITY
from .netlist import LogicNetwork, NetworkError, Node


class BddSizeExceeded(NetworkError):
    """Raised when a BDD construction crosses its node budget."""


def cover_to_bdd(
    mgr: BDD, node: Node, fanin_edges: Sequence[int], protect: bool = False
) -> int:
    """Build the BDD of ``node``'s local function; ``fanin_edges[i]`` is
    the BDD of fanin i.

    ``protect=True`` is the dynamic-reordering contract: the evolving
    OR accumulator is registered with :meth:`BDD.protect` while each
    product term is built, so a growth-triggered sift inside an apply
    kernel cannot collect it (the kernel's own operands are protected
    by the kernel; ``fanin_edges`` must already be protected by the
    caller).
    """
    result = mgr.ZERO
    for row in node.cover:
        term = mgr.ONE
        if protect:
            mgr.protect(result)
        try:
            for ch, edge in zip(row, fanin_edges):
                if ch == "1":
                    term = mgr.and_(term, edge)
                elif ch == "0":
                    term = mgr.and_(term, edge ^ 1)
                if term == mgr.ZERO:
                    break
        finally:
            if protect:
                mgr.unprotect(result)
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
    cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    dynamic_reorder: bool = False,
    reorder_threshold: int | None = None,
) -> tuple[BDD, int]:
    """Local BDD of the cone ``members`` rooted at ``output``.

    Signals outside ``members`` are treated as free variables in
    ``input_order``.  Raises :class:`BddSizeExceeded` past ``max_nodes``.
    ``cache_capacity`` bounds the manager's operation cache (see
    :class:`repro.bdd.OperationCache`).

    ``dynamic_reorder=True`` arms growth-triggered reordering during
    the construction itself (:meth:`BDD.enable_dynamic_reordering`):
    every held edge — the variable edges and each member's cone — is
    registered with :meth:`BDD.protect`, the apply kernels sift the
    store whenever it outgrows ``reorder_threshold`` (default: half the
    node budget, re-armed on a doubling schedule), and a build about to
    cross ``max_nodes`` gets one last-ditch converge sift before the
    guard raises — rescuing cones whose *ordered* size fits the budget
    even though the construction order's does not.  The returned
    manager has dynamic reordering disabled again (downstream
    decomposition holds unprotected edges).
    """
    mgr = BDD(list(input_order), cache_capacity=cache_capacity)
    if dynamic_reorder:
        if reorder_threshold is None:
            reorder_threshold = (
                max(2, max_nodes // 2) if max_nodes is not None else None
            )
        if reorder_threshold is not None:
            mgr.enable_dynamic_reordering(reorder_threshold)
    cache: dict[str, int] = {name: mgr.var(name) for name in input_order}
    if dynamic_reorder:
        for edge in cache.values():
            mgr.protect(edge)

    def over_budget() -> bool:
        """Budget check; on the dynamic path an overflowing store earns
        a rescue sift (over the protected registry — exactly the edges
        the build still holds) before the guard gives up.  One cheap
        single pass first; the full converge only when that was not
        enough — a build hovering at the budget pays one pass per
        overflow, not eight."""
        if max_nodes is None or mgr.live_nodes() <= max_nodes:
            return False
        if not dynamic_reorder:
            return True
        roots = mgr.protected_edges()
        mgr.sift(roots)
        if mgr.live_nodes() > max_nodes:
            mgr.sift_converge(roots)
        mgr.note_reordering()
        return mgr.live_nodes() > max_nodes

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
        edge = cover_to_bdd(
            mgr, node, [cache[f] for f in node.fanins], protect=dynamic_reorder
        )
        if dynamic_reorder:
            mgr.protect(edge)
        if over_budget():
            raise BddSizeExceeded(
                f"supernode BDD for {output!r} exceeded {max_nodes} nodes"
            )
        cache[name] = edge

    if dynamic_reorder:
        # Construction is done: ordinary root discipline resumes (the
        # partition layer GCs down to the cone root; decomposition holds
        # plain edges).  The reorder count survives on `mgr.reorderings`.
        mgr.disable_dynamic_reordering()
        mgr.clear_protected()
    return mgr, cache[output]
