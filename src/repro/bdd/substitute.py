"""Structural BDD rewrites used by dominator-driven decomposition.

The BDS decomposition theory identifies a candidate node ``d`` inside
the BDD of ``F`` and conceptually cuts the graph there: the function
*below* is ``h = func(d)`` and the function *above* is obtained by
replacing references to ``d`` with a constant (or, in general, any
function).  :func:`replace_node` performs that rewrite, straight
through the unique table; dominator classification in
:mod:`repro.bdd.dominators` then certifies a decomposition with an
exact BDD equality check, whose AND/OR/XOR goes through the operation
cache and costs more than the rewrite.  On a root with at most 12
support levels the scan builds only the uppers its callers read (the
engine reads its winner's); above, the uppers of the identities its
path simulation does not refute.  :func:`cut_nodes` finds, in one pass,
the nodes on every root-to-terminal path: the only places an XOR
decomposition can be certified.

:func:`edge_statistics` computes per-node fan-in counts (regular /
complemented, 0-edge / 1-edge) needed by the m-dominator criteria of
BDS-MAJ Section III.B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .manager import BDD


def function_at(mgr: BDD, node_index: int) -> int:
    """Edge for the (positive-polarity) function rooted at ``node_index``."""
    return node_index << 1


def replace_node(mgr: BDD, root: int, node_index: int, replacement: int) -> int:
    """Rebuild ``root`` with every reference to ``node_index`` redirected
    to ``replacement`` (complement attributes on the references are
    honoured).

    With ``replacement`` a constant this computes the BDS "upper
    function" of a cut at ``node_index``; with an arbitrary function it
    performs functional substitution of the cut point.
    """
    if node_index == 0:
        raise ValueError("cannot replace the terminal node")
    node_level = mgr.node_fields(node_index)[0]
    cache: dict[int, int] = {}

    def walk(edge: int) -> int:
        complement = edge & 1
        index = edge >> 1
        if index == node_index:
            return replacement ^ complement
        rebuilt = cache.get(index)
        if rebuilt is None:
            level, high, low = mgr.node_fields(index)
            if level >= node_level:
                # Levels strictly increase along edges: nodes at or
                # below the replaced one (the terminal included) cannot
                # reach it.
                rebuilt = index << 1
            else:
                rebuilt = mgr._mk(level, walk(high), walk(low))  # bdslint: disable=ENG002 -- sanctioned friend module: substitution rebuilds nodes through the manager's hash-consing entry point
            cache[index] = rebuilt
        return rebuilt ^ complement

    return walk(root)


@dataclass
class NodeFanin:
    """Fan-in statistics of one BDD node (within a set of roots)."""

    regular_zero: int = 0
    complemented_zero: int = 0
    one: int = 0  # 1-edges are always regular in canonical form
    root_refs: int = 0

    @property
    def total(self) -> int:
        return self.regular_zero + self.complemented_zero + self.one + self.root_refs


@dataclass
class EdgeStatistics:
    """Per-node fan-in counts over the sub-DAG reachable from the roots."""

    fanin: dict[int, NodeFanin] = field(default_factory=dict)

    def of(self, node_index: int) -> NodeFanin:
        return self.fanin.setdefault(node_index, NodeFanin())


def edge_statistics(mgr: BDD, roots: list[int]) -> EdgeStatistics:
    """Count, for every internal node reachable from ``roots``, how many
    0-edges (regular vs complemented) and 1-edges point at it.

    Root references are tallied separately: the m-dominator fan-in
    conditions of the paper concern *internal* edges only.
    """
    stats = EdgeStatistics()
    for root in roots:
        index = root >> 1
        if index != 0:
            stats.of(index).root_refs += 1
    for index in mgr.nodes_reachable(roots):
        _, high, low = mgr.node_fields(index)
        high_index = high >> 1
        if high_index != 0:
            stats.of(high_index).one += 1
        low_index = low >> 1
        if low_index != 0:
            entry = stats.of(low_index)
            if low & 1:
                entry.complemented_zero += 1
            else:
                entry.regular_zero += 1
    return stats


def cut_nodes(mgr: BDD, root: int, nodes: list[int] | None = None) -> list[int]:
    """Nodes on *every* root-to-terminal path (both parities), sorted,
    root excluded, in one pass.

    Levels strictly increase along a path, so a path avoids node ``d``
    exactly when it crosses ``level(d)`` through another node there or
    along an edge that jumps over that level.  ``d`` is therefore a cut
    node iff it is the only reachable node at its level and no
    reachable edge jumps over it (the terminal counts as the last
    level).  Jumped-over levels are tallied with a difference array.
    ``nodes`` is ``mgr.nodes_reachable([root])``, when the caller holds
    it already.
    """
    if nodes is None:
        nodes = mgr.nodes_reachable([root])
    if not nodes:
        return []
    fields = [mgr.node_fields(index) for index in nodes]
    level_of = {index: level for index, (level, _, _) in zip(nodes, fields)}
    bottom = max(level_of.values()) + 1
    level_of[0] = bottom  # the terminal's row
    width = [0] * bottom  # reachable nodes per level
    jumps = [0] * (bottom + 1)  # difference array of edges spanning a level
    for level, high, low in fields:
        width[level] += 1
        jumps[level + 1] += 2
        jumps[level_of[high >> 1]] -= 1
        jumps[level_of[low >> 1]] -= 1
    spanning = list(accumulate(jumps))
    root_index = root >> 1
    return sorted(
        index
        for index, (level, _, _) in zip(nodes, fields)
        if index != root_index and width[level] == 1 and spanning[level] == 0
    )
