"""Structural BDD rewrites used by dominator-driven decomposition.

The BDS decomposition theory identifies a candidate node ``d`` inside
the BDD of ``F`` and conceptually cuts the graph there: the function
*below* is ``h = func(d)`` and the function *above* is obtained by
replacing references to ``d`` with a constant (or, in general, any
function).  :func:`replace_node` performs that rewrite; dominator
classification in :mod:`repro.bdd.dominators` then certifies candidate
decompositions with exact BDD equality checks.  :func:`cut_nodes`
finds, in one pass, the nodes on every root-to-terminal path: the only
places an XOR decomposition can be certified.  :func:`reference_parities`
finds, in one pass, the complement parities with which paths reach each
node, which rule out most AND/OR identities before they are built.

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


@dataclass
class PathDominators:
    """Structural dominator sets of a BDD root (node indices).

    In a complemented-edge BDD there is a single terminal and the
    *value* of a root-to-terminal path is the parity of the complement
    bits along it (even parity = 1).  The classical BDS dominator
    classes therefore become parity conditions:

    * ``to_one`` — 1-dominators: every even-parity (value-1) path
      passes through the node (AND-decomposition candidates);
    * ``to_zero`` — 0-dominators: every odd-parity (value-0) path
      passes through the node (OR-decomposition candidates);
    * ``all_paths`` — nodes on every path regardless of parity
      (x-dominator candidates).
    """

    to_one: set[int] = field(default_factory=set)
    to_zero: set[int] = field(default_factory=set)

    @property
    def all_paths(self) -> set[int]:
        return self.to_one & self.to_zero


def path_dominators(mgr: BDD, root: int) -> PathDominators:
    """Compute parity-aware dominator sets for ``root``.

    Uses per-candidate reachability over (node, parity) states; the
    BDDs handled here are small (network partitioning caps their size),
    so the O(N^2) formulation is acceptable and obviously correct.
    """
    result = PathDominators()
    root_index = root >> 1
    if root_index == 0:
        return result
    for candidate in mgr.nodes_reachable([root]):
        if candidate == root_index:
            continue
        reachable = _terminal_parities_avoiding(mgr, root, candidate)
        if 0 not in reachable:
            result.to_one.add(candidate)
        if 1 not in reachable:
            result.to_zero.add(candidate)
    return result


#: Bits of a :func:`reference_parities` mask.
EVEN = 1
ODD = 2


def reference_parities(mgr: BDD, root: int, nodes: list[int] | None = None) -> dict[int, int]:
    """For every internal node reachable from ``root``, the complement
    parities with which root-to-node paths reach it, as a mask of
    :data:`EVEN` and :data:`ODD`.

    A path's parity counts the complement bits on its edges, the root
    edge's and the edge entering the node included: along a path of
    parity ``c`` the root computes ``func(node) ⊕ c``.  Parents are
    visited before children (by level), so one pass settles every mask.
    ``nodes`` is ``mgr.nodes_reachable([root])``, when the caller holds
    it already.
    """
    if nodes is None:
        nodes = mgr.nodes_reachable([root])
    fields = {index: mgr.node_fields(index) for index in nodes}
    reached = {root >> 1: ODD if root & 1 else EVEN}
    for index in sorted(nodes, key=lambda node: fields[node][0]):
        mask = reached[index]
        _, high, low = fields[index]
        reached[high >> 1] = reached.get(high >> 1, 0) | mask
        if low & 1:
            mask = (mask & EVEN) << 1 | mask >> 1
        reached[low >> 1] = reached.get(low >> 1, 0) | mask
    reached.pop(0, None)
    return reached


def cut_nodes(mgr: BDD, root: int, nodes: list[int] | None = None) -> list[int]:
    """Nodes on *every* root-to-terminal path (both parities), sorted,
    root excluded: ``sorted(path_dominators(mgr, root).all_paths)`` in
    one pass.

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


def _terminal_parities_avoiding(mgr: BDD, root: int, banned: int) -> set[int]:
    """Parities (0 = value 1, 1 = value 0) of root-to-terminal paths
    that avoid node ``banned``."""
    seen: set[tuple[int, int]] = set()
    found: set[int] = set()
    stack = [(root >> 1, root & 1)]
    while stack:
        index, parity = stack.pop()
        if index == banned:
            continue
        if index == 0:
            found.add(parity)
            if len(found) == 2:
                break
            continue
        if (index, parity) in seen:
            continue
        seen.add((index, parity))
        _, high, low = mgr.node_fields(index)
        stack.append((high >> 1, parity ^ (high & 1)))
        stack.append((low >> 1, parity ^ (low & 1)))
    return found
