"""Oracles for the dominator scans of :mod:`repro.bdd.dominators`.

:func:`find_simple_decompositions` is the scan as it was before the
path simulation: every node is filtered only by the complement parities
with which paths reach it (one structural pass), and every identity the
parities allow is built with ``replace_node`` and certified by BDD
equality.  The XOR identity is tried at the cut nodes only.  The
production scan must return the same ``(kind, node, upper, lower)`` list
on the same manager.

:func:`path_dominators` states the parity-aware 0-/1-/x-dominator
classes by per-candidate reachability, the definition that
:func:`repro.bdd.cut_nodes` computes in one pass.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass, field

from repro.bdd import BDD, KIND_AND, KIND_OR, KIND_XOR, cut_nodes, function_at, replace_node
from repro.bdd.dominators import EVEN, ODD

Decomposition = tuple[str, int, int, int]


def reference_parities(mgr: BDD, root: int, nodes: list[int] | None = None) -> dict[int, int]:
    """For every internal node reachable from ``root``, the complement
    parities with which root-to-node paths reach it, as a mask of
    :data:`EVEN` and :data:`ODD`.  Parents are visited before children
    (by level), so one pass settles every mask."""
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


def classify_cut_node(
    mgr: BDD, root: int, node_index: int, cut: Container[int], parities: int
) -> Decomposition | None:
    """The first certified identity at ``node_index``, in the order
    AND(U1, h), AND(U0, h'), OR(U0, h), OR(U1, h'), XOR(U0, h): only
    ``U1·h`` and ``U0+h`` at even parity, only ``U0·h'`` and ``U1+h'``
    at odd parity, and XOR only at a cut node."""
    lower = function_at(mgr, node_index)
    upper_zero = None
    if parities == EVEN:
        upper_one = replace_node(mgr, root, node_index, mgr.ONE)
        if root == mgr.and_(upper_one, lower):
            return (KIND_AND, node_index, upper_one, lower)
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.or_(upper_zero, lower):
            return (KIND_OR, node_index, upper_zero, lower)
    elif parities == ODD:
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.and_(upper_zero, lower ^ 1):
            return (KIND_AND, node_index, upper_zero, lower ^ 1)
        upper_one = replace_node(mgr, root, node_index, mgr.ONE)
        if root == mgr.or_(upper_one, lower ^ 1):
            return (KIND_OR, node_index, upper_one, lower ^ 1)
    if node_index in cut:
        if upper_zero is None:
            upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.xor(upper_zero, lower):
            return (KIND_XOR, node_index, upper_zero, lower)
    return None


class _CutSet:
    """The cut nodes of ``root``, computed on the first membership test."""

    def __init__(self, mgr: BDD, root: int, reachable: list[int]) -> None:
        self._mgr = mgr
        self._root = root
        self._reachable = reachable
        self._nodes: set[int] | None = None

    def __contains__(self, node_index: object) -> bool:
        if self._nodes is None:
            self._nodes = set(cut_nodes(self._mgr, self._root, self._reachable))
        return node_index in self._nodes


def find_simple_decompositions(mgr: BDD, root: int) -> list[Decomposition]:
    """Every certified simple-dominator decomposition of ``root``, in
    :meth:`BDD.nodes_reachable` order, root excluded."""
    root_index = root >> 1
    nodes = mgr.nodes_reachable([root])
    cut = _CutSet(mgr, root, nodes)
    parities = reference_parities(mgr, root, nodes)
    result = []
    for node_index in nodes:
        if node_index == root_index:
            continue
        decomposition = classify_cut_node(mgr, root, node_index, cut, parities[node_index])
        if decomposition is not None:
            result.append(decomposition)
    return result


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
