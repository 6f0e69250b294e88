"""BDS-style dominator analysis on BDDs.

BDS (Yang & Ciesielski, the paper's reference [10]) drives logic
decomposition with special node classes:

* **1-dominators** — every path from the root to terminal 1 passes
  through them; they certify a conjunctive (AND) decomposition.
* **0-dominators** — dual, certifying a disjunctive (OR) decomposition.
* **x-dominators** — certifying an XOR decomposition.

Candidates are certified *functionally*: the upper function is built by
replacing the candidate with a constant and the claimed identity
(``F = g·h``, ``F = g+h`` or ``F = g⊕h``) is checked by canonical BDD
equality.  A certified decomposition is correct by construction, so
subtle interactions with complemented edges cannot produce wrong
decompositions.

The XOR identity ``F == F[d:=0] ⊕ func(d)`` holds exactly at the cut
nodes of :func:`repro.bdd.substitute.cut_nodes` (nodes on every
root-to-terminal path).  A path through ``d`` arriving with parity
``p`` computes ``p ⊕ h`` where ``F[d:=0]`` computes ``p``; a path
avoiding ``d`` is chosen by the variables above ``d`` alone, so the
identity there would force ``h ≡ 0``.  The XNOR form never holds for a
reachable node.  XOR candidates are therefore only the cut nodes, found
in one structural pass; each is still certified.

It also provides :func:`xor_split`, the "balanced XOR decomposition"
primitive that BDS-MAJ's cyclic optimization (γ-phase, Theorem 3.4)
uses to derive the K and M functions from ``Fb ⊕ Fc``.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass

from .manager import BDD
from .substitute import (
    EVEN,
    ODD,
    cut_nodes,
    function_at,
    reference_parities,
    replace_node,
)

#: Decomposition kinds certified by this module.
KIND_AND = "and"
KIND_OR = "or"
KIND_XOR = "xor"


@dataclass(frozen=True)
class DominatorDecomposition:
    """A certified simple-dominator decomposition ``F = upper <op> lower``.

    ``node`` is the dominator's node index in the source manager;
    ``upper`` and ``lower`` are edges in the same manager.
    """

    kind: str
    node: int
    upper: int
    lower: int

    def describe(self, mgr: BDD) -> str:
        op = {KIND_AND: "AND", KIND_OR: "OR", KIND_XOR: "XOR"}[self.kind]
        return (
            f"{op} decomposition at node {self.node}: "
            f"|upper|={mgr.size(self.upper)} |lower|={mgr.size(self.lower)}"
        )


def classify_cut_node(
    mgr: BDD, root: int, node_index: int, cut: Container[int], parities: int
) -> DominatorDecomposition | None:
    """Certify the decomposition induced by ``node_index`` in ``root``.

    Conceptually the node is replaced by a fresh variable ``y`` giving
    an upper function ``U`` with ``F = U[y := h]`` where ``h`` is the
    function rooted at the node.  The decomposition kinds correspond to
    ``U`` being ``g·y``, ``g·y'``, ``g+y``, ``g+y'`` or ``g⊕y`` — the
    primed forms arise because, with complemented edges, a node can be
    reached along paths of odd parity, so ``h`` may participate
    complemented.  Each candidate identity is certified by canonical BDD
    equality; complement variants are folded into ``lower``.

    ``parities`` is the node's :func:`reference_parities` mask, and it
    rules most identities out unchecked.  Along a path of parity ``c``
    into the node, ``F = h ⊕ c`` while ``U1 = c'`` and ``U0 = c`` (the
    uppers with the node replaced by ONE and by ZERO).  The variables
    below the node are free on such a path, so an identity that forces
    a constant there forces ``h`` constant: only ``U1·h`` and ``U0+h``
    can hold at even parity, only ``U0·h'`` and ``U1+h'`` at odd
    parity, and no AND/OR identity at a node reached with both.

    ``cut`` holds ``root``'s cut nodes (:func:`cut_nodes`): the XOR
    identity can only hold there, so its ``xor`` build is skipped for
    other nodes.  It is only consulted when no AND/OR identity holds.

    Returns the first certified decomposition, in the order AND(U1, h),
    AND(U0, h'), OR(U0, h), OR(U1, h'), XOR(U0, h), or ``None``.
    """
    lower = function_at(mgr, node_index)
    upper_zero = None
    if parities == EVEN:
        upper_one = replace_node(mgr, root, node_index, mgr.ONE)
        if root == mgr.and_(upper_one, lower):
            return DominatorDecomposition(KIND_AND, node_index, upper_one, lower)
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.or_(upper_zero, lower):
            return DominatorDecomposition(KIND_OR, node_index, upper_zero, lower)
    elif parities == ODD:
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.and_(upper_zero, lower ^ 1):
            return DominatorDecomposition(KIND_AND, node_index, upper_zero, lower ^ 1)
        upper_one = replace_node(mgr, root, node_index, mgr.ONE)
        if root == mgr.or_(upper_one, lower ^ 1):
            return DominatorDecomposition(KIND_OR, node_index, upper_one, lower ^ 1)
    if node_index in cut:
        if upper_zero is None:
            upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.xor(upper_zero, lower):
            return DominatorDecomposition(KIND_XOR, node_index, upper_zero, lower)
    return None


class _CutSet:
    """The cut nodes of ``root``, computed on the first membership test:
    most roots of AND/OR-heavy logic certify every node as AND or OR
    and never ask.  ``reachable`` is ``root``'s reachable node list."""

    def __init__(self, mgr: BDD, root: int, reachable: list[int]) -> None:
        self._mgr = mgr
        self._root = root
        self._reachable = reachable
        self._nodes: set[int] | None = None

    def __contains__(self, node_index: object) -> bool:
        if self._nodes is None:
            self._nodes = set(cut_nodes(self._mgr, self._root, self._reachable))
        return node_index in self._nodes


def find_simple_decompositions(mgr: BDD, root: int) -> list[DominatorDecomposition]:
    """All certified simple-dominator decompositions of ``root``.

    With complemented edges the BDD has a *single* terminal, so the
    classical "every path to terminal 1 passes through d" condition of
    a 1-dominator is parity-dependent (a path's value is the parity of
    its complement bits).  Every internal node below the root is
    classified and the claimed identity certified by BDD equality — the
    certified set is exactly the set of nodes whose substitution yields
    a valid AND/OR/XOR split, which subsumes the parity-aware
    0-/1-/x-dominator definitions.  The parities with which paths reach
    each node (:func:`reference_parities`, one pass) only skip the
    identities that cannot hold, so they never change the result.
    """
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


def best_simple_decomposition(
    mgr: BDD, root: int, candidates: list[DominatorDecomposition] | None = None
) -> DominatorDecomposition | None:
    """Pick the most balanced certified decomposition (BDS favours
    splits whose two halves have similar BDD sizes, which keeps the
    factoring tree shallow)."""
    if candidates is None:
        candidates = find_simple_decompositions(mgr, root)
    best = None
    best_score = None
    total = mgr.size(root)
    for decomposition in candidates:
        upper_size = mgr.size(decomposition.upper)
        lower_size = mgr.size(decomposition.lower)
        if upper_size >= total or lower_size >= total:
            continue  # no structural progress; would not terminate
        score = (max(upper_size, lower_size), upper_size + lower_size)
        if best_score is None or score < best_score:
            best = decomposition
            best_score = score
    return best


def simple_dominator_nodes(mgr: BDD, root: int) -> set[int]:
    """Node indices that act as simple 0-, 1- or x-dominators of ``root``.

    Used by the m-dominator filter: BDS-MAJ's condition (i) excludes
    these nodes from majority candidates because they already certify a
    cheaper radix-2 decomposition.
    """
    return {
        decomposition.node for decomposition in find_simple_decompositions(mgr, root)
    }


def find_xor_decompositions(
    mgr: BDD, root: int, nodes: list[int] | None = None
) -> list[DominatorDecomposition]:
    """XOR-only variant of :func:`find_simple_decompositions`.

    The balancing phase of the majority optimization only needs XOR
    splits, and it runs inside Algorithm 1's innermost loop.  Only the
    cut nodes can certify (see the module docstring), so each of them,
    in :meth:`BDD.nodes_reachable` order, gets one ``replace_node`` and
    one ``xor``; the scan is linear plus that work per cut node.
    ``nodes`` is ``mgr.nodes_reachable([root])``, when the caller holds
    it already.
    """
    if nodes is None:
        nodes = mgr.nodes_reachable([root])
    cut = set(cut_nodes(mgr, root, nodes))
    result = []
    for node_index in nodes:
        if node_index not in cut:
            continue
        lower = function_at(mgr, node_index)
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.xor(upper_zero, lower):
            result.append(
                DominatorDecomposition(KIND_XOR, node_index, upper_zero, lower)
            )
    return result


# ----------------------------------------------------------------------
# Balanced XOR splitting (used by the γ optimization phase)
# ----------------------------------------------------------------------
def xor_split(mgr: BDD, f: int, max_dominator_nodes: int = 150) -> tuple[int, int]:
    """Split ``f`` into ``(M, K)`` with ``M ⊕ K == f``, preferring a
    balanced pair (similar BDD sizes, both smaller than ``f``).

    Candidates are scored by ``(max size, |size difference|)``; the
    first one with the lowest score wins.  In order:

    1. x-dominator decompositions of ``f`` (disjoint XOR splits), only
       while ``f`` has at most ``max_dominator_nodes`` nodes.  The scan
       is linear, so the cap does not bound runtime; it decides which
       candidates compete, and so the results;
    2. the disjoint variable split ``f = (v·f|v) ⊕ (v'·f|v')`` for
       every variable ``v`` of the support, in level order.  These are
       scored with :meth:`BDD.variable_split`, and only the winner's
       two products are built.

    A constant ``f`` splits trivially into ``(f, 0)``.
    """
    if mgr.is_constant(f):
        return f, mgr.ZERO

    # ``best_pair`` is (M, K), or the winning variable's cofactors
    # (f|v, f|v') when ``best_level`` is set.
    best_pair = (f, mgr.ZERO)
    best_level: int | None = None
    best_score: tuple[int, int] | None = None

    def consider(pair: tuple[int, int], m_size: int, k_size: int, level: int | None) -> None:
        nonlocal best_pair, best_level, best_score
        score = (max(m_size, k_size), abs(m_size - k_size))
        if best_score is None or score < best_score:
            best_pair, best_level, best_score = pair, level, score

    # One reachability walk gives the size, the x-dominator scan's
    # nodes and the support.
    nodes = mgr.nodes_reachable([f])
    if len(nodes) <= max_dominator_nodes:
        for decomposition in find_xor_decompositions(mgr, f, nodes):
            m, k = decomposition.upper, decomposition.lower
            consider((m, k), mgr.size(m), mgr.size(k), None)

    for level in sorted({mgr.node_fields(index)[0] for index in nodes}):
        high, low, high_size, low_size = mgr.variable_split(f, level)
        consider((high, low), high_size, low_size, level)

    if best_level is None:
        return best_pair
    variable = mgr.var_at(best_level)
    high, low = best_pair
    return mgr.and_(variable, high), mgr.and_(variable ^ 1, low)
