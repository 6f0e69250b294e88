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

Most candidate identities fail, so the scan refutes them by simulation
first and proves only the survivors by BDD (the simulate-then-prove
pattern of Kuehlmann & Krohm, DAC 1997).  :func:`simulate_paths` makes
one bit-parallel pass per root over its reachable nodes; a column is an
int with one bit per stimulus.  Bottom-up it computes each node's
function ``h``; top-down, each node's ``through`` column (the stimuli
whose evaluation path passes the node: a node's high child gets
``through & var``, its low child ``through & ~var``) and the complement
parities of the paths reaching it.  A stimulus that avoids node ``d``
sees the same value in ``F`` and in both uppers ``U0``/``U1``; one that
passes ``d`` with parity ``c`` sees ``F = h ⊕ c`` and ``U1 = c'``,
``U0 = c``.  So with ``A = ~through[d]`` each identity holds exactly
when its column is 0:

* at even parity, ``F = U1·h`` needs ``A·F·h' = 0`` and ``F = U0+h``
  needs ``A·F'·h = 0``;
* at odd parity, ``F = U0·h'`` needs ``A·F·h = 0`` and ``F = U1+h'``
  needs ``A·F'·h' = 0``;
* ``F = U0⊕h`` needs ``A·h = 0``.

A node reached with both parities admits no AND/OR identity: along the
paths of the other parity the identity would force ``h`` constant.  The
XOR identity holds exactly at the cut nodes of
:func:`repro.bdd.substitute.cut_nodes` (nodes on every root-to-terminal
path): a path avoiding ``d`` is chosen by the variables above ``d``
alone, so ``A·h = 0`` with ``A ≠ 0`` would force ``h ≡ 0``.  The XNOR
form never holds for a reachable node.

A root with at most :data:`EXHAUSTIVE_LEVELS` support levels gets every
stimulus (columns of up to 4,096 bits), so the pass is exact and each
node needs at most one certification.  Beyond that the top levels stay
exhaustive and the deeper ones get fixed seeded columns; the pass then
only refutes, and certification decides.  Either way every returned
decomposition is certified.

It also provides :func:`xor_split`, the "balanced XOR decomposition"
primitive of BDS-MAJ's cyclic optimization (γ-phase, Theorem 3.4),
which derives the K and M functions from ``Fb ⊕ Fc``.  The γ-phase
runs it on truth tables (:func:`repro.core.majority.xor_split`) up to
:data:`EXHAUSTIVE_LEVELS` support levels and on BDDs above.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from ..truthtable import full_mask, node_tables, var_mask
from .manager import BDD
from .substitute import cut_nodes, function_at, replace_node

#: Decomposition kinds certified by this module.
KIND_AND = "and"
KIND_OR = "or"
KIND_XOR = "xor"

#: Bits of a parity mask: paths reach a node with an even or an odd
#: number of complement bits (the root edge's and the entering edge's
#: included).  Along a path of parity ``c`` the root computes
#: ``func(node) ⊕ c``.
EVEN = 1
ODD = 2

#: Support levels simulated exhaustively (2**12 = 4,096 stimuli).
EXHAUSTIVE_LEVELS = 12

#: Seed of the fixed stimulus columns of the deeper support levels.
DEEP_LEVEL_SEED = 1997

#: ``_VARIABLE_COLUMNS[k]``: the ``k`` exhaustive variable columns of a
#: root whose simulation covers ``k`` support levels.
_VARIABLE_COLUMNS = tuple(
    tuple(var_mask(position, k) for position in range(k)) for k in range(EXHAUSTIVE_LEVELS + 1)
)

#: Bits of a :func:`classify_cut_node` candidate mask, one per identity.
AND_ONE = 1  # F = U1·h
AND_ZERO = 2  # F = U0·h'
OR_ZERO = 4  # F = U0+h
OR_ONE = 8  # F = U1+h'
XOR_ZERO = 16  # F = U0⊕h


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


class PathSimulation(NamedTuple):
    """One bit-parallel pass over a root's reachable nodes.

    Every column has ``full``'s width.  ``root_value`` is the root's
    function; ``function``, ``through`` and ``parities`` map each
    internal node to its function, to the stimuli whose path passes it,
    and to its :data:`EVEN`/:data:`ODD` mask.
    """

    full: int
    root_value: int
    function: dict[int, int]
    through: dict[int, int]
    parities: dict[int, int]


def simulate_paths(mgr: BDD, root: int, nodes: list[int] | None = None) -> PathSimulation:
    """Simulate ``root`` on its stimuli (see the module docstring).

    The support levels are numbered top-down; the first
    :data:`EXHAUSTIVE_LEVELS` take the closed-form variable columns, the
    rest columns drawn from :data:`DEEP_LEVEL_SEED`.  Levels strictly
    increase along edges, so visiting nodes by level settles children
    first (bottom-up) or parents first (top-down).  ``nodes`` is
    ``mgr.nodes_reachable([root])``, when the caller holds it already.
    """
    if nodes is None:
        nodes = mgr.nodes_reachable([root])
    fields = [mgr.node_fields(index) for index in nodes]
    order = sorted(zip(fields, nodes))  # by level
    support = sorted({level for level, _, _ in fields})
    exact = min(len(support), EXHAUSTIVE_LEVELS)
    full = full_mask(exact)
    column = dict(zip(support, _VARIABLE_COLUMNS[exact]))
    if len(support) > exact:
        rng = random.Random(DEEP_LEVEL_SEED)
        for level in support[exact:]:
            column[level] = rng.getrandbits(1 << exact)

    function = node_tables(order, column, full)

    root_index = root >> 1
    through = {root_index: full}
    parities = {root_index: ODD if root & 1 else EVEN}
    for (level, high, low), index in order:
        path = through[index]
        taken = path & column[level]
        mask = parities[index]
        high >>= 1
        through[high] = through.get(high, 0) | taken
        parities[high] = parities.get(high, 0) | mask
        if low & 1:
            mask = (mask & EVEN) << 1 | mask >> 1
        low >>= 1
        through[low] = through.get(low, 0) | path ^ taken
        parities[low] = parities.get(low, 0) | mask
    root_value = function[root_index] ^ (full if root & 1 else 0)
    for column_of in (function, through, parities):
        column_of.pop(0, None)  # the terminal
    return PathSimulation(full, root_value, function, through, parities)


def classify_cut_node(
    mgr: BDD, root: int, node_index: int, candidates: int
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

    ``candidates`` is a mask of :data:`AND_ONE`, :data:`AND_ZERO`,
    :data:`OR_ZERO`, :data:`OR_ONE` and :data:`XOR_ZERO`: the identities
    that :func:`simulate_paths` did not refute.  Only those are built.

    Returns the first certified decomposition, in the order AND(U1, h),
    AND(U0, h'), OR(U0, h), OR(U1, h'), XOR(U0, h), or ``None``.
    """
    lower = function_at(mgr, node_index)
    upper_one = upper_zero = None
    if candidates & AND_ONE:
        upper_one = replace_node(mgr, root, node_index, mgr.ONE)
        if root == mgr.and_(upper_one, lower):
            return DominatorDecomposition(KIND_AND, node_index, upper_one, lower)
    if candidates & AND_ZERO:
        upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.and_(upper_zero, lower ^ 1):
            return DominatorDecomposition(KIND_AND, node_index, upper_zero, lower ^ 1)
    if candidates & OR_ZERO:
        if upper_zero is None:
            upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.or_(upper_zero, lower):
            return DominatorDecomposition(KIND_OR, node_index, upper_zero, lower)
    if candidates & OR_ONE:
        if upper_one is None:
            upper_one = replace_node(mgr, root, node_index, mgr.ONE)
        if root == mgr.or_(upper_one, lower ^ 1):
            return DominatorDecomposition(KIND_OR, node_index, upper_one, lower ^ 1)
    if candidates & XOR_ZERO:
        if upper_zero is None:
            upper_zero = replace_node(mgr, root, node_index, mgr.ZERO)
        if root == mgr.xor(upper_zero, lower):
            return DominatorDecomposition(KIND_XOR, node_index, upper_zero, lower)
    return None


def find_simple_decompositions(mgr: BDD, root: int) -> list[DominatorDecomposition]:
    """All certified simple-dominator decompositions of ``root``.

    With complemented edges the BDD has a *single* terminal, so the
    classical "every path to terminal 1 passes through d" condition of
    a 1-dominator is parity-dependent (a path's value is the parity of
    its complement bits).  Every internal node below the root is
    classified and the claimed identity certified by BDD equality — the
    certified set is exactly the set of nodes whose substitution yields
    a valid AND/OR/XOR split, which subsumes the parity-aware
    0-/1-/x-dominator definitions.  One :func:`simulate_paths` pass
    refutes the identities that cannot hold; a refuted identity never
    holds, so the filter never changes the result.
    """
    nodes = mgr.nodes_reachable([root])
    full, root_value, function, through, parities = simulate_paths(mgr, root, nodes)
    result = []
    for node_index in nodes[1:]:  # nodes[0] is the root
        avoiding = full ^ through[node_index]
        ones = avoiding & root_value  # A·F
        zeros = avoiding ^ ones  # A·F'
        h = function[node_index]
        ones_h = ones & h
        zeros_h = zeros & h
        candidates = 0 if ones_h or zeros_h else XOR_ZERO
        reached = parities[node_index]
        if reached == EVEN:
            if ones_h == ones:
                candidates |= AND_ONE
            if not zeros_h:
                candidates |= OR_ZERO
        elif reached == ODD:
            if not ones_h:
                candidates |= AND_ZERO
            if zeros_h == zeros:
                candidates |= OR_ONE
        if candidates:
            decomposition = classify_cut_node(mgr, root, node_index, candidates)
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

    :func:`repro.core.majority.xor_split` is this function on truth
    tables, with the same candidates in the same order; the γ-phase
    calls this one only for functions over more than
    :data:`EXHAUSTIVE_LEVELS` support levels.
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
