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
``through & var``, its low child ``through & ~var``), its
``odd_through`` column (those of them whose path reaches it with odd
parity) and the complement parities of the paths reaching it.  A
stimulus that avoids node ``d`` sees the same value in ``F`` and in both
uppers ``U0``/``U1``; one that passes ``d`` with parity ``c`` sees
``F = h ⊕ c`` and ``U1 = c'``, ``U0 = c``.  So with ``A = ~through[d]`` each identity holds exactly
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
stimulus (columns of up to 4,096 bits, in
:func:`~repro.truthtable.level_columns` order), so the pass is exact:
an identity it does not refute holds.  At most one holds at a
non-root node: XOR holds only at a cut node, which a non-root node
reaches with both parities, ruling out AND/OR; and both of a parity's
AND/OR pair would make the root's cofactor along an avoiding path equal
``h``, though that cofactor is another node.  So these identities rest
on the simulation alone.  The scan reads each one's upper table off the
columns (``F + through`` for AND, ``F·through'`` for OR,
``F·through' + odd_through`` for XOR) and sizes it with
:func:`~repro.truthtable.bdd_size`, so :func:`best_simple_decomposition`
ranks the splits unbuilt.  The BDD certificate runs when a caller reads
a decomposition's ``upper``: :func:`~repro.bdd.substitute.replace_node`
builds it and canonical equality checks the identity, raising
:class:`~repro.bdd.manager.BDDError` if it fails.  The engine reads only
the winner's.  Beyond 12 levels the top levels stay exhaustive and the
deeper ones get fixed seeded columns; the pass then only refutes, and
:func:`classify_cut_node` builds and certifies every survivor during
the scan.  Either way every upper a caller reads is certified.

It also provides :func:`xor_split`, the "balanced XOR decomposition"
primitive of BDS-MAJ's cyclic optimization (γ-phase, Theorem 3.4),
which derives the K and M functions from ``Fb ⊕ Fc``.  The γ-phase
runs it on truth tables (:func:`repro.core.majority.xor_split`) up to
:data:`EXHAUSTIVE_LEVELS` support levels and on BDDs above.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from ..truthtable import bdd_size, full_mask, level_columns, node_tables
from .manager import BDD, BDDError
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

#: Bits of a :func:`classify_cut_node` candidate mask, one per identity.
AND_ONE = 1  # F = U1·h
AND_ZERO = 2  # F = U0·h'
OR_ZERO = 4  # F = U0+h
OR_ONE = 8  # F = U1+h'
XOR_ZERO = 16  # F = U0⊕h

#: The identities in certification order: bit, kind, whether the upper
#: replaces the node by ONE (``U1``) rather than ZERO (``U0``), and
#: whether the lower is ``h'``.
_IDENTITIES = (
    (AND_ONE, KIND_AND, True, False),
    (AND_ZERO, KIND_AND, False, True),
    (OR_ZERO, KIND_OR, False, False),
    (OR_ONE, KIND_OR, True, True),
    (XOR_ZERO, KIND_XOR, False, False),
)
_IDENTITY = {bit: (kind, one, negated) for bit, kind, one, negated in _IDENTITIES}
_APPLY = {KIND_AND: BDD.and_, KIND_OR: BDD.or_, KIND_XOR: BDD.xor}


class DominatorDecomposition:
    """A certified simple-dominator decomposition ``F = upper <op> lower``.

    ``node`` is the dominator's node index in the source manager;
    ``upper`` and ``lower`` are edges in the same manager.
    """

    def __init__(self, kind: str, node: int, upper: int | None, lower: int) -> None:
        self.kind = kind
        self.node = node
        self.lower = lower
        self._upper = upper

    @property
    def upper(self) -> int:
        assert self._upper is not None
        return self._upper

    def sizes(self, mgr: BDD) -> tuple[int, int]:
        """BDD sizes of ``upper`` and ``lower``."""
        return mgr.size(self.upper), mgr.size(self.lower)


class _SimulatedDecomposition(DominatorDecomposition):
    """A decomposition that an exact :func:`simulate_paths` pass decided.

    Its upper's size is read off the upper's truth table; the upper
    itself is built (``root`` with ``node`` replaced by a constant) and
    the identity certified by BDD equality on the first read of
    :attr:`upper`, which raises :class:`BDDError` if the certificate
    fails.
    """

    def __init__(
        self, mgr: BDD, root: int, node: int, identity: int, upper_table: int, num_vars: int
    ) -> None:
        kind, one, negated = _IDENTITY[identity]
        super().__init__(kind, node, None, function_at(mgr, node) ^ negated)
        self._mgr = mgr
        self._root = root
        self._replacement = mgr.ONE if one else mgr.ZERO
        self._upper_table = upper_table
        self._num_vars = num_vars

    @property
    def upper(self) -> int:
        if self._upper is None:
            mgr, root = self._mgr, self._root
            upper = replace_node(mgr, root, self.node, self._replacement)
            if root != _APPLY[self.kind](mgr, upper, self.lower):
                raise BDDError(
                    f"{self.kind} identity at node {self.node} fails its BDD certificate"
                )
            self._upper = upper
        return self._upper

    def sizes(self, mgr: BDD) -> tuple[int, int]:
        return bdd_size(self._upper_table, self._num_vars), mgr.size(self.lower)


class PathSimulation(NamedTuple):
    """One bit-parallel pass over a root's reachable nodes.

    Every column has ``full``'s width: one bit per minterm of the
    ``num_vars`` simulated support levels, in
    :func:`~repro.truthtable.level_columns` order.  ``exact`` says
    those are all of the root's support levels.  ``root_value`` is the
    root's function; ``function``, ``through``, ``odd_through`` and
    ``parities`` map each internal node to its function, to the stimuli
    whose path passes it, to those of them whose path reaches it with
    odd parity, and to its :data:`EVEN`/:data:`ODD` mask.
    """

    full: int
    num_vars: int
    exact: bool
    root_value: int
    function: dict[int, int]
    through: dict[int, int]
    odd_through: dict[int, int]
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
    num_vars = min(len(support), EXHAUSTIVE_LEVELS)
    full = full_mask(num_vars)
    column = dict(zip(support, level_columns(num_vars)))
    if len(support) > num_vars:
        rng = random.Random(DEEP_LEVEL_SEED)
        for level in support[num_vars:]:
            column[level] = rng.getrandbits(1 << num_vars)

    function = node_tables(order, column, full)

    root_index = root >> 1
    through = {root_index: full}
    odd_through = {root_index: full if root & 1 else 0}
    parities = {root_index: ODD if root & 1 else EVEN}
    for (level, high, low), index in order:
        path = through[index]
        odd_path = odd_through[index]
        variable = column[level]
        taken = path & variable
        odd_taken = odd_path & variable
        mask = parities[index]
        high >>= 1
        through[high] = through.get(high, 0) | taken
        odd_through[high] = odd_through.get(high, 0) | odd_taken
        parities[high] = parities.get(high, 0) | mask
        path ^= taken
        odd_path ^= odd_taken
        if low & 1:
            mask = (mask & EVEN) << 1 | mask >> 1
            odd_path ^= path
        low >>= 1
        through[low] = through.get(low, 0) | path
        odd_through[low] = odd_through.get(low, 0) | odd_path
        parities[low] = parities.get(low, 0) | mask
    root_value = function[root_index] ^ (full if root & 1 else 0)
    for column_of in (function, through, odd_through, parities):
        column_of.pop(0, None)  # the terminal
    exact = len(support) == num_vars
    return PathSimulation(
        full, num_vars, exact, root_value, function, through, odd_through, parities
    )


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
    uppers: dict[bool, int] = {}
    for identity, kind, one, negated in _IDENTITIES:
        if candidates & identity:
            upper = uppers.get(one)
            if upper is None:
                upper = replace_node(mgr, root, node_index, mgr.ONE if one else mgr.ZERO)
                uppers[one] = upper
            lower = function_at(mgr, node_index) ^ negated
            if root == _APPLY[kind](mgr, upper, lower):
                return DominatorDecomposition(kind, node_index, upper, lower)
    return None


def find_simple_decompositions(mgr: BDD, root: int) -> list[DominatorDecomposition]:
    """All certified simple-dominator decompositions of ``root``.

    With complemented edges the BDD has a *single* terminal, so the
    classical "every path to terminal 1 passes through d" condition of
    a 1-dominator is parity-dependent (a path's value is the parity of
    its complement bits).  Every internal node below the root is
    classified — the result is exactly the set of nodes whose
    substitution yields a valid AND/OR/XOR split, which subsumes the
    parity-aware 0-/1-/x-dominator definitions.  One
    :func:`simulate_paths` pass refutes the identities that cannot hold;
    a refuted identity never holds, so the filter never changes the
    result.

    When the pass is exact, an identity it does not refute holds, so
    the lowest one is the one :func:`classify_cut_node` would certify:
    it is returned unbuilt, with its upper's table (``F + through`` for
    AND, ``F·through'`` for OR, ``F·through' + odd_through`` for XOR),
    and is built and certified when its ``upper`` is read.  Otherwise
    :func:`classify_cut_node` certifies the survivors.
    """
    nodes = mgr.nodes_reachable([root])
    simulation = simulate_paths(mgr, root, nodes)
    full, num_vars, exact, root_value, function, through, odd_through, parities = simulation
    result: list[DominatorDecomposition] = []
    for node_index in nodes[1:]:  # nodes[0] is the root
        passing = through[node_index]
        avoiding = full ^ passing
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
        if not candidates:
            continue
        if exact:
            identity = candidates & -candidates
            if identity & (AND_ONE | AND_ZERO):
                upper_table = root_value | passing
            else:
                upper_table = root_value & ~passing
                if identity == XOR_ZERO:
                    upper_table |= odd_through[node_index]
            result.append(
                _SimulatedDecomposition(mgr, root, node_index, identity, upper_table, num_vars)
            )
        else:
            decomposition = classify_cut_node(mgr, root, node_index, candidates)
            if decomposition is not None:
                result.append(decomposition)
    return result


def best_simple_decomposition(
    mgr: BDD, root: int, candidates: list[DominatorDecomposition] | None = None
) -> DominatorDecomposition | None:
    """Pick the most balanced certified decomposition (BDS favours
    splits whose two halves have similar BDD sizes, which keeps the
    factoring tree shallow).  Sizes come from
    :meth:`DominatorDecomposition.sizes`, which builds no upper that
    :func:`find_simple_decompositions` left unbuilt."""
    if candidates is None:
        candidates = find_simple_decompositions(mgr, root)
    best = None
    best_score = None
    total = mgr.size(root)
    for decomposition in candidates:
        upper_size, lower_size = decomposition.sizes(mgr)
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
