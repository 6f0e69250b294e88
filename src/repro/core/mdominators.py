"""m-dominator search (paper Section III.B).

A *non-trivial m-dominator* is an internal BDD node that

(i)  is not a simple x-, 0- or 1-dominator — those already certify a
     cheaper radix-2 decomposition, and
(ii) has more than one non-complemented incoming edge (0-incoming plus
     1-incoming) — the intuition being that the ``Fa`` of a good
     ``Maj(Fa, Fb, Fc)`` must be reached for the input combinations of
     both ``Maj(Fa, 0, 1)`` and ``Maj(Fa, 1, 0)``, hence is a highly
     connected node.

The number of candidates is ``O(N)`` in general; following Section
III.F the search supports "tighter selection constraints" — a fan-in
threshold and a cap on the number of returned candidates — which keep
the overall decomposition near-linear in practice.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..bdd import BDD
from ..bdd.dominators import simple_dominator_nodes
from ..bdd.substitute import edge_statistics


@dataclass
class MDominatorConfig:
    """Selection constraints for the m-dominator search.

    ``min_regular_fanin`` implements condition (ii): the node's regular
    0-incoming plus 1-incoming edge count must be at least this value
    (the paper's "more than one" = 2).  ``max_candidates`` bounds the
    number of Fa candidates examined per function (Section III.F's
    "tight selection constraints"); candidates are ranked by fan-in.
    ``relax_if_empty`` retries with a fan-in threshold of 1 when the
    strict criteria produce no candidate, which lets small functions
    (e.g. 3-input majority sub-blocks) still be examined.
    """

    min_regular_fanin: int = 2
    max_candidates: int = 5
    relax_if_empty: bool = True
    exclude_simple_dominators: bool = True


@dataclass
class MDominator:
    """One candidate: node index and its fan-in score."""

    node: int
    regular_fanin: int
    total_fanin: int


def find_m_dominators(
    mgr: BDD,
    root: int,
    config: MDominatorConfig | None = None,
    simple_dominators: set[int] | None = None,
) -> list[MDominator]:
    """Non-trivial m-dominator candidates of ``root``, best first
    (most regular fan-in, then most total fan-in, then preorder).

    The root's own node is excluded (it would only produce the trivial
    ``Maj(F, F, anything)`` decomposition).  ``simple_dominators`` lets
    a caller that already classified the simple dominators (the engine
    does, for its own AND/OR/XOR search) pass the set in instead of
    paying for a second scan.
    """
    if config is None:
        config = MDominatorConfig()
    if mgr.is_constant(root):
        return []

    stats = edge_statistics(mgr, [root])
    excluded: set[int] = {root >> 1}
    if config.exclude_simple_dominators:
        if simple_dominators is None:
            simple_dominators = simple_dominator_nodes(mgr, root)
        excluded |= simple_dominators

    candidates = _collect(mgr, root, stats, excluded, config.min_regular_fanin)
    if not candidates and config.relax_if_empty and config.min_regular_fanin > 1:
        candidates = _collect(mgr, root, stats, excluded, 1)

    # Stable over nodes_reachable preorder: ties go to the candidate met
    # first, a structural choice (node ids are allocation history), so
    # the ranking is a function of the BDD's shape alone.
    candidates.sort(key=lambda c: (-c.regular_fanin, -c.total_fanin))
    if config.max_candidates > 0:
        candidates = candidates[: config.max_candidates]
    return candidates


def _collect(
    mgr: BDD,
    root: int,
    stats,
    excluded: set[int],
    min_regular_fanin: int,
) -> list[MDominator]:
    result = []
    for index in mgr.nodes_reachable([root]):
        if index in excluded:
            continue
        entry = stats.of(index)
        regular = entry.regular_zero + entry.one
        if regular < min_regular_fanin:
            continue
        result.append(MDominator(index, regular, entry.total))
    return result
