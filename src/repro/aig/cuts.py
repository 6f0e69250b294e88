"""K-feasible cut enumeration on AIGs.

The classic substrate of cut-based technology mapping and rewriting:
for every node, the set of ``k``-input cuts is the cross-merge of its
fanins' cut sets (bounded per node to keep enumeration linear-ish).
The refactoring passes use MFFC cones instead, but cut enumeration is
part of any credible AIG package and is exercised by the test suite,
including truth-table computation per cut.
"""

from __future__ import annotations

from ..truthtable import full_mask, var_mask
from .aig import Aig


def enumerate_cuts(
    aig: Aig, k: int = 4, max_cuts_per_node: int = 8
) -> dict[int, list[tuple[int, ...]]]:
    """All ``k``-feasible cuts per reachable AND node.

    Every node also has its trivial cut ``(node,)``.  Cut sets are
    pruned by dominance (a cut whose leaves are a superset of another's
    is redundant) and capped at ``max_cuts_per_node`` (smallest first),
    as practical mappers do.
    """
    cuts: dict[int, list[tuple[int, ...]]] = {}

    def leaf_cuts(node: int) -> list[tuple[int, ...]]:
        return cuts.setdefault(node, [(node,)])

    for node in aig.reachable_ands():
        f0, f1 = aig.fanins(node)
        left = leaf_cuts(f0 >> 1)
        right = leaf_cuts(f1 >> 1)
        merged: list[tuple[int, ...]] = [(node,)]
        seen: set[tuple[int, ...]] = {(node,)}
        for cut0 in left:
            for cut1 in right:
                union = tuple(sorted(set(cut0) | set(cut1)))
                if len(union) > k or union in seen:
                    continue
                seen.add(union)
                merged.append(union)
        merged = _prune_dominated(merged)
        merged.sort(key=len)
        cuts[node] = merged[:max_cuts_per_node]
    return cuts


def _prune_dominated(cuts: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    result: list[tuple[int, ...]] = []
    as_sets = [set(cut) for cut in cuts]
    for i, cut in enumerate(cuts):
        dominated = any(
            j != i and as_sets[j] < as_sets[i] for j in range(len(cuts))
        )
        if not dominated:
            result.append(cut)
    return result


def cut_truth_table(aig: Aig, node: int, leaves: tuple[int, ...]) -> int:
    """Truth table of ``node`` over ``leaves`` (LSB-first leaf order).

    Every path from ``node`` must terminate at a leaf (guaranteed for
    cuts produced by :func:`enumerate_cuts`)."""
    num_vars = len(leaves)
    full = full_mask(num_vars)
    values: dict[int, int] = {0: full}
    for position, leaf in enumerate(leaves):
        values[leaf] = var_mask(position, num_vars)

    def value_of(current: int) -> int:
        cached = values.get(current)
        if cached is not None:
            return cached
        f0, f1 = aig.fanins(current)
        v0 = value_of(f0 >> 1) ^ (full if f0 & 1 else 0)
        v1 = value_of(f1 >> 1) ^ (full if f1 & 1 else 0)
        result = v0 & v1
        values[current] = result
        return result

    return value_of(node)
