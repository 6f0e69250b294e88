"""Variable reordering for BDDs.

The BDS-MAJ decomposition engine reorders each supernode BDD before
searching for dominators (paper Section IV.B: "As a first step, it
performs variable reordering to compact the size of the input BDD").

That is the only reordering the flows run: one in-place Rudell pass
per supernode (:meth:`BDD.sift`).  The manager's per-level unique
subtables let :meth:`BDD.swap_adjacent` exchange two adjacent variables
by local node surgery, so trying a variable at every position costs
O(total nodes) instead of one full rebuild *per position*.  This module
holds the rebuild-based constructions.

:func:`reorder` transfers functions into a fresh manager with a given
order.  :func:`sift_rebuild` keeps the historical transfer-based
sifter: each candidate position is realized by rebuilding the functions
in a fresh manager.  It searches the same neighborhood with the same tie-breaks,
so it reaches the same final order — it is retained as the
equivalence/benchmark baseline (``benchmarks/bench_reorder.py`` pins
the in-place engine to ≥ its quality and a multiple of its speed).
"""

from __future__ import annotations

from .manager import BDD


def reorder(mgr: BDD, roots: list[int], order: list[str]) -> tuple[BDD, list[int]]:
    """Rebuild ``roots`` in a fresh manager using variable ``order``.

    ``order`` must contain every variable of ``mgr`` exactly once.
    Returns the new manager and the transferred root edges.
    """
    if sorted(order) != sorted(mgr.var_names):
        raise ValueError("order must be a permutation of the manager's variables")
    target = BDD(order, cache_capacity=mgr.op_cache.capacity)
    return target, [mgr.transfer(root, target) for root in roots]


def sift_rebuild(
    mgr: BDD,
    roots: list[int],
    max_vars: int | None = None,
    max_nodes: int | None = None,
) -> tuple[BDD, list[int]]:
    """One greedy sifting pass realized by full rebuilds (the baseline).

    Variables are visited in decreasing occurrence count; each is tried
    at every position of the order — one transfer into a fresh manager
    per candidate position — and left at the best one.  Returns a
    (possibly new) manager and the corresponding roots.  When the input
    exceeds the optional size guards the input is returned unchanged.
    """
    names = list(mgr.var_names)
    if max_vars is not None and len(names) > max_vars:
        return mgr, roots
    if max_nodes is not None and mgr.size_many(roots) > max_nodes:
        return mgr, roots

    current_mgr, current_roots = mgr, list(roots)
    current_size = current_mgr.size_many(current_roots)

    occurrence = _occurrence_counts(current_mgr, current_roots)
    for name in sorted(names, key=lambda n: -occurrence.get(n, 0)):
        order = list(current_mgr.var_names)
        position = order.index(name)
        best = (current_size, position)
        for candidate_pos in range(len(order)):
            if candidate_pos == position:
                continue
            candidate_order = order[:position] + order[position + 1 :]
            candidate_order.insert(candidate_pos, name)
            trial_mgr, trial_roots = reorder(current_mgr, current_roots, candidate_order)
            trial_size = trial_mgr.size_many(trial_roots)
            if trial_size < best[0]:
                best = (trial_size, candidate_pos)
        if best[1] != position:
            final_order = order[:position] + order[position + 1 :]
            final_order.insert(best[1], name)
            current_mgr, current_roots = reorder(current_mgr, current_roots, final_order)
            current_size = best[0]
    return current_mgr, current_roots


def _occurrence_counts(mgr: BDD, roots: list[int]) -> dict[str, int]:
    """Number of BDD nodes labelled by each variable (sifting priority)."""
    counts: dict[str, int] = {}
    for index in mgr.nodes_reachable(roots):
        level, _, _ = mgr.node_fields(index)
        name = mgr.name_of(level)
        counts[name] = counts.get(name, 0) + 1
    return counts


__all__ = ["reorder", "sift_rebuild"]
