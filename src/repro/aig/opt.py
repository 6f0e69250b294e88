"""AIG optimization passes: balance, rewrite/refactor, resyn2.

These reimplement the algorithm family behind ABC's standard script
(the paper's baseline runs ``resyn2`` before mapping):

* :func:`balance` — rebuild AND trees balanced by level (depth
  reduction, no duplication: only single-fanout regular edges are
  collapsed into a super-gate);
* :func:`refactor` — for every node whose maximum fanout-free cone
  (MFFC) has few enough leaves, collapse the cone to a truth table,
  resynthesize it via ISOP + algebraic factoring and keep the result
  when it uses fewer nodes (``zero_cost`` keeps ties, enabling later
  passes to profit);
* :func:`rewrite` — the same engine restricted to 4-leaf cones
  (ABC's rewrite granularity);
* :func:`resyn2` — the classic ten-pass script.

Resynthesis goes through :func:`~repro.aig.truth.synthesize_table`
with a recipe memo keyed by ``(table, num_vars)``: a cut function is
factored once and every later cone computing it replays the recorded
AND calls on its own leaves, which builds exactly what factoring it
afresh would.  ``resyn2`` and ``resyn_quick`` create one memo per call
and hand it to every pass; :func:`refactor`/:func:`rewrite` each make
their own.  No memo outlives the call that made it, so a run's result
never depends on earlier runs.
"""

from __future__ import annotations

import heapq

from .aig import Aig
from .truth import Recipe, full_mask, synthesize_table, var_mask


def balance(aig: Aig) -> Aig:
    """Depth-oriented rebuild of AND trees."""
    order = aig.reachable_ands()
    refs = aig.reference_counts(order)
    fresh = Aig()
    mapping: dict[int, int] = {0: Aig.ONE}
    level: dict[int, int] = {0: 0}
    for name in aig.inputs:
        literal = fresh.add_input(name)
        mapping[aig.input_literal(name) >> 1] = literal
        level[literal >> 1] = 0

    def literal_level(literal: int) -> int:
        return level.get(literal >> 1, 0)

    for node in order:
        # Collect the super-gate: descend through regular, single-fanout
        # AND edges (collapsing shared or complemented edges would
        # duplicate logic or change the function).
        leaves: list[int] = []
        stack = list(aig.fanins(node))
        while stack:
            literal = stack.pop()
            child = literal >> 1
            if (
                literal & 1 == 0
                and aig.is_and(child)
                and refs.get(child, 0) == 1
            ):
                stack.extend(aig.fanins(child))
            else:
                leaves.append(literal)
        mapped = [mapping[l >> 1] ^ (l & 1) for l in leaves]
        heap = [(literal_level(m), index, m) for index, m in enumerate(mapped)]
        heapq.heapify(heap)
        tiebreak = len(heap)
        while len(heap) > 1:
            l0, _, m0 = heapq.heappop(heap)
            l1, _, m1 = heapq.heappop(heap)
            combined = fresh.and_(m0, m1)
            level[combined >> 1] = max(l0, l1) + 1
            heapq.heappush(heap, (level[combined >> 1], tiebreak, combined))
            tiebreak += 1
        mapping[node] = heap[0][2] if heap else Aig.ONE

    for name, literal in aig.outputs:
        fresh.add_output(name, mapping[literal >> 1] ^ (literal & 1))
    return fresh


def _mffc(aig: Aig, root: int, refs: dict[int, int], max_leaves: int):
    """The maximum fanout-free cone of ``root``.

    Returns ``(cone_nodes, leaf_nodes)`` or ``None`` when the cone is
    trivial or has too many leaves.  One dereference pass: removing a
    cone node releases one use of each fanin, and a fanin whose every
    use is released joins the cone, so removing the root frees exactly
    the cone.  The cone is unique, so the visiting order does not
    matter; leaves are returned sorted.
    """
    cone = [root]
    released: dict[int, int] = {}
    stack = [root]
    while stack:
        for literal in aig.fanins(stack.pop()):
            child = literal >> 1
            count = released.get(child, 0) + 1
            released[child] = count
            if count == refs[child] and aig.is_and(child):
                cone.append(child)
                stack.append(child)
    leaves = sorted(
        child
        for child, count in released.items()
        if count < refs[child] or not aig.is_and(child)
    )
    if len(cone) < 2 or len(leaves) > max_leaves or len(leaves) < 2:
        return None
    return cone, leaves


def _cone_truth_table(aig: Aig, root: int, leaves: list[int]) -> int:
    num_vars = len(leaves)
    full = full_mask(num_vars)
    values: dict[int, int] = {0: full}
    for index, leaf in enumerate(leaves):
        values[leaf] = var_mask(index, num_vars)

    def value_of(node: int) -> int:
        cached = values.get(node)
        if cached is not None:
            return cached
        f0, f1 = aig.fanins(node)
        v0 = value_of(f0 >> 1) ^ (full if f0 & 1 else 0)
        v1 = value_of(f1 >> 1) ^ (full if f1 & 1 else 0)
        result = v0 & v1
        values[node] = result
        return result

    return value_of(root)


def refactor(aig: Aig, max_leaves: int = 8, zero_cost: bool = False) -> Aig:
    """Cone-based resynthesis (see module docstring)."""
    return _refactor(aig, max_leaves, zero_cost, {})[0]


def _refactor(
    aig: Aig, max_leaves: int, zero_cost: bool, memo: dict[tuple[int, int], Recipe]
) -> tuple[Aig, int]:
    """:func:`refactor`, also returning the result's size."""
    order = aig.reachable_ands()
    refs = aig.reference_counts(order)
    fresh = Aig()
    mapping: dict[int, int] = {0: Aig.ONE}
    for name in aig.inputs:
        mapping[aig.input_literal(name) >> 1] = fresh.add_input(name)

    for node in order:
        f0, f1 = aig.fanins(node)
        copied = fresh.and_(
            mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
        )
        cone_info = _mffc(aig, node, refs, max_leaves)
        if cone_info is None:
            mapping[node] = copied
            continue
        cone, leaves = cone_info
        table = _cone_truth_table(aig, node, leaves)
        leaf_literals = [mapping[leaf] for leaf in leaves]
        before = fresh.num_nodes()
        candidate = synthesize_table(fresh, table, leaf_literals, len(leaves), memo)
        added = fresh.num_nodes() - before
        budget = len(cone) if zero_cost else len(cone) - 1
        mapping[node] = candidate if added <= budget else copied

    for name, literal in aig.outputs:
        fresh.add_output(name, mapping[literal >> 1] ^ (literal & 1))
    result = fresh.cleanup()
    # Per-cone budgets are measured against the *old* cone, which the
    # copy path may beat through strash sharing; guard globally so a
    # pass never returns a larger graph.  A cleaned graph holds only
    # reachable ANDs, so its node count is its size.
    if result.num_nodes() > len(order):
        return aig.cleanup(), len(order)
    return result, result.num_nodes()


def rewrite(aig: Aig, zero_cost: bool = False) -> Aig:
    """ABC-rewrite-granularity refactoring (4-leaf cones)."""
    return refactor(aig, max_leaves=4, zero_cost=zero_cost)


#: ``(max_leaves, zero_cost)`` of the refactoring passes, named as in ABC.
_REFACTOR_PASSES = {"rw": (4, False), "rwz": (4, True), "rf": (8, False), "rfz": (8, True)}


def _run_script(aig: Aig, script: str) -> Aig:
    """Run an ABC-style ``script`` (``"b; rw; ..."``), keeping each
    result that does not grow the graph (our passes are heuristic
    reimplementations, so we guard).  The refactoring passes share one
    recipe memo, dropped on return."""
    memo: dict[tuple[int, int], Recipe] = {}
    current = aig.cleanup()
    current_size = current.num_nodes()
    for name in script.split("; "):
        if name == "b":
            candidate = balance(current)
            size = candidate.size()
        else:
            candidate, size = _refactor(current, *_REFACTOR_PASSES[name], memo)
        if size <= current_size:
            current, current_size = candidate, size
    return current


def resyn2(aig: Aig) -> Aig:
    """The classic ``resyn2`` sequence."""
    return _run_script(aig, "b; rw; rf; b; rw; rwz; b; rfz; rwz; b")


def resyn_quick(aig: Aig) -> Aig:
    """A short script (balance; rewrite; balance) for quick runs."""
    return _run_script(aig, "b; rw; b")
