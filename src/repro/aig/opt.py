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

The passes run over int-indexed lists sized to the graph: the fanin
list of the :class:`Aig`, the walk of :meth:`Aig.walk` (reachable ANDs
plus fanout counts), the old-to-new literal mapping, balance's levels
and the MFFC release counters.  A script reuses one walk wherever the
graph did not change: balance's result is walked once, for its size and
for the next pass.  Node ids are topological in any :class:`Aig`, so a
cone's truth table is evaluated over its members sorted by id.

Resynthesis goes through :func:`~repro.aig.truth.synthesize_table`
with a recipe memo keyed by ``(table, num_vars)``: a cut function is
factored once and every later cone computing it replays the recorded
AND calls on its own leaves, which builds exactly what factoring it
afresh would.  ``resyn2`` creates one memo per call and hands it to
every pass; :func:`refactor`/:func:`rewrite` each make their own.  No
memo outlives the call that made it, so a run's result never depends
on earlier runs.
"""

from __future__ import annotations

import heapq

from ..truthtable import full_mask, var_mask
from .aig import Aig
from .truth import Recipe, synthesize_table

#: :meth:`Aig.walk` of a graph: its reachable ANDs and fanout counts.
Walk = tuple[list[int], list[int]]


def balance(aig: Aig) -> Aig:
    """Depth-oriented rebuild of AND trees."""
    return _balance(aig, aig.walk())


def _balance(aig: Aig, walk: Walk) -> Aig:
    """:func:`balance` over the walk of ``aig``.

    Every node in the walk gets its own super-gate, interior ones
    included, and the result is not cleaned up: the dead nodes this
    leaves take part in strash, and so in later ids.
    """
    order, refs = walk
    fanins = aig._fanins
    fresh = Aig()
    and_ = fresh.and_
    mapping = [0] * len(fanins)
    for name, node in zip(aig._pi_names, aig._pi_nodes):
        mapping[node] = fresh.add_input(name)
    # level[i] of fresh node i, grown with the fresh graph.
    level = [0] * len(fresh._fanins)

    for node in order:
        # Collect the super-gate: descend through regular, single-fanout
        # AND edges (collapsing shared or complemented edges would
        # duplicate logic or change the function).
        leaves: list[int] = []
        stack = list(fanins[node])
        while stack:
            literal = stack.pop()
            child = literal >> 1
            if not literal & 1 and refs[child] == 1 and fanins[child] is not None:
                stack.extend(fanins[child])
            else:
                leaves.append(literal)
        heap = []
        for index, literal in enumerate(leaves):
            mapped = mapping[literal >> 1] ^ (literal & 1)
            heap.append((level[mapped >> 1], index, mapped))
        heapq.heapify(heap)
        tiebreak = len(heap)
        while len(heap) > 1:
            l0, _, m0 = heapq.heappop(heap)
            l1, _, m1 = heapq.heappop(heap)
            combined = and_(m0, m1)
            new_level = max(l0, l1) + 1
            if combined >> 1 == len(level):
                level.append(new_level)
            else:
                level[combined >> 1] = new_level
            heapq.heappush(heap, (new_level, tiebreak, combined))
            tiebreak += 1
        mapping[node] = heap[0][2]

    for name, literal in aig._outputs:
        fresh.add_output(name, mapping[literal >> 1] ^ (literal & 1))
    return fresh


def _mffc(
    fanins: list, root: int, refs: list[int], released: list[int], max_leaves: int
):
    """The maximum fanout-free cone of ``root``.

    Returns ``(cone_nodes, leaf_nodes)`` or ``None`` when the cone is
    trivial or has too many leaves.  One dereference pass: removing a
    cone node releases one use of each fanin, and a fanin whose every
    use is released joins the cone, so removing the root frees exactly
    the cone.  The cone is unique, so the visiting order does not
    matter; leaves are returned sorted.  ``released`` is all zeros on
    entry and on return.
    """
    cone = [root]
    touched: list[int] = []
    stack = [root]
    while stack:
        for literal in fanins[stack.pop()]:
            child = literal >> 1
            count = released[child] + 1
            released[child] = count
            if count == 1:
                touched.append(child)
            if count == refs[child] and fanins[child] is not None:
                cone.append(child)
                stack.append(child)
    leaves = []
    for child in touched:
        if released[child] < refs[child] or fanins[child] is None:
            leaves.append(child)
        released[child] = 0
    if len(cone) < 2 or len(leaves) > max_leaves or len(leaves) < 2:
        return None
    leaves.sort()
    return cone, leaves


def refactor(aig: Aig, max_leaves: int = 8, zero_cost: bool = False) -> Aig:
    """Cone-based resynthesis (see module docstring)."""
    return _refactor(aig, aig.walk(), max_leaves, zero_cost, {})[0]


def _refactor(
    aig: Aig,
    walk: Walk,
    max_leaves: int,
    zero_cost: bool,
    memo: dict[tuple[int, int], Recipe],
) -> tuple[Aig, int]:
    """:func:`refactor` over the walk of ``aig``, also returning the
    result's size."""
    order, refs = walk
    fanins = aig._fanins
    fresh = Aig()
    and_ = fresh.and_
    fresh_fanins = fresh._fanins
    mapping = [0] * len(fanins)
    for name, node in zip(aig._pi_names, aig._pi_nodes):
        mapping[node] = fresh.add_input(name)
    released = [0] * len(fanins)
    values = [0] * len(fanins)
    masks = [[var_mask(var, n) for var in range(n)] for n in range(max_leaves + 1)]

    for node in order:
        f0, f1 = fanins[node]
        child0 = f0 >> 1
        child1 = f1 >> 1
        copied = and_(mapping[child0] ^ (f0 & 1), mapping[child1] ^ (f1 & 1))
        # Without a single-reference AND fanin the cone is the node alone.
        if (refs[child0] != 1 or fanins[child0] is None) and (
            refs[child1] != 1 or fanins[child1] is None
        ):
            mapping[node] = copied
            continue
        cone_info = _mffc(fanins, node, refs, released, max_leaves)
        if cone_info is None:
            mapping[node] = copied
            continue
        cone, leaves = cone_info
        num_vars = len(leaves)
        full = full_mask(num_vars)
        for leaf, mask in zip(leaves, masks[num_vars]):
            values[leaf] = mask
        cone.sort()
        for member in cone:
            a, b = fanins[member]
            value_a = values[a >> 1] ^ full if a & 1 else values[a >> 1]
            value_b = values[b >> 1] ^ full if b & 1 else values[b >> 1]
            values[member] = value_a & value_b
        before = len(fresh_fanins)
        candidate = synthesize_table(
            fresh, values[node], [mapping[leaf] for leaf in leaves], num_vars, memo
        )
        added = len(fresh_fanins) - before
        budget = len(cone) if zero_cost else len(cone) - 1
        mapping[node] = candidate if added <= budget else copied

    for name, literal in aig._outputs:
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
    recipe memo, dropped on return.  A graph is walked once: a rejected
    candidate leaves the current walk valid, and balance's walk of its
    result gives both its size and the next pass's walk."""
    memo: dict[tuple[int, int], Recipe] = {}
    current = aig.cleanup()
    current_size = current.num_nodes()
    walk: Walk | None = None
    for name in script.split("; "):
        if walk is None:
            walk = current.walk()
        if name == "b":
            candidate = _balance(current, walk)
            candidate_walk: Walk | None = candidate.walk()
            size = len(candidate_walk[0])
        else:
            candidate, size = _refactor(current, walk, *_REFACTOR_PASSES[name], memo)
            candidate_walk = None
        if size <= current_size:
            current, current_size, walk = candidate, size, candidate_walk
    return current


def resyn2(aig: Aig) -> Aig:
    """The classic ``resyn2`` sequence."""
    return _run_script(aig, "b; rw; rf; b; rw; rwz; b; rfz; rwz; b")
