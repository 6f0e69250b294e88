"""Reference copies of the AIG optimization kernels, as they were before
cut functions were resynthesized through memoized recipes.

* :func:`mffc` is the fixpoint maximum-fanout-free-cone search: it
  rescans the whole cone every round and adds each node all of whose
  uses come from inside the cone.
* :func:`synthesize_table` builds the factored cover directly on the
  graph, with :meth:`Aig.and_`/:meth:`Aig.or_` as the emitter.
* :func:`refactor`/:func:`rewrite` are the cone resynthesis loop built
  on those two, with the whole-graph ``size()`` guard.
* :func:`resyn2`/:func:`resyn_quick` run these passes one by one and
  measure both sizes after every pass.  Only :func:`~repro.aig.balance`
  is the live pass, which resynthesizes nothing.

The tests in ``test_recipe_memo.py`` require the live kernels and
scripts to give the very same cones, literals and graphs.
"""

from __future__ import annotations

from repro.aig import Aig, balance, isop
from repro.aig.truth import full_mask, var_mask
from repro.sop.algebraic import Cube, Expression, GateEmitter, factor_expression


def mffc(aig: Aig, root: int, refs: dict[int, int], max_leaves: int):
    cone: set[int] = {root}
    changed = True
    while changed:
        changed = False
        uses: dict[int, int] = {}
        for member in cone:
            for literal in aig.fanins(member):
                child = literal >> 1
                uses[child] = uses.get(child, 0) + 1
        for child, count in uses.items():
            if child in cone or not aig.is_and(child):
                continue
            if refs.get(child, 0) == count:
                cone.add(child)
                changed = True
    leaves: set[int] = set()
    for member in cone:
        for literal in aig.fanins(member):
            child = literal >> 1
            if child not in cone:
                leaves.add(child)
    if len(cone) < 2 or len(leaves) > max_leaves or len(leaves) < 2:
        return None
    return cone, sorted(leaves)


def synthesize_table(aig: Aig, table: int, leaves: list[int], num_vars: int) -> int:
    full = full_mask(num_vars)
    table &= full
    if table == 0:
        return aig.ZERO
    if table == full:
        return aig.ONE
    rows_pos = isop(table, num_vars)
    rows_neg = isop(table ^ full, num_vars)
    if _cover_cost(rows_neg) < _cover_cost(rows_pos):
        return _build_cover(aig, rows_neg, leaves) ^ 1
    return _build_cover(aig, rows_pos, leaves)


def _cover_cost(rows: list[str]) -> tuple[int, int]:
    return (sum(1 for row in rows for ch in row if ch != "-"), len(rows))


def _build_cover(aig: Aig, rows: list[str], leaves: list[int]) -> int:
    expression = Expression(
        Cube((var, ch == "1") for var, ch in enumerate(row) if ch != "-")
        for row in rows
    )
    emitter = GateEmitter(
        literal=lambda var, phase: leaves[var] ^ (0 if phase else 1),
        and2=aig.and_,
        or2=aig.or_,
        const=lambda value: aig.ONE if value else aig.ZERO,
    )
    return factor_expression(expression, emitter)


def cone_truth_table(aig: Aig, root: int, leaves: list[int]) -> int:
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
        values[node] = v0 & v1
        return values[node]

    return value_of(root)


def refactor(aig: Aig, max_leaves: int = 8, zero_cost: bool = False) -> Aig:
    refs = aig.reference_counts()
    fresh = Aig()
    mapping: dict[int, int] = {0: Aig.ONE}
    for name in aig.inputs:
        mapping[aig.input_literal(name) >> 1] = fresh.add_input(name)
    for node in aig.reachable_ands():
        f0, f1 = aig.fanins(node)
        copied = fresh.and_(
            mapping[f0 >> 1] ^ (f0 & 1), mapping[f1 >> 1] ^ (f1 & 1)
        )
        cone_info = mffc(aig, node, refs, max_leaves)
        if cone_info is None:
            mapping[node] = copied
            continue
        cone, leaves = cone_info
        table = cone_truth_table(aig, node, leaves)
        leaf_literals = [mapping[leaf] for leaf in leaves]
        before = fresh.num_nodes()
        candidate = synthesize_table(fresh, table, leaf_literals, len(leaves))
        added = fresh.num_nodes() - before
        budget = len(cone) if zero_cost else len(cone) - 1
        mapping[node] = candidate if added <= budget else copied
    for name, literal in aig.outputs:
        fresh.add_output(name, mapping[literal >> 1] ^ (literal & 1))
    result = fresh.cleanup()
    if result.size() > aig.size():
        return aig.cleanup()
    return result


def rewrite(aig: Aig, zero_cost: bool = False) -> Aig:
    return refactor(aig, max_leaves=4, zero_cost=zero_cost)


def run_passes(aig: Aig, passes) -> Aig:
    current = aig.cleanup()
    for optimization in passes:
        candidate = optimization(current)
        if candidate.size() <= current.size():
            current = candidate
    return current


def resyn2(aig: Aig) -> Aig:
    return run_passes(
        aig,
        [
            balance,
            rewrite,
            refactor,
            balance,
            rewrite,
            lambda g: rewrite(g, zero_cost=True),
            balance,
            lambda g: refactor(g, zero_cost=True),
            lambda g: rewrite(g, zero_cost=True),
            balance,
        ],
    )


def resyn_quick(aig: Aig) -> Aig:
    return run_passes(aig, [balance, rewrite, balance])
