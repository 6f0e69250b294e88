"""Reference copies of the AIG optimization kernels, as they were before
cut functions were resynthesized through memoized recipes and before
the passes ran over int-indexed arrays and bitmask cubes.

* :func:`reachable_ands`/:func:`reference_counts` are the set-and-dict
  depth-first walk and fanout count.
* :func:`balance` is the dict-based level-driven rebuild of AND trees.
* :func:`isop` is the Minato-Morreale recursion over ``'0'/'1'/'-'``
  row strings, re-evaluating every sub-cover (:func:`cover_to_table`).
* :func:`cube_isop` is the bitmask-cube recursion with no memo, run
  once per polarity by :func:`table_recipe`, which records the cheaper
  polarity's factored cover as a recipe.
* :func:`cleanup` rebuilds the reachable logic through
  :meth:`Aig.and_`, strash lookups and all.
* :func:`mffc` is the fixpoint maximum-fanout-free-cone search: it
  rescans the whole cone every round and adds each node all of whose
  uses come from inside the cone.
* :func:`synthesize_table` builds the factored cover directly on the
  graph, with :meth:`Aig.and_`/:meth:`Aig.or_` as the emitter and the
  name-based factorer of ``tests/sop/reference_algebraic.py``.
* :func:`refactor`/:func:`rewrite` are the cone resynthesis loop built
  on those, with the whole-graph ``size()`` guard.
* :func:`resyn2` runs these passes one by one and measures both sizes
  after every pass.

Nothing here calls the live passes, ISOP or factorer, so the tests in
``test_recipe_memo.py`` hold the live kernels and scripts to the very
same cones, literals and graphs.
"""

from __future__ import annotations

import heapq

from repro.aig import Aig

from ..sop.reference_algebraic import Cube, Expression, GateEmitter, factor_expression


def var_mask(var: int, num_vars: int) -> int:
    block = (1 << (1 << var)) - 1 if var < num_vars else 0
    stride = 1 << (var + 1)
    mask = 0
    for base in range(0, 1 << num_vars, stride):
        mask |= block << (base + (1 << var))
    return mask


def full_mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1


def cofactors(table: int, var: int, num_vars: int) -> tuple[int, int]:
    mask = var_mask(var, num_vars)
    full = full_mask(num_vars)
    width = 1 << var
    positive = table & mask
    negative = table & ~mask & full
    positive |= positive >> width
    negative |= negative << width
    return negative & full, positive & full


def isop(table: int, num_vars: int) -> list[str]:
    full = full_mask(num_vars)

    def recurse(current: int, var: int) -> list[str]:
        if current == 0:
            return []
        if current == full:
            return ["-" * num_vars]
        while var < num_vars:
            negative, positive = cofactors(current, var, num_vars)
            if negative != positive:
                break
            var += 1
        else:
            raise AssertionError("non-constant table with no support")
        only_negative = recurse(negative & ~positive & full, var + 1)
        only_positive = recurse(positive & ~negative & full, var + 1)
        covered_negative = cover_to_table(only_negative, num_vars)
        covered_positive = cover_to_table(only_positive, num_vars)
        shared = recurse(
            (negative & ~covered_negative | positive & ~covered_positive) & full,
            var + 1,
        )
        rows = []
        for row in only_negative:
            rows.append(row[:var] + "0" + row[var + 1 :])
        for row in only_positive:
            rows.append(row[:var] + "1" + row[var + 1 :])
        rows.extend(shared)
        return rows

    return recurse(table & full, 0)


def cube_isop(table: int, num_vars: int) -> list[int]:
    """ISOP as bitmask cubes: bit ``2v`` is ``v'``, bit ``2v+1`` is ``v``."""
    full = full_mask(num_vars)
    masks = [var_mask(var, num_vars) for var in range(num_vars)]

    def recurse(current: int, var: int) -> list[int]:
        if current == 0:
            return []
        if current == full:
            return [0]
        while var < num_vars:
            width = 1 << var
            positive = current & masks[var]
            negative = current ^ positive
            if positive >> width != negative:
                break
            var += 1
        else:
            raise AssertionError("non-constant table with no support")
        positive |= positive >> width
        negative |= negative << width
        cubes = [cube | 1 << 2 * var for cube in recurse(negative & ~positive, var + 1)]
        cubes += [cube | 2 << 2 * var for cube in recurse(positive & ~negative, var + 1)]
        cubes += recurse(negative & positive, var + 1)
        return cubes

    return recurse(table & full, 0)


def table_recipe(table: int, num_vars: int):
    """The ``(steps, output)`` recipe of ``table``: both ISOPs, the
    cheaper polarity factored by the name-based factorer, each AND and
    OR recorded as :mod:`repro.aig.truth` records it."""
    full = full_mask(num_vars)
    table &= full
    if table == 0:
        return (), 1
    if table == full:
        return (), 0
    cubes_pos = cube_isop(table, num_vars)
    cubes_neg = cube_isop(table ^ full, num_vars)

    def cost(cubes: list[int]) -> tuple[int, int]:
        return (sum(cube.bit_count() for cube in cubes), len(cubes))

    negate = cost(cubes_neg) < cost(cubes_pos)
    steps: list[tuple[int, int]] = []
    first_step = num_vars + 1

    def and2(a: int, b: int) -> int:
        steps.append((a, b))
        return (first_step + len(steps) - 1) << 1

    emitter = GateEmitter(
        literal=lambda var, phase: (var + 1) << 1 | (0 if phase else 1),
        and2=and2,
        or2=lambda a, b: and2(a ^ 1, b ^ 1) ^ 1,
        const=lambda value: 0 if value else 1,
    )
    expression = Expression(
        Cube(
            (var, bool(cube >> 2 * var & 2))
            for var in range(num_vars)
            if cube >> 2 * var & 3
        )
        for cube in (cubes_neg if negate else cubes_pos)
    )
    output = factor_expression(expression, emitter)
    return tuple(steps), (output ^ 1 if negate else output)


def cover_to_table(rows: list[str], num_vars: int) -> int:
    table = 0
    full = full_mask(num_vars)
    for row in rows:
        cube = full
        for var, ch in enumerate(row):
            if ch == "1":
                cube &= var_mask(var, num_vars)
            elif ch == "0":
                cube &= ~var_mask(var, num_vars) & full
        table |= cube
    return table


def reachable_ands(aig: Aig) -> list[int]:
    seen: set[int] = set()
    order: list[int] = []
    for _, root_literal in aig.outputs:
        stack: list[tuple[int, bool]] = [(root_literal >> 1, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if node in seen:
                continue
            entry = aig._fanins[node]
            if entry is None:
                continue
            seen.add(node)
            stack.append((node, True))
            stack.append((entry[0] >> 1, False))
            stack.append((entry[1] >> 1, False))
    return order


def reference_counts(aig: Aig, order: list[int] | None = None) -> dict[int, int]:
    refs: dict[int, int] = {}
    for node in reachable_ands(aig) if order is None else order:
        for literal in aig._fanins[node]:
            refs[literal >> 1] = refs.get(literal >> 1, 0) + 1
    for _, literal in aig.outputs:
        refs[literal >> 1] = refs.get(literal >> 1, 0) + 1
    return refs


def size(aig: Aig) -> int:
    return len(reachable_ands(aig))


def cleanup(aig: Aig) -> Aig:
    fresh = Aig()
    mapping: dict[int, int] = {0: Aig.ONE}
    for name in aig.inputs:
        mapping[aig.input_literal(name) >> 1] = fresh.add_input(name)
    for node in reachable_ands(aig):
        f0, f1 = aig.fanins(node)
        new0 = mapping[f0 >> 1] ^ (f0 & 1)
        new1 = mapping[f1 >> 1] ^ (f1 & 1)
        mapping[node] = fresh.and_(new0, new1)
    for name, literal in aig.outputs:
        fresh.add_output(name, mapping[literal >> 1] ^ (literal & 1))
    return fresh


def balance(aig: Aig) -> Aig:
    order = reachable_ands(aig)
    refs = reference_counts(aig, order)
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
    refs = reference_counts(aig)
    fresh = Aig()
    mapping: dict[int, int] = {0: Aig.ONE}
    for name in aig.inputs:
        mapping[aig.input_literal(name) >> 1] = fresh.add_input(name)
    for node in reachable_ands(aig):
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
    result = cleanup(fresh)
    if size(result) > size(aig):
        return cleanup(aig)
    return result


def rewrite(aig: Aig, zero_cost: bool = False) -> Aig:
    return refactor(aig, max_leaves=4, zero_cost=zero_cost)


def run_passes(aig: Aig, passes) -> Aig:
    current = cleanup(aig)
    for optimization in passes:
        candidate = optimization(current)
        if size(candidate) <= size(current):
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
