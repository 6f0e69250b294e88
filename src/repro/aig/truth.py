"""Truth-table utilities and ISOP for cut resynthesis.

Truth tables are plain ints: bit ``m`` is the function value on minterm
``m`` over an ordered leaf list (leaf j = bit j of the minterm index).
Used by the AIG refactoring passes: collapse a cone to a table, derive
an irredundant SOP (Minato-Morreale), factor it algebraically and
rebuild it as AND/INV nodes.

Synthesis runs in two steps.  :func:`table_recipe` is pure: it computes
both ISOPs, picks the cheaper polarity and factors the cover with a
*recording* emitter, so its result, a :data:`Recipe`, depends on
``(table, num_vars)`` alone.  :func:`replay_recipe` then issues the
recorded ANDs on the actual leaf literals, in recording order and with
the recorded operand order (an OR is recorded as the AND of the
complements, which is what :meth:`Aig.or_` issues), so constant folding
and strash see exactly the calls a direct build would make.  Callers
that resynthesize many cones pass a ``memo`` dict to
:func:`synthesize_table` and factor each distinct table once; the memo
lives only as long as the caller keeps it (one optimization script run,
see :mod:`repro.aig.opt`).
"""

from __future__ import annotations

from ..sop.algebraic import Cube, Expression, GateEmitter, factor_expression

_VAR_MASKS: dict[tuple[int, int], int] = {}


def var_mask(var: int, num_vars: int) -> int:
    """Truth table of variable ``var`` over ``num_vars`` inputs."""
    key = (var, num_vars)
    cached = _VAR_MASKS.get(key)
    if cached is None:
        block = (1 << (1 << var)) - 1 if var < num_vars else 0
        stride = 1 << (var + 1)
        cached = 0
        for base in range(0, 1 << num_vars, stride):
            cached |= block << (base + (1 << var))
        _VAR_MASKS[key] = cached
    return cached


def full_mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1


def cofactors(table: int, var: int, num_vars: int) -> tuple[int, int]:
    """Negative and positive cofactors, both padded back to num_vars."""
    mask = var_mask(var, num_vars)
    full = full_mask(num_vars)
    width = 1 << var
    positive = table & mask
    negative = table & ~mask & full
    positive |= positive >> width
    negative |= negative << width
    return negative & full, positive & full


def isop(table: int, num_vars: int) -> list[str]:
    """Irredundant SOP of ``table`` as positional cover rows
    (Minato-Morreale recursion, no don't-cares)."""
    full = full_mask(num_vars)

    def recurse(current: int, var: int) -> list[str]:
        if current == 0:
            return []
        if current == full:
            return ["-" * num_vars]
        # Find the next variable the function depends on.
        while var < num_vars:
            negative, positive = cofactors(current, var, num_vars)
            if negative != positive:
                break
            var += 1
        else:
            raise AssertionError("non-constant table with no support")
        only_negative = recurse(negative & ~positive & full, var + 1)
        only_positive = recurse(positive & ~negative & full, var + 1)
        covered_negative = _eval_cover(only_negative, num_vars)
        covered_positive = _eval_cover(only_positive, num_vars)
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


def _eval_cover(rows: list[str], num_vars: int) -> int:
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


def cover_to_table(rows: list[str], num_vars: int) -> int:
    """Public wrapper of the cover evaluator (used by tests)."""
    return _eval_cover(rows, num_vars)


#: ``(steps, output)``: ``steps[i] = (a, b)`` is an AND of two handles,
#: and ``output`` is the result handle.  A handle is ``(signal << 1) |
#: complement`` over the signal list ``[constant TRUE, leaf 0, ...,
#: leaf n-1, step 0, step 1, ...]``, so handle 0 is TRUE and 1 is FALSE.
Recipe = tuple[tuple[tuple[int, int], ...], int]


def table_recipe(table: int, num_vars: int) -> Recipe:
    """How to build ``table``: ISOP + algebraic factoring, in the
    cheaper polarity (the complement's ISOP is often smaller)."""
    full = full_mask(num_vars)
    table &= full
    if table == 0:
        return (), 1
    if table == full:
        return (), 0
    rows_pos = isop(table, num_vars)
    rows_neg = isop(table ^ full, num_vars)
    negate = _cover_cost(rows_neg) < _cover_cost(rows_pos)
    rows = rows_neg if negate else rows_pos
    expression = Expression(
        Cube((var, ch == "1") for var, ch in enumerate(row) if ch != "-")
        for row in rows
    )
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
    output = factor_expression(expression, emitter)
    return tuple(steps), (output ^ 1 if negate else output)


def replay_recipe(aig, recipe: Recipe, leaves: list[int]) -> int:
    """Build ``recipe`` in ``aig`` over ``leaves`` (AIG literals)."""
    steps, output = recipe
    signals = [aig.ONE, *leaves]
    and_ = aig.and_
    for a, b in steps:
        signals.append(
            and_(signals[a >> 1] ^ (a & 1), signals[b >> 1] ^ (b & 1))
        )
    return signals[output >> 1] ^ (output & 1)


def synthesize_table(
    aig,
    table: int,
    leaves: list[int],
    num_vars: int,
    memo: dict[tuple[int, int], Recipe] | None = None,
) -> int:
    """Build an AIG literal computing ``table`` over ``leaves``
    (existing AIG literals); strash shares it with existing logic.

    ``memo`` maps ``(table, num_vars)`` to its :func:`table_recipe`.
    """
    if memo is None:
        memo = {}
    key = (table & full_mask(num_vars), num_vars)
    recipe = memo.get(key)
    if recipe is None:
        recipe = memo[key] = table_recipe(*key)
    return replay_recipe(aig, recipe, leaves)


def _cover_cost(rows: list[str]) -> tuple[int, int]:
    return (sum(1 for row in rows for ch in row if ch != "-"), len(rows))
