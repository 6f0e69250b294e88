"""Truth-table utilities and ISOP for cut resynthesis.

Truth tables are plain ints: bit ``m`` is the function value on minterm
``m`` over an ordered leaf list (leaf j = bit j of the minterm index).
Used by the AIG refactoring passes: collapse a cone to a table, derive
an irredundant SOP (Minato-Morreale), factor it algebraically and
rebuild it as AND/INV nodes.

Covers are lists of bitmask cubes in the encoding of
:mod:`repro.sop.algebraic`: bit ``2v`` is the literal ``v'`` and bit
``2v+1`` the literal ``v``, so a cover is factored as it comes.

Synthesis runs in two steps.  :func:`table_recipe` is pure: it computes
both ISOPs from one memoized recursion, picks the cheaper polarity and
factors the cover with a *recording* emitter, so its result, a
:data:`Recipe`, depends on ``(table, num_vars)`` alone.  :func:`replay_recipe` then issues the
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

from typing import Callable

from ..sop.algebraic import Expression, GateEmitter, factor_expression
from ..truthtable import full_mask, var_mask


def isop(table: int, num_vars: int) -> list[int]:
    """Irredundant SOP of ``table`` as bitmask cubes (Minato-Morreale
    recursion, no don't-cares)."""
    return _isop_cover(num_vars)(table & full_mask(num_vars))


def _isop_cover(num_vars: int) -> Callable[[int], list[int]]:
    """A function mapping a table over ``num_vars`` variables to its
    ISOP, memoizing the cover of every non-constant sub-table for as
    long as the function is kept.

    Without don't-cares every sub-cover computes its function exactly,
    so the part both cofactors share is their intersection.  The first
    two sub-covers of ``¬f`` (``f1·f0'`` and ``f0·f1'``) are those of
    ``f`` with the phases swapped, so a second call on the complement
    computes only its shared part afresh.  A sub-table depends on no
    variable below the one it was split off at, so its cover does not
    depend on where the search for its top variable starts, and the
    memo is keyed by the table alone.  Memoized lists are never
    mutated: every cover is a fresh list.
    """
    full = full_mask(num_vars)
    masks = [var_mask(var, num_vars) for var in range(num_vars)]
    memo: dict[int, list[int]] = {}

    def recurse(current: int, var: int) -> list[int]:
        """The ISOP of ``current``, neither constant, whose top
        variable is ``var`` or above."""
        cubes = memo.get(current)
        if cubes is not None:
            return cubes
        # Find the next variable the function depends on.
        while True:
            width = 1 << var
            positive = current & masks[var]
            negative = current ^ positive
            if positive >> width != negative:
                break
            var += 1
        positive |= positive >> width
        negative |= negative << width
        cubes = []
        # Constant sub-tables are answered here, without a call.
        for only, literal in (
            (negative & ~positive, 1 << 2 * var),
            (positive & ~negative, 2 << 2 * var),
        ):
            if only == full:
                cubes.append(literal)
            elif only:
                cubes.extend([cube | literal for cube in recurse(only, var + 1)])
        shared = negative & positive
        if shared:
            cubes.extend(recurse(shared, var + 1))
        memo[current] = cubes
        return cubes

    def cover(table: int) -> list[int]:
        if table == 0:
            return []
        if table == full:
            return [0]
        return recurse(table, 0)

    return cover


def cover_to_table(cubes: list[int], num_vars: int) -> int:
    """The truth table a cover of bitmask cubes computes."""
    full = full_mask(num_vars)
    table = 0
    for cube in cubes:
        term = full
        for var in range(num_vars):
            if cube >> 2 * var & 1:
                term &= ~var_mask(var, num_vars)
            if cube >> 2 * var & 2:
                term &= var_mask(var, num_vars)
        table |= term
    return table & full


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
    cover = _isop_cover(num_vars)
    cubes_pos = cover(table)
    cubes_neg = cover(table ^ full)
    negate = _cover_cost(cubes_neg) < _cover_cost(cubes_pos)
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
    output = factor_expression(Expression(cubes_neg if negate else cubes_pos), emitter)
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


def _cover_cost(cubes: list[int]) -> tuple[int, int]:
    return (sum(cube.bit_count() for cube in cubes), len(cubes))
