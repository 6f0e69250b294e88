"""Algebraic (kernel-based) factoring of SOP expressions.

This is the MIS/SIS-era machinery ([3], [5] in the paper) behind the
Design-Compiler-like baseline flow and the ABC-like flow's cut
resynthesis: expressions are sets of cubes over *literals*; kernels and
co-kernels guide a recursive good-factor decomposition that is finally
emitted as 2-input AND/OR gates (plus inverters).

Encoding: literal ``2*i + phase`` is variable ``i`` (``phase`` 1) or
its complement (``phase`` 0), a *cube* is an int bitmask over literals
and an *expression* a frozenset of cubes.  Bit order is therefore
``(variable, phase)`` order, and every enumeration order and tie-break
below (kernel literals, the order cubes are emitted in) follows it.  A
caller whose variables are names numbers them by sorted name (see
``FactorCovers`` in :mod:`repro.api.stages`), so ties break by name.

Algebraic conventions: division is *weak* division (no Boolean
simplification), keeping the algorithms polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

#: A cube is a bitmask over literals ``2*variable + phase``.
Cube = int
Expression = frozenset


def expression_from_cover(cover: Iterable[str], ranks: Sequence[int] | None = None) -> Expression:
    """Convert a positional cover into an algebraic expression.

    Position ``i`` of a row is variable ``ranks[i]`` (default ``i``).
    """
    cubes = []
    for row in cover:
        cube = 0
        for position, ch in enumerate(row):
            if ch != "-":
                variable = position if ranks is None else ranks[position]
                cube |= 1 << (2 * variable + (ch == "1"))
        cubes.append(cube)
    return Expression(cubes)


def cube_literals(cube: Cube) -> list[int]:
    """The literals of ``cube``, in ascending order."""
    literals = []
    while cube:
        low = cube & -cube
        literals.append(low.bit_length() - 1)
        cube ^= low
    return literals


def literal_counts(expr: Expression) -> dict[int, int]:
    counts: dict[int, int] = {}
    for cube in expr:
        while cube:
            low = cube & -cube
            literal = low.bit_length() - 1
            counts[literal] = counts.get(literal, 0) + 1
            cube ^= low
    return counts


def common_cube(cubes: Iterable[Cube]) -> Cube:
    iterator = iter(cubes)
    result = next(iterator, 0)
    for cube in iterator:
        result &= cube
    return result


def weak_division(expr: Expression, divisor: Expression) -> tuple[Expression, Expression]:
    """Weak division: ``expr = divisor * quotient + remainder``.

    The quotient is the intersection over divisor cubes d of
    ``expr / d``; the remainder is whatever is not reconstructed.
    """
    if not divisor:
        return Expression(), expr
    quotient: set[Cube] | None = None
    for d in divisor:
        partial = {c ^ d for c in expr if c & d == d}
        quotient = partial if quotient is None else quotient & partial
        if not quotient:
            break
    quotient = quotient or set()
    product = {d | q for d in divisor for q in quotient}
    remainder = Expression(c for c in expr if c not in product)
    return Expression(quotient), remainder


def is_cube_free(expr: Expression) -> bool:
    """No literal common to every cube."""
    if not expr:
        return True
    return not common_cube(expr)


def best_kernel(expr: Expression) -> tuple[Cube, Expression] | None:
    """The kernel promising the largest literal saving when extracted.

    Kernels are visited in Brayton/McMullen depth-first order with
    literal-order pruning, each distinct kernel once, and the first of
    the highest value wins.  The trivial self-kernel (empty co-kernel,
    kernel == expr) is excluded: dividing an expression by itself makes
    no factoring progress.  Every other kernel has a co-kernel holding
    the literal it was found under.

    A sub-expression's literals in two cubes or more come from one
    union/twice sweep over its cubes.  A literal common to two cubes of
    a sub-expression is in two cubes of ``expr``, so a common cube with
    a literal below the current one was already enumerated from that
    literal.
    """
    best = None
    best_value = 0
    seen: set[Expression] = set()

    def recurse(current: Expression, co_kernel: Cube, floor: int) -> None:
        nonlocal best, best_value
        once = twice = 0
        for cube in current:
            twice |= once & cube
            once |= cube
        # Literals at or above ``floor`` (a single bit) in two cubes.
        pending = twice & -floor
        while pending:
            bit = pending & -pending
            pending ^= bit
            containing = [c for c in current if c & bit]
            common = containing[0]
            for cube in containing:
                common &= cube
            if common & (bit - 1):
                continue  # already enumerated from an earlier literal
            sub = Expression(c ^ common for c in containing)
            if sub in seen:
                continue
            seen.add(sub)
            sub_co_kernel = co_kernel | common
            # Classic value heuristic: a kernel with n cubes extracted
            # against a co-kernel of c literals saves ~ (n-1)*max(|c|,1).
            value = (len(sub) - 1) * max(sub_co_kernel.bit_count(), 1)
            if value > best_value:
                best_value = value
                best = (sub_co_kernel, sub)
            recurse(sub, sub_co_kernel, bit << 1)

    recurse(expr, 0, 1)
    return best


# ----------------------------------------------------------------------
# Good factoring into gates
# ----------------------------------------------------------------------
@dataclass
class GateEmitter:
    """Callback bundle used by :func:`factor_expression` to emit gates.

    ``and2(a, b)``, ``or2(a, b)`` and ``literal(variable, phase)``
    return signal handles (any hashable the caller likes).
    """

    literal: Callable[[int, bool], object]
    and2: Callable[[object, object], object]
    or2: Callable[[object, object], object]
    const: Callable[[bool], object]


def factor_expression(expr: Expression, emit: GateEmitter) -> object:
    """Recursive good-factoring of ``expr`` into 2-input gates."""
    if not expr:
        return emit.const(False)
    if 0 in expr:
        return emit.const(True)
    if len(expr) == 1:
        return _emit_cube(next(iter(expr)), emit)

    # Divide by the best kernel: expr = kernel*quotient + remainder.  A
    # literal in two cubes yields a kernel K with a non-empty co-kernel
    # C; every cube of K ORed with C is in expr, so the quotient holds C
    # and K, with fewer literals, is not expr.
    choice = best_kernel(expr)
    if choice is not None:
        _, kernel = choice
        quotient, remainder = weak_division(expr, kernel)
        product = emit.and2(factor_expression(kernel, emit), factor_expression(quotient, emit))
        if remainder:
            return emit.or2(product, factor_expression(remainder, emit))
        return product

    # No literal in two cubes: balanced OR of cube gates.
    cubes = [_emit_cube(cube, emit) for cube in sorted(expr, key=cube_literals)]
    while len(cubes) > 1:
        cubes = [
            emit.or2(cubes[i], cubes[i + 1]) for i in range(0, len(cubes) - 1, 2)
        ] + ([cubes[-1]] if len(cubes) % 2 else [])
    return cubes[0]


def _emit_cube(cube: Cube, emit: GateEmitter) -> object:
    literals = [emit.literal(literal >> 1, bool(literal & 1)) for literal in cube_literals(cube)]
    if not literals:
        return emit.const(True)
    while len(literals) > 1:
        literals = [
            emit.and2(literals[i], literals[i + 1])
            for i in range(0, len(literals) - 1, 2)
        ] + ([literals[-1]] if len(literals) % 2 else [])
    return literals[0]
