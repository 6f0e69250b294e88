"""Reference copy of the name-based algebraic factorer, as it was
before expressions became frozensets of bitmask cubes.

Expressions here are frozensets of cubes, a cube a frozenset of
``(name, phase)`` literals.  The live factorer in
:mod:`repro.sop.algebraic` works over literal indices ``2*rank+phase``
and must issue the very same emitter calls when the ranks are the
sorted order of the names (``test_reference_algebraic.py``); the DC
flow's factoring tapes are compared against this copy in
``tests/core/test_memo.py``.

:func:`bitmask_kernels` and :func:`bitmask_best_kernel` are the bitmask
kernel enumeration and the kernel choice over its full list, as they
were before :func:`repro.sop.algebraic.best_kernel` became one
depth-first pass (``tests/sop/test_best_kernel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

#: A literal is (signal name, phase); a cube a frozenset of literals.
Literal = tuple[str, bool]
Cube = frozenset
Expression = frozenset


def expression_from_cover(cover: Iterable[str], fanins: list[str]) -> Expression:
    """Convert a positional cover into an algebraic expression."""
    cubes = []
    for row in cover:
        literals = []
        for ch, name in zip(row, fanins):
            if ch == "1":
                literals.append((name, True))
            elif ch == "0":
                literals.append((name, False))
        cubes.append(Cube(literals))
    return Expression(cubes)


def literal_counts(expr: Expression) -> dict[Literal, int]:
    counts: dict[Literal, int] = {}
    for cube in expr:
        for literal in cube:
            counts[literal] = counts.get(literal, 0) + 1
    return counts


def common_cube(cubes: Iterable[Cube]) -> Cube:
    iterator = iter(cubes)
    try:
        result = set(next(iterator))
    except StopIteration:
        return Cube()
    for cube in iterator:
        result &= cube
    return Cube(result)


def weak_division(expr: Expression, divisor: Expression) -> tuple[Expression, Expression]:
    """Weak division: ``expr = divisor * quotient + remainder``.

    The quotient is the intersection over divisor cubes d of
    ``expr / d``; the remainder is whatever is not reconstructed.
    """
    if not divisor:
        return Expression(), expr
    quotient: set[Cube] | None = None
    for d in divisor:
        partial = {c - d for c in expr if d <= c}
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


def kernels(expr: Expression) -> list[tuple[Cube, Expression]]:
    """All (co-kernel, kernel) pairs of ``expr`` (Brayton/McMullen
    recursive enumeration with literal-order pruning)."""
    counts = literal_counts(expr)
    literals = sorted(
        (l for l, n in counts.items() if n >= 2), key=lambda l: (l[0], l[1])
    )
    result: list[tuple[Cube, Expression]] = []
    seen: set[Expression] = set()

    def recurse(current: Expression, co_kernel: Cube, start: int) -> None:
        for index in range(start, len(literals)):
            literal = literals[index]
            containing = [c for c in current if literal in c]
            if len(containing) < 2:
                continue
            common = common_cube(containing)
            sub = Expression(c - common for c in containing)
            if any(
                literals[earlier] in common
                for earlier in range(index)
            ):
                continue  # already enumerated from an earlier literal
            if sub not in seen:
                seen.add(sub)
                result.append((Cube(co_kernel | common), sub))
                recurse(sub, Cube(co_kernel | common), index + 1)

    if is_cube_free(expr) and len(expr) > 1:
        result.append((Cube(), expr))
    recurse(expr, Cube(), 0)
    return result


def best_kernel(expr: Expression) -> tuple[Cube, Expression] | None:
    """The kernel promising the largest literal saving when extracted.

    The trivial self-kernel (empty co-kernel, kernel == expr) is
    excluded: dividing an expression by itself makes no factoring
    progress.
    """
    best = None
    best_value = 0
    for co_kernel, kernel in kernels(expr):
        if len(kernel) < 2:
            continue
        if not co_kernel and kernel == expr:
            continue
        # Classic value heuristic: a kernel with n cubes extracted
        # against a co-kernel of c literals saves ~ (n-1)*max(|c|,1).
        value = (len(kernel) - 1) * max(len(co_kernel), 1)
        if value > best_value:
            best_value = value
            best = (co_kernel, kernel)
    return best


def bitmask_kernels(expr: frozenset[int]) -> list[tuple[int, frozenset[int]]]:
    """All (co-kernel, kernel) pairs of a bitmask-cube expression
    (Brayton/McMullen recursive enumeration with literal-order pruning)."""
    counts: dict[int, int] = {}
    for cube in expr:
        for literal in range(cube.bit_length()):
            if cube >> literal & 1:
                counts[literal] = counts.get(literal, 0) + 1
    literals = sorted(literal for literal, count in counts.items() if count >= 2)
    # earlier[i]: the literals before literals[i], as a cube.
    earlier = []
    mask = 0
    for literal in literals:
        earlier.append(mask)
        mask |= 1 << literal
    result: list[tuple[int, frozenset[int]]] = []
    seen: set[frozenset[int]] = set()

    def common_of(cubes: list[int]) -> int:
        result = cubes[0]
        for cube in cubes:
            result &= cube
        return result

    def recurse(current: frozenset[int], co_kernel: int, start: int) -> None:
        for index in range(start, len(literals)):
            bit = 1 << literals[index]
            containing = [c for c in current if c & bit]
            if len(containing) < 2:
                continue
            common = common_of(containing)
            if common & earlier[index]:
                continue  # already enumerated from an earlier literal
            sub = frozenset(c ^ common for c in containing)
            if sub not in seen:
                seen.add(sub)
                result.append((co_kernel | common, sub))
                recurse(sub, co_kernel | common, index + 1)

    if len(expr) > 1 and not common_of(list(expr)):
        result.append((0, expr))
    recurse(expr, 0, 0)
    return result


def bitmask_best_kernel(expr: frozenset[int]) -> tuple[int, frozenset[int]] | None:
    """The first kernel of :func:`bitmask_kernels` with the largest
    value, the self-kernel excluded."""
    best = None
    best_value = 0
    for co_kernel, kernel in bitmask_kernels(expr):
        if len(kernel) < 2:
            continue
        if not co_kernel and kernel == expr:
            continue
        value = (len(kernel) - 1) * max(co_kernel.bit_count(), 1)
        if value > best_value:
            best_value = value
            best = (co_kernel, kernel)
    return best


# ----------------------------------------------------------------------
# Good factoring into gates
# ----------------------------------------------------------------------
@dataclass
class GateEmitter:
    """Callback bundle used by :func:`factor_expression` to emit gates.

    ``and2(a, b)``, ``or2(a, b)`` and ``literal(name, phase)`` return
    signal handles (any hashable the caller likes).
    """

    literal: Callable[[str, bool], object]
    and2: Callable[[object, object], object]
    or2: Callable[[object, object], object]
    const: Callable[[bool], object]


def factor_expression(expr: Expression, emit: GateEmitter) -> object:
    """Recursive good-factoring of ``expr`` into 2-input gates."""
    if not expr:
        return emit.const(False)
    if any(len(cube) == 0 for cube in expr):
        return emit.const(True)
    if len(expr) == 1:
        return _emit_cube(next(iter(expr)), emit)

    # Try the best kernel as divisor: expr = divisor*quotient + rest.
    choice = best_kernel(expr)
    if choice is not None:
        co_kernel, kernel = choice
        quotient, remainder = weak_division(expr, kernel)
        if quotient and sum(len(c) for c in quotient) > 0 and kernel != expr:
            left = factor_expression(kernel, emit)
            right = factor_expression(quotient, emit)
            product = emit.and2(left, right)
            if remainder:
                return emit.or2(product, factor_expression(remainder, emit))
            return product

    # Literal factoring fallback: pull out the most frequent literal,
    # the first in sorted order on a tie (never set iteration order).
    counts = literal_counts(expr)
    literal, count = min(counts.items(), key=lambda item: (-item[1], item[0]))
    if count >= 2:
        divisor = Expression([Cube([literal])])
        quotient, remainder = weak_division(expr, divisor)
        product = emit.and2(
            emit.literal(*literal), factor_expression(quotient, emit)
        )
        if remainder:
            return emit.or2(product, factor_expression(remainder, emit))
        return product

    # No sharing at all: balanced OR of cube gates.
    cubes = [_emit_cube(cube, emit) for cube in sorted(expr, key=sorted)]
    while len(cubes) > 1:
        cubes = [
            emit.or2(cubes[i], cubes[i + 1]) for i in range(0, len(cubes) - 1, 2)
        ] + ([cubes[-1]] if len(cubes) % 2 else [])
    return cubes[0]


def _emit_cube(cube: Cube, emit: GateEmitter) -> object:
    literals = [emit.literal(name, phase) for name, phase in sorted(cube)]
    if not literals:
        return emit.const(True)
    while len(literals) > 1:
        literals = [
            emit.and2(literals[i], literals[i + 1])
            for i in range(0, len(literals) - 1, 2)
        ] + ([literals[-1]] if len(literals) % 2 else [])
    return literals[0]
