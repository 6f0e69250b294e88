"""Tests for kernel extraction and algebraic factoring."""

from __future__ import annotations

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.sop import (
    Expression,
    GateEmitter,
    best_kernel,
    expression_from_cover,
    factor_expression,
    is_cube_free,
    literal_counts,
    weak_division,
)
from repro.sop.algebraic import cube_literals

from .reference_algebraic import bitmask_kernels as kernels


def literal_of(token: str) -> int:
    """``"b"`` -> literal of variable 1; ``"~b"`` -> its complement."""
    if token.startswith("~"):
        return 2 * (ord(token[1:]) - ord("a"))
    return 2 * (ord(token) - ord("a")) + 1


def expr(*cubes) -> Expression:
    """Helper: expr(("a", "b"), ("a", "~c")) -> ab + ac'."""
    return Expression(sum(1 << literal_of(token) for token in cube) for cube in cubes)


class EvalEmitter:
    """GateEmitter that builds Python closures for evaluation."""

    def __init__(self):
        self.gate_count = 0
        self.emitter = GateEmitter(
            literal=lambda var, phase: (
                (lambda env, v=var: bool(env[v]))
                if phase
                else (lambda env, v=var: not env[v])
            ),
            and2=self._and2,
            or2=self._or2,
            const=lambda value: (lambda env, v=value: v),
        )

    def _and2(self, left, right):
        self.gate_count += 1
        return lambda env: left(env) and right(env)

    def _or2(self, left, right):
        self.gate_count += 1
        return lambda env: left(env) or right(env)


def eval_expression(expression: Expression, env) -> bool:
    return any(
        all(env[literal >> 1] == bool(literal & 1) for literal in cube_literals(cube))
        for cube in expression
    )


def support(expression: Expression) -> set[int]:
    return {literal >> 1 for cube in expression for literal in cube_literals(cube)}


class TestWeakDivision:
    def test_textbook_example(self):
        # (ab + ac + d) / (b + c) = a, remainder d.
        dividend = expr(("a", "b"), ("a", "c"), ("d",))
        divisor = expr(("b",), ("c",))
        quotient, remainder = weak_division(dividend, divisor)
        assert quotient == expr(("a",))
        assert remainder == expr(("d",))

    def test_no_division(self):
        dividend = expr(("a", "b"))
        divisor = expr(("c",))
        quotient, remainder = weak_division(dividend, divisor)
        assert quotient == Expression()
        assert remainder == dividend

    def test_reconstruction_identity(self):
        dividend = expr(("a", "b"), ("a", "c"), ("b", "c"), ("d",))
        divisor = expr(("b",), ("c",))
        quotient, remainder = weak_division(dividend, divisor)
        product = Expression(d | q for d in divisor for q in quotient)
        assert product | remainder == dividend


class TestKernels:
    def test_cube_free_detection(self):
        assert is_cube_free(expr(("a",), ("b",)))
        assert not is_cube_free(expr(("a", "b"), ("a", "c")))

    def test_textbook_kernels(self):
        # x = adf + aef + bdf + bef + cdf + cef + g
        #   = (a+b+c)(d+e)f + g ; kernels include a+b+c and d+e.
        expression = expr(
            ("a", "d", "f"),
            ("a", "e", "f"),
            ("b", "d", "f"),
            ("b", "e", "f"),
            ("c", "d", "f"),
            ("c", "e", "f"),
            ("g",),
        )
        found = {frozenset(k) for _, k in kernels(expression)}
        assert expr(("a",), ("b",), ("c",)) in found
        assert expr(("d",), ("e",)) in found

    def test_kernel_of_kernel_free_expression(self):
        assert kernels(expr(("a", "b"))) == []

    def test_best_kernel_prefers_sharing(self):
        expression = expr(("a", "b"), ("a", "c"), ("d", "b"), ("d", "c"))
        choice = best_kernel(expression)
        assert choice is not None
        _, kernel = choice
        assert kernel in (expr(("b",), ("c",)), expr(("a",), ("d",)))


class TestFactoring:
    def _check(self, expression: Expression):
        evaluator = EvalEmitter()
        func = factor_expression(expression, evaluator.emitter)
        names = sorted(support(expression))
        for values in itertools.product([False, True], repeat=len(names)):
            env = dict(zip(names, values))
            assert func(env) == eval_expression(expression, env), env
        return evaluator.gate_count

    def test_constants(self):
        evaluator = EvalEmitter()
        assert factor_expression(Expression(), evaluator.emitter)({}) is False
        assert factor_expression(expr(()), evaluator.emitter)({}) is True

    def test_single_cube(self):
        self._check(expr(("a", "b", "~c")))

    def test_simple_or(self):
        self._check(expr(("a",), ("b",)))

    def test_factoring_saves_gates(self):
        # ab + ac + ad: factored a(b+c+d) = 3 gates vs flat 5.
        gates = self._check(expr(("a", "b"), ("a", "c"), ("a", "d")))
        assert gates <= 3

    def test_textbook_expression(self):
        self._check(
            expr(
                ("a", "d", "f"),
                ("a", "e", "f"),
                ("b", "d", "f"),
                ("b", "e", "f"),
                ("c", "d", "f"),
                ("c", "e", "f"),
                ("g",),
            )
        )

    def test_mixed_phases(self):
        self._check(expr(("a", "~b"), ("~a", "b"), ("c", "~a")))

    def test_expression_from_cover(self):
        expression = expression_from_cover(["11-", "1-0"])
        assert expression == expr(("a", "b"), ("a", "~c"))

    def test_expression_from_cover_numbers_positions_by_rank(self):
        # Positions x, y, z with ranks 2, 0, 1.
        expression = expression_from_cover(["11-", "1-0"], [2, 0, 1])
        assert expression == expr(("c", "a"), ("c", "~b"))


@st.composite
def covers_sharing_a_literal(draw):
    """Random covers (2 to 8 distinct cubes over up to 6 variables) in
    which some literal occurs in two cubes."""
    width = draw(st.integers(min_value=1, max_value=6))
    # Per variable: absent (None), complemented (0) or plain (1).
    cube = st.lists(st.sampled_from((None, 0, 1)), min_size=width, max_size=width).map(
        lambda phases: sum(1 << (2 * v + p) for v, p in enumerate(phases) if p is not None)
    )
    cubes = draw(st.lists(cube, min_size=2, max_size=8, unique=True))
    expression = Expression(cubes)
    assume(any(count >= 2 for count in literal_counts(expression).values()))
    return expression


class TestBestKernelInvariant:
    """``factor_expression`` divides by the best kernel whenever a
    literal is shared, and relies on that division making progress."""

    @settings(max_examples=300, deadline=None)
    @given(covers_sharing_a_literal())
    def test_shared_literal_yields_a_dividing_kernel(self, expression):
        choice = best_kernel(expression)
        assert choice is not None
        _, kernel = choice
        quotient, _ = weak_division(expression, kernel)
        assert any(quotient)  # a non-empty cube, not just the 1 cube
        assert kernel != expression
