"""Two-level covers and algebraic factoring (the MIS/SIS substrate
behind the Design-Compiler-like baseline flow)."""

from .algebraic import (
    Cube,
    Expression,
    GateEmitter,
    best_kernel,
    common_cube,
    expression_from_cover,
    factor_expression,
    is_cube_free,
    literal_counts,
    weak_division,
)
from .cover import (
    count_literals,
    cover_is_tautology,
    cube_covered,
    simplify_cover,
)

__all__ = [
    "Cube",
    "Expression",
    "GateEmitter",
    "best_kernel",
    "common_cube",
    "count_literals",
    "cover_is_tautology",
    "cube_covered",
    "expression_from_cover",
    "factor_expression",
    "is_cube_free",
    "literal_counts",
    "simplify_cover",
    "weak_division",
]
