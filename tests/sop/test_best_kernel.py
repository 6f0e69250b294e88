"""The one-pass kernel choice against the full kernel list.

:func:`repro.sop.algebraic.best_kernel` walks the kernels depth-first
and keeps the first of the highest value, without listing them.  It
must choose what the list-based choice of
``reference_algebraic.bitmask_best_kernel`` chooses: the same
``(co-kernel, kernel)`` pair, or ``None``.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sop import Expression, best_kernel

from . import reference_algebraic as reference


@st.composite
def covers(draw):
    """Covers over 1-8 variables with up to 12 cubes.  A common cube
    ANDed into every cube makes the cover not cube-free; few variables
    and repeated cube shapes make value ties common."""
    num_vars = draw(st.integers(min_value=1, max_value=8))
    # Per variable: absent, complemented or plain.
    phases = st.lists(st.integers(min_value=0, max_value=2), min_size=num_vars, max_size=num_vars)
    cube = phases.map(lambda drawn: sum(phase << 2 * var for var, phase in enumerate(drawn)))
    cubes = draw(st.lists(cube, max_size=12))
    common = draw(st.one_of(st.just(0), cube))
    # A common literal must not meet its complement in a cube.
    opposite = (common & 0x5555) << 1 | (common & 0xAAAA) >> 1
    return Expression(c | common for c in cubes if not c & opposite)


@settings(max_examples=400, deadline=None)
@given(expression=covers())
def test_one_pass_choice_is_the_first_best_of_the_kernel_list(expression):
    assert best_kernel(expression) == reference.bitmask_best_kernel(expression)


def test_every_two_variable_cover():
    cubes = [a | b << 2 for a, b in itertools.product(range(3), repeat=2)]
    for count in range(len(cubes) + 1):
        for chosen in itertools.combinations(cubes, count):
            expression = Expression(chosen)
            assert best_kernel(expression) == reference.bitmask_best_kernel(expression)


def cube(*literals: str) -> int:
    """``cube("a", "~b")`` is a·b' (bit 2v+1 is v, bit 2v is v')."""
    return sum(
        1 << 2 * (ord(token[-1]) - ord("a")) + (not token.startswith("~"))
        for token in literals
    )


def test_a_kernel_met_again_under_another_co_kernel_is_not_revisited():
    """c·(a' + a'b' + a'b + ad + ab'd + abd): the kernel 1 + b + b'
    comes first under the co-kernel a'c (value 4) and again under acd
    (value 6).  The enumeration visits each distinct kernel once, so the
    second co-kernel is never valued and c·(...) itself (value 5) wins."""
    expression = Expression(
        [
            cube("~a", "c"),
            cube("~a", "~b", "c"),
            cube("~a", "b", "c"),
            cube("a", "c", "d"),
            cube("a", "~b", "c", "d"),
            cube("a", "b", "c", "d"),
        ]
    )
    inner = Expression(
        [
            cube("~a"),
            cube("~a", "~b"),
            cube("~a", "b"),
            cube("a", "d"),
            cube("a", "~b", "d"),
            cube("a", "b", "d"),
        ]
    )
    assert best_kernel(expression) == (cube("c"), inner)
    assert reference.bitmask_best_kernel(expression) == (cube("c"), inner)


def test_the_first_of_equal_values_wins():
    """ab + ac + db + dc: the kernels b + c (co-kernel a) and a + d
    (co-kernel b) both have value 1; b + c is found first."""
    expression = Expression([cube("a", "b"), cube("a", "c"), cube("d", "b"), cube("d", "c")])
    assert best_kernel(expression) == (cube("a"), Expression([cube("b"), cube("c")]))
