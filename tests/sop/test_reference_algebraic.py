"""The bitmask factorer against the name-based reference.

A caller numbers its variables by the sorted order of their names (the
DC flow does).  Then bit order is ``(name, phase)`` order, and every
enumeration order and tie-break of the factorer must come out as the
name-based one's: the same kernels and the same emitter calls, in the
same order.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sop import GateEmitter, expression_from_cover, factor_expression, kernels
from repro.sop.algebraic import cube_literals

from . import reference_algebraic as reference


class Recorder:
    """An emitter logging every call; handles are call indices."""

    def __init__(self, name_of=lambda name: name):
        self.calls: list[tuple] = []
        self.emitter = GateEmitter(
            literal=lambda var, phase: self._record("literal", name_of(var), bool(phase)),
            and2=lambda left, right: self._record("and2", left, right),
            or2=lambda left, right: self._record("or2", left, right),
            const=lambda value: self._record("const", value),
        )

    def _record(self, *call) -> int:
        self.calls.append(call)
        return len(self.calls) - 1


@st.composite
def named_covers(draw):
    width = draw(st.integers(min_value=1, max_value=7))
    names = draw(
        st.lists(
            st.text(alphabet="abxy_0129", min_size=1, max_size=3),
            min_size=width,
            max_size=width,
            unique=True,
        )
    )
    rows = draw(
        st.lists(st.text(alphabet="01-", min_size=width, max_size=width), max_size=9)
    )
    return names, rows


def rank_numbering(names: list[str]) -> tuple[list[int], list[str]]:
    """Each position's rank among the sorted names, and the name of
    each rank."""
    by_rank = sorted(range(len(names)), key=names.__getitem__)
    ranks = [0] * len(names)
    for rank, position in enumerate(by_rank):
        ranks[position] = rank
    return ranks, [names[position] for position in by_rank]


@settings(max_examples=400, deadline=None)
@given(case=named_covers())
def test_rank_factorer_issues_the_reference_calls(case):
    names, rows = case
    ranks, name_of_rank = rank_numbering(names)

    expected = Recorder()
    expected_root = reference.factor_expression(
        reference.expression_from_cover(rows, names), expected.emitter
    )
    live = Recorder(name_of_rank.__getitem__)
    live_root = factor_expression(expression_from_cover(rows, ranks), live.emitter)
    assert live.calls == expected.calls
    assert live_root == expected_root


@settings(max_examples=200, deadline=None)
@given(case=named_covers())
def test_rank_kernels_are_the_reference_kernels(case):
    names, rows = case
    ranks, name_of_rank = rank_numbering(names)

    def named(cube: int) -> frozenset:
        return frozenset(
            (name_of_rank[literal >> 1], bool(literal & 1)) for literal in cube_literals(cube)
        )

    live = [
        (named(co_kernel), frozenset(named(cube) for cube in kernel))
        for co_kernel, kernel in kernels(expression_from_cover(rows, ranks))
    ]
    assert live == reference.kernels(reference.expression_from_cover(rows, names))
