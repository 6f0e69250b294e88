"""The truth-table BDD-size kernel against its oracle.

:func:`repro.truthtable.bdd_size` reads the bottom four levels of a
table's BDD from a lookup table of 8-bit chunks;
:func:`tests.reference_truthtable.bdd_size` walks every level.  They,
and the size that :func:`repro.truthtable.cut_functions` returns from
its own walk, must agree on every table: dense, sparse, complemented,
and the structured tables of random BDDs, over 0 to 12 variables.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD
from repro.truthtable import bdd_size, cut_functions, full_mask

from . import reference_truthtable
from .conftest import random_function


def _check(table: int, num_vars: int) -> None:
    expected = reference_truthtable.bdd_size(table, num_vars)
    assert bdd_size(table, num_vars) == expected
    assert cut_functions(table, num_vars)[0] == expected


@st.composite
def _tables(draw) -> tuple[int, int]:
    num_vars = draw(st.integers(min_value=0, max_value=12))
    kind = draw(st.sampled_from(["dense", "sparse", "bdd"]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=(1 << 32) - 1)))
    width = 1 << num_vars
    if kind == "dense":
        table = rng.getrandbits(width)
    elif kind == "sparse":
        table = 0
        for _ in range(rng.randint(0, 4)):
            table |= 1 << rng.randrange(width)
    else:
        names = [f"x{i}" for i in range(num_vars)]
        mgr = BDD(names)
        f = random_function(mgr, names, rng, rng.randint(1, 6))
        table = mgr.edge_tables([f], list(range(num_vars)))[0]
    if draw(st.booleans()):
        table ^= full_mask(num_vars)
    return table, num_vars


@settings(max_examples=300, deadline=None)
@given(spec=_tables())
def test_property_kernel_matches_the_chunk_walk(spec):
    _check(*spec)


def test_kernel_matches_the_chunk_walk_on_every_small_table():
    """Every table over at most four variables: each entry of the
    lookup table, in both polarities, and the widening of tables under
    four variables."""
    for num_vars in range(5):
        for table in range(1 << (1 << num_vars)):
            _check(table, num_vars)
