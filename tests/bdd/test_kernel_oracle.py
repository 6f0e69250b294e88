"""Oracle: the flattened apply kernels against their reference copies.

Twin managers run one random operation sequence, one through the live
``and_``/``xor``/``ite``/``cofactor`` methods and one through
:mod:`.reference_kernels`.  Result edges, allocation counts and cache
counters must agree after every step, with a cache small enough to
evict.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDD

from .reference_kernels import ref_and, ref_cofactor, ref_ite, ref_or, ref_xor

NAMES = list("abcdefg")

LIVE = {
    "and": lambda mgr, f, g, h, level: mgr.and_(f, g),
    "or": lambda mgr, f, g, h, level: mgr.or_(f, g),
    "xor": lambda mgr, f, g, h, level: mgr.xor(f, g),
    "ite": lambda mgr, f, g, h, level: mgr.ite(f, g, h),
    "cofactor1": lambda mgr, f, g, h, level: mgr.cofactor(f, level, True),
    "cofactor0": lambda mgr, f, g, h, level: mgr.cofactor(f, level, False),
}
REFERENCE = {
    "and": lambda mgr, f, g, h, level: ref_and(mgr, f, g),
    "or": lambda mgr, f, g, h, level: ref_or(mgr, f, g),
    "xor": lambda mgr, f, g, h, level: ref_xor(mgr, f, g),
    "ite": lambda mgr, f, g, h, level: ref_ite(mgr, f, g, h),
    "cofactor1": lambda mgr, f, g, h, level: ref_cofactor(mgr, f, level, True),
    "cofactor0": lambda mgr, f, g, h, level: ref_cofactor(mgr, f, level, False),
}


def _run(mgr: BDD, kernels: dict, seed: int, steps: int) -> list[tuple]:
    """Apply ``steps`` random operations; return a per-step trace of
    (operation, result edge, allocations, live nodes, cache stats)."""
    rng = random.Random(seed)
    pool = [mgr.var(name) for name in NAMES]
    pool += [edge ^ 1 for edge in pool]
    pool += [mgr.ONE, mgr.ZERO]
    trace = []
    for _ in range(steps):
        op = rng.choice(sorted(kernels))
        f, g, h = (rng.choice(pool) for _ in range(3))
        level = rng.randrange(len(NAMES))
        result = kernels[op](mgr, f, g, h, level)
        pool.append(result)
        trace.append((op, result, mgr.num_nodes(), mgr.live_nodes(), mgr.cache_stats()))
    return trace


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=(1 << 32) - 1),
    capacity=st.sampled_from([8, 64, 1 << 12]),
)
def test_property_flattened_kernels_match_reference(seed, capacity):
    live = BDD(NAMES, cache_capacity=capacity)
    reference = BDD(NAMES, cache_capacity=capacity)
    assert _run(live, LIVE, seed, 40) == _run(reference, REFERENCE, seed, 40)
    live.check_invariants()


def test_oracle_exercises_eviction():
    """The drawn settings reach the path the oracle is meant to pin."""
    mgr = BDD(NAMES, cache_capacity=8)
    _run(mgr, LIVE, 1, 40)
    assert mgr.cache_stats()["evictions"] >= 1
