"""Cut resynthesis through memoized recipes.

``resyn2`` factors each distinct cut function once per run and replays
the recorded recipe on every other cone with that function.  That is
only sound if a replay issues exactly the calls a direct build would,
so these tests compare warm-memo, cold-memo and direct builds
(``reference_opt.py``, the passes as they were before the memo and
before they ran over int-indexed arrays and bitmask cubes)
literal for literal and graph for graph, and check that no memo
outlives one script run.  The ISOP of both polarities from one memoized
recursion, the recipe built on it and the compacting cleanup are held
to their one-polarity, unmemoized and re-strashing versions.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aig import (
    Aig,
    balance,
    network_to_aig,
    refactor,
    resyn2,
    rewrite,
    synthesize_table,
)
from repro.aig import opt, truth
from repro.benchgen import (
    build_benchmark,
    carry_lookahead_adder,
    multiply_accumulate,
    ripple_carry_adder,
    wallace_multiplier,
)
from repro.benchgen.random_logic import random_control_network
from repro.truthtable import full_mask

from . import reference_opt
from .test_opt import random_aig


def graph(aig: Aig):
    return aig._fanins, aig._pi_names, aig._outputs


def base_graph(num_inputs: int, num_gates: int, seed: int) -> tuple[Aig, list[int]]:
    """A graph with some logic in it already, so replays meet strash hits."""
    rng = random.Random(seed)
    aig = Aig()
    pool = [aig.add_input(f"x{i}") for i in range(num_inputs)]
    for _ in range(num_gates):
        a, b = rng.sample(pool, 2)
        pool.append(aig.and_(a ^ rng.getrandbits(1), b ^ rng.getrandbits(1)))
    return aig, pool


@st.composite
def synthesis_cases(draw):
    num_vars = draw(st.integers(min_value=1, max_value=8))
    table = draw(st.integers(min_value=0, max_value=(1 << (1 << num_vars)) - 1))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    # Leaves may repeat or be complements of each other, and may be
    # constants or gates: replay must fold exactly like a direct build.
    picks = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=40), st.booleans()),
            min_size=num_vars,
            max_size=num_vars,
        )
    )
    warm = draw(st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=4))
    return num_vars, table, seed, picks, warm


@settings(max_examples=150, deadline=None)
@given(case=synthesis_cases())
def test_warm_memo_builds_what_a_cold_one_and_a_direct_build_do(case):
    num_vars, table, seed, picks, warm = case
    num_inputs = 6
    builds = {}
    for mode in ("direct", "cold", "warm"):
        aig, pool = base_graph(num_inputs, 30, seed)
        pool = [Aig.ONE, *pool]
        leaves = [pool[index % len(pool)] ^ flip for index, flip in picks]
        if mode == "direct":
            literal = reference_opt.synthesize_table(aig, table, leaves, num_vars)
        elif mode == "cold":
            literal = synthesize_table(aig, table, leaves, num_vars, {})
        else:
            # Fill the memo elsewhere first, with this table among others.
            memo: dict = {}
            scratch, scratch_pool = base_graph(num_inputs, 10, seed + 1)
            for other in [*warm, table]:
                synthesize_table(scratch, other, scratch_pool[:num_vars], num_vars, memo)
            assert (table & ((1 << (1 << num_vars)) - 1), num_vars) in memo
            literal = synthesize_table(aig, table, leaves, num_vars, memo)
        builds[mode] = (literal, aig._fanins, leaves, aig)
    assert builds["warm"][:2] == builds["cold"][:2] == builds["direct"][:2]

    literal, _, leaves, aig = builds["warm"]
    aig.add_output("f", literal)
    for index, leaf in enumerate(leaves):
        aig.add_output(f"leaf{index}", leaf)
    patterns = 1 << num_inputs
    stimulus = {
        f"x{i}": sum(1 << p for p in range(patterns) if p >> i & 1)
        for i in range(num_inputs)
    }
    values = aig.simulate(stimulus, (1 << patterns) - 1)
    for p in range(patterns):
        minterm = sum((values[f"leaf{j}"] >> p & 1) << j for j in range(num_vars))
        assert values["f"] >> p & 1 == table >> minterm & 1


def every_table(max_vars: int):
    for num_vars in range(max_vars + 1):
        for table in range(full_mask(num_vars) + 1):
            yield table, num_vars


@st.composite
def tables(draw):
    num_vars = draw(st.integers(min_value=0, max_value=8))
    return draw(st.integers(min_value=0, max_value=full_mask(num_vars))), num_vars


def paired_isop_matches_the_reference(table: int, num_vars: int) -> None:
    """One memoized recursion, asked for both polarities in the order
    table_recipe asks, gives each polarity's unmemoized ISOP."""
    cover = truth._isop_cover(num_vars)
    complement = table ^ full_mask(num_vars)
    assert cover(table) == reference_opt.cube_isop(table, num_vars)
    assert cover(complement) == reference_opt.cube_isop(complement, num_vars)
    # Asking again reads the memo and must not have changed a cover.
    assert cover(table) == reference_opt.cube_isop(table, num_vars)


def test_paired_isop_on_every_table_of_up_to_three_variables():
    for table, num_vars in every_table(3):
        paired_isop_matches_the_reference(table, num_vars)
        assert truth.isop(table, num_vars) == reference_opt.cube_isop(table, num_vars)


@settings(max_examples=200, deadline=None)
@given(case=tables())
def test_paired_isop_on_random_tables(case):
    paired_isop_matches_the_reference(*case)


def test_recipe_on_every_table_of_up_to_three_variables():
    for table, num_vars in every_table(3):
        assert truth.table_recipe(table, num_vars) == reference_opt.table_recipe(table, num_vars)


@settings(max_examples=60, deadline=None)
@given(case=tables())
def test_recipe_on_random_tables(case):
    assert truth.table_recipe(*case) == reference_opt.table_recipe(*case)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    num_gates=st.integers(min_value=0, max_value=100),
    outputs=st.lists(st.sampled_from(["const", "pi", "gate"]), min_size=1, max_size=8),
)
def test_compacting_cleanup_builds_what_re_strashing_does(seed, num_gates, outputs):
    """Outputs may be constants, PIs or gates, in either polarity, and
    repeat; dead gates are left between the live ones."""
    rng = random.Random(seed)
    aig, pool = base_graph(6, num_gates, seed)
    gates = pool[6:] or pool
    for index, kind in enumerate(outputs):
        literal = {"const": Aig.ONE, "pi": rng.choice(pool[:6]), "gate": rng.choice(gates)}[kind]
        aig.add_output(f"y{index}", literal ^ rng.getrandbits(1))
    cleaned = aig.cleanup()
    expected = reference_opt.cleanup(aig)
    assert graph(cleaned) == graph(expected)
    assert cleaned._pi_nodes == expected._pi_nodes
    assert cleaned._strash == expected._strash
    # The compacted graph strashes like any other.
    for key, node in expected._strash.items():
        assert cleaned.and_(*key) == node << 1
    assert graph(cleaned) == graph(expected)


@pytest.fixture(scope="module")
def aigs():
    networks = [
        random_control_network(f"ctl{seed}", 10, 6, 60, seed) for seed in range(4)
    ]
    networks.append(build_benchmark("alu2"))
    # XOR/MAJ-heavy arithmetic.
    networks += [
        wallace_multiplier(5),
        ripple_carry_adder(8),
        carry_lookahead_adder(16),
        multiply_accumulate(4),
    ]
    return [network_to_aig(network) for network in networks]


@pytest.mark.parametrize("index", range(9))
def test_scripts_build_what_the_direct_passes_do(aigs, index):
    aig = aigs[index]
    assert graph(resyn2(aig)) == graph(reference_opt.resyn2(aig))


@pytest.mark.parametrize("index", range(9))
def test_refactor_with_a_warm_memo_builds_what_the_direct_pass_does(aigs, index):
    aig = aigs[index].cleanup()
    # Warm the memo on every circuit, this one included.
    memo: dict = {}
    for other in aigs:
        cleaned = other.cleanup()
        opt._refactor(cleaned, cleaned.walk(), 8, False, memo)
        opt._refactor(cleaned, cleaned.walk(), 4, True, memo)
    assert memo
    for zero_cost in (False, True):
        for max_leaves, public in ((8, refactor), (4, rewrite)):
            direct = graph(reference_opt.refactor(aig, max_leaves, zero_cost))
            warm, size = opt._refactor(aig, aig.walk(), max_leaves, zero_cost, memo)
            assert graph(warm) == direct
            assert size == warm.size()
            assert graph(public(aig, zero_cost=zero_cost)) == direct


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    num_gates=st.integers(min_value=5, max_value=120),
    max_leaves=st.sampled_from([2, 4, 8, 16]),
)
def test_one_pass_mffc_matches_the_fixpoint_search(seed, num_gates, max_leaves):
    aig = random_aig(seed, num_inputs=8, num_gates=num_gates)
    order, refs = aig.walk()
    reference_refs = reference_opt.reference_counts(aig)
    released = [0] * len(refs)
    for node in order:
        live = opt._mffc(aig._fanins, node, refs, released, max_leaves)
        assert not any(released)
        reference = reference_opt.mffc(aig, node, reference_refs, max_leaves)
        if reference is None:
            assert live is None
            continue
        cone, leaves = live
        assert len(cone) == len(set(cone))
        assert (set(cone), leaves) == reference
        # refactor skips a node without a single-reference AND fanin:
        # its cone is the node alone.
        assert any(
            refs[literal >> 1] == 1 and aig.is_and(literal >> 1)
            for literal in aig.fanins(node)
        )


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**20),
    num_gates=st.integers(min_value=0, max_value=150),
)
def test_walk_matches_the_reference_walk_and_fanout_counts(seed, num_gates):
    aig = random_aig(seed, num_inputs=8, num_gates=num_gates)
    order, refs = aig.walk()
    assert order == reference_opt.reachable_ands(aig)
    assert {node: count for node, count in enumerate(refs) if count} == (
        reference_opt.reference_counts(aig)
    )
    assert aig.reachable_ands() == order
    assert graph(aig.cleanup()) == graph(reference_opt.cleanup(aig))
    assert graph(balance(aig)) == graph(reference_opt.balance(aig))


def test_script_runs_share_no_memo_state(monkeypatch, aigs):
    """Passes of one run share one memo; the next run starts empty."""
    seen: list[tuple[dict, int]] = []
    original = opt.synthesize_table

    def spy(aig, table, leaves, num_vars, memo=None):
        seen.append((memo, len(memo)))
        return original(aig, table, leaves, num_vars, memo)

    monkeypatch.setattr(opt, "synthesize_table", spy)
    aig = aigs[4]
    runs = []
    for _ in range(2):
        seen.clear()
        resyn2(aig)
        assert seen
        memos = [memo for memo, _ in seen]
        assert all(memo is memos[0] for memo in memos)
        assert seen[0][1] == 0
        runs.append(memos[0])
    assert runs[0] is not runs[1]
    assert runs[0] == runs[1]  # same work, same recipes


def test_refactor_alone_takes_a_fresh_memo(monkeypatch, aigs):
    seen: list[dict] = []
    original = opt.synthesize_table

    def spy(aig, table, leaves, num_vars, memo=None):
        seen.append(memo)
        return original(aig, table, leaves, num_vars, memo)

    monkeypatch.setattr(opt, "synthesize_table", spy)
    aig = aigs[4]
    refactor(aig)
    first = seen[0]
    seen.clear()
    refactor(aig)
    assert seen[0] is not first


@pytest.mark.parametrize("seed", range(6))
def test_a_cleaned_graph_holds_only_reachable_ands(seed):
    """resyn2 reads a cleaned graph's size off its node count."""
    aig = random_aig(seed, num_gates=80)
    cleaned = aig.cleanup()
    assert cleaned.num_nodes() == cleaned.size() == aig.size()
