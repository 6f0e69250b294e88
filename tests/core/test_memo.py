"""The flows' two memos: decisions by shape, supernodes by structure.

Engines of one flow run share a memo from function shapes to decisions
(:meth:`repro.bdd.BDD.support_shape`), so a function that recurs in
other supernode managers over other input names is decided once and
replayed.  That is only sound if a decision is a function of the shape
alone.  The oracle here recomputes the decision on every memo hit and
compares; the end-to-end checks require shared-memo and per-engine-memo
runs to build the very same trees and step counts.

Above the engine, the ``build-bdds`` stage builds each supernode
structure (:func:`repro.network.partition.structure_key`) once, and the
``decompose`` stage replays one recorded :class:`~repro.core.TreeTape`
per structure.  Its oracle rebuilds every structure hit the slow way
(its own manager, sifted, a fresh engine) and requires the tape, the
steps and the sift outcome of the first supernode with that structure;
end to end, the stage must build the trees of the slow way for every
supernode.

The DC-like flow's ``collapse`` stage shares the structure memo, and its
``rewrite`` stage computes one cover per structure and replays one
factoring tape per structure and rank of the input names.  Its oracle
builds, minimizes and factors every supernode the slow way, straight
onto a builder; the stage must build the same trees.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import get_pipeline
from repro.bdd import BDD
from repro.bdd.isop import isop_cover_rows
from repro.benchgen import build_benchmark
from repro.benchgen.random_logic import random_control_network
from repro.core import DecompositionEngine, TreeBuilder, TreeTape, find_m_dominators
from repro.mapping.mapper import classify_gate
from repro.network import LogicNetwork, supernode_bdd
from repro.sop import simplify_cover

from ..conftest import random_function
from ..sop.reference_algebraic import GateEmitter, expression_from_cover, factor_expression


class CheckingEngine(DecompositionEngine):
    """Recomputes the decision of every memo hit and asserts that it
    equals the stored one."""

    def _decision(self, f, shape, levels):
        hits = self.stats.memo_hits
        decision = super()._decision(f, shape, levels)
        if self.stats.memo_hits > hits:
            assert self._decide(f, shape, levels) == decision, (
                f"memo hit disagrees with a fresh decision on {shape}"
            )
        return decision


def tree_nodes(builder):
    """Every interned tree node, in creation order."""
    return [(builder.op(i), builder.children(i), builder.payload(i)) for i in range(len(builder))]


STEPS = ("majority", "and_or", "xor", "mux")


def fresh_bdd(network, supernode):
    """``supernode``'s own local BDD, built and sifted as the ``build-bdds``
    and ``reorder`` stages would without the structure memo; returns
    ``(mgr, root, sift changed the order)``."""
    mgr, root = supernode_bdd(
        network,
        supernode.output,
        supernode.members,
        supernode.inputs,
    )
    return mgr, root, mgr.sift([root]).changed


def decompose_network(network, flow, engine_class=DecompositionEngine, shared=True):
    """Partition ``network`` as ``flow`` does, then build, sift and
    decompose every supernode the slow way: its own manager and engine.

    Returns ``(tree_nodes, roots, steps, memo_hits)``.
    """
    ctx = get_pipeline(flow).up_to("build-bdds").run_context(network)
    builder = TreeBuilder()
    memo: dict = {}
    roots = {}
    steps = dict.fromkeys((*STEPS, "sifted"), 0)
    memo_hits = 0
    for supernode, _mgr, _root in ctx.scratch["partitions"]:
        mgr, root, changed = fresh_bdd(network, supernode)
        engine = engine_class(mgr, builder, ctx.config.engine, memo if shared else None)
        roots[supernode.output] = engine.decompose(root)
        for key in STEPS:
            steps[key] += getattr(engine.stats, key)
        steps["sifted"] += changed
        memo_hits += engine.stats.memo_hits
    return tree_nodes(builder), roots, steps, memo_hits


def assert_memo_is_transparent(network, flow):
    """Shared memo (checked on every hit) vs one memo per engine:
    identical trees, roots and steps; returns the shared run's hits."""
    shared = decompose_network(network, flow, CheckingEngine, shared=True)
    private = decompose_network(network, flow, shared=False)
    assert shared[:3] == private[:3]
    return shared[3]


def fresh_tape(network, config, supernode):
    """``supernode`` built, sifted and decomposed the slow way, on a tape:
    ``(calls, tape root, steps, sift changed the order)``."""
    mgr, root, changed = fresh_bdd(network, supernode)
    tape = TreeTape(supernode.inputs)
    engine = DecompositionEngine(mgr, tape, config.engine)
    tape_root = engine.decompose(root)
    steps = tuple(getattr(engine.stats, key) for key in STEPS)
    return tape.calls, tape_root, steps, changed


def assert_structure_hits_replay_fresh_builds(network, flow):
    """Every supernode that shares its first's build decomposes, the slow
    way, into the first's tape, steps and sift outcome; returns the hits."""
    ctx = get_pipeline(flow).up_to("build-bdds").run_context(network)
    firsts = ctx.scratch["firsts"]
    expected = {}
    hits = 0
    for supernode, _mgr, _root in ctx.scratch["partitions"]:
        first = firsts[supernode.output]
        if first is supernode:
            continue
        hits += 1
        if first.output not in expected:
            expected[first.output] = fresh_tape(network, ctx.config, first)
        assert fresh_tape(network, ctx.config, supernode) == expected[first.output], (
            f"{supernode.output} does not decompose like {first.output}"
        )
    return hits


@pytest.mark.parametrize("flow", ["bds-maj", "bds-pga"])
@pytest.mark.parametrize("circuit", ["alu2", "c6288", "add4x16"])
def test_registry_memo_hits_replay_fresh_decisions(circuit, flow):
    network = build_benchmark(circuit)
    hits = assert_memo_is_transparent(network, flow)
    if circuit == "c6288":
        assert hits > 0  # the multiplier's bit slices repeat
    structure_hits = assert_structure_hits_replay_fresh_builds(network, flow)
    assert structure_hits > {"alu2": 0, "c6288": 400, "add4x16": 60}[circuit]


@pytest.mark.parametrize("flow", ["bds-maj", "bds-pga"])
def test_decompose_stage_matches_per_engine_memos(flow):
    """The ``decompose`` stage's shared memo builds the trees, node
    counts and steps of engines that each decide everything afresh."""
    network = build_benchmark("add4x16")
    ctx = get_pipeline(flow).up_to("decompose").run_context(network)
    trace = ctx.scratch["trace"]
    tree, roots, steps, _ = decompose_network(network, flow, shared=False)
    assert tree_nodes(ctx.scratch["builder"]) == tree
    assert ctx.scratch["roots"] == roots
    assert steps == {
        "majority": trace.majority_steps,
        "and_or": trace.and_or_steps,
        "xor": trace.xor_steps,
        "mux": trace.mux_steps,
        "sifted": trace.sifted,
    }


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    xor_fraction=st.sampled_from([0.08, 0.3, 0.6]),
    flow=st.sampled_from(["bds-maj", "bds-pga"]),
)
def test_property_memo_is_transparent_on_random_networks(seed, xor_fraction, flow):
    network = random_control_network("rnd", 8, 4, 40, seed=seed, xor_fraction=xor_fraction)
    assert_memo_is_transparent(network, flow)
    assert_structure_hits_replay_fresh_builds(network, flow)
    ctx = get_pipeline(flow).up_to("decompose").run_context(network)
    tree, roots, _, _ = decompose_network(network, flow, shared=False)
    assert tree_nodes(ctx.scratch["builder"]) == tree
    assert ctx.scratch["roots"] == roots


def preserved_gate(builder, node):
    """The DC flow's verbatim re-emission of a preserved XOR/MUX node."""
    kind, out_inv, fanins = classify_gate(node)
    literals = [builder.literal(fanin) for fanin in fanins]
    if kind == "xor":
        return builder.xnor(*literals) if out_inv else builder.xor(*literals)
    tree = builder.mux(*literals)
    return builder.not_(tree) if out_inv else tree


def factor_network(network):
    """Partition ``network`` as the DC flow does, then build, minimize
    and factor every supernode the slow way: its own manager, the
    name-based reference factorer, straight onto one builder.  Returns
    ``(tree_nodes, roots)``."""
    ctx = get_pipeline("dc").up_to("collapse").run_context(network)
    hard = ctx.scratch["hard"]
    builder = TreeBuilder()
    emitter = GateEmitter(
        literal=lambda name, phase: (
            builder.literal(name) if phase else builder.not_(builder.literal(name))
        ),
        and2=builder.and_,
        or2=builder.or_,
        const=builder.const,
    )
    roots = {}
    for supernode, _mgr, _root in ctx.scratch["partitions"]:
        name = supernode.output
        if name in hard:
            roots[name] = preserved_gate(builder, network.node(name))
            continue
        mgr, root = supernode_bdd(
            network,
            name,
            supernode.members,
            supernode.inputs,
        )
        rows = list(simplify_cover(isop_cover_rows(mgr, root, supernode.inputs)))
        if not rows:
            roots[name] = builder.CONST0
            continue
        expression = expression_from_cover(rows, supernode.inputs)
        roots[name] = factor_expression(expression, emitter)
    return tree_nodes(builder), roots


def assert_dc_rewrite_matches_fresh_factoring(network):
    """The DC ``rewrite`` stage builds the slow way's trees and roots;
    returns the number of supernodes that shared another's build."""
    ctx = get_pipeline("dc").up_to("rewrite").run_context(network)
    tree, roots = factor_network(network)
    assert tree_nodes(ctx.scratch["builder"]) == tree
    assert ctx.scratch["roots"] == roots
    firsts = ctx.scratch["firsts"]
    return sum(firsts[s.output] is not s for s, _, _ in ctx.scratch["partitions"])


@pytest.mark.parametrize("circuit", ["alu2", "c6288", "add4x16"])
def test_dc_rewrite_replays_fresh_factorings(circuit):
    hits = assert_dc_rewrite_matches_fresh_factoring(build_benchmark(circuit))
    assert hits > {"alu2": 0, "c6288": 400, "add4x16": 60}[circuit]


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    xor_fraction=st.sampled_from([0.08, 0.3, 0.6]),
)
def test_property_dc_rewrite_replays_fresh_factorings(seed, xor_fraction):
    network = random_control_network("rnd", 8, 4, 40, seed=seed, xor_fraction=xor_fraction)
    assert_dc_rewrite_matches_fresh_factoring(network)


def test_dc_factoring_is_keyed_by_the_rank_of_the_input_names():
    """Two copies of one AND3 whose input names sort in opposite orders:
    factoring emits a cube's literals in name order, so the copies'
    trees differ in shape and must not share a factoring tape."""
    network = LogicNetwork("ranks")
    for name in "abcxyz":
        network.add_input(name)
    network.add_node("f", ["a", "b", "c"], ["111"])
    network.add_node("g", ["z", "y", "x"], ["111"])
    network.add_output("f")
    network.add_output("g")
    ctx = get_pipeline("dc").up_to("collapse").run_context(network)
    firsts = ctx.scratch["firsts"]
    assert firsts["g"] is firsts["f"]  # one structure
    assert assert_dc_rewrite_matches_fresh_factoring(network) == 1


def _build_with_history(table, names, junk_seed):
    """``table`` built in a fresh manager after random functions drawn
    from ``junk_seed`` consumed node ids."""
    mgr = BDD(names)
    rng = random.Random(junk_seed)
    for _ in range(junk_seed % 7 * 5):  # seed 0: a fresh manager
        random_function(mgr, names, rng, depth=4)
    return mgr, mgr.from_truth_table(table, names)


@settings(max_examples=150, deadline=None)
@given(
    table=st.integers(min_value=0, max_value=(1 << 32) - 1),
    junk_seed=st.integers(min_value=1, max_value=10_000).filter(lambda s: s % 7),
)
def test_m_dominator_ranking_ignores_allocation_history(table, junk_seed):
    """One function in two managers whose node ids were allocated in
    different orders: the candidates are the same preorder positions."""
    names = list("abcde")
    positions = []
    for seed in (0, junk_seed):
        mgr, f = _build_with_history(table, names, seed)
        preorder = mgr.nodes_reachable([f])
        positions.append([preorder.index(c.node) for c in find_m_dominators(mgr, f)])
    assert positions[0] == positions[1]


def test_shapes_agree_across_managers_and_rebuild_exactly():
    """Equal functions up to an order-preserving renaming have equal
    shapes, and ``from_shape`` rebuilds the edge it was taken from."""
    rng = random.Random(3)
    first = BDD(list("abcdef"))
    second = BDD(list("uvwxyz"))
    for _ in range(40):
        f = random_function(first, "abcdef", rng, depth=5)
        table = first.truth_table(f, list("abcdef"))
        g = second.from_truth_table(table, list("uvwxyz"))
        levels, shape = first.support_shape(f)
        other_levels, other_shape = second.support_shape(g)
        assert shape == other_shape
        assert second.from_shape(shape, other_levels) == g
        assert first.from_shape(shape, levels) == f
