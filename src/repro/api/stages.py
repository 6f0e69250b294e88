"""The standard stages the four paper flows are composed from.

Each stage is a small, swappable transformation pass over the
:class:`~repro.api.SynthesisContext` — the structure Amarù-style MIG
optimization and the paper's own Figure 3 describe: ordered passes, not
one monolithic function.  These stages are the only implementation of
the flows; ``tests/api/golden_flows.json`` pins every built-in flow's
node counts, cache counters, Table-II row and netlists.

Scratch-space keys used between stages of one flow:

========== ==========================================================
key        producer -> consumer
========== ==========================================================
partitions ``build-bdds``/``collapse`` -> ``reorder``/``decompose``/``rewrite``
firsts     ``build-bdds``/``collapse`` -> ``reorder``/``decompose``/``rewrite``:
           each supernode output -> the first supernode of its
           structure, whose manager and root its ``partitions`` entry
           shares
trace      ``build-bdds`` -> every later BDS stage (and the batch layer)
builder    ``build-bdds``/``collapse`` -> ``decompose`` -> ``rewrite``
roots      ``decompose``/``rewrite`` tree roots per supernode output
aig        ``strash`` -> ``rewrite`` -> ``emit`` (ABC flow)
hard       ``collapse`` -> ``rewrite`` (DC flow's preserved RTL gates)
========== ==========================================================
"""

from __future__ import annotations

import dataclasses

from ..aig import aig_to_network, network_to_aig, resyn2
from ..bdd.isop import isop_cover_rows
from ..core import DecompositionEngine, EngineStats, TreeBuilder, TreeTape
from ..core.emit import network_from_trees
from ..flows.bds import BdsTrace
from ..mapping import analyze, map_network
from ..mapping.mapper import classify_gate
from ..network import Supernode, check_all_equivalent, partition_with_bdds
from ..sop import GateEmitter, expression_from_cover, factor_expression, simplify_cover
from .context import PipelineError, SynthesisContext


class LoadInput:
    """Resolve the bound :class:`~repro.api.InputItem` into a network.

    A no-op when the pipeline was handed a ready
    :class:`~repro.network.LogicNetwork` directly.
    """

    name = "load-input"
    optimize_timed = False

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        if ctx.network is None:
            if ctx.item is None:
                raise PipelineError(
                    f"pipeline {ctx.flow!r} has no input: pass a network or "
                    "an InputItem"
                )
            ctx.network = ctx.item.load()
        return ctx


# ----------------------------------------------------------------------
# BDS-MAJ / BDS-PGA stages (paper Figure 3)
# ----------------------------------------------------------------------
class BuildBdds:
    """Partition into supernodes and build every local BDD (IV.A).

    Datapath circuits are arrays of identical bit slices, so most
    supernodes are copies of one another up to their input names.  One
    structure-keyed memo per flow run (never shared across runs, so
    parallel reports stay byte-identical) builds each distinct
    structure once; a repeat shares the first one's manager and root,
    and the later stages sift and decompose it only once too.
    """

    name = "build-bdds"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        firsts: dict[str, Supernode] = {}
        partitions = partition_with_bdds(ctx.require("network"), ctx.config.partition, firsts)
        trace = BdsTrace()
        trace.supernodes = len(partitions)
        ctx.scratch.update(
            partitions=partitions,
            firsts=firsts,
            trace=trace,
            builder=TreeBuilder(),
            roots={},
        )
        return ctx


class ReorderVariables:
    """Per-supernode variable reordering via in-place sifting (IV.B).

    Every supernode is handed to the in-place sifter (no size guard);
    one with a node per support variable, most of them, costs no swap.
    A manager shared by supernodes of one structure is sifted once, and
    its outcome counts for each of them.  The manager and the root edge
    survive the pass unchanged (only the variable order moves), so the
    partition tuples are reused as-is.  A flow without reordering is a
    pipeline without this stage (:meth:`~repro.api.Pipeline.with_stages`).
    """

    name = "reorder"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        trace = ctx.scratch["trace"]
        firsts = ctx.scratch["firsts"]
        changed: dict[str, bool] = {}
        for supernode, mgr, root in ctx.scratch["partitions"]:
            first = firsts[supernode.output]
            if first.output not in changed:
                changed[first.output] = mgr.sift([root]).changed
            trace.sifted += changed[first.output]
        return ctx


class Decompose:
    """BDD decomposition with MAJ on top of the dominator search (IV.B).

    The engine runs once per structure, on a :class:`TreeTape` over the
    first supernode's inputs; every supernode of the structure, the
    first included, replays the tape onto the shared builder under its
    own input names.  Replaying makes exactly the builder calls a fresh
    decomposition would, so node ids, sharing and netlists do not move.
    """

    name = "decompose"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        scratch = ctx.scratch
        trace = scratch["trace"]
        builder = scratch["builder"]
        roots = scratch["roots"]
        firsts = scratch["firsts"]
        # One decision memo per flow run (one circuit), shared by every
        # supernode's engine: no state outlives the run, so reports do
        # not depend on which worker ran which circuits before.
        memo: dict = {}
        tapes: dict[str, tuple[TreeTape, int, EngineStats]] = {}
        for supernode, mgr, root in scratch["partitions"]:
            first = firsts[supernode.output]
            taped = tapes.get(first.output)
            if taped is None:
                tape = TreeTape(first.inputs)
                engine = DecompositionEngine(mgr, tape, ctx.config.engine, memo)
                taped = tapes[first.output] = (tape, engine.decompose(root), engine.stats)
                trace.add_cache_stats(engine.cache_report())
            tape, tape_root, stats = taped
            roots[supernode.output] = tape.replay(builder, supernode.inputs, tape_root)
            trace.majority_steps += stats.majority
            trace.and_or_steps += stats.and_or
            trace.xor_steps += stats.xor
            trace.mux_steps += stats.mux
        return ctx


class RewriteTrees:
    """Factoring trees with logic sharing -> gate netlist (IV.C).

    Also snapshots the Table-I node counts and the unified op-cache
    counters, completing the flow's deterministic observables.
    """

    name = "rewrite"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        network = ctx.require("network")
        builder = ctx.scratch["builder"]
        roots = ctx.scratch["roots"]
        trace = ctx.scratch["trace"]
        counts = builder.count_ops(roots.values())
        trace.tree_nodes = sum(counts.values())
        ctx.optimized = network_from_trees(
            builder,
            roots,
            inputs=list(network.inputs),
            outputs=list(network.outputs),
            name=network.name,
        )
        ctx.node_counts = counts
        ctx.cache_stats = trace.cache_summary()
        return ctx


# ----------------------------------------------------------------------
# ABC-like stages
# ----------------------------------------------------------------------
class Strash:
    """Structural hashing into an AIG (ABC's ``strash``)."""

    name = "strash"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        ctx.scratch["aig"] = network_to_aig(ctx.require("network"))
        return ctx


class RewriteAig:
    """The balance/rewrite/refactor script ``resyn2``, the paper's ABC
    baseline."""

    name = "rewrite"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        ctx.scratch["aig"] = resyn2(ctx.scratch["aig"])
        return ctx


class EmitFromAig:
    """AIG back to a gate netlist, recovering the three-AND XOR pattern."""

    name = "emit"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        network = ctx.require("network")
        ctx.optimized = aig_to_network(
            ctx.scratch["aig"], name=network.name, detect_xor=True
        )
        return ctx


# ----------------------------------------------------------------------
# DC-like stages
# ----------------------------------------------------------------------
class CollapseNetwork:
    """Partial collapse preserving RTL XOR/MUX operators (the DC-like
    flow's conservative flattening).

    Like ``build-bdds``, it passes a structure-keyed memo to
    :func:`~repro.network.partition_with_bdds`, so each distinct
    supernode structure is built once per flow run and its copies share
    the first one's manager and root.
    """

    name = "collapse"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        network = ctx.require("network")
        config = ctx.config
        hard: set[str] = set()
        for name in network.topological_order():
            kind, _, _ = classify_gate(network.node(name))
            if kind in ("xor", "mux"):
                hard.add(name)
        partition_config = dataclasses.replace(config.partition, hard_signals=frozenset(hard))
        firsts: dict[str, Supernode] = {}
        ctx.scratch.update(
            partitions=partition_with_bdds(network, partition_config, firsts),
            firsts=firsts,
            hard=hard,
            builder=TreeBuilder(),
            roots={},
        )
        return ctx


def _tape_emitter(tape: TreeTape, names: list[str]) -> GateEmitter:
    """A :func:`factor_expression` emitter recording on ``tape``;
    variable ``i`` is ``names[i]``."""
    return GateEmitter(
        literal=lambda var, phase: (
            tape.literal(names[var]) if phase else tape.not_(tape.literal(names[var]))
        ),
        and2=tape.and_,
        or2=tape.or_,
        const=lambda value: tape.CONST1 if value else tape.CONST0,
    )


class FactorCovers:
    """Minimize each supernode as a two-level cover and factor it into
    gates, re-emitting preserved RTL operators verbatim.

    The cover is computed once per structure: its rows are positional,
    so every copy has the first one's.  Factoring reads the names only
    through their sorted order (literal ties break by name): the
    expression numbers each input by the rank of its name.  So it runs
    once per structure and rank of the input names, on a
    :class:`TreeTape` that every supernode with that key, the first
    included, replays onto the shared builder under its own names.
    """

    name = "rewrite"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        network = ctx.require("network")
        scratch = ctx.scratch
        builder = scratch["builder"]
        firsts = scratch["firsts"]
        hard = scratch["hard"]
        roots = scratch["roots"]
        covers: dict[str, tuple[str, ...]] = {}
        tapes: dict[tuple[str, tuple[int, ...]], tuple[TreeTape, int]] = {}
        for supernode, mgr, root in scratch["partitions"]:
            name = supernode.output
            if name in hard:
                # Preserved RTL operator: re-emit it verbatim.
                node = network.node(name)
                kind, out_inv, fanins = classify_gate(node)
                if kind == "xor":
                    left = builder.literal(fanins[0])
                    right = builder.literal(fanins[1])
                    tree = (
                        builder.xnor(left, right)
                        if out_inv
                        else builder.xor(left, right)
                    )
                else:  # mux
                    tree = builder.mux(
                        builder.literal(fanins[0]),
                        builder.literal(fanins[1]),
                        builder.literal(fanins[2]),
                    )
                    if out_inv:
                        tree = builder.not_(tree)
                roots[name] = tree
                continue
            first = firsts[name]
            inputs = supernode.inputs
            by_rank = tuple(sorted(range(len(inputs)), key=inputs.__getitem__))
            key = (first.output, by_rank)
            taped = tapes.get(key)
            if taped is None:
                rows = covers.get(first.output)
                if rows is None:
                    rows = covers[first.output] = simplify_cover(
                        isop_cover_rows(mgr, root, first.inputs)
                    )
                ranks = [0] * len(inputs)
                for rank, position in enumerate(by_rank):
                    ranks[position] = rank
                tape = TreeTape(inputs)
                emitter = _tape_emitter(tape, [inputs[position] for position in by_rank])
                taped = tapes[key] = (
                    tape,
                    factor_expression(expression_from_cover(rows, ranks), emitter),
                )
            tape, tape_root = taped
            roots[name] = tape.replay(builder, inputs, tape_root)
        ctx.optimized = network_from_trees(
            builder,
            roots,
            inputs=list(network.inputs),
            outputs=list(network.outputs),
            name=network.name,
        )
        return ctx


# ----------------------------------------------------------------------
# Shared tail stages
# ----------------------------------------------------------------------
class MapNetwork:
    """Technology mapping + static timing analysis (V.B.1)."""

    name = "map"
    optimize_timed = False

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        ctx.mapped = map_network(ctx.require("optimized"), ctx.library)
        ctx.timing_report = analyze(ctx.mapped)
        return ctx


class VerifyEquivalence:
    """Equivalence check of the optimized network and then, when the
    ``map`` stage ran, the mapped netlist against the source, on one
    set of stimuli.  The only verify call site: the batch layer appends
    this stage to an optimize prefix it is asked to verify.

    Raises ``AssertionError`` on a counterexample (the optimized
    network's, if both differ): a flow that broke its circuit must never
    report success.
    """

    name = "verify"
    optimize_timed = False

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        if not ctx.verify:
            return ctx
        source = ctx.require("network")
        candidates = [ctx.require("optimized")]
        if ctx.mapped is not None:
            candidates.append(ctx.mapped.network)
        equivalence = check_all_equivalent(source, candidates)
        if not equivalence.equivalent:
            raise AssertionError(
                f"{ctx.flow} broke {source.name}: counterexample "
                f"{equivalence.counterexample}"
            )
        ctx.equivalence = equivalence
        return ctx
