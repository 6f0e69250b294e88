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
partitions ``build-bdds``/``collapse`` -> ``reorder``/``decompose``
trace      ``build-bdds`` -> every later BDS stage (and the batch layer)
builder    ``build-bdds``/``collapse`` -> ``decompose`` -> ``rewrite``
roots      ``decompose``/``rewrite`` tree roots per supernode output
aig        ``strash`` -> ``rewrite`` -> ``emit`` (ABC flow)
hard       ``collapse`` -> ``rewrite`` (DC flow's preserved RTL gates)
emitter    ``collapse`` -> ``rewrite`` (DC flow's gate emitter)
========== ==========================================================
"""

from __future__ import annotations

import dataclasses

from ..aig import aig_to_network, network_to_aig, resyn2, resyn_quick
from ..bdd.isop import isop_cover_rows
from ..core import DecompositionEngine, TreeBuilder
from ..core.emit import network_from_trees
from ..flows.bds import BdsTrace
from ..mapping import analyze, map_network
from ..mapping.mapper import classify_gate
from ..network import check_equivalence, partition_with_bdds
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

    Under ``config.reorder == "dynamic"`` the local BDDs are built with
    growth-triggered reordering armed (see
    :class:`~repro.network.PartitionConfig`): clusters whose
    construction-order BDD overflows the node budget are sifted
    mid-build instead of demoted.
    """

    name = "build-bdds"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        config = ctx.config
        partition = config.partition
        if config.reorder == "dynamic" and not partition.dynamic_reorder:
            # On a copy: the caller's partition config is never mutated.
            partition = dataclasses.replace(partition, dynamic_reorder=True)
        partitions = partition_with_bdds(ctx.require("network"), partition)
        trace = BdsTrace()
        trace.supernodes = len(partitions)
        trace.reorderings = sum(mgr.reorderings for _s, mgr, _r in partitions)
        ctx.scratch.update(
            partitions=partitions,
            trace=trace,
            builder=TreeBuilder(),
            roots={},
        )
        return ctx


class ReorderVariables:
    """Per-supernode variable reordering via in-place sifting (IV.B).

    Every supernode is sifted — the in-place engine swaps adjacent
    levels by local node surgery, so there is no size guard anymore.
    The manager and the root edge survive the pass unchanged (only the
    variable order moves), so the partition tuples are reused as-is.
    ``config.reorder`` selects the policy: ``"once"`` (and
    ``"dynamic"``, whose construction-time reorders already ran in
    ``build-bdds``) run one pass, ``"converge"`` repeats passes to a
    fixpoint, ``"none"`` skips the stage.
    """

    name = "reorder"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        policy = ctx.config.reorder
        if policy == "none":
            return ctx
        trace = ctx.scratch["trace"]
        for _supernode, mgr, root in ctx.scratch["partitions"]:
            sift = mgr.sift_converge if policy == "converge" else mgr.sift
            if sift([root]).changed:
                trace.sifted += 1
        return ctx


class Decompose:
    """BDD decomposition with MAJ on top of the dominator search (IV.B)."""

    name = "decompose"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        scratch = ctx.scratch
        trace = scratch["trace"]
        builder = scratch["builder"]
        roots = scratch["roots"]
        for supernode, mgr, root in scratch["partitions"]:
            engine = DecompositionEngine(mgr, builder, ctx.config.engine)
            roots[supernode.output] = engine.decompose(root)
            trace.add_cache_stats(engine.cache_report())
            trace.majority_steps += engine.stats.majority
            trace.and_or_steps += engine.stats.and_or
            trace.xor_steps += engine.stats.xor
            trace.mux_steps += engine.stats.mux
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
    """The balance/rewrite/refactor script (``resyn2``, or the short
    script with ``config.quick``)."""

    name = "rewrite"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        aig = ctx.scratch["aig"]
        ctx.scratch["aig"] = resyn_quick(aig) if ctx.config.quick else resyn2(aig)
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
    flow's conservative flattening)."""

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
        builder = TreeBuilder()
        emitter = GateEmitter(
            literal=lambda name, phase: (
                builder.literal(name) if phase else builder.not_(builder.literal(name))
            ),
            and2=builder.and_,
            or2=builder.or_,
            const=builder.const,
        )
        ctx.scratch.update(
            partitions=partition_with_bdds(network, partition_config),
            hard=hard,
            builder=builder,
            emitter=emitter,
            roots={},
        )
        return ctx


class FactorCovers:
    """Minimize each supernode as a two-level cover and factor it into
    gates, re-emitting preserved RTL operators verbatim."""

    name = "rewrite"
    optimize_timed = True

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        network = ctx.require("network")
        scratch = ctx.scratch
        builder = scratch["builder"]
        emitter = scratch["emitter"]
        hard = scratch["hard"]
        roots = scratch["roots"]
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
            rows = isop_cover_rows(mgr, root, supernode.inputs)
            rows = list(simplify_cover(rows))
            if not rows:
                roots[name] = builder.CONST0
                continue
            expression = expression_from_cover(rows, supernode.inputs)
            roots[name] = factor_expression(expression, emitter)
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
    """Equivalence check of the optimized network and then the mapped
    netlist against the source.

    Raises ``AssertionError`` on a counterexample: a flow that broke its
    circuit must never report success.
    """

    name = "verify"
    optimize_timed = False

    def run(self, ctx: SynthesisContext) -> SynthesisContext:
        if not ctx.verify:
            return ctx
        source = ctx.require("network")
        mapped = ctx.require("mapped")
        equivalence = check_equivalence(source, ctx.require("optimized"))
        if equivalence.equivalent:
            equivalence = check_equivalence(source, mapped.network)
        if not equivalence.equivalent:
            raise AssertionError(
                f"{ctx.flow} broke {source.name}: counterexample "
                f"{equivalence.counterexample}"
            )
        ctx.equivalence = equivalence
        return ctx
