"""Figure reproductions.

* Figure 1 — the BDD of ``F = ab + bc + ac`` (paper order c, b, a) with
  its non-trivial m-dominator highlighted; emitted as Graphviz dot.
* Figure 2 — the majority balancing walkthrough of Sections III.C/D:
  ``Maj(a, b+c, bc)`` rebalanced to ``Maj(a, b, c)``.
* Figure 3 — the BDS-MAJ flow stage trace on a real benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..api import get_pipeline
from ..bdd import BDD, to_dot
from ..bdd.substitute import function_at
from ..benchgen import build_benchmark
from ..core import construct, find_m_dominators, optimize


@dataclass
class Figure1Result:
    dot: str
    dominator_function: str
    num_candidates: int


def figure1() -> Figure1Result:
    """Reproduce Figure 1 (m-dominator of the 3-input majority)."""
    mgr = BDD(["c", "b", "a"])  # the paper draws the order c, b, a
    f = mgr.from_expr("a & b | b & c | a & c")
    candidates = find_m_dominators(mgr, f)
    highlight = [candidate.node for candidate in candidates]
    dot = to_dot(mgr, {"F = ab+bc+ac": f}, highlight=highlight, graph_name="figure1")
    names = [
        mgr.top_var_name(function_at(mgr, candidate.node)) for candidate in candidates
    ]
    return Figure1Result(dot, ", ".join(names), len(candidates))


@dataclass
class Figure2Result:
    steps: list[str]


def figure2() -> Figure2Result:
    """Walk through the paper's balancing example."""
    mgr = BDD(["a", "b", "c"])
    f = mgr.from_expr("a & b | b & c | a & c")
    fa = mgr.var("a")
    steps = [f"F = ab + bc + ac (|F| = {mgr.size(f)})", "alpha: Fa = a (m-dominator)"]
    constructed = construct(mgr, f, fa)
    def describe(edge: int) -> str:
        table = {
            mgr.from_expr("b | c"): "b + c",
            mgr.from_expr("b & c"): "bc",
            mgr.var("a"): "a",
            mgr.var("b"): "b",
            mgr.var("c"): "c",
        }
        return table.get(edge, f"<bdd size {mgr.size(edge)}>")

    steps.append(
        f"beta: Fb = ITE(Fa^F, F, F|Fa) = {describe(constructed.fb)}; "
        f"Fc = ITE(Fa^F, F, F|Fa') = {describe(constructed.fc)}"
    )
    optimized = optimize(mgr, f, constructed)
    steps.append(
        "gamma: Fx = Fb^Fc = b^c -> (M, K) = (b, c)-split; "
        f"after ITE rebalancing: Fb = {describe(optimized.fb)}, "
        f"Fc = {describe(optimized.fc)}"
    )
    steps.append(
        f"omega: best triple sizes = {sorted(optimized.sizes(mgr))} "
        "=> F = Maj(a, b, c)"
    )
    rebuilt = mgr.maj(*optimized.parts())
    steps.append(f"certified: Maj(Fa,Fb,Fc) == F is {rebuilt == f}")
    return Figure2Result(steps)


@dataclass
class Figure3Result:
    benchmark: str
    lines: list[str]


def figure3(benchmark_key: str = "alu2") -> Figure3Result:
    """Print the executed BDS-MAJ stage sequence (the flow of Figure 3)."""
    network = build_benchmark(benchmark_key)
    ctx = get_pipeline("bds-maj").optimize_prefix().run_context(network)
    trace = ctx.scratch["trace"]
    lines = [
        f"input network: {network.num_nodes} nodes, "
        f"{len(network.inputs)} PIs, {len(network.outputs)} POs",
        f"[1] network partitioning      -> {trace.supernodes} supernodes",
        f"[2] variable reordering       -> {trace.sifted} supernodes sifted",
        "[3] BDD decomposition",
        f"      majority decompositions : {trace.majority_steps}",
        f"      AND/OR dominator splits : {trace.and_or_steps}",
        f"      XOR/XNOR splits         : {trace.xor_steps}",
        f"      MUX cofactor fallbacks  : {trace.mux_steps}",
        f"[4] factoring trees + sharing -> {trace.tree_nodes} network nodes "
        f"({ctx.node_counts})",
        f"[5] final netlist             -> {ctx.optimized.num_nodes} nodes",
    ]
    return Figure3Result(benchmark_key, lines)
