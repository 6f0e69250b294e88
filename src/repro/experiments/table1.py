"""Table I regeneration: decomposition node counts, BDS-MAJ vs BDS-PGA.

For every benchmark the harness runs the *optimize prefix* of both BDD
pipelines (no mapping needed for Table I), collects the
AND/OR/XOR/XNOR/MAJ node counts of the decomposed network and the
runtime, and prints the table with the paper's published row next to
each measured row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..api import get_pipeline
from ..bdd.manager import combine_cache_stats
from ..benchgen import BENCHMARKS, build_benchmark
from ..network import check_equivalence
from .paper_data import PAPER_TABLE1

TOOLS = ("bds-maj", "bds-pga")


@dataclass
class Table1Entry:
    key: str
    display: str
    category: str
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    runtime: dict[str, float] = field(default_factory=dict)
    verified: dict[str, bool] = field(default_factory=dict)
    #: Per-tool BDD operation-cache counters (hits/misses/evictions/
    #: hit_rate) aggregated over the flow's supernode managers.
    cache: dict[str, dict[str, int | float]] = field(default_factory=dict)

    def total(self, tool: str) -> int:
        return sum(self.counts[tool].values())


def run_table1(
    keys: Iterable[str] | None = None,
    verify: bool = False,
    progress: Callable[[str], None] | None = None,
) -> list[Table1Entry]:
    """Run the Table I experiment; returns one entry per benchmark."""
    if keys is None:
        keys = list(BENCHMARKS)
    entries = []
    for key in keys:
        benchmark = BENCHMARKS[key]
        network = build_benchmark(key)
        entry = Table1Entry(key, benchmark.display, benchmark.category)
        for tool in TOOLS:
            ctx = get_pipeline(tool).optimize_prefix().run_context(network)
            entry.runtime[tool] = ctx.optimize_seconds
            entry.counts[tool] = ctx.node_counts
            entry.cache[tool] = ctx.cache_stats
            if verify:
                entry.verified[tool] = bool(
                    check_equivalence(network, ctx.optimized).equivalent
                )
            if progress is not None:
                progress(
                    f"{benchmark.display:18s} {tool:8s} "
                    f"total={entry.total(tool):5d} "
                    f"({entry.runtime[tool]:.1f}s)"
                )
        entries.append(entry)
    return entries


def summarize_table1(entries: list[Table1Entry]) -> dict[str, float]:
    """The paper's headline aggregates over the measured entries."""
    maj_totals = [e.total("bds-maj") for e in entries]
    pga_totals = [e.total("bds-pga") for e in entries]
    maj_nodes = [e.counts["bds-maj"]["maj"] for e in entries]
    mean_maj = sum(maj_totals) / len(maj_totals)
    mean_pga = sum(pga_totals) / len(pga_totals)
    runtime_maj = sum(e.runtime["bds-maj"] for e in entries)
    runtime_pga = sum(e.runtime["bds-pga"] for e in entries)
    cache = combine_cache_stats(
        e.cache[t] for e in entries for t in TOOLS if t in e.cache
    )
    return {
        "mean_total_bds_maj": mean_maj,
        "mean_total_bds_pga": mean_pga,
        "node_reduction": 1.0 - mean_maj / mean_pga if mean_pga else 0.0,
        "maj_fraction": sum(maj_nodes) / sum(maj_totals) if sum(maj_totals) else 0.0,
        "runtime_bds_maj": runtime_maj,
        "runtime_bds_pga": runtime_pga,
        "runtime_overhead": runtime_maj / runtime_pga - 1.0 if runtime_pga else 0.0,
        "wins": sum(1 for m, p in zip(maj_totals, pga_totals) if m < p),
        "benchmarks": len(entries),
        "bdd_cache_hit_rate": cache["hit_rate"],
    }


def format_table1(entries: list[Table1Entry], include_paper: bool = True) -> str:
    """Render the table in the paper's column layout."""
    lines = []
    header = (
        f"{'Benchmark':18s} {'tool':8s} "
        f"{'AND':>5s} {'OR':>5s} {'XOR':>5s} {'XNOR':>5s} {'MAJ':>5s} "
        f"{'Total':>6s} {'Sec':>6s}"
    )
    lines.append("TABLE I: Decomposition Results, BDS-MAJ vs BDS-PGA")
    lines.append(header)
    lines.append("-" * len(header))
    current_category = None
    for entry in entries:
        if entry.category != current_category:
            current_category = entry.category
            title = "MCNC Benchmarks" if current_category == "mcnc" else "HDL Benchmarks"
            lines.append(f"-- {title} --")
        for tool in TOOLS:
            counts = entry.counts[tool]
            lines.append(
                f"{entry.display:18s} {tool:8s} "
                f"{counts['and']:5d} {counts['or']:5d} {counts['xor']:5d} "
                f"{counts['xnor']:5d} {counts['maj']:5d} "
                f"{entry.total(tool):6d} {entry.runtime[tool]:6.1f}"
            )
            if include_paper and entry.key in PAPER_TABLE1:
                paper = PAPER_TABLE1[entry.key][tool]
                lines.append(
                    f"{'  (paper)':18s} {tool:8s} "
                    f"{paper.and_:5d} {paper.or_:5d} {paper.xor:5d} "
                    f"{paper.xnor:5d} {paper.maj:5d} "
                    f"{paper.total:6d} {paper.runtime:6.1f}"
                )
    summary = summarize_table1(entries)
    lines.append("-" * len(header))
    lines.append(
        f"Average node reduction vs BDS-PGA: {summary['node_reduction'] * 100:.1f}% "
        f"(paper: 29.1%)"
    )
    lines.append(
        f"MAJ share of BDS-MAJ nodes: {summary['maj_fraction'] * 100:.1f}% (paper: 9.8%)"
    )
    lines.append(
        f"BDS-MAJ wins on {summary['wins']}/{summary['benchmarks']} benchmarks"
    )
    lines.append(
        f"Runtime: BDS-MAJ {summary['runtime_bds_maj']:.1f}s, "
        f"BDS-PGA {summary['runtime_bds_pga']:.1f}s "
        f"({summary['runtime_overhead'] * 100:+.1f}%; paper: +4.6%)"
    )
    lines.append(
        f"BDD op-cache hit rate: {summary['bdd_cache_hit_rate'] * 100:.1f}% "
        f"(unified ite/cofactor/quantify cache)"
    )
    return "\n".join(lines)
