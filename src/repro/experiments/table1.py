"""Table I: decomposition node counts, BDS-MAJ vs BDS-PGA.

``bdsmaj table1`` runs the optimize prefix of both BDD pipelines over
the suite with :func:`~repro.flows.run_batch`, one batch per tool (no
mapping needed for Table I).  This module formats the two
:class:`~repro.flows.BatchReport` objects: the AND/OR/XOR/XNOR/MAJ node
counts of the decomposed network and the optimization runtime measured
in the worker, with the paper's published row next to each measured row.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ..bdd.manager import combine_cache_stats
from ..benchgen import BENCHMARKS
from ..flows import BatchReport, CircuitReport
from .paper_data import PAPER_TABLE1

TOOLS = ("bds-maj", "bds-pga")


def table_rows(
    reports: Iterable[BatchReport], flows: Sequence[str]
) -> list[dict[str, CircuitReport]]:
    """One ``{flow: circuit report}`` per circuit, in input order.

    Raises ``ValueError`` on a failed row, since a table never prints a
    failed circuit as zeros, and when a flow has no report or there is
    no circuit, since the summaries average over the circuits.
    """
    circuits = {report.flow: report.circuits for report in reports}
    missing = [flow for flow in flows if flow not in circuits]
    if missing:
        raise ValueError(f"no report for {', '.join(missing)}")
    rows = [
        dict(zip(flows, row)) for row in zip(*(circuits[flow] for flow in flows), strict=True)
    ]
    if not rows:
        raise ValueError("the reports hold no circuits")
    for row in rows:
        for circuit in row.values():
            if not circuit.ok:
                raise ValueError(
                    f"{circuit.benchmark} failed under {circuit.flow}: {circuit.error}"
                )
    return rows


def summarize_table1(reports: Iterable[BatchReport]) -> dict[str, float]:
    """The paper's headline aggregates over the measured circuits."""
    rows = table_rows(reports, TOOLS)
    maj_totals = [row["bds-maj"].total_nodes for row in rows]
    pga_totals = [row["bds-pga"].total_nodes for row in rows]
    maj_nodes = [row["bds-maj"].node_counts["maj"] for row in rows]
    mean_maj = sum(maj_totals) / len(maj_totals)
    mean_pga = sum(pga_totals) / len(pga_totals)
    runtime_maj = sum(row["bds-maj"].optimize_seconds for row in rows)
    runtime_pga = sum(row["bds-pga"].optimize_seconds for row in rows)
    cache = combine_cache_stats(row[tool].cache for row in rows for tool in TOOLS)
    return {
        "mean_total_bds_maj": mean_maj,
        "mean_total_bds_pga": mean_pga,
        "node_reduction": 1.0 - mean_maj / mean_pga if mean_pga else 0.0,
        "maj_fraction": sum(maj_nodes) / sum(maj_totals) if sum(maj_totals) else 0.0,
        "runtime_bds_maj": runtime_maj,
        "runtime_bds_pga": runtime_pga,
        "runtime_overhead": runtime_maj / runtime_pga - 1.0 if runtime_pga else 0.0,
        "wins": sum(1 for m, p in zip(maj_totals, pga_totals) if m < p),
        "benchmarks": len(rows),
        "bdd_cache_hit_rate": cache["hit_rate"],
    }


def format_table1(reports: Sequence[BatchReport], include_paper: bool = True) -> str:
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
    for row in table_rows(reports, TOOLS):
        key = row[TOOLS[0]].benchmark
        benchmark = BENCHMARKS[key]
        if benchmark.category != current_category:
            current_category = benchmark.category
            title = "MCNC Benchmarks" if current_category == "mcnc" else "HDL Benchmarks"
            lines.append(f"-- {title} --")
        for tool in TOOLS:
            circuit = row[tool]
            counts = circuit.node_counts
            lines.append(
                f"{benchmark.display:18s} {tool:8s} "
                f"{counts['and']:5d} {counts['or']:5d} {counts['xor']:5d} "
                f"{counts['xnor']:5d} {counts['maj']:5d} "
                f"{circuit.total_nodes:6d} {circuit.optimize_seconds:6.1f}"
            )
            if include_paper and key in PAPER_TABLE1:
                paper = PAPER_TABLE1[key][tool]
                lines.append(
                    f"{'  (paper)':18s} {tool:8s} "
                    f"{paper.and_:5d} {paper.or_:5d} {paper.xor:5d} "
                    f"{paper.xnor:5d} {paper.maj:5d} "
                    f"{paper.total:6d} {paper.runtime:6.1f}"
                )
    summary = summarize_table1(reports)
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
