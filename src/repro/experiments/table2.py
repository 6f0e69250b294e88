"""Table II regeneration: mapped area / gate count / delay for the four
synthesis flows on the 22 nm library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..api import get_pipeline
from ..benchgen import BENCHMARKS, build_benchmark
from ..flows import AbcFlowConfig, BdsFlowConfig, DcFlowConfig
from .paper_data import PAPER_TABLE2

FLOW_ORDER = ("bds-maj", "bds-pga", "abc", "dc")


@dataclass
class Table2Entry:
    key: str
    display: str
    category: str
    rows: dict[str, tuple[float, int, float]] = field(default_factory=dict)
    runtime: dict[str, float] = field(default_factory=dict)


def _flow_config(flow: str, quick: bool, verify: bool):
    if flow in ("bds-maj", "bds-pga"):
        return BdsFlowConfig(verify=verify)
    if flow == "abc":
        return AbcFlowConfig(quick=quick, verify=verify)
    return DcFlowConfig(verify=verify)


def run_table2(
    keys: Iterable[str] | None = None,
    quick: bool = False,
    verify: bool = True,
    progress: Callable[[str], None] | None = None,
) -> list[Table2Entry]:
    """Run all four flows on the selected benchmarks."""
    if keys is None:
        keys = list(BENCHMARKS)
    entries = []
    for key in keys:
        benchmark = BENCHMARKS[key]
        network = build_benchmark(key)
        entry = Table2Entry(key, benchmark.display, benchmark.category)
        for flow_name in FLOW_ORDER:
            config = _flow_config(flow_name, quick, verify)
            result = get_pipeline(flow_name).run(network, config)
            entry.rows[flow_name] = result.table2_row()
            entry.runtime[flow_name] = result.optimize_seconds
            if progress is not None:
                area, gates, delay = entry.rows[flow_name]
                progress(
                    f"{benchmark.display:18s} {flow_name:8s} "
                    f"A={area:8.2f} GC={gates:5d} D={delay:6.3f} "
                    f"({result.optimize_seconds:.1f}s)"
                )
        entries.append(entry)
    return entries


def summarize_table2(entries: list[Table2Entry]) -> dict[str, float]:
    """Average metrics and the paper's headline percentage deltas."""
    result: dict[str, float] = {}
    means: dict[str, tuple[float, float, float]] = {}
    for flow in FLOW_ORDER:
        areas = [entry.rows[flow][0] for entry in entries]
        gates = [entry.rows[flow][1] for entry in entries]
        delays = [entry.rows[flow][2] for entry in entries]
        means[flow] = (
            sum(areas) / len(areas),
            sum(gates) / len(gates),
            sum(delays) / len(delays),
        )
        result[f"mean_area_{flow}"] = means[flow][0]
        result[f"mean_gates_{flow}"] = means[flow][1]
        result[f"mean_delay_{flow}"] = means[flow][2]
    for reference in ("bds-pga", "abc", "dc"):
        result[f"area_vs_{reference}"] = 1.0 - means["bds-maj"][0] / means[reference][0]
        result[f"delay_vs_{reference}"] = 1.0 - means["bds-maj"][2] / means[reference][2]
    return result


def format_table2(entries: list[Table2Entry], include_paper: bool = True) -> str:
    lines = []
    header = f"{'Benchmark':18s} " + " | ".join(
        f"{flow:>24s}" for flow in FLOW_ORDER
    )
    sub = f"{'':18s} " + " | ".join(
        f"{'A(um2)':>9s}{'GC':>7s}{'D(ns)':>8s}" for _ in FLOW_ORDER
    )
    lines.append("TABLE II: Logic Synthesis, CMOS 22nm Technology Node")
    lines.append(header)
    lines.append(sub)
    lines.append("-" * len(sub))
    current_category = None
    for entry in entries:
        if entry.category != current_category:
            current_category = entry.category
            title = "MCNC Benchmarks" if current_category == "mcnc" else "HDL Benchmarks"
            lines.append(f"-- {title} --")
        cells = []
        for flow in FLOW_ORDER:
            area, gates, delay = entry.rows[flow]
            cells.append(f"{area:9.2f}{gates:7d}{delay:8.3f}")
        lines.append(f"{entry.display:18s} " + " | ".join(cells))
        if include_paper and entry.key in PAPER_TABLE2:
            cells = []
            for flow in FLOW_ORDER:
                area, gates, delay = PAPER_TABLE2[entry.key][flow]
                cells.append(f"{area:9.2f}{gates:7d}{delay:8.3f}")
            lines.append(f"{'  (paper)':18s} " + " | ".join(cells))
    summary = summarize_table2(entries)
    lines.append("-" * len(sub))
    lines.append(
        "Average: "
        + " | ".join(
            f"{flow}: A={summary[f'mean_area_{flow}']:.2f} "
            f"GC={summary[f'mean_gates_{flow}']:.0f} "
            f"D={summary[f'mean_delay_{flow}']:.3f}"
            for flow in FLOW_ORDER
        )
    )
    lines.append(
        "BDS-MAJ area delta: "
        f"{-summary['area_vs_abc'] * 100:+.1f}% vs ABC (paper -28.8%), "
        f"{-summary['area_vs_bds-pga'] * 100:+.1f}% vs BDS (paper -26.4%), "
        f"{-summary['area_vs_dc'] * 100:+.1f}% vs DC (paper -6.0%)"
    )
    lines.append(
        "BDS-MAJ delay delta: "
        f"{-summary['delay_vs_abc'] * 100:+.1f}% vs ABC (paper -12.8%), "
        f"{-summary['delay_vs_bds-pga'] * 100:+.1f}% vs BDS (paper -20.9%), "
        f"{-summary['delay_vs_dc'] * 100:+.1f}% vs DC (paper -7.8%)"
    )
    return "\n".join(lines)
