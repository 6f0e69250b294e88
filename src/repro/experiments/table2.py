"""Table II: mapped area / gate count / delay for the four synthesis
flows on the 22 nm library.

``bdsmaj table2`` runs every flow's whole pipeline over the suite with
:func:`~repro.flows.run_batch` (``BatchConfig(mapped=True)``), one batch
per flow; this module formats the four :class:`~repro.flows.BatchReport`
objects from each circuit's ``table2_row``."""

from __future__ import annotations

from typing import Iterable, Sequence

from ..benchgen import BENCHMARKS
from ..flows import BatchReport
from .paper_data import PAPER_TABLE2
from .table1 import table_rows

FLOW_ORDER = ("bds-maj", "bds-pga", "abc", "dc")


def _table2_rows(
    reports: Iterable[BatchReport],
) -> list[tuple[str, dict[str, tuple[float, int, float]]]]:
    """``(registry key, {flow: (area, gates, delay)})`` per circuit."""
    rows = []
    for row in table_rows(reports, FLOW_ORDER):
        key = row[FLOW_ORDER[0]].benchmark
        cells = {flow: circuit.table2_row for flow, circuit in row.items()}
        if None in cells.values():
            raise ValueError(f"{key} has no Table II row: only a mapped batch records it")
        rows.append((key, cells))
    return rows


def summarize_table2(reports: Iterable[BatchReport]) -> dict[str, float]:
    """Average metrics and the paper's headline percentage deltas."""
    rows = [cells for _, cells in _table2_rows(reports)]
    result: dict[str, float] = {}
    means: dict[str, tuple[float, float, float]] = {}
    for flow in FLOW_ORDER:
        areas = [cells[flow][0] for cells in rows]
        gates = [cells[flow][1] for cells in rows]
        delays = [cells[flow][2] for cells in rows]
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


def format_table2(reports: Sequence[BatchReport], include_paper: bool = True) -> str:
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
    for key, measured in _table2_rows(reports):
        benchmark = BENCHMARKS[key]
        if benchmark.category != current_category:
            current_category = benchmark.category
            title = "MCNC Benchmarks" if current_category == "mcnc" else "HDL Benchmarks"
            lines.append(f"-- {title} --")
        cells = []
        for flow in FLOW_ORDER:
            area, gates, delay = measured[flow]
            cells.append(f"{area:9.2f}{gates:7d}{delay:8.3f}")
        lines.append(f"{benchmark.display:18s} " + " | ".join(cells))
        if include_paper and key in PAPER_TABLE2:
            cells = []
            for flow in FLOW_ORDER:
                area, gates, delay = PAPER_TABLE2[key][flow]
                cells.append(f"{area:9.2f}{gates:7d}{delay:8.3f}")
            lines.append(f"{'  (paper)':18s} " + " | ".join(cells))
    summary = summarize_table2(reports)
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
