"""Experiment harnesses regenerating the paper's tables and figures.

The tables are :func:`~repro.flows.run_batch` reports, one per flow,
rendered by :func:`format_table1` / :func:`format_table2`."""

from .figures import figure1, figure2, figure3
from .paper_data import PAPER_HEADLINES, PAPER_TABLE1, PAPER_TABLE2
from .table1 import TOOLS, format_table1, summarize_table1
from .table2 import FLOW_ORDER, format_table2, summarize_table2

__all__ = [
    "FLOW_ORDER",
    "PAPER_HEADLINES",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "TOOLS",
    "figure1",
    "figure2",
    "figure3",
    "format_table1",
    "format_table2",
    "summarize_table1",
    "summarize_table2",
]
