"""The result record of one full pipeline run."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..mapping import MappedCircuit, TimingReport
from ..network import EquivalenceResult, LogicNetwork


@dataclass
class FlowResult:
    """Everything one full pipeline run produces for one benchmark,
    netlists included (``bdsmaj synth``, API callers).  The batch
    service, serve and both paper tables record a
    :class:`~repro.flows.CircuitReport` per circuit instead.

    ``node_counts`` holds the Table-I style decomposed-network node
    counts (AND/OR/XOR/XNOR/MAJ) where the flow defines them (the two
    BDD flows); ``optimize_seconds`` is the logic-optimization runtime
    the paper reports in Table I.
    """

    flow: str
    benchmark: str
    optimized: LogicNetwork
    mapped: MappedCircuit
    timing: TimingReport
    optimize_seconds: float
    node_counts: dict[str, int] = field(default_factory=dict)
    equivalence: EquivalenceResult | None = None
    #: Unified BDD operation-cache counters aggregated over the flow
    #: (hits/misses/evictions/hit_rate); empty for non-BDD flows.
    cache_stats: dict[str, int | float] = field(default_factory=dict)

    @property
    def total_nodes(self) -> int:
        return sum(self.node_counts.values())

    def table2_row(self) -> tuple[float, int, float]:
        """(area um^2, gate count, delay ns) as in Table II."""
        return self.timing.row()

