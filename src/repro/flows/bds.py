"""Configuration and trace of the BDS-MAJ and BDS-PGA flows (paper Figure 3).

Stages: network partitioning into supernodes (IV.A) → per-supernode
variable reordering and BDD decomposition with MAJ on top of the
dominator search (IV.B) → factoring trees with logic sharing (IV.C) →
gate netlist → technology mapping with MAJ/XOR/XNOR direct assignment
(V.B.1).  The stages themselves live in :mod:`repro.api.stages`.

The BDS-PGA baseline is the identical flow with the majority
decomposition disabled — exactly the comparison Table I draws.  The
flow name alone decides that: the ``bds-maj`` and ``bds-pga`` pipelines
set ``engine.enable_majority`` on a copy of the config they are given.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..bdd.manager import combine_cache_stats
from ..core import EngineConfig
from ..mapping.library import CellLibrary
from ..network import PartitionConfig

@dataclass
class BdsFlowConfig:
    """Flow-level knobs (defaults follow the paper's Section IV).

    Majority decomposition is not a knob here: the pipeline the config
    runs under (``bds-maj`` or ``bds-pga``) sets
    ``engine.enable_majority`` on its own copy.
    """

    partition: PartitionConfig = field(
        default_factory=lambda: PartitionConfig(max_support=10, max_bdd_nodes=220)
    )
    engine: EngineConfig = field(default_factory=EngineConfig)
    verify: bool = True
    library: CellLibrary | None = None


@dataclass
class BdsTrace:
    """Executed-stage trace (the Figure 3 reproduction prints this)."""

    supernodes: int = 0
    sifted: int = 0
    majority_steps: int = 0
    and_or_steps: int = 0
    xor_steps: int = 0
    mux_steps: int = 0
    tree_nodes: int = 0
    #: Unified BDD operation-cache counters, summed over the supernode
    #: managers (construction + decomposition traffic; in-place sifting
    #: itself performs no cached operations).
    bdd_cache_hits: int = 0
    bdd_cache_misses: int = 0
    bdd_cache_evictions: int = 0

    def add_cache_stats(self, stats: dict[str, int | float]) -> None:
        self.bdd_cache_hits += int(stats["hits"])
        self.bdd_cache_misses += int(stats["misses"])
        self.bdd_cache_evictions += int(stats["evictions"])

    @property
    def bdd_cache_hit_rate(self) -> float:
        return float(self.cache_summary()["hit_rate"])

    def cache_summary(self) -> dict[str, int | float]:
        """The Table-I / batch-report cache columns."""
        return combine_cache_stats(
            [
                {
                    "hits": self.bdd_cache_hits,
                    "misses": self.bdd_cache_misses,
                    "evictions": self.bdd_cache_evictions,
                }
            ]
        )

