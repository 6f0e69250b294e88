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

#: Variable-reordering policies of the BDS flows (Section IV.B and the
#: dynamic-reordering subsystem on top of it):
#:
#: * ``"none"``    — no reordering at all (the ablation baseline);
#: * ``"once"``    — one in-place sifting pass per supernode between
#:   construction and decomposition (the published default);
#: * ``"converge"``— sifting passes repeated to a fixpoint
#:   (:meth:`BDD.sift_converge`);
#: * ``"dynamic"`` — growth-triggered sifting *during* BDD construction
#:   (CUDD-style doubling threshold) rescuing builds that would blow
#:   the node budget, plus the standard single pass before
#:   decomposition.
REORDER_POLICIES = ("none", "once", "converge", "dynamic")


def normalize_reorder_policy(value: object) -> str:
    """Validate a reorder policy name; raises ``ValueError`` for
    anything outside :data:`REORDER_POLICIES`."""
    if value not in REORDER_POLICIES:
        raise ValueError(f"unknown reorder policy {value!r} (known: {REORDER_POLICIES})")
    return str(value)


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
    #: Variable-reordering policy (one of :data:`REORDER_POLICIES`).
    #: The in-place sifting engine is cheap enough to run on *every*
    #: supernode — there are no size guards.
    reorder: str = "once"
    verify: bool = True
    library: CellLibrary | None = None

    def __post_init__(self) -> None:
        self.reorder = normalize_reorder_policy(self.reorder)


@dataclass
class BdsTrace:
    """Executed-stage trace (the Figure 3 reproduction prints this)."""

    supernodes: int = 0
    sifted: int = 0
    #: Growth-triggered reorders performed *during* BDD construction
    #: (``reorder="dynamic"`` only; not part of the serialized reports,
    #: whose schema the default policy keeps byte-identical).
    reorderings: int = 0
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

