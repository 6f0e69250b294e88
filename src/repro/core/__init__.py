"""BDS-MAJ core: majority decomposition and the decomposition engine.

This package is the paper's primary contribution:

* :mod:`repro.core.mdominators` — the α-phase m-dominator search;
* :mod:`repro.core.majority` — Algorithm 1 (construction β, cyclic
  balancing γ, selection ω; Theorems 3.1-3.4);
* :mod:`repro.core.engine` — the combined BDS+MAJ recursive
  decomposition engine (BDS-PGA baseline via ``enable_majority=False``);
* :mod:`repro.core.tree` — interned factoring trees with on-line logic
  sharing and Table-I node accounting.
"""

from .engine import DecompositionEngine, EngineConfig, EngineStats
from .majority import (
    MajorityConfig,
    MajorityDecomposition,
    MajorityDecompositionError,
    accepts_globally,
    balance_pair,
    certify,
    construct,
    decompose_majority,
    is_better,
    optimize,
)
from .mdominators import MDominator, MDominatorConfig, find_m_dominators
from .tree import COUNTED_OPS, TreeBuilder, TreeTape, tree_from_bdd

__all__ = [
    "COUNTED_OPS",
    "DecompositionEngine",
    "EngineConfig",
    "EngineStats",
    "MDominator",
    "MDominatorConfig",
    "MajorityConfig",
    "MajorityDecomposition",
    "MajorityDecompositionError",
    "TreeBuilder",
    "TreeTape",
    "accepts_globally",
    "balance_pair",
    "certify",
    "construct",
    "decompose_majority",
    "find_m_dominators",
    "is_better",
    "optimize",
    "tree_from_bdd",
]
