"""Pure-Python ROBDD package (the BDS-MAJ substrate).

Public surface:

* :class:`BDD` — the manager (nodes, ITE, Boolean operators, evaluation);
* :func:`restrict` / :func:`constrain` — generalized cofactors
  (Theorem 3.3 seeds);
* dominator analysis — certified AND/OR/XOR decompositions and the
  balanced :func:`xor_split` used by the γ optimization phase;
* :func:`replace_node` / :func:`edge_statistics` — structural rewrites
  and fan-in counts behind the m-dominator search;
* :meth:`BDD.sift` — in-place Rudell sifting (per-level subtables +
  adjacent level swaps), with :func:`reorder` / :func:`sift_rebuild`
  as the rebuild-based constructions;
* :func:`to_dot` — Graphviz export (Figure 1).

Every manager owns its node store and operation cache; nothing is
shared between managers, threads or processes.
"""

from .cofactor import CareSetError, constrain, generalized_cofactor, restrict
from .dominators import (
    KIND_AND,
    KIND_OR,
    KIND_XOR,
    DominatorDecomposition,
    best_simple_decomposition,
    classify_cut_node,
    find_simple_decompositions,
    simple_dominator_nodes,
    xor_split,
)
from .dot import to_dot
from .manager import (
    BDD,
    BDDError,
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_MAX_GROWTH,
    OperationCache,
    SiftResult,
    TERMINAL_LEVEL,
    combine_cache_stats,
    maj3,
)
from .isop import bdd_isop, isop_cover_rows
from .quantify import count_paths, exists, forall, iter_cubes
from .reorder import reorder, sift_rebuild
from .substitute import (
    EdgeStatistics,
    NodeFanin,
    cut_nodes,
    edge_statistics,
    function_at,
    replace_node,
)

__all__ = [
    "BDD",
    "BDDError",
    "CareSetError",
    "DEFAULT_CACHE_CAPACITY",
    "DEFAULT_MAX_GROWTH",
    "SiftResult",
    "DominatorDecomposition",
    "EdgeStatistics",
    "OperationCache",
    "KIND_AND",
    "KIND_OR",
    "KIND_XOR",
    "NodeFanin",
    "TERMINAL_LEVEL",
    "bdd_isop",
    "best_simple_decomposition",
    "classify_cut_node",
    "combine_cache_stats",
    "constrain",
    "count_paths",
    "cut_nodes",
    "edge_statistics",
    "exists",
    "forall",
    "find_simple_decompositions",
    "function_at",
    "isop_cover_rows",
    "iter_cubes",
    "generalized_cofactor",
    "maj3",
    "reorder",
    "replace_node",
    "restrict",
    "sift_rebuild",
    "simple_dominator_nodes",
    "to_dot",
    "xor_split",
]
