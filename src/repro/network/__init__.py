"""Boolean network substrate: netlists, BLIF I/O, simulation,
equivalence checking and BDS-style network partitioning."""

from .bdds import BddSizeExceeded, cover_to_bdd, global_bdds, supernode_bdd
from .blif import BlifError, BlifWarning, parse_blif, read_blif, to_blif, write_blif
from .equivalence import (
    EquivalenceResult,
    bdd_equivalent,
    check_all_equivalent,
    check_equivalence,
    exhaustive_equivalent,
    random_equivalent,
)
from .netlist import LogicNetwork, NetworkError, Node
from .partition import (
    PartitionConfig,
    Supernode,
    partition,
    partition_statistics,
    partition_with_bdds,
)

__all__ = [
    "BddSizeExceeded",
    "BlifError",
    "BlifWarning",
    "EquivalenceResult",
    "LogicNetwork",
    "NetworkError",
    "Node",
    "PartitionConfig",
    "Supernode",
    "bdd_equivalent",
    "check_all_equivalent",
    "check_equivalence",
    "cover_to_bdd",
    "exhaustive_equivalent",
    "global_bdds",
    "parse_blif",
    "partition",
    "partition_statistics",
    "partition_with_bdds",
    "random_equivalent",
    "read_blif",
    "supernode_bdd",
    "to_blif",
    "write_blif",
]
