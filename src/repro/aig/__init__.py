"""And-Inverter Graph substrate: the ABC-like optimization baseline."""

from .aig import Aig
from .convert import aig_to_network, network_to_aig
from .cuts import cut_truth_table, enumerate_cuts
from .opt import balance, refactor, resyn2, rewrite
from ..truthtable import full_mask, var_mask
from .truth import cover_to_table, isop, synthesize_table

__all__ = [
    "Aig",
    "aig_to_network",
    "balance",
    "cover_to_table",
    "cut_truth_table",
    "enumerate_cuts",
    "full_mask",
    "isop",
    "network_to_aig",
    "refactor",
    "resyn2",
    "rewrite",
    "synthesize_table",
    "var_mask",
]
