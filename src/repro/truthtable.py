"""Truth-table columns as plain ints.

Bit ``m`` of a column is the value on minterm ``m`` over an ordered
variable list (variable ``j`` is bit ``j`` of the minterm index), so one
big-int operation simulates every minterm at once.  The AIG cut
resynthesis (:mod:`repro.aig.truth`), exhaustive equivalence checking
(:mod:`repro.network.equivalence`) and the dominator scan's path
simulation (:mod:`repro.bdd.dominators`) share these columns.  The
module imports nothing from the package, so every layer can use it.
"""

from __future__ import annotations


def var_mask(var: int, num_vars: int) -> int:
    """Truth table of variable ``var`` over ``num_vars`` inputs (runs of
    ``2**var`` zeros then ``2**var`` ones); 0 when ``var >= num_vars``."""
    if var >= num_vars:
        return 0
    width = 1 << var
    return full_mask(num_vars) // ((1 << width) + 1) << width


def full_mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1
