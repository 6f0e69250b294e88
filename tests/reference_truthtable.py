"""Oracle for :func:`repro.truthtable.bdd_size`.

:func:`bdd_size` is the chunk walk as it was before the bottom four
levels were read from a lookup table: every depth, down to the 1-bit
chunks, keeps its set of distinct normalized chunks and counts those
whose two halves differ.  The production kernel, and the size that
:func:`repro.truthtable.cut_functions` returns, must equal it.
"""

from __future__ import annotations


def bdd_size(table: int, num_vars: int) -> int:
    """Internal nodes of the reduced BDD with complement edges of
    ``table`` (over ``num_vars`` variables, the top level the most
    significant minterm bit)."""
    width = 1 << num_vars
    if table & 1:
        table ^= (1 << width) - 1
    size = 0
    chunks = {table}
    for _ in range(num_vars):
        width >>= 1
        mask = (1 << width) - 1
        below = set()
        for chunk in chunks:
            low = chunk & mask
            high = chunk >> width
            below.add(low)
            if high != low:
                size += 1
                below.add(high ^ mask if high & 1 else high)
        chunks = below
    return size
