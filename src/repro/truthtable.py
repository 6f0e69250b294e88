"""Truth-table columns as plain ints.

Bit ``m`` of a column is the value on minterm ``m`` over an ordered
variable list (variable ``j`` is bit ``j`` of the minterm index), so one
big-int operation simulates every minterm at once.  The AIG cut
resynthesis (:mod:`repro.aig.truth`) and exhaustive equivalence checking
(:mod:`repro.network.equivalence`) share these columns.  The module
imports nothing from the package, so every layer can use it.

The majority search (:mod:`repro.core.majority`) and the dominator
scan's path simulation (:mod:`repro.bdd.dominators`) work on tables
over a BDD's support levels listed top-down, with the top level as the
*most* significant minterm bit (:func:`level_columns`): the two
cofactors of such a table on its top variable are its upper and lower
halves, and the cofactors on the variables above a depth are the
table's aligned chunks of the width below it.  :func:`bdd_size` and
:func:`cut_functions` read the table's reduced BDD with complement edges
off those chunks, without building it, and :func:`restrict` walks those
chunks as the BDD ``restrict`` walks nodes.  :func:`bdd_size` walks the
chunks down to 16 bits only and reads the bottom four levels from a
256-entry lookup table of 8-bit chunks (:data:`_NODE_BITS`).
"""

from __future__ import annotations

from functools import lru_cache


def var_mask(var: int, num_vars: int) -> int:
    """Truth table of variable ``var`` over ``num_vars`` inputs (runs of
    ``2**var`` zeros then ``2**var`` ones); 0 when ``var >= num_vars``."""
    if var >= num_vars:
        return 0
    width = 1 << var
    return full_mask(num_vars) // ((1 << width) + 1) << width


def full_mask(num_vars: int) -> int:
    return (1 << (1 << num_vars)) - 1


@lru_cache(maxsize=16)
def level_columns(num_vars: int) -> tuple[int, ...]:
    """The columns of ``num_vars`` variables listed top-down, the first
    the most significant minterm bit (cached: the γ-phase asks for the
    same few widths on every call)."""
    return tuple(var_mask(num_vars - 1 - position, num_vars) for position in range(num_vars))


def node_tables(order: list, column: dict[int, int], full: int) -> dict[int, int]:
    """Bottom-up simulation of BDD nodes: each node's regular function.

    ``order`` lists ``((level, high, low), index)`` for nodes of one
    manager sorted by level, closed under children; edges are
    ``index << 1 | complement``, node 0 is the terminal ONE and high
    edges are regular.  ``column[level]`` is the stimulus column of the
    variable at ``level`` and ``full`` the all-ones column.  The result
    maps every index of ``order``, and 0, to its column.
    """
    function = {0: full}
    for (level, high, low), index in reversed(order):
        high_value = function[high >> 1]
        low_value = function[low >> 1]
        if low & 1:
            low_value ^= full
        function[index] = low_value ^ (high_value ^ low_value) & column[level]
    return function


def _node_bits() -> tuple[int, ...]:
    """``_NODE_BITS[c]`` for every 8-bit chunk ``c`` (see :func:`bdd_size`)."""
    ids: dict[tuple[int, int], int] = {}

    def nodes(chunk: int, width: int) -> int:
        if width == 1:
            return 0
        half = width >> 1
        mask = (1 << half) - 1
        low = chunk & mask
        high = chunk >> half
        bits = nodes(low, half) | nodes(high ^ mask if high & 1 else high, half)
        if high != low:
            bits |= 1 << ids.setdefault((width, chunk), len(ids))
        return bits

    return tuple(nodes(chunk ^ 0xFF if chunk & 1 else chunk, 8) for chunk in range(256))


#: One bit per node of the BDD of each 8-bit chunk (three variables), a
#: chunk and its complement sharing an entry: a node is a depth and a
#: normalized chunk, and the 127 possible nodes each own a bit.
_NODE_BITS = _node_bits()


def bdd_size(table: int, num_vars: int) -> int:
    """Internal nodes of the reduced BDD with complement edges of
    ``table`` (over ``num_vars`` variables, :func:`level_columns` order).

    At depth ``d`` the cofactors on the ``d`` top variables are the
    table's chunks of width ``2**(num_vars - d)``.  A chunk is kept in
    the polarity whose bit 0 is 0, which identifies a function with its
    complement as a complement edge does; each distinct chunk whose two
    halves differ is one node at that depth.  A low half inherits bit 0
    of its chunk, so only high halves need normalizing.

    The walk stops at the 16-bit chunks.  Each of them is one node if
    its 8-bit halves differ, and the nodes of the three levels below are
    the union of its halves' :data:`_NODE_BITS`, so one ``bit_count``
    of the OR over all of them counts those levels.  A table over fewer
    than four variables is widened with dummy top variables, which make
    no node.
    """
    if num_vars < 4:
        table *= 0xFFFF // full_mask(num_vars)
        num_vars = 4
    width = 1 << num_vars
    if table & 1:
        table ^= (1 << width) - 1
    size = 0
    chunks = {table}
    for _ in range(num_vars - 4):
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
    bits = 0
    for chunk in chunks:
        low = chunk & 0xFF
        high = chunk >> 8
        if high != low:
            size += 1
        bits |= _NODE_BITS[low] | _NODE_BITS[high]
    return size + bits.bit_count()


def cut_functions(table: int, num_vars: int) -> tuple[int, list[int]]:
    """:func:`bdd_size` of ``table``, and the functions of the cut nodes
    of its BDD: the nodes other than the root on every root-to-terminal
    path, top-down.  One walk over every depth gives both.

    A depth holds a cut node when its chunks (see :func:`bdd_size`)
    are a single function that depends on the depth's variable: no path
    passes that depth through another node or jumps over it.  The first
    such depth holds the root.  Each function is in the node's regular
    polarity, which is 1 on the all-ones input, and is returned over
    all ``num_vars`` variables.
    """
    full = full_mask(num_vars)
    width = 1 << num_vars
    if table & 1:
        table ^= full
    size = 0
    functions = []
    chunks = {table}
    for _ in range(num_vars):
        half = width >> 1
        mask = (1 << half) - 1
        if len(chunks) == 1:
            (chunk,) = chunks
            if chunk >> half != chunk & mask:
                if not chunk >> (width - 1):
                    chunk ^= (1 << width) - 1
                functions.append(chunk * (full // ((1 << width) - 1)))
        below = set()
        for chunk in chunks:
            low = chunk & mask
            high = chunk >> half
            below.add(low)
            if high != low:
                size += 1
                below.add(high ^ mask if high & 1 else high)
        chunks = below
        width = half
    return size, functions[1:]  # the first is the root


def restrict(table: int, care: int, num_vars: int) -> int:
    """Coudert/Madre *restrict* of ``table`` w.r.t. the non-empty care
    set ``care`` (both over ``num_vars`` variables, :func:`level_columns`
    order): the table of :func:`repro.bdd.restrict` on their BDDs.

    The walk takes the BDD walk's branches on chunks: a chunk's top
    variable is the first depth at which its two halves differ.  Where
    the care set tests a variable ``table`` skips, that variable is
    quantified out of the care set; where ``table`` tests it, a care
    half that is empty sends the walk down the other half alone.  A
    result that does not depend on a depth's variable fills both halves.
    """
    memo: dict[tuple[int, int, int], int] = {}

    def walk(f: int, c: int, width: int) -> int:
        mask = (1 << width) - 1
        if c == mask or f == 0 or f == mask:
            return f
        if f == c:
            return mask
        if f == c ^ mask:
            return 0
        key = (width, f, c)
        result = memo.get(key)
        if result is None:
            half = width >> 1
            low_mask = (1 << half) - 1
            f1, f0 = f >> half, f & low_mask
            c1, c0 = c >> half, c & low_mask
            if f1 == f0:
                # The care set may test this variable; ``table`` does not.
                below = walk(f0, c1 | c0, half)
                result = below << half | below
            elif c1 == 0:
                below = walk(f0, c0, half)
                result = below << half | below
            elif c0 == 0:
                below = walk(f1, c1, half)
                result = below << half | below
            else:
                result = walk(f1, c1, half) << half | walk(f0, c0, half)
            memo[key] = result
        return result

    if care == 0:
        raise ValueError("restrict w.r.t. the empty care set is undefined")
    return walk(table, care, 1 << num_vars)
