"""A fixed reference workload that tracks the host's speed.

The host's speed drifts by up to half over minutes, in CPU time as well
as in wall time, and a CPU switches every few hundred milliseconds
between a fast state and one about 1.7 times slower.  A run therefore
times this workload in slices around its jobs and scales its times by
the nominal over the mean slice CPU time (see ``run.py``).  The
workload is the benchmark's own code: a small hash-consed BDD package
building the middle product bit of a 7x7 multiplier, the same kind of
dict- and tuple-heavy Python the synthesis flows run, so a change to
``repro`` cannot move it.
"""

from __future__ import annotations

import gc
import time

#: CPU seconds one :func:`reference_work` takes in the fast state of a
#: 2-CPU Intel Xeon host at 2.0 GHz with Python 3.11; the unit
#: normalized times use.
NOMINAL_SECONDS = 0.0098
WIDTH = 7


def _mk(nodes: list, unique: dict, var: int, low: int, high: int) -> int:
    if low == high:
        return low
    key = (var, low, high)
    node = unique.get(key)
    if node is None:
        node = unique[key] = len(nodes)
        nodes.append(key)
    return node


def _apply(nodes: list, unique: dict, memo: dict, op: int, f: int, g: int) -> int:
    if f <= 1 and g <= 1:
        return (op >> (f << 1 | g)) & 1
    key = (op, f, g)
    result = memo.get(key)
    if result is not None:
        return result
    var = min(nodes[f][0], nodes[g][0])
    f_low, f_high = (nodes[f][1], nodes[f][2]) if nodes[f][0] == var else (f, f)
    g_low, g_high = (nodes[g][1], nodes[g][2]) if nodes[g][0] == var else (g, g)
    low = _apply(nodes, unique, memo, op, f_low, g_low)
    high = _apply(nodes, unique, memo, op, f_high, g_high)
    result = memo[key] = _mk(nodes, unique, var, low, high)
    return result


def reference_work() -> int:
    """Build the BDD of bit ``WIDTH - 1`` of ``a * b`` with a private
    unique table; returns its node count.  It makes no reference
    cycles, so everything it allocates is freed on return."""
    nodes: list[tuple[int, int, int]] = [(1 << 30, 0, 0), (1 << 30, 1, 1)]
    unique: dict[tuple[int, int, int], int] = {}
    memo: dict[tuple[int, int, int], int] = {}

    def mk(var: int, low: int, high: int) -> int:
        return _mk(nodes, unique, var, low, high)

    def apply(op: int, f: int, g: int) -> int:
        return _apply(nodes, unique, memo, op, f, g)

    AND, XOR = 0b1000, 0b0110
    a = [mk(2 * i, 0, 1) for i in range(WIDTH)]
    b = [mk(2 * i + 1, 0, 1) for i in range(WIDTH)]
    # Column sums of the shift-and-add array, ripple carries between rows.
    row = [apply(AND, a[i], b[0]) for i in range(WIDTH)]
    for j in range(1, WIDTH):
        carry = 0
        new_row = [row[0]]
        for i in range(1, WIDTH):
            partial = apply(AND, a[i - j], b[j]) if i >= j else 0
            total = apply(XOR, apply(XOR, row[i], partial), carry)
            carry = apply(XOR, apply(AND, row[i], partial),
                          apply(AND, carry, apply(XOR, row[i], partial)))
            new_row.append(total)
        row = new_row
    return len(nodes)


def reference_seconds() -> float:
    """CPU seconds of one :func:`reference_work`, with the cyclic garbage
    collector off: a collection inside a slice costs in proportion to
    the whole heap, which the code under test sets."""
    gc.disable()
    try:
        start = time.process_time()
        reference_work()
        return time.process_time() - start
    finally:
        gc.enable()
