"""Reference copies of the BDD manager's apply kernels, as they were
before the kernels were flattened, and of the sifting pass, as it was
before it learned to skip walks that cannot move a variable.

Each function takes the manager as its first argument and drives the
same private node store, unique table and operation cache the methods
of :class:`repro.bdd.BDD` use.  The oracle tests in
``test_kernel_oracle.py`` run one random operation sequence through
these copies and through the live kernels on twin managers and require
equal result edges, allocation counts and cache counters: the flattened
kernels must issue the very same ``OperationCache.get``/``put`` keys and
``_mk`` calls, in the same order.  ``test_sift_bound.py`` requires the
bounded sifter to end on the same order, size and ``changed`` flag as
:func:`ref_sift`, which walks every variable.
"""

from __future__ import annotations

from repro.bdd import BDD, SiftResult
from repro.bdd.manager import _OP_AND, _OP_COFACTOR, _OP_ITE, _OP_XOR


def _cofactors(mgr: BDD, edge: int, level: int) -> tuple[int, int]:
    index = edge >> 1
    if mgr._level[index] != level:
        return edge, edge
    high = mgr._high[index]
    low = mgr._low[index]
    if edge & 1:
        return high ^ 1, low ^ 1
    return high, low


def _and_terminal(f: int, g: int) -> int | None:
    if f == g:
        return f
    if f ^ g == 1:
        return BDD.ZERO
    if f == BDD.ONE:
        return g
    if g == BDD.ONE:
        return f
    if f == BDD.ZERO or g == BDD.ZERO:
        return BDD.ZERO
    return None


def _and_lookup(f: int, g: int, local: dict) -> int:
    result = _and_terminal(f, g)
    if result is not None:
        return result
    if (g >> 1) < (f >> 1):
        f, g = g, f
    return local[(f, g)]


def ref_and(mgr: BDD, f: int, g: int) -> int:
    result = _and_terminal(f, g)
    if result is not None:
        return result
    if (g >> 1) < (f >> 1):
        f, g = g, f
    levels = mgr._level
    cache = mgr._cache
    local: dict = {}
    stack = [(f, g, False)]
    while stack:
        a, b, ready = stack.pop()
        key = (a, b)
        if not ready:
            if key in local:
                continue
            cached = cache.get((_OP_AND, a, b))
            if cached is not None:
                local[key] = cached
                continue
            local[key] = None
            top = min(levels[a >> 1], levels[b >> 1])
            a1, a0 = _cofactors(mgr, a, top)
            b1, b0 = _cofactors(mgr, b, top)
            stack.append((a, b, True))
            for x, y in ((a1, b1), (a0, b0)):
                if _and_terminal(x, y) is None:
                    if (y >> 1) < (x >> 1):
                        x, y = y, x
                    if (x, y) not in local:
                        stack.append((x, y, False))
        else:
            top = min(levels[a >> 1], levels[b >> 1])
            a1, a0 = _cofactors(mgr, a, top)
            b1, b0 = _cofactors(mgr, b, top)
            result = mgr._mk(
                top,
                _and_lookup(a1, b1, local),
                _and_lookup(a0, b0, local),
            )
            cache.put((_OP_AND, a, b), result)
            local[key] = result
    return local[(f, g)]


def ref_or(mgr: BDD, f: int, g: int) -> int:
    return ref_and(mgr, f ^ 1, g ^ 1) ^ 1


def _xor_terminal(f: int, g: int) -> int | None:
    if f == g:
        return BDD.ZERO
    if f ^ g == 1:
        return BDD.ONE
    if f == BDD.ZERO:
        return g
    if f == BDD.ONE:
        return g ^ 1
    if g == BDD.ZERO:
        return f
    if g == BDD.ONE:
        return f ^ 1
    return None


def _xor_lookup(f: int, g: int, local: dict) -> int:
    result = _xor_terminal(f, g)
    if result is not None:
        return result
    negate = (f & 1) ^ (g & 1)
    f &= ~1
    g &= ~1
    if (g >> 1) < (f >> 1):
        f, g = g, f
    return local[(f, g)] ^ negate


def ref_xor(mgr: BDD, f: int, g: int) -> int:
    result = _xor_terminal(f, g)
    if result is not None:
        return result
    negate = (f & 1) ^ (g & 1)
    f &= ~1
    g &= ~1
    if (g >> 1) < (f >> 1):
        f, g = g, f
    levels = mgr._level
    cache = mgr._cache
    local: dict = {}
    stack = [(f, g, False)]
    while stack:
        a, b, ready = stack.pop()
        key = (a, b)
        if not ready:
            if key in local:
                continue
            cached = cache.get((_OP_XOR, a, b))
            if cached is not None:
                local[key] = cached
                continue
            local[key] = None
            top = min(levels[a >> 1], levels[b >> 1])
            a1, a0 = _cofactors(mgr, a, top)
            b1, b0 = _cofactors(mgr, b, top)
            stack.append((a, b, True))
            for x, y in ((a1, b1), (a0, b0)):
                if _xor_terminal(x, y) is None:
                    x &= ~1
                    y &= ~1
                    if (y >> 1) < (x >> 1):
                        x, y = y, x
                    if (x, y) not in local:
                        stack.append((x, y, False))
        else:
            top = min(levels[a >> 1], levels[b >> 1])
            a1, a0 = _cofactors(mgr, a, top)
            b1, b0 = _cofactors(mgr, b, top)
            result = mgr._mk(
                top,
                _xor_lookup(a1, b1, local),
                _xor_lookup(a0, b0, local),
            )
            cache.put((_OP_XOR, a, b), result)
            local[key] = result
    return local[(f, g)] ^ negate


def ref_ite(mgr: BDD, f: int, g: int, h: int) -> int:
    if f == mgr.ONE:
        return g
    if f == mgr.ZERO:
        return h
    if g == h:
        return g
    if g == f:
        g = mgr.ONE
    elif g == f ^ 1:
        g = mgr.ZERO
    if h == f:
        h = mgr.ZERO
    elif h == f ^ 1:
        h = mgr.ONE
    if g == mgr.ONE and h == mgr.ZERO:
        return f
    if g == mgr.ZERO and h == mgr.ONE:
        return f ^ 1
    if g == h:
        return g
    if g == mgr.ONE:
        return ref_or(mgr, f, h)
    if g == mgr.ZERO:
        return ref_and(mgr, f ^ 1, h)
    if h == mgr.ZERO:
        return ref_and(mgr, f, g)
    if h == mgr.ONE:
        return ref_or(mgr, f ^ 1, g)
    if h == g ^ 1:
        return ref_xor(mgr, f, g) ^ 1
    if f & 1:
        f ^= 1
        g, h = h, g
    negate_out = False
    if g & 1:
        g ^= 1
        h ^= 1
        negate_out = True
    key = (_OP_ITE, f, g, h)
    local = mgr._op_overlay
    outermost = local is None
    if outermost:
        local = mgr._op_overlay = {}
    try:
        result = local.get(key)
        if result is None:
            cache = mgr._cache
            result = cache.get(key)
            if result is None:
                levels = mgr._level
                top = min(levels[f >> 1], levels[g >> 1], levels[h >> 1])
                f1, f0 = _cofactors(mgr, f, top)
                g1, g0 = _cofactors(mgr, g, top)
                h1, h0 = _cofactors(mgr, h, top)
                then_edge = ref_ite(mgr, f1, g1, h1)
                else_edge = ref_ite(mgr, f0, g0, h0)
                result = mgr._mk(top, then_edge, else_edge)
                cache.put(key, result)
            local[key] = result
    finally:
        if outermost:
            mgr._op_overlay = None
    return result ^ 1 if negate_out else result


def ref_cofactor(mgr: BDD, edge: int, level: int, value: bool) -> int:
    value = bool(value)
    cache = mgr._cache
    local: dict[int, int] = {}

    def walk(e: int) -> int:
        index = e >> 1
        node_level = mgr._level[index]
        if node_level > level:
            return e
        complement = e & 1
        if node_level == level:
            branch = mgr._high[index] if value else mgr._low[index]
            return branch ^ complement
        regular_e = e ^ complement
        cached = local.get(regular_e)
        if cached is None:
            key = (_OP_COFACTOR, regular_e, level, value)
            cached = cache.get(key)
            if cached is None:
                cached = mgr._mk(node_level, walk(mgr._high[index]), walk(mgr._low[index]))
                cache.put(key, cached)
            local[regular_e] = cached
        return cached ^ complement

    return walk(edge)


def ref_sift(mgr: BDD, roots: list[int], max_growth: float | None) -> SiftResult:
    """:meth:`BDD.sift` with the unbounded pass: every variable, in or
    out of the support, walks the whole order."""
    pins = list(roots)
    mgr.gc(pins)
    for edge in pins:
        mgr.pin(edge)
    try:
        return ref_sift_pinned(mgr, max_growth)
    finally:
        for edge in pins:
            mgr.unpin(edge)


def ref_sift_pinned(mgr: BDD, max_growth: float | None) -> SiftResult:
    count = len(mgr._names)
    initial = mgr.live_nodes()
    if count < 2:
        return SiftResult(initial, initial, 0, False)
    population = {name: len(mgr._subtables[level]) for level, name in enumerate(mgr._names)}
    current_size = initial
    swaps = 0
    changed = False
    for name in sorted(mgr._names, key=lambda n: -population[n]):
        position = mgr._level_by_name[name]
        sizes = {position: current_size}
        limit = None if max_growth is None else max_growth * current_size
        pos = position
        while pos > 0:
            size = mgr.swap_adjacent(pos - 1)
            swaps += 1
            pos -= 1
            sizes[pos] = size
            if limit is not None and size > limit:
                break
        while pos < count - 1:
            size = mgr.swap_adjacent(pos)
            swaps += 1
            pos += 1
            sizes[pos] = size
            if limit is not None and size > limit:
                break
        best_size, best_pos = sizes[position], position
        for candidate in sorted(sizes):
            if candidate != position and sizes[candidate] < best_size:
                best_size, best_pos = sizes[candidate], candidate
        while pos > best_pos:
            mgr.swap_adjacent(pos - 1)
            swaps += 1
            pos -= 1
        while pos < best_pos:
            mgr.swap_adjacent(pos)
            swaps += 1
            pos += 1
        current_size = best_size
        if best_pos != position:
            changed = True
    return SiftResult(initial, current_size, swaps, changed)
