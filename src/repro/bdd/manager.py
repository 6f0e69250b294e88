"""Reduced Ordered Binary Decision Diagram (ROBDD) manager.

This is the central substrate of the BDS-MAJ reproduction.  The design
follows the classic Brace/Rudell/Bryant BDD package (DAC 1990, the
paper's reference [19]):

* nodes live in one store shared by every function of the manager and
  are identified by integer indices;
* an *edge* (the public handle for a Boolean function) is an integer
  ``(node_index << 1) | complement_bit``;
* complement attributes are allowed only on 0-edges (the paper's
  canonical-form condition (iii) in Section II.B), which makes the
  representation canonical: two functions are equal iff their edge
  handles are equal;
* operators are implemented by specialized apply kernels (``and_``,
  ``or_``, ``xor``) plus a memoized generic ``ite``.

The node store is *mutable*, in the style of the C packages:

* the unique table is split into per-level subtables, so
  :meth:`BDD.swap_adjacent` can exchange two adjacent variables by
  local node surgery in O(nodes at the two levels) — the building block
  of in-place Rudell sifting (:meth:`BDD.sift`);
* per-node reference counts of DAG parents plus a free-list let the
  swap free nodes that die during the surgery and recycle their slots;
* :meth:`BDD.gc` is a mark-and-sweep collector over caller-declared
  roots, compacting the subtables so :meth:`BDD.live_nodes` tracks the
  live size (while :meth:`BDD.num_nodes` keeps counting allocations).

The terminal node has index 0 and represents constant TRUE; its
complemented edge represents constant FALSE.

Variables are identified by *level* (position in the global variable
order, 0 = topmost).  Names are kept in a side table so that networks
and tests can speak in terms of signal names; a level swap exchanges
the names, never the node indices, so edge handles held by callers stay
valid across reordering.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..truthtable import full_mask, level_columns, node_tables

#: Level assigned to the terminal node; deeper than any real variable.
TERMINAL_LEVEL = 1 << 30

#: Level sentinel marking a freed (recyclable) node-store slot.
_FREE_LEVEL = -1

#: Default bound on the number of memoized operation results per manager.
DEFAULT_CACHE_CAPACITY = 1 << 18

#: Default growth bound for :meth:`BDD.sift`: a sifting walk aborts in
#: one direction once the live size exceeds this multiple of the size
#: the variable started from.
DEFAULT_MAX_GROWTH = 4.0

#: A function's structure with node ids and levels renamed
#: (:meth:`BDD.shape`): ``(root, ((position, high, low), ...))``.
Shape = tuple[int, tuple[tuple[int, int, int], ...]]

# Operation tags for the unified cache keys.  Small ints keep the key
# tuples compact and hash deterministically (no string hashing, so the
# cache behaves identically across processes regardless of
# PYTHONHASHSEED — a requirement of the deterministic batch service).
_OP_ITE = 0
_OP_COFACTOR = 1
_OP_EXISTS = 2
_OP_AND = 3
_OP_XOR = 4


class BDDError(Exception):
    """Raised for invalid BDD operations (unknown variable, bad edge...)."""


class OperationCache:
    """Size-bounded memo table shared by every BDD operator.

    One keyed dict serves the apply kernels, ``ite``, ``cofactor`` and
    ``exists``; entries are ``(op_tag, operands...) -> result_edge``.
    When the bound is reached the oldest *inserted* entry is evicted
    (FIFO).  FIFO never reorders entries, so eviction is fully
    deterministic for a given operation sequence (a requirement of the
    byte-identical batch reports).
    """

    __slots__ = ("capacity", "hits", "misses", "evictions", "_data")

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: dict[tuple, int] = {}

    def get(self, key: tuple) -> int | None:
        result = self._data.get(key)
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: tuple, value: int) -> None:
        data = self._data
        if key not in data and len(data) >= self.capacity:
            del data[next(iter(data))]
            self.evictions += 1
        data[key] = value

    def clear(self) -> None:
        """Drop all entries; counters keep accumulating."""
        self._data.clear()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> dict[str, int | float]:
        result = combine_cache_stats(
            [{"hits": self.hits, "misses": self.misses, "evictions": self.evictions}]
        )
        result["entries"] = len(self._data)
        result["capacity"] = self.capacity
        return result


def combine_cache_stats(
    stats: Iterable[Mapping[str, int | float]],
) -> dict[str, int | float]:
    """Sum hits/misses/evictions over ``stats`` dicts and derive the
    hit rate — the one place that aggregation rule lives (the trace,
    batch and table layers all report through it)."""
    hits = misses = evictions = 0
    for entry in stats:
        hits += int(entry.get("hits", 0))
        misses += int(entry.get("misses", 0))
        evictions += int(entry.get("evictions", 0))
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "hit_rate": hits / lookups if lookups else 0.0,
    }


@dataclass(frozen=True)
class SiftResult:
    """Outcome of an in-place sifting pass (:meth:`BDD.sift`)."""

    #: Live nodes (incl. terminal) when the run started, post-GC.
    initial_size: int
    #: Live nodes when the run finished.
    final_size: int
    #: Adjacent-level swaps performed (walks plus backtracking).
    swaps: int
    #: True when the run left the variable order different from the
    #: one it started with.
    changed: bool


class BDD:
    """A reduced ordered BDD manager with complemented 0-edges.

    Typical use::

        mgr = BDD(["a", "b", "c"])
        a, b, c = (mgr.var(n) for n in "abc")
        f = mgr.or_(mgr.and_(a, b), mgr.and_(c, mgr.xor(a, b)))
        mgr.eval(f, {"a": 1, "b": 0, "c": 1})

    Edges returned by this class are plain ``int`` handles; they are only
    meaningful together with the manager that produced them.  Reordering
    (:meth:`sift`, :meth:`swap_adjacent`) preserves every edge's
    function; :meth:`gc` invalidates edges not reachable from its roots.
    """

    #: Edge handle of constant TRUE.
    ONE = 0
    #: Edge handle of constant FALSE.
    ZERO = 1

    def __init__(
        self,
        var_names: Iterable[str] = (),
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ) -> None:
        # Node store (parallel arrays, index = node id).  Node 0 is the
        # terminal; its high/low entries are never read.  `_ref` counts
        # DAG parents only — external handles are pinned explicitly by
        # the operations that free nodes (sift) or declared as roots
        # (gc).  Freed slots carry _FREE_LEVEL and sit on `_free` until
        # `_mk` recycles them.
        self._level: list[int] = [TERMINAL_LEVEL]
        self._high: list[int] = [0]
        self._low: list[int] = [0]
        self._ref: list[int] = [0]
        self._free: list[int] = []
        self._created = 1
        # Unique table, split per level so a level swap touches exactly
        # two subtables.  Keys are (high_edge, low_edge).
        self._subtables: list[dict[tuple[int, int], int]] = []
        self._cache = OperationCache(cache_capacity)
        # Per-top-level-call memo overlay for ite (see the comment in
        # :meth:`ite`): None outside a call, a dict inside one.
        self._op_overlay: dict[tuple, int] | None = None
        self._names: list[str] = []
        self._level_by_name: dict[str, int] = {}
        for name in var_names:
            self.add_var(name)

    # ------------------------------------------------------------------
    # Operation-cache introspection
    # ------------------------------------------------------------------
    @property
    def op_cache(self) -> OperationCache:
        """The unified operation cache (all operators share it)."""
        return self._cache

    def cache_stats(self) -> dict[str, int | float]:
        """Hit/miss/eviction counters and occupancy of the op cache."""
        return self._cache.stats()

    def clear_caches(self) -> None:
        """Drop memoized operation results (the unique table stays)."""
        self._cache.clear()

    # ------------------------------------------------------------------
    # Variable management
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Append variable ``name`` at the bottom of the order; return its level."""
        if name in self._level_by_name:
            raise BDDError(f"variable {name!r} already declared")
        level = len(self._names)
        self._names.append(name)
        self._level_by_name[name] = level
        self._subtables.append({})
        return level

    @property
    def var_names(self) -> tuple[str, ...]:
        """Variable names in order (index = level)."""
        return tuple(self._names)

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def level_of(self, name: str) -> int:
        try:
            return self._level_by_name[name]
        except KeyError:
            raise BDDError(f"unknown variable {name!r}") from None

    def name_of(self, level: int) -> str:
        return self._names[level]

    def var(self, name: str) -> int:
        """Edge for the positive literal of variable ``name``."""
        return self.var_at(self.level_of(name))

    def var_at(self, level: int) -> int:
        """Edge for the positive literal of the variable at ``level``."""
        if not 0 <= level < len(self._names):
            raise BDDError(f"no variable at level {level}")
        return self._mk(level, self.ONE, self.ZERO)

    # ------------------------------------------------------------------
    # Node level / structure accessors
    # ------------------------------------------------------------------
    @staticmethod
    def node_index(edge: int) -> int:
        """Node id referenced by ``edge`` (complement bit stripped)."""
        return edge >> 1

    @staticmethod
    def is_complemented(edge: int) -> bool:
        return bool(edge & 1)

    @staticmethod
    def regular(edge: int) -> int:
        """``edge`` with the complement attribute cleared."""
        return edge & ~1

    def is_constant(self, edge: int) -> bool:
        return edge >> 1 == 0

    def level_of_edge(self, edge: int) -> int:
        """Level of the node referenced by ``edge`` (terminal = huge)."""
        return self._level[edge >> 1]

    def top_var_name(self, edge: int) -> str:
        """Name of the top variable of ``edge`` (must not be constant)."""
        if self.is_constant(edge):
            raise BDDError("constant edge has no top variable")
        return self._names[self._level[edge >> 1]]

    def node_fields(self, index: int) -> tuple[int, int, int]:
        """``(level, high_edge, low_edge)`` of node ``index``."""
        return self._level[index], self._high[index], self._low[index]

    def num_nodes(self) -> int:
        """Total nodes ever *created* in this manager (incl. terminal).

        A monotone allocation counter: garbage collection and slot
        recycling never decrease it.  Use :meth:`live_nodes` for the
        current size of the store (the :class:`BddSizeExceeded
        <repro.network.BddSizeExceeded>` guards do).
        """
        return self._created

    def live_nodes(self) -> int:
        """Nodes currently allocated (incl. terminal): created minus
        freed by :meth:`gc` or reordering."""
        return len(self._level) - len(self._free)

    # ------------------------------------------------------------------
    # Core construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, high: int, low: int) -> int:
        """Find-or-create the node ``(level, high, low)`` keeping the
        canonical form: no redundant node, high edge always regular."""
        if high == low:
            return high
        negated = high & 1
        if negated:
            high ^= 1
            low ^= 1
        table = self._subtables[level]
        key = (high, low)
        index = table.get(key)
        if index is None:
            free = self._free
            if free:
                index = free.pop()
                self._level[index] = level
                self._high[index] = high
                self._low[index] = low
            else:
                index = len(self._level)
                self._level.append(level)
                self._high.append(high)
                self._low.append(low)
                self._ref.append(0)
            self._ref[high >> 1] += 1
            self._ref[low >> 1] += 1
            table[key] = index
            self._created += 1
        edge = index << 1
        return edge ^ 1 if negated else edge

    def _cofactors(self, edge: int, level: int) -> tuple[int, int]:
        """Shannon cofactors of ``edge`` w.r.t. the variable at ``level``.

        ``level`` must be <= the edge's top level; if the edge does not
        depend on that variable both cofactors are the edge itself.
        """
        index = edge >> 1
        if self._level[index] != level:
            return edge, edge
        high = self._high[index]
        low = self._low[index]
        if edge & 1:
            return high ^ 1, low ^ 1
        return high, low

    # ------------------------------------------------------------------
    # Reference counting, garbage collection
    # ------------------------------------------------------------------
    def _deref(self, edge: int) -> None:
        """Drop one DAG-parent reference from ``edge``'s node, freeing
        it (and cascading into its children) when the count hits zero."""
        ref = self._ref
        levels = self._level
        highs = self._high
        lows = self._low
        free = self._free
        freed = False
        stack = [edge >> 1]
        while stack:
            index = stack.pop()
            if index == 0:
                continue
            ref[index] -= 1
            if ref[index] > 0:
                continue
            high = highs[index]
            low = lows[index]
            del self._subtables[levels[index]][(high, low)]
            levels[index] = _FREE_LEVEL
            free.append(index)
            freed = True
            stack.append(high >> 1)
            stack.append(low >> 1)
        if freed and len(self._cache):
            # Freed slots may be recycled by _mk; memoized results
            # referencing them by index would go stale.
            self._cache.clear()

    def pin(self, edge: int) -> None:
        """Protect ``edge``'s node from being freed by level swaps.

        :meth:`swap_adjacent` frees nodes whose last DAG parent is
        rewritten away; an external handle is invisible to the
        reference counts, so callers driving raw swaps must pin the
        edges they hold (:meth:`sift` pins its roots itself).  Pins are
        dropped by :meth:`gc`, which re-derives exact counts."""
        if edge >> 1:
            self._ref[edge >> 1] += 1

    def unpin(self, edge: int) -> None:
        """Release a :meth:`pin`.  Never frees the node — an unpinned,
        unparented node stays live (like a fresh root) until gc."""
        if edge >> 1:
            self._ref[edge >> 1] -= 1

    def gc(self, roots: Iterable[int] = ()) -> int:
        """Mark-and-sweep: free every node not reachable from ``roots``.

        Compacts the unique subtables, recycles the freed slots, resets
        reference counts to exact DAG-parent counts and clears the
        operation cache (whose entries may reference freed indices).
        Returns the number of nodes collected.

        **Every edge not reachable from ``roots`` is invalidated** —
        callers must re-derive any other handles they hold (variable
        edges are recreated on demand by :meth:`var`).
        """
        levels = self._level
        highs = self._high
        lows = self._low
        reachable = bytearray(len(levels))
        reachable[0] = 1
        stack = [edge >> 1 for edge in roots]
        while stack:
            index = stack.pop()
            if reachable[index]:
                continue
            reachable[index] = 1
            stack.append(highs[index] >> 1)
            stack.append(lows[index] >> 1)
        ref = self._ref
        free = self._free
        collected = 0
        for index in range(1, len(levels)):
            level = levels[index]
            if level == _FREE_LEVEL:
                continue
            if reachable[index]:
                ref[index] = 0
                continue
            del self._subtables[level][(highs[index], lows[index])]
            levels[index] = _FREE_LEVEL
            free.append(index)
            ref[index] = 0
            collected += 1
        for index in range(1, len(levels)):
            if levels[index] != _FREE_LEVEL:
                ref[highs[index] >> 1] += 1
                ref[lows[index] >> 1] += 1
        if collected and len(self._cache):
            self._cache.clear()
        return collected

    # ------------------------------------------------------------------
    # In-place reordering
    # ------------------------------------------------------------------
    def swap_adjacent(self, level: int) -> int:
        """Exchange the variables at ``level`` and ``level + 1`` in place.

        Local node surgery in O(nodes at the two levels): nodes that do
        not depend on both variables migrate between the two subtables;
        nodes that do are rewritten *in place* (same index, so every
        edge handle keeps denoting the same Boolean function over the
        named variables).  Nodes of the lower level that die in the
        surgery are freed exactly, via the reference counts.  Returns
        :meth:`live_nodes` after the swap.
        """
        if not 0 <= level < len(self._names) - 1:
            raise BDDError(f"no adjacent variable pair at level {level}")
        if len(self._cache):
            # Cofactor/exists results are memoized *by level*, and this
            # swap changes which variable a level denotes — those
            # entries would silently answer for the wrong variable.
            # (Edge-keyed entries would survive — every node index
            # keeps its function — but one flush covers both, and a
            # sifting pass only pays it on the first swap.)
            self._cache.clear()
        upper, lower = level, level + 1
        levels = self._level
        highs = self._high
        lows = self._low
        ref = self._ref
        # Classify the upper level before touching anything: a node
        # whose children avoid the lower level just migrates ("mover");
        # one that depends on the lower variable is rewritten in place
        # ("stayer").  Grandchild cofactors are captured now, while the
        # level fields are still consistent.
        movers: list[tuple[tuple[int, int], int]] = []
        stayers: list[tuple[int, int, int, int, int, int, int]] = []
        for key, index in self._subtables[upper].items():
            f1, f0 = key
            if levels[f1 >> 1] == lower or levels[f0 >> 1] == lower:
                f11, f10 = self._cofactors(f1, lower)
                f01, f00 = self._cofactors(f0, lower)
                stayers.append((index, f1, f0, f11, f10, f01, f00))
            else:
                movers.append((key, index))
        # Lower-level nodes do not depend on the upper variable: they
        # keep their children and just move up one level.
        new_upper: dict[tuple[int, int], int] = {}
        for key, index in self._subtables[lower].items():
            levels[index] = upper
            new_upper[key] = index
        new_lower: dict[tuple[int, int], int] = {}
        for key, index in movers:
            levels[index] = lower
            new_lower[key] = index
        self._subtables[upper] = new_upper
        self._subtables[lower] = new_lower
        # Rewrite the stayers: f = v2·(v1·f11 + v1'·f01) + v2'·(v1·f10
        # + v1'·f00) after the swap.  The new high edge is regular
        # because f11/f10 come off a regular 1-edge, so the in-place
        # update cannot flip the node's polarity.
        for index, f1, f0, f11, f10, f01, f00 in stayers:
            high = self._mk(lower, f11, f01)
            low = self._mk(lower, f10, f00)
            ref[high >> 1] += 1
            ref[low >> 1] += 1
            highs[index] = high
            lows[index] = low
            new_upper[(high, low)] = index
            self._deref(f1)
            self._deref(f0)
        names = self._names
        names[upper], names[lower] = names[lower], names[upper]
        self._level_by_name[names[upper]] = upper
        self._level_by_name[names[lower]] = lower
        return self.live_nodes()

    def sift(
        self,
        roots: Sequence[int],
        max_growth: float | None = DEFAULT_MAX_GROWTH,
    ) -> SiftResult:
        """One greedy Rudell sifting pass, in place.

        Starts with :meth:`gc` over ``roots`` (so the live size *is*
        the size of the functions being reordered — **edges not
        reachable from ``roots`` are invalidated**), then walks each
        variable — most populous level first — through every position
        of the order via adjacent swaps, recording the live size at
        each stop, and backtracks it to the best position seen.  A walk
        direction is abandoned early once the size exceeds
        ``max_growth`` times the size the variable started from
        (``None`` disables the abort).

        A pass that cannot gain makes no swap (the lower bound is
        proved in :meth:`_sift_pinned`).

        ``roots`` edges remain valid and keep denoting the same
        functions; only the variable order (and therefore the node
        population) changes.
        """
        self.gc(roots)
        for edge in roots:
            self.pin(edge)
        try:
            return self._sift_pinned(max_growth)
        finally:
            for edge in roots:
                self.unpin(edge)

    def _sift_pinned(self, max_growth: float | None) -> SiftResult:
        """One pass over the pinned, garbage-free store.

        A reduced BDD has at least one node per support variable in
        *every* order, and a walk moves its variable only on a strict
        gain.  So a store with one node per occupied level (plus the
        terminal) returns at once without a swap, and empty levels
        (variables outside the support, whose walks change no size) are
        not walked.  The order stays, so the op cache is kept.

        Walks are cut by a lower bound (Drechsler, Günther & Somenzi,
        "Using lower bounds during dynamic BDD minimization", IEEE TCAD
        2001).  While a variable walks up from level ``p``, the levels
        below ``p`` keep their nodes (the set of variables above each of
        them stays the same) and every occupied level keeps at least
        one, so no higher stop can be smaller than that floor; walking
        down is symmetric.  A stop above every one seen wins a tie, so
        the upward walk ends only once the bound exceeds the best size
        seen; a stop below loses ties, so the downward walk ends once
        the bound reaches it.  The chosen order is the one the full
        walk would choose.
        """
        count = len(self._names)
        initial = self.live_nodes()
        tables = self._subtables
        # Visit order: decreasing node population (ties keep the
        # current level order — `sorted` is stable).
        population = {name: len(tables[level]) for level, name in enumerate(self._names)}
        walked = sorted(
            (name for name in self._names if population[name]),
            key=lambda n: -population[n],
        )
        floor = len(walked) + 1
        if initial == floor:
            return SiftResult(initial, initial, 0, False)

        def excess(levels: list[dict]) -> int:
            """Nodes beyond one per occupied level among ``levels``."""
            return sum(len(table) - 1 for table in levels if table)

        current_size = initial
        swaps = 0
        changed = False
        for name in walked:
            position = self._level_by_name[name]
            sizes = {position: current_size}
            best = current_size
            limit = None if max_growth is None else max_growth * current_size
            pos = position
            while pos > 0 and floor + excess(tables[pos + 1 :]) <= best:
                size = self.swap_adjacent(pos - 1)
                swaps += 1
                pos -= 1
                sizes[pos] = size
                best = min(best, size)
                if limit is not None and size > limit:
                    break
            while pos < position:
                self.swap_adjacent(pos)
                swaps += 1
                pos += 1
            while pos < count - 1 and floor + excess(tables[:pos]) < best:
                size = self.swap_adjacent(pos)
                swaps += 1
                pos += 1
                sizes[pos] = size
                best = min(best, size)
                if limit is not None and size > limit:
                    break
            # Best position seen; the starting position wins ties, then
            # the topmost candidate (the tie-break the rebuild-based
            # sifter used, so both produce identical orders).
            best_size, best_pos = sizes[position], position
            for candidate in sorted(sizes):
                if candidate != position and sizes[candidate] < best_size:
                    best_size, best_pos = sizes[candidate], candidate
            while pos > best_pos:
                self.swap_adjacent(pos - 1)
                swaps += 1
                pos -= 1
            while pos < best_pos:
                self.swap_adjacent(pos)
                swaps += 1
                pos += 1
            current_size = best_size
            if best_pos != position:
                changed = True
        return SiftResult(initial, current_size, swaps, changed)

    def check_invariants(self) -> None:
        """Verify store and canonical-form invariants; raises
        :class:`BDDError` on the first violation (tests and debugging —
        cost is O(live nodes))."""
        levels = self._level
        seen = 0
        for level, table in enumerate(self._subtables):
            for (high, low), index in table.items():
                if levels[index] != level:
                    raise BDDError(f"node {index}: level field != subtable level")
                if self._high[index] != high or self._low[index] != low:
                    raise BDDError(f"node {index}: subtable key != node fields")
                if high & 1:
                    raise BDDError(f"node {index}: complemented high edge")
                if high == low:
                    raise BDDError(f"node {index}: redundant node")
                if levels[high >> 1] <= level or levels[low >> 1] <= level:
                    raise BDDError(f"node {index}: child above parent")
                seen += 1
        if seen != self.live_nodes() - 1:
            raise BDDError(
                f"subtables index {seen} nodes, store holds {self.live_nodes() - 1}"
            )
        parents = [0] * len(levels)
        for index in range(1, len(levels)):
            if levels[index] == _FREE_LEVEL:
                continue
            parents[self._high[index] >> 1] += 1
            parents[self._low[index] >> 1] += 1
        for index in range(1, len(levels)):
            if levels[index] != _FREE_LEVEL and self._ref[index] < parents[index]:
                raise BDDError(
                    f"node {index}: ref {self._ref[index]} < parents {parents[index]}"
                )

    # ------------------------------------------------------------------
    # Specialized apply kernels
    # ------------------------------------------------------------------
    # Both kernels expand one operand pair per loop step and read the
    # node columns directly.  An expansion computes the top level and
    # the four operand cofactors once and carries, per child pair,
    # either its terminal result or its ordered key (plus the result's
    # complement) in the reduce frame.  The cache keys and `_mk` calls
    # come out in the same order as a recursive apply's would.
    def and_(self, f: int, g: int) -> int:
        """Conjunction, via a dedicated iterative apply kernel.

        Cheaper than routing through :meth:`ite`: AND needs no
        standard-triple normalization (operands are just ordered by
        node index so commuted calls share one ``_OP_AND`` cache
        entry), and the explicit stack makes the recursion depth
        independent of the variable count.
        """
        # Terminal cases: a constant operand, or both on one node.
        if f >> 1 == 0 or g >> 1 == 0 or f >> 1 == g >> 1:
            return f if f == g else g if f == self.ONE else f if g == self.ONE else self.ZERO
        if (g >> 1) < (f >> 1):
            f, g = g, f
        levels = self._level
        highs = self._high
        lows = self._low
        cache_get = self._cache.get
        cache_put = self._cache.put
        mk = self._mk
        # `local` guarantees each distinct operand pair is expanded at
        # most once per top-level call, even when the shared cache is
        # too small for the working set (same role as ite's overlay).
        # None marks an in-flight pair; stack discipline guarantees it
        # resolves before any parent pair reduces.
        local: dict[tuple[int, int], int | None] = {}
        # Expansion frames are the operand pair itself; reduce frames
        # are (pair, cache key, top, high, high key, low, low key).
        stack: list[tuple] = [(f, g)]
        pop = stack.pop
        push = stack.append
        while stack:
            frame = pop()
            if len(frame) == 2:
                if frame in local:
                    continue
                a, b = frame
                cache_key = (_OP_AND, a, b)
                cached = cache_get(cache_key)
                if cached is not None:
                    local[frame] = cached
                    continue
                local[frame] = None
                a_index = a >> 1
                b_index = b >> 1
                top = levels[a_index]
                b_level = levels[b_index]
                if top <= b_level:
                    a1 = highs[a_index]
                    a0 = lows[a_index]
                    if a & 1:
                        a1 ^= 1
                        a0 ^= 1
                else:
                    top = b_level
                    a1 = a0 = a
                if b_level == top:
                    b1 = highs[b_index]
                    b0 = lows[b_index]
                    if b & 1:
                        b1 ^= 1
                        b0 ^= 1
                else:
                    b1 = b0 = b
                x = a1 >> 1
                y = b1 >> 1
                if x and y and x != y:
                    high_key = (a1, b1) if x < y else (b1, a1)
                    high = 0
                else:
                    high_key = None
                    high = a1 if a1 == b1 else b1 if a1 == 0 else a1 if b1 == 0 else 1
                x = a0 >> 1
                y = b0 >> 1
                if x and y and x != y:
                    low_key = (a0, b0) if x < y else (b0, a0)
                    low = 0
                else:
                    low_key = None
                    low = a0 if a0 == b0 else b0 if a0 == 0 else a0 if b0 == 0 else 1
                push((frame, cache_key, top, high, high_key, low, low_key))
                if high_key is not None and high_key not in local:
                    push(high_key)
                if low_key is not None and low_key not in local:
                    push(low_key)
            else:
                key, cache_key, top, high, high_key, low, low_key = frame
                if high_key is not None:
                    high = local[high_key]
                if low_key is not None:
                    low = local[low_key]
                result = mk(top, high, low)
                cache_put(cache_key, result)
                local[key] = result
        return local[(f, g)]

    def or_(self, f: int, g: int) -> int:
        """Disjunction — De Morgan over the AND kernel, so commuted and
        complemented calls all share the same ``_OP_AND`` cache entry."""
        return self.and_(f ^ 1, g ^ 1) ^ 1

    def xor(self, f: int, g: int) -> int:
        """Exclusive-or, via a dedicated iterative apply kernel.

        XOR tolerates complement on either operand (the result just
        flips), so the kernel canonicalizes every pair to two regular,
        index-ordered edges — XOR/XNOR of either operand order all hit
        one ``_OP_XOR`` cache entry.
        """
        # Terminal cases (a constant operand, or both on one node) all
        # come out as f ⊕ g ⊕ 1 in the edge encoding.
        if f >> 1 == 0 or g >> 1 == 0 or f >> 1 == g >> 1:
            return f ^ g ^ 1
        negate = (f ^ g) & 1
        f &= ~1
        g &= ~1
        if (g >> 1) < (f >> 1):
            f, g = g, f
        levels = self._level
        highs = self._high
        lows = self._low
        cache_get = self._cache.get
        cache_put = self._cache.put
        mk = self._mk
        local: dict[tuple[int, int], int | None] = {}
        # Frames as in `and_`; a pair's operands are regular, and a
        # child's `high`/`low` slot holds the complement its regular
        # key's result takes.
        stack: list[tuple] = [(f, g)]
        pop = stack.pop
        push = stack.append
        while stack:
            frame = pop()
            if len(frame) == 2:
                if frame in local:
                    continue
                a, b = frame
                cache_key = (_OP_XOR, a, b)
                cached = cache_get(cache_key)
                if cached is not None:
                    local[frame] = cached
                    continue
                local[frame] = None
                a_index = a >> 1
                b_index = b >> 1
                top = levels[a_index]
                b_level = levels[b_index]
                if top <= b_level:
                    a1 = highs[a_index]
                    a0 = lows[a_index]
                else:
                    top = b_level
                    a1 = a0 = a
                if b_level == top:
                    b1 = highs[b_index]
                    b0 = lows[b_index]
                else:
                    b1 = b0 = b
                x = a1 >> 1
                y = b1 >> 1
                if x and y and x != y:
                    high_key = (a1 & -2, b1 & -2) if x < y else (b1 & -2, a1 & -2)
                    high = (a1 ^ b1) & 1
                else:
                    high_key = None
                    high = a1 ^ b1 ^ 1
                x = a0 >> 1
                y = b0 >> 1
                if x and y and x != y:
                    low_key = (a0 & -2, b0 & -2) if x < y else (b0 & -2, a0 & -2)
                    low = (a0 ^ b0) & 1
                else:
                    low_key = None
                    low = a0 ^ b0 ^ 1
                push((frame, cache_key, top, high, high_key, low, low_key))
                if high_key is not None and high_key not in local:
                    push(high_key)
                if low_key is not None and low_key not in local:
                    push(low_key)
            else:
                key, cache_key, top, high, high_key, low, low_key = frame
                if high_key is not None:
                    high ^= local[high_key]
                if low_key is not None:
                    low ^= local[low_key]
                result = mk(top, high, low)
                cache_put(cache_key, result)
                local[key] = result
        return local[(f, g)] ^ negate

    def xnor(self, f: int, g: int) -> int:
        return self.xor(f, g) ^ 1

    def nand(self, f: int, g: int) -> int:
        return self.and_(f, g) ^ 1

    def nor(self, f: int, g: int) -> int:
        return self.or_(f, g) ^ 1

    def implies(self, f: int, g: int) -> int:
        return self.or_(f ^ 1, g)

    # ------------------------------------------------------------------
    # ITE and derived operators
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f·g + f'·h`` (the universal BDD operator)."""
        # Terminal and identity simplifications (Brace/Rudell/Bryant).
        if f == self.ONE:
            return g
        if f == self.ZERO:
            return h
        if g == h:
            return g
        if g == f:
            g = self.ONE
        elif g == f ^ 1:
            g = self.ZERO
        if h == f:
            h = self.ZERO
        elif h == f ^ 1:
            h = self.ONE
        if g == self.ONE and h == self.ZERO:
            return f
        if g == self.ZERO and h == self.ONE:
            return f ^ 1
        if g == h:
            return g
        # Two-operand shapes go to the specialized kernels (their cache
        # entries, their terminal cases — no triple normalization).
        if g == self.ONE:
            return self.or_(f, h)
        if g == self.ZERO:
            return self.and_(f ^ 1, h)
        if h == self.ZERO:
            return self.and_(f, g)
        if h == self.ONE:
            return self.or_(f ^ 1, g)
        if h == g ^ 1:
            return self.xnor(f, g)
        # Canonicalize: predicate regular, then then-branch regular.
        if f & 1:
            f ^= 1
            g, h = h, g
        negate_out = False
        if g & 1:
            g ^= 1
            h ^= 1
            negate_out = True
        # Per-call overlay: even if the shared cache is smaller than
        # this call's working set and evicts subresults mid-recursion,
        # every distinct subtriple is still computed at most once per
        # top-level call (the old unbounded cache's guarantee).
        key = (_OP_ITE, f, g, h)
        local = self._op_overlay
        outermost = local is None
        if outermost:
            local = self._op_overlay = {}
        try:
            result = local.get(key)
            if result is None:
                cache = self._cache
                result = cache.get(key)
                if result is None:
                    # f and g are regular here; only h may be complemented.
                    levels = self._level
                    highs = self._high
                    lows = self._low
                    f_index = f >> 1
                    g_index = g >> 1
                    h_index = h >> 1
                    f_level = levels[f_index]
                    g_level = levels[g_index]
                    h_level = levels[h_index]
                    top = min(f_level, g_level, h_level)
                    if f_level == top:
                        f1 = highs[f_index]
                        f0 = lows[f_index]
                    else:
                        f1 = f0 = f
                    if g_level == top:
                        g1 = highs[g_index]
                        g0 = lows[g_index]
                    else:
                        g1 = g0 = g
                    if h_level == top:
                        h1 = highs[h_index] ^ (h & 1)
                        h0 = lows[h_index] ^ (h & 1)
                    else:
                        h1 = h0 = h
                    then_edge = self.ite(f1, g1, h1)
                    else_edge = self.ite(f0, g0, h0)
                    result = self._mk(top, then_edge, else_edge)
                    cache.put(key, result)
                local[key] = result
        finally:
            if outermost:
                self._op_overlay = None
        return result ^ 1 if negate_out else result

    def not_(self, f: int) -> int:
        """Complement (free with complemented edges)."""
        return f ^ 1

    def maj(self, a: int, b: int, c: int) -> int:
        """Three-input majority ``ab + ac + bc`` — the paper's MAJ operator."""
        return self.ite(a, self.or_(b, c), self.and_(b, c))

    def and_many(self, edges: Iterable[int]) -> int:
        result = self.ONE
        for edge in edges:
            result = self.and_(result, edge)
        return result

    def or_many(self, edges: Iterable[int]) -> int:
        result = self.ZERO
        for edge in edges:
            result = self.or_(result, edge)
        return result

    def xor_many(self, edges: Iterable[int]) -> int:
        result = self.ZERO
        for edge in edges:
            result = self.xor(result, edge)
        return result

    # ------------------------------------------------------------------
    # Cofactors w.r.t. arbitrary variables
    # ------------------------------------------------------------------
    def cofactor(self, edge: int, level: int, value: bool) -> int:
        """Cofactor of ``edge`` w.r.t. the variable at ``level`` set to ``value``.

        Unlike :meth:`_cofactors` this works for variables anywhere in
        the order, rebuilding the BDD above ``level``.  Results are
        memoized in the shared operation cache, so repeated cofactors of
        the same function (the quantifier and compose patterns) are hits.
        """
        value = bool(value)
        levels = self._level
        highs = self._high
        lows = self._low
        branches = highs if value else lows
        cache_get = self._cache.get
        cache_put = self._cache.put
        mk = self._mk
        # Per-call overlay: guarantees every node is expanded at most
        # once per walk even when the shared cache is smaller than the
        # traversal (eviction mid-walk must not reintroduce the
        # exponential re-expansion the old local memo prevented).
        local: dict[int, int] = {}

        def walk(e: int) -> int:
            index = e >> 1
            node_level = levels[index]
            if node_level > level:
                return e
            complement = e & 1
            if node_level == level:
                return branches[index] ^ complement
            regular_e = e ^ complement
            cached = local.get(regular_e)
            if cached is None:
                key = (_OP_COFACTOR, regular_e, level, value)
                cached = cache_get(key)
                if cached is None:
                    cached = mk(node_level, walk(highs[index]), walk(lows[index]))
                    cache_put(key, cached)
                local[regular_e] = cached
            return cached ^ complement

        return walk(edge)

    def exists_at(self, edge: int, level: int) -> int:
        """Existentially quantify the variable at ``level`` out of ``edge``.

        Single-variable building block of :func:`repro.bdd.quantify.exists`;
        recursion results share the unified operation cache.
        """
        if not 0 <= level < len(self._names):
            raise BDDError(f"no variable at level {level}")
        cache = self._cache
        # Per-call overlay for the same reason as in :meth:`cofactor`.
        local: dict[int, int] = {}

        def walk(e: int) -> int:
            node_level = self._level[e >> 1]
            if node_level > level:
                return e
            if node_level == level:
                high, low = self._cofactors(e, level)
                return self.or_(high, low)
            cached = local.get(e)
            if cached is None:
                key = (_OP_EXISTS, e, level)
                cached = cache.get(key)
                if cached is None:
                    high, low = self._cofactors(e, node_level)
                    cached = self._mk(node_level, walk(high), walk(low))
                    cache.put(key, cached)
                local[e] = cached
            return cached

        return walk(edge)

    def compose(self, f: int, level: int, g: int) -> int:
        """Substitute function ``g`` for the variable at ``level`` in ``f``."""
        high = self.cofactor(f, level, True)
        low = self.cofactor(f, level, False)
        return self.ite(g, high, low)

    # ------------------------------------------------------------------
    # Evaluation and inspection
    # ------------------------------------------------------------------
    def eval(self, edge: int, assignment: Mapping[str, object]) -> bool:
        """Evaluate ``edge`` under ``assignment`` (name -> truthy value)."""
        complement = edge & 1
        index = edge >> 1
        while index != 0:
            name = self._names[self._level[index]]
            try:
                value = assignment[name]
            except KeyError:
                raise BDDError(f"assignment missing variable {name!r}") from None
            edge = self._high[index] if value else self._low[index]
            complement ^= edge & 1
            index = edge >> 1
        return not complement

    def eval_levels(self, edge: int, values: Sequence[int]) -> bool:
        """Evaluate ``edge``; ``values[level]`` gives each variable's value."""
        complement = edge & 1
        index = edge >> 1
        while index != 0:
            edge = self._high[index] if values[self._level[index]] else self._low[index]
            complement ^= edge & 1
            index = edge >> 1
        return not complement

    def size(self, edge: int) -> int:
        """Number of internal nodes reachable from ``edge`` (0 for constants)."""
        return self.size_many([edge])

    def size_many(self, edges: Iterable[int]) -> int:
        """Internal nodes reachable from any edge in ``edges`` (shared once)."""
        seen: set[int] = set()
        stack = [e >> 1 for e in edges]
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            stack.append(self._high[index] >> 1)
            stack.append(self._low[index] >> 1)
        return len(seen)

    def variable_split(self, f: int, level: int) -> tuple[int, int, int, int]:
        """Score the disjoint split ``f = (v·f|v) ⊕ (v'·f|v')`` on the
        variable ``v`` at ``level``: returns ``(f|v, f|v', size(v·f|v),
        size(v'·f|v'))``.

        The cofactors are built by :meth:`cofactor` (``True`` first);
        the products are counted without being built.  Above ``level``
        a product ``v·g`` has one node per distinct (polarity-tagged)
        edge of ``g`` there, because ``e -> v·e`` is injective on
        functions free of ``v``.  Each non-ZERO edge that crosses
        ``level`` becomes one node at ``level``, and the nodes below
        are shared as they are.  Both literal polarities give the same
        count.
        """
        high = self.cofactor(f, level, True)
        low = self.cofactor(f, level, False)
        levels = self._level
        highs = self._high
        lows = self._low
        sizes = []
        for g in (high, low):
            above: set[int] = set()
            frontier: set[int] = set()
            crossing: list[int] = []  # frontier nodes, each listed once
            stack = [g]
            while stack:
                e = stack.pop()
                index = e >> 1
                if levels[index] > level:  # the terminal's level is the largest
                    if e not in frontier:
                        frontier.add(e)
                        crossing.append(index)
                elif e not in above:
                    above.add(e)
                    complement = e & 1
                    stack.append(highs[index] ^ complement)
                    stack.append(lows[index] ^ complement)
            frontier.discard(self.ZERO)
            below: set[int] = set()
            while crossing:
                index = crossing.pop()
                if index and index not in below:
                    below.add(index)
                    crossing.append(highs[index] >> 1)
                    crossing.append(lows[index] >> 1)
            sizes.append(len(above) + len(frontier) + len(below))
        return high, low, sizes[0], sizes[1]

    def support_levels(self, edge: int) -> set[int]:
        """Set of variable levels ``edge`` depends on."""
        seen: set[int] = set()
        levels: set[int] = set()
        stack = [edge >> 1]
        while stack:
            index = stack.pop()
            if index == 0 or index in seen:
                continue
            seen.add(index)
            levels.add(self._level[index])
            stack.append(self._high[index] >> 1)
            stack.append(self._low[index] >> 1)
        return levels

    def support(self, edge: int) -> set[str]:
        """Set of variable names ``edge`` depends on."""
        return {self._names[level] for level in self.support_levels(edge)}

    def nodes_reachable(self, edges: Iterable[int]) -> list[int]:
        """Internal node ids reachable from ``edges``, in depth-first
        preorder: each root in turn, high branch before low branch.

        This is *not* a topological order: a node reached first through
        a high branch precedes a parent that reaches it again through a
        low branch (``ite(a, c, b·c)`` lists ``a``, ``c``, ``b``).
        Candidate scans iterate in this order, so it fixes which
        decomposition wins ties and is part of the byte-identity
        contract; passes that need parents first sort by level."""
        seen: set[int] = set()
        order: list[int] = []

        def visit(index: int) -> None:
            if index == 0 or index in seen:
                return
            seen.add(index)
            order.append(index)
            visit(self._high[index] >> 1)
            visit(self._low[index] >> 1)

        roots = [e >> 1 for e in edges]
        for root in roots:
            visit(root)
        return order

    def count_sat(self, edge: int, num_vars: int | None = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables
        (default: all declared variables)."""
        if num_vars is None:
            num_vars = len(self._names)
        cache: dict[int, int] = {}

        def node_level(index: int) -> int:
            return min(self._level[index], num_vars)

        def count_node(index: int) -> int:
            """Satisfying count of node ``index`` (regular polarity) over
            the variables at levels ``[level(index), num_vars)``."""
            if index == 0:
                return 1
            cached = cache.get(index)
            if cached is not None:
                return cached
            level = self._level[index]
            result = 0
            for child in (self._high[index], self._low[index]):
                child_index = child >> 1
                child_level = node_level(child_index)
                child_count = count_node(child_index)
                if child & 1:
                    child_count = (1 << (num_vars - child_level)) - child_count
                result += child_count << (child_level - level - 1)
            cache[index] = result
            return result

        index = edge >> 1
        level = node_level(index)
        sat = count_node(index)
        if edge & 1:
            sat = (1 << (num_vars - level)) - sat
        return sat << level

    def pick_assignment(self, edge: int) -> dict[str, bool] | None:
        """One satisfying assignment of ``edge`` or ``None`` if unsat.

        Variables not on the chosen path are omitted (don't-cares).
        """
        if edge == self.ZERO:
            return None
        assignment: dict[str, bool] = {}
        complement = edge & 1
        index = edge >> 1
        while index != 0:
            name = self._names[self._level[index]]
            high, low = self._high[index], self._low[index]
            # Follow a branch that can still reach TRUE (i.e. is not the
            # constant FALSE once parity is folded in).
            high_value = high ^ complement
            if high_value != self.ZERO:
                assignment[name] = True
                edge = high
            else:
                assignment[name] = False
                edge = low
            complement ^= edge & 1
            index = edge >> 1
        return assignment

    def truth_table(self, edge: int, names: Sequence[str] | None = None) -> int:
        """Truth table of ``edge`` as an int bitmask.

        Bit ``i`` holds the function value when the j-th name in
        ``names`` takes bit j of i (LSB-first).  Only intended for small
        supports (<= 20 variables).
        """
        if names is None:
            names = sorted(self.support(edge), key=self.level_of)
        num = len(names)
        if num > 20:
            raise BDDError("truth_table limited to 20 variables")
        table = 0
        assignment: dict[str, bool] = {}
        for row in range(1 << num):
            for j, name in enumerate(names):
                assignment[name] = bool(row >> j & 1)
            if self.eval(edge, assignment):
                table |= 1 << row
        return table

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def cube(self, literals: Mapping[str, object]) -> int:
        """Conjunction of literals: name -> phase (truthy = positive)."""
        result = self.ONE
        for name, phase in literals.items():
            literal = self.var(name)
            result = self.and_(result, literal if phase else literal ^ 1)
        return result

    def from_truth_table(self, table: int, names: Sequence[str]) -> int:
        """Build the function whose truth table (LSB-first over ``names``)
        is the bitmask ``table``."""
        minterms = []
        for row in range(1 << len(names)):
            if table >> row & 1:
                minterms.append(
                    self.cube({name: bool(row >> j & 1) for j, name in enumerate(names)})
                )
        return self.or_many(minterms)

    # ------------------------------------------------------------------
    # Truth tables over support levels (top level most significant)
    # ------------------------------------------------------------------
    def edge_tables(self, edges: Sequence[int], levels: Sequence[int]) -> list[int]:
        """Truth tables of ``edges`` over the variables at ``levels``
        (increasing), in :func:`~repro.truthtable.level_columns` order:
        the first level is the most significant minterm bit.

        One bottom-up pass over the nodes reachable from ``edges``
        (:func:`~repro.truthtable.node_tables`).  Raises
        :class:`BDDError` when an edge depends on a level outside
        ``levels``.
        """
        nodes = self.nodes_reachable(edges)
        order = sorted(zip(map(self.node_fields, nodes), nodes))
        column = dict(zip(levels, level_columns(len(levels))))
        outside = {level for (level, _, _), _ in order} - column.keys()
        if outside:
            raise BDDError(f"edge depends on levels {sorted(outside)} outside {list(levels)}")
        full = full_mask(len(levels))
        function = node_tables(order, column, full)
        return [function[edge >> 1] ^ (full if edge & 1 else 0) for edge in edges]

    def table_edge(self, table: int, levels: Sequence[int]) -> int:
        """The edge whose :meth:`edge_tables` table over ``levels`` is
        ``table``.  Each distinct chunk (a cofactor on the levels above
        its depth) is built once, straight through the unique table;
        the operation cache is never touched."""
        num_vars = len(levels)
        built: dict[tuple[int, int], int] = {}

        def build(chunk: int, position: int) -> int:
            if position == num_vars:
                return self.ONE if chunk else self.ZERO
            key = (position, chunk)
            edge = built.get(key)
            if edge is None:
                width = 1 << (num_vars - 1 - position)
                high = chunk >> width
                low = chunk & ((1 << width) - 1)
                if high == low:
                    edge = build(low, position + 1)
                else:
                    edge = self._mk(
                        levels[position], build(high, position + 1), build(low, position + 1)
                    )
                built[key] = edge
            return edge

        return build(table, 0)

    def from_expr(self, text: str) -> int:
        """Build a function from a Python-syntax Boolean expression.

        Supported operators: ``&`` (AND), ``|`` (OR), ``^`` (XOR),
        ``~`` (NOT), integer constants 0/1, and declared variable names.
        Undeclared names are added to the order on first use.
        """
        tree = ast.parse(text, mode="eval")

        def build(node: ast.AST) -> int:
            if isinstance(node, ast.Expression):
                return build(node.body)
            if isinstance(node, ast.BinOp):
                left = build(node.left)
                right = build(node.right)
                if isinstance(node.op, ast.BitAnd):
                    return self.and_(left, right)
                if isinstance(node.op, ast.BitOr):
                    return self.or_(left, right)
                if isinstance(node.op, ast.BitXor):
                    return self.xor(left, right)
                raise BDDError(f"unsupported operator {node.op!r}")
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
                return build(node.operand) ^ 1
            if isinstance(node, ast.Name):
                if node.id not in self._level_by_name:
                    self.add_var(node.id)
                return self.var(node.id)
            if isinstance(node, ast.Constant):
                if node.value in (0, False):
                    return self.ZERO
                if node.value in (1, True):
                    return self.ONE
            raise BDDError(f"unsupported expression element {node!r}")

        return build(tree)

    # ------------------------------------------------------------------
    # Canonical shapes (manager- and name-independent function keys)
    # ------------------------------------------------------------------
    def support_shape(self, edge: int) -> tuple[list[int], Shape]:
        """``(levels, shape)``: the support levels of ``edge`` in
        order, and :meth:`shape` of ``edge`` over them.

        Reduced BDDs with complement edges are canonical, so two edges
        get equal shapes exactly when they compute the same function
        up to an order-preserving renaming of their supports — in any
        two managers, whatever their allocation histories.
        """
        nodes = self.nodes_reachable([edge])
        levels = sorted({self._level[index] for index in nodes})
        return levels, self._shape(edge, nodes, levels)

    def shape(self, edge: int, levels: Sequence[int]) -> Shape:
        """The structure of ``edge`` with node ids and levels renamed.

        A shape is ``(root, nodes)``.  ``nodes`` holds one
        ``(position, high, low)`` triple per node in
        :meth:`nodes_reachable` preorder, where ``position`` is the
        node's level as an index into ``levels`` (which must cover the
        support of ``edge``), and edges are re-encoded as
        ``(rank << 1) | complement`` with rank 0 the terminal and rank
        ``i + 1`` the ``i``-th node; ``root`` is ``edge`` so encoded.
        """
        return self._shape(edge, self.nodes_reachable([edge]), levels)

    def _shape(self, edge: int, nodes: list[int], levels: Sequence[int]) -> Shape:
        position = {level: p for p, level in enumerate(levels)}
        rank = {0: 0}
        for r, index in enumerate(nodes, start=1):
            rank[index] = r
        node_levels = self._level
        highs = self._high
        lows = self._low
        body = tuple(
            (
                position[node_levels[index]],
                rank[highs[index] >> 1] << 1 | highs[index] & 1,
                rank[lows[index] >> 1] << 1 | lows[index] & 1,
            )
            for index in nodes
        )
        return rank[edge >> 1] << 1 | edge & 1, body

    def from_shape(self, shape: Shape, levels: Sequence[int]) -> int:
        """Rebuild ``shape`` in this manager with position ``p`` at
        ``levels[p]`` (increasing levels keep the order valid).

        Nodes are built deepest position first: the preorder of a
        shape is not topological, but an edge always points to a
        deeper position.  The rebuild goes straight through the unique
        table, never the operation cache.
        """
        root, body = shape
        edges = [self.ONE] * (len(body) + 1)
        for rank in sorted(range(len(body)), key=lambda r: body[r][0], reverse=True):
            position, high, low = body[rank]
            edges[rank + 1] = self._mk(
                levels[position],
                edges[high >> 1] ^ (high & 1),
                edges[low >> 1] ^ (low & 1),
            )
        return edges[root >> 1] ^ (root & 1)

    # ------------------------------------------------------------------
    # Transfer / iteration helpers
    # ------------------------------------------------------------------
    def transfer(self, edge: int, target: "BDD") -> int:
        """Rebuild ``edge`` inside ``target``.

        The target manager may use a different variable order; missing
        variables are declared on demand.  Cost grows with the size of
        the *result*, which can exceed the source size when the orders
        differ substantially.
        """
        for name in self.support(edge):
            if name not in target._level_by_name:
                target.add_var(name)

        cache: dict[int, int] = {}

        def walk(e: int) -> int:
            complement = e & 1
            index = e >> 1
            if index == 0:
                return target.ONE ^ complement
            cached = cache.get(index)
            if cached is None:
                name = self._names[self._level[index]]
                high = walk(self._high[index])
                low = walk(self._low[index])
                cached = target.ite(target.var(name), high, low)
                cache[index] = cached
            return cached ^ complement

        return walk(edge)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BDD vars={len(self._names)} live={self.live_nodes()} "
            f"created={self._created}>"
        )


def maj3(values: Sequence[object]) -> bool:
    """Python-level 3-input majority, used by tests and evaluators."""
    a, b, c = (bool(v) for v in values)
    return (a and b) or (a and c) or (b and c)
