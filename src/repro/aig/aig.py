"""And-Inverter Graphs with structural hashing.

The substrate of the ABC-like baseline flow ([16] in the paper).  The
encoding mirrors the BDD package: a *literal* is ``(node_id << 1) |
complement``; node 0 is constant TRUE (literal 0), so literal 1 is
constant FALSE.  Primary inputs are nodes without fanins; every other
node is a two-input AND.  Structural hashing (strash) plus constant /
identity folding keep the graph reduced during construction.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class Aig:
    """A combinational AIG."""

    ONE = 0
    ZERO = 1

    def __init__(self) -> None:
        # fanins[i] is None for constants/PIs, else (lit0, lit1).
        self._fanins: list[tuple[int, int] | None] = [None]
        self._strash: dict[tuple[int, int], int] = {}
        self._pi_names: list[str] = []
        self._pi_nodes: list[int] = []
        self._pi_by_name: dict[str, int] = {}
        self._outputs: list[tuple[str, int]] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> int:
        """Declare a primary input; returns its positive literal."""
        if name in self._pi_by_name:
            raise ValueError(f"duplicate AIG input {name!r}")
        node = len(self._fanins)
        self._fanins.append(None)
        self._pi_names.append(name)
        self._pi_nodes.append(node)
        self._pi_by_name[name] = node
        return node << 1

    def input_literal(self, name: str) -> int:
        return self._pi_by_name[name] << 1

    def add_output(self, name: str, literal: int) -> None:
        self._outputs.append((name, literal))

    def and_(self, a: int, b: int) -> int:
        """AND with folding and structural hashing."""
        if a == self.ZERO or b == self.ZERO:
            return self.ZERO
        if a == self.ONE:
            return b
        if b == self.ONE:
            return a
        if a == b:
            return a
        if a == b ^ 1:
            return self.ZERO
        if a > b:
            a, b = b, a
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self._fanins)
            self._fanins.append(key)
            self._strash[key] = node
        return node << 1

    def not_(self, a: int) -> int:
        return a ^ 1

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def mux(self, s: int, t: int, e: int) -> int:
        return self.or_(self.and_(s, t), self.and_(s ^ 1, e))

    def maj(self, a: int, b: int, c: int) -> int:
        return self.or_(
            self.and_(a, b), self.or_(self.and_(a, c), self.and_(b, c))
        )

    def and_many(self, literals: Iterable[int]) -> int:
        result = self.ONE
        for literal in literals:
            result = self.and_(result, literal)
        return result

    def or_many(self, literals: Iterable[int]) -> int:
        result = self.ZERO
        for literal in literals:
            result = self.or_(result, literal)
        return result

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self._pi_names)

    @property
    def outputs(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._outputs)

    def is_and(self, node: int) -> bool:
        return self._fanins[node] is not None

    def is_pi(self, node: int) -> bool:
        return self._fanins[node] is None and node != 0

    def fanins(self, node: int) -> tuple[int, int]:
        entry = self._fanins[node]
        if entry is None:
            raise ValueError(f"node {node} is not an AND")
        return entry

    def num_nodes(self) -> int:
        """Total AND nodes ever created (including dead ones)."""
        return len(self._fanins) - 1 - len(self._pi_nodes)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def reachable_ands(self) -> list[int]:
        """AND node ids reachable from the POs, in topological order
        (fanins first)."""
        return self.walk()[0]

    def walk(self) -> tuple[list[int], list[int]]:
        """:meth:`reachable_ands` and the fanout counts over it, in one
        walk: ``refs[node]`` counts the reachable ANDs and POs using
        ``node`` (a list indexed by node id).

        Depth-first post-order from each PO in turn, the fanin-1 subtree
        before fanin 0.
        """
        fanins = self._fanins
        refs = [0] * len(fanins)
        # Constant and PIs count as visited: the walk enters ANDs only.
        seen = bytearray(len(fanins))
        seen[0] = 1
        for node in self._pi_nodes:
            seen[node] = 1
        order: list[int] = []
        append = order.append
        # Iterative (deep circuits exceed Python's recursion limit);
        # ``~node`` on the stack means "all fanins done, emit node".
        for _, root_literal in self._outputs:
            root = root_literal >> 1
            refs[root] += 1
            if seen[root]:
                continue
            stack = [root]
            pop = stack.pop
            push = stack.append
            while stack:
                node = pop()
                if node < 0:
                    append(~node)
                    continue
                if seen[node]:
                    continue
                seen[node] = 1
                f0, f1 = fanins[node]
                child0 = f0 >> 1
                child1 = f1 >> 1
                refs[child0] += 1
                refs[child1] += 1
                push(~node)
                if not seen[child0]:
                    push(child0)
                if not seen[child1]:
                    push(child1)
        return order, refs

    def size(self) -> int:
        """AND nodes reachable from the outputs."""
        return len(self.reachable_ands())

    def depth(self) -> int:
        """AND levels on the longest PI-to-PO path."""
        level: dict[int, int] = {0: 0}
        for node in self._pi_nodes:
            level[node] = 0
        result = 0
        for node in self.reachable_ands():
            f0, f1 = self._fanins[node]
            level[node] = 1 + max(level[f0 >> 1], level[f1 >> 1])
            result = max(result, level[node])
        return result

    def levels(self) -> dict[int, int]:
        level: dict[int, int] = {0: 0}
        for node in self._pi_nodes:
            level[node] = 0
        for node in self.reachable_ands():
            f0, f1 = self._fanins[node]
            level[node] = 1 + max(level[f0 >> 1], level[f1 >> 1])
        return level

    def reference_counts(self) -> dict[int, int]:
        """Fanout counts over the PO-reachable subgraph (PO refs count)."""
        return {node: count for node, count in enumerate(self.walk()[1]) if count}

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(self, stimulus: Mapping[str, int], mask: int) -> dict[str, int]:
        """Bit-parallel simulation; returns PO name -> packed vector."""
        values: dict[int, int] = {0: mask}
        for name, node in zip(self._pi_names, self._pi_nodes):
            values[node] = stimulus[name] & mask
        for node in self.reachable_ands():
            f0, f1 = self._fanins[node]
            v0 = values[f0 >> 1] ^ (mask if f0 & 1 else 0)
            v1 = values[f1 >> 1] ^ (mask if f1 & 1 else 0)
            values[node] = v0 & v1
        result = {}
        for name, literal in self._outputs:
            value = values.get(literal >> 1, 0 if literal >> 1 != 0 else mask)
            result[name] = (value ^ (mask if literal & 1 else 0)) & mask
        return result

    # ------------------------------------------------------------------
    # Cleanup / rebuild
    # ------------------------------------------------------------------
    def cleanup(self) -> "Aig":
        """A fresh AIG containing only PO-reachable logic.

        The reachable ANDs are copied in walk order, with no strash
        lookup.  That builds what re-strashing them would: a graph built
        through :meth:`and_` is reduced (no constant, repeated or
        complementary fanins, no two ANDs with one fanin pair), and the
        old-to-new map is injective, so no copy could fold or meet an
        existing node.
        """
        fresh = Aig()
        fanins = self._fanins
        mapping = [0] * len(fanins)
        for name, node in zip(self._pi_names, self._pi_nodes):
            mapping[node] = fresh.add_input(name)
        fresh_fanins = fresh._fanins
        append = fresh_fanins.append
        first = len(fresh_fanins)
        new = first << 1
        for node in self.reachable_ands():
            f0, f1 = fanins[node]
            a = mapping[f0 >> 1] ^ (f0 & 1)
            b = mapping[f1 >> 1] ^ (f1 & 1)
            append((a, b) if a < b else (b, a))
            mapping[node] = new
            new += 2
        fresh._strash = dict(zip(fresh_fanins[first:], range(first, len(fresh_fanins))))
        for name, literal in self._outputs:
            fresh.add_output(name, mapping[literal >> 1] ^ (literal & 1))
        return fresh

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Aig pis={len(self._pi_names)} ands={self.num_nodes()} pos={len(self._outputs)}>"
