"""Combinational Boolean networks.

A :class:`LogicNetwork` is a DAG of named nodes; every internal node
carries a single-output SOP cover in BLIF conventions (rows over the
node's fanins with characters ``0``, ``1``, ``-``; the node computes
the OR of the rows, optionally complemented for covers parsed from
BLIF's output-0 form).

This is the circuit representation shared by every flow in the
reproduction: benchmark generators produce networks, the BDS-MAJ flow
partitions them into supernode BDDs, the ABC-like flow converts them to
AIGs, the mapper covers them with cells, and bit-parallel simulation
provides equivalence checking throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


class NetworkError(Exception):
    """Raised for malformed networks (cycles, missing signals...)."""


@dataclass(frozen=True)
class Node:
    """One internal node: an SOP cover over named fanins.

    ``cover`` rows follow BLIF: position i constrains ``fanins[i]``
    (``1`` positive literal, ``0`` negative, ``-`` unused); a row is the
    AND of its literals and the node is the OR of its rows.  With
    ``inverted`` the node computes the complement (BLIF output-0 form).
    The constant-1 function is the single empty row ``("",)`` over no
    fanins; constant 0 is the empty cover ``()``.
    """

    name: str
    fanins: tuple[str, ...]
    cover: tuple[str, ...]
    inverted: bool = False

    def __post_init__(self) -> None:
        for row in self.cover:
            if len(row) != len(self.fanins):
                raise NetworkError(
                    f"node {self.name!r}: row {row!r} does not match "
                    f"{len(self.fanins)} fanins"
                )
            if row.strip("01-"):
                raise NetworkError(f"node {self.name!r}: bad cover row {row!r}")

    @property
    def num_literals(self) -> int:
        """SIS-style literal count of the cover."""
        return sum(1 for row in self.cover for ch in row if ch != "-")

    def eval_ints(self, values: Sequence[int], mask: int) -> int:
        """Bit-parallel evaluation: ``values[i]`` is the packed vector of
        fanin i; returns the packed node output under ``mask``."""
        result = 0
        for row in self.cover:
            term = mask
            for ch, value in zip(row, values):
                if ch == "1":
                    term &= value
                elif ch == "0":
                    term &= ~value
                if not term:
                    break
            result |= term
            if result == mask:
                break
        if self.inverted:
            result = ~result
        return result & mask


class LogicNetwork:
    """A combinational multi-level logic network.

    :meth:`topological_order` is computed once and cached until a
    mutator (``add_input``, ``add_node``, ``replace_node``,
    ``remove_node``, ``sweep_dangling``) changes the node set.
    """

    def __init__(self, name: str = "top") -> None:
        self.name = name
        self._inputs: list[str] = []
        self._input_set: set[str] = set()
        self._outputs: list[str] = []
        self._nodes: dict[str, Node] = {}
        self._order: tuple[str, ...] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        if name in self._input_set or name in self._nodes:
            raise NetworkError(f"signal {name!r} already defined")
        self._inputs.append(name)
        self._input_set.add(name)
        self._order = None
        return name

    def add_output(self, name: str) -> str:
        if name in self._outputs:
            raise NetworkError(f"output {name!r} already declared")
        self._outputs.append(name)
        return name

    def add_node(
        self,
        name: str,
        fanins: Sequence[str],
        cover: Iterable[str],
        inverted: bool = False,
    ) -> str:
        if name in self._nodes or name in self._input_set:
            raise NetworkError(f"signal {name!r} already defined")
        self._nodes[name] = Node(name, tuple(fanins), tuple(cover), inverted)
        self._order = None
        return name

    def replace_node(
        self,
        name: str,
        fanins: Sequence[str],
        cover: Iterable[str],
        inverted: bool = False,
    ) -> None:
        """Swap the local function of an existing node."""
        if name not in self._nodes:
            raise NetworkError(f"no node named {name!r}")
        self._nodes[name] = Node(name, tuple(fanins), tuple(cover), inverted)
        self._order = None

    def remove_node(self, name: str) -> None:
        if name not in self._nodes:
            raise NetworkError(f"no node named {name!r}")
        del self._nodes[name]
        self._order = None

    # Gate-level convenience constructors -------------------------------
    def add_const(self, name: str, value: bool) -> str:
        return self.add_node(name, (), ("",) if value else ())

    def add_buf(self, name: str, source: str) -> str:
        return self.add_node(name, (source,), ("1",))

    def add_not(self, name: str, source: str) -> str:
        return self.add_node(name, (source,), ("0",))

    def add_and(self, name: str, *sources: str) -> str:
        return self.add_node(name, sources, ("1" * len(sources),))

    def add_or(self, name: str, *sources: str) -> str:
        rows = tuple(
            "-" * i + "1" + "-" * (len(sources) - i - 1) for i in range(len(sources))
        )
        return self.add_node(name, sources, rows)

    def add_nand(self, name: str, *sources: str) -> str:
        return self.add_node(name, sources, ("1" * len(sources),), inverted=True)

    def add_nor(self, name: str, *sources: str) -> str:
        rows = tuple(
            "-" * i + "1" + "-" * (len(sources) - i - 1) for i in range(len(sources))
        )
        return self.add_node(name, sources, rows, inverted=True)

    def add_xor(self, name: str, left: str, right: str) -> str:
        return self.add_node(name, (left, right), ("10", "01"))

    def add_xnor(self, name: str, left: str, right: str) -> str:
        return self.add_node(name, (left, right), ("11", "00"))

    def add_maj(self, name: str, a: str, b: str, c: str) -> str:
        return self.add_node(name, (a, b, c), ("11-", "1-1", "-11"))

    def add_mux(self, name: str, select: str, when_true: str, when_false: str) -> str:
        return self.add_node(name, (select, when_true, when_false), ("11-", "0-1"))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inputs(self) -> tuple[str, ...]:
        return tuple(self._inputs)

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(self._outputs)

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(self._nodes)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise NetworkError(f"no node named {name!r}") from None

    def is_input(self, name: str) -> bool:
        return name in self._input_set

    def has_signal(self, name: str) -> bool:
        return name in self._input_set or name in self._nodes

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_literals(self) -> int:
        return sum(node.num_literals for node in self._nodes.values())

    def fanouts(self) -> dict[str, list[str]]:
        """Map from signal name to the nodes that read it."""
        result: dict[str, list[str]] = {name: [] for name in self._input_set}
        for name in self._nodes:
            result.setdefault(name, [])
        for node in self._nodes.values():
            for fanin in node.fanins:
                result.setdefault(fanin, []).append(node.name)
        return result

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topological_order(self) -> tuple[str, ...]:
        """Internal node names, fanins before fanouts.  Raises on cycles
        or references to undefined signals."""
        if self._order is not None:
            return self._order
        # Networks are usually built fanins first; then the depth-first
        # walk below would return the insertion order itself.
        defined = set(self._input_set)
        for name, node in self._nodes.items():
            if not defined.issuperset(node.fanins):
                break
            defined.add(name)
        else:
            self._order = tuple(self._nodes)
            return self._order
        state: dict[str, int] = {}
        order: list[str] = []

        for start in self._nodes:
            if state.get(start):
                continue
            stack: list[tuple[str, int]] = [(start, 0)]
            while stack:
                name, child_pos = stack.pop()
                if child_pos == 0:
                    if state.get(name) == 2:
                        continue
                    if state.get(name) == 1:
                        raise NetworkError(f"combinational cycle through {name!r}")
                    state[name] = 1
                node = self._nodes[name]
                advanced = False
                for position in range(child_pos, len(node.fanins)):
                    fanin = node.fanins[position]
                    if fanin in self._input_set:
                        continue
                    if fanin not in self._nodes:
                        raise NetworkError(
                            f"node {name!r} reads undefined signal {fanin!r}"
                        )
                    fanin_state = state.get(fanin, 0)
                    if fanin_state == 1:
                        raise NetworkError(f"combinational cycle through {fanin!r}")
                    if fanin_state == 0:
                        stack.append((name, position + 1))
                        stack.append((fanin, 0))
                        advanced = True
                        break
                if not advanced:
                    state[name] = 2
                    order.append(name)
        self._order = tuple(order)
        return self._order

    def validate(self) -> None:
        """Check structural sanity: acyclic, all signals defined."""
        self.topological_order()
        for output in self._outputs:
            if not self.has_signal(output):
                raise NetworkError(f"output {output!r} is undefined")

    def support_of(self, signals: Iterable[str]) -> set[str]:
        """Primary inputs in the transitive fanin of ``signals``."""
        seen: set[str] = set()
        support: set[str] = set()
        stack = list(signals)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self._input_set:
                support.add(name)
            else:
                stack.extend(self.node(name).fanins)
        return support

    def transitive_fanin(self, signals: Iterable[str]) -> set[str]:
        """All node names (not PIs) in the transitive fanin of ``signals``
        including the signals themselves when they are nodes."""
        seen: set[str] = set()
        result: set[str] = set()
        stack = list(signals)
        while stack:
            name = stack.pop()
            if name in seen:
                continue
            seen.add(name)
            if name in self._nodes:
                result.add(name)
                stack.extend(self._nodes[name].fanins)
        return result

    def depth(self) -> int:
        """Logic depth in nodes (PIs at depth 0)."""
        depths: dict[str, int] = {name: 0 for name in self._input_set}
        for name in self.topological_order():
            node = self._nodes[name]
            if node.fanins:
                depths[name] = 1 + max(depths[f] for f in node.fanins)
            else:
                depths[name] = 0
        if not self._outputs:
            return 0
        return max(depths.get(output, 0) for output in self._outputs)

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def simulate(
        self, stimulus: Mapping[str, int], width: int
    ) -> dict[str, int]:
        """Bit-parallel simulation of ``width`` vectors packed in ints.

        ``stimulus`` maps every primary input to a packed vector.
        Returns packed vectors for the primary outputs.
        """
        values = self.simulate_all(stimulus, width)
        return {output: values[output] for output in self._outputs}

    def simulate_all(
        self, stimulus: Mapping[str, int], width: int
    ) -> dict[str, int]:
        """Like :meth:`simulate` but returns every signal's vector."""
        mask = (1 << width) - 1
        values: dict[str, int] = {}
        for name in self._inputs:
            try:
                values[name] = stimulus[name] & mask
            except KeyError:
                raise NetworkError(f"stimulus missing input {name!r}") from None
        for name in self.topological_order():
            node = self._nodes[name]
            values[name] = node.eval_ints(
                [values[fanin] for fanin in node.fanins], mask
            )
        return values

    # ------------------------------------------------------------------
    # Cleanup
    # ------------------------------------------------------------------
    def sweep_dangling(self) -> int:
        """Remove nodes not reachable from any output; return the count."""
        keep = self.transitive_fanin(self._outputs)
        dangling = [name for name in self._nodes if name not in keep]
        for name in dangling:
            del self._nodes[name]
        if dangling:
            self._order = None
        return len(dangling)

    def copy(self, name: str | None = None) -> "LogicNetwork":
        duplicate = LogicNetwork(name if name is not None else self.name)
        for input_name in self._inputs:
            duplicate.add_input(input_name)
        for output_name in self._outputs:
            duplicate.add_output(output_name)
        for node in self._nodes.values():
            duplicate.add_node(node.name, node.fanins, node.cover, node.inverted)
        return duplicate

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LogicNetwork {self.name!r} inputs={len(self._inputs)} "
            f"outputs={len(self._outputs)} nodes={len(self._nodes)}>"
        )
