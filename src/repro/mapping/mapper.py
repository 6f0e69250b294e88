"""Technology mapping onto the 6-cell library (Section V.B.1).

The paper maps in two steps: MAJ, XOR and XNOR nodes are *directly
assigned* to their cells (to preserve structures a conventional mapper
would hide), then the AND/OR/INV remainder is covered with NAND2, NOR2
and INV.  This module implements that as a polarity-aware structural
mapper:

* every gate node gets a two-polarity cost estimate (dynamic program
  over the DAG: an AND is either ``INV(NAND(x,y))`` or ``NOR(x',y')``,
  an OR either ``INV(NOR(x,y))`` or ``NAND(x',y')``, XOR/XNOR and the
  self-dual MAJ absorb polarities for free);
* the cheaper implementation is materialized top-down with structural
  hashing, so shared logic and shared inverters are emitted once.

Gates without a matching cell (e.g. XOR under the NAND-only ablation
library, MUX, or raw SOP nodes) are expanded into AND/OR/NOT.

One walk over the network's topological order lays it out as an
int-indexed list of gates: each distinct cover is classified once, and
expansions are emitted in place.  The cost DP, the demand pass and
materialization then run over list indices, and the mapped
:class:`LogicNetwork` is built once at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..network import LogicNetwork, NetworkError, Node
from .library import Cell, CellLibrary, cmos22_library

#: Internal polarity markers.
POS, NEG = 0, 1


class MappingError(NetworkError):
    """Raised when a network cannot be mapped onto the library."""


# ----------------------------------------------------------------------
# Gate classification
# ----------------------------------------------------------------------
#: Two-input covers by row set: ``(base_kind, output_inverted)``.
_TWO_INPUT_KINDS: dict[frozenset[str], tuple[str, bool]] = {
    frozenset({"11"}): ("and", False),
    frozenset({"1-", "-1"}): ("or", False),
    frozenset({"00"}): ("or", True),
    frozenset({"0-", "-0"}): ("and", True),
    frozenset({"10", "01"}): ("xor", False),
    frozenset({"11", "00"}): ("xor", True),
    frozenset({"10"}): ("andnot", False),
    frozenset({"01"}): ("notand", False),
}


def classify_gate(node: Node) -> tuple[str, bool, tuple[str, ...]]:
    """Classify a node as ``(base_kind, output_inverted, fanins)``.

    ``base_kind`` is one of ``const0 const1 buf and or andnot notand
    xor maj mux sop``; NAND/NOR/XNOR/NOT are folded into their base kind
    with ``output_inverted`` set (and the ``inverted`` cover flag
    handled).  ``sop`` marks anything that needs expansion.
    """
    rows = frozenset(node.cover)
    inverted = node.inverted
    arity = len(node.fanins)
    if arity == 0:
        value = bool(rows) ^ inverted
        return ("const1" if value else "const0", False, ())
    if arity == 1:
        if rows == {"1"}:
            return "buf", inverted, node.fanins
        if rows == {"0"}:
            return "buf", not inverted, node.fanins
        value = bool("-" in rows or {"0", "1"} <= rows) ^ inverted
        return ("const1" if value else "const0", False, ())
    if arity == 2:
        entry = _TWO_INPUT_KINDS.get(rows)
        if entry is not None:
            kind, out_inv = entry
            return kind, out_inv ^ inverted, node.fanins
        return "sop", inverted, node.fanins
    if arity == 3:
        if rows == {"11-", "1-1", "-11"}:
            return "maj", inverted, node.fanins
        if rows == {"11-", "0-1"}:
            return "mux", inverted, node.fanins
        return "sop", inverted, node.fanins
    return "sop", inverted, node.fanins


# ----------------------------------------------------------------------
# The mapper proper
# ----------------------------------------------------------------------
@dataclass
class MappedCircuit:
    """A mapped netlist plus its cell bindings."""

    network: LogicNetwork
    cell_of: dict[str, Cell]
    library: CellLibrary

    @property
    def gate_count(self) -> int:
        """Number of placed cells (tie/wire pseudo-cells excluded)."""
        return sum(
            1 for cell in self.cell_of.values() if cell.function not in ("tie0", "tie1", "wire")
        )

    @property
    def area(self) -> float:
        return sum(cell.area for cell in self.cell_of.values())

    def cell_histogram(self) -> dict[str, int]:
        histogram: dict[str, int] = {}
        for cell in self.cell_of.values():
            histogram[cell.function] = histogram.get(cell.function, 0) + 1
        return histogram


#: Implementation alternatives per (base kind, requested polarity):
#: list of (cell function, child polarities, invert after).
_IMPLEMENTATIONS: dict[tuple[str, int], list[tuple[str, tuple[int, ...], bool]]] = {
    ("and", POS): [("nor2", (NEG, NEG), False), ("nand2", (POS, POS), True)],
    ("and", NEG): [("nand2", (POS, POS), False), ("nor2", (NEG, NEG), True)],
    ("or", POS): [("nand2", (NEG, NEG), False), ("nor2", (POS, POS), True)],
    ("or", NEG): [("nor2", (POS, POS), False), ("nand2", (NEG, NEG), True)],
    # andnot(a, b) = a · b'
    ("andnot", POS): [("nor2", (NEG, POS), False), ("nand2", (POS, NEG), True)],
    ("andnot", NEG): [("nand2", (POS, NEG), False), ("nor2", (NEG, POS), True)],
    ("notand", POS): [("nor2", (POS, NEG), False), ("nand2", (NEG, POS), True)],
    ("notand", NEG): [("nand2", (NEG, POS), False), ("nor2", (POS, NEG), True)],
    ("xor", POS): [
        ("xor2", (POS, POS), False),
        ("xor2", (NEG, NEG), False),
        ("xnor2", (POS, NEG), False),
        ("xnor2", (NEG, POS), False),
    ],
    ("xor", NEG): [
        ("xnor2", (POS, POS), False),
        ("xnor2", (NEG, NEG), False),
        ("xor2", (POS, NEG), False),
        ("xor2", (NEG, POS), False),
    ],
    ("maj", POS): [("maj3", (POS, POS, POS), False), ("maj3", (NEG, NEG, NEG), True)],
    ("maj", NEG): [("maj3", (NEG, NEG, NEG), False), ("maj3", (POS, POS, POS), True)],
}


#: An available implementation: ``(cell area plus any inverter after
#: it, cell function, child polarities, invert after)``.
_Implementation = tuple[float, str, tuple[int, ...], bool]

#: Cover and output-inversion flag of each placed cell function.
_CELL_COVERS: dict[str, tuple[tuple[str, ...], bool]] = {
    "inv": (("0",), False),
    "nand2": (("11",), True),
    "nor2": (("1-", "-1"), True),
    "xor2": (("10", "01"), False),
    "xnor2": (("11", "00"), False),
    "maj3": (("11-", "1-1", "-11"), False),
}

#: Pseudo-cell of an alias net that gives an output its own name.
_WIRE = Cell("WIRE", "wire", 1, 0.0, 0.0, 0.0)

#: One gate of the prepared network: ``(kind, output_inverted, fanin
#: indices, name)``.  ``name`` is the source signal the gate computes,
#: or ``None`` for a gate that expansion introduced.
_Gate = tuple[str, bool, tuple[int, ...], Optional[str]]


def _prepare(
    network: LogicNetwork, library: CellLibrary
) -> tuple[list[_Gate], dict[str, int]]:
    """Lay ``network`` out as gates the mapper has a cell for.

    Returns the gates in emission order (the primary inputs first, as
    ``input`` gates) and the index of the gate computing each source
    signal.  Every fanin index is smaller than the gate's own, so the
    list order is topological.  SOP and MUX nodes, and XOR/MAJ when the
    library lacks their cells, become AND/OR/NOT gates in place;
    expansion creates fresh gates and never shares them.
    """
    has_xor, has_maj = library.has("xor2"), library.has("maj3")
    gates: list[_Gate] = [("input", False, (), name) for name in network.inputs]
    index = {name: position for position, name in enumerate(network.inputs)}
    kinds: dict[tuple[tuple[str, ...], bool, int], tuple[str, bool]] = {}

    def emit(
        kind: str, out_inv: bool, fanins: tuple[int, ...], name: str | None = None
    ) -> int:
        gates.append((kind, out_inv, fanins, name))
        return len(gates) - 1

    def emit_not(source: int) -> int:
        return emit("buf", True, (source,))

    def emit_and(left: int, right: int) -> int:
        return emit("and", False, (left, right))

    def emit_or(left: int, right: int) -> int:
        return emit("or", False, (left, right))

    def pairwise(terms: list[int], combine: Callable[[int, int], int]) -> int:
        while len(terms) > 1:
            terms = [
                combine(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)
            ] + ([terms[-1]] if len(terms) % 2 else [])
        return terms[0]

    for name in network.topological_order():
        node = network.node(name)
        key = (node.cover, node.inverted, len(node.fanins))
        entry = kinds.get(key)
        if entry is None:
            kind, out_inv, _ = classify_gate(node)
            entry = kinds[key] = (kind, out_inv)
        kind, out_inv = entry
        if kind == "const0" or kind == "const1":
            index[name] = emit(kind, False, (), name)
            continue
        fanins = tuple(map(index.__getitem__, node.fanins))
        if kind == "mux":
            select, when_true, when_false = fanins
            then_part = emit_and(select, when_true)
            else_part = emit_and(emit_not(select), when_false)
            index[name] = emit("or", out_inv, (then_part, else_part), name)
        elif kind == "xor" and not has_xor:
            left, right = fanins
            then_part = emit_and(left, emit_not(right))
            else_part = emit_and(emit_not(left), right)
            index[name] = emit("or", out_inv, (then_part, else_part), name)
        elif kind == "maj" and not has_maj:
            a, b, c = fanins
            ab = emit_and(a, b)
            ac = emit_and(a, c)
            bc = emit_and(b, c)
            index[name] = emit("or", out_inv, (emit_or(ab, ac), bc), name)
        elif kind == "sop":
            if not node.cover or any(not row.strip("-") for row in node.cover):
                # Empty cover, or a tautological row.
                value = bool(node.cover) ^ node.inverted
                index[name] = emit("const1" if value else "const0", False, (), name)
                continue
            terms = []
            for row in node.cover:
                literals = [
                    fanin if ch == "1" else emit_not(fanin)
                    for ch, fanin in zip(row, fanins)
                    if ch != "-"
                ]
                terms.append(pairwise(literals, emit_and))
            index[name] = emit("buf", node.inverted, (pairwise(terms, emit_or),), name)
        else:
            index[name] = emit(kind, out_inv, fanins, name)
    return gates, index


def map_network(
    network: LogicNetwork, library: CellLibrary | None = None
) -> MappedCircuit:
    """Map a gate-level network onto ``library`` (default: the paper's
    cmos22 library)."""
    if library is None:
        library = cmos22_library()
    inv_area = library.cell("inv").area
    gates, index = _prepare(network, library)
    inputs = network.inputs
    outputs = [index[output] for output in network.outputs]

    # Only the gates the outputs reach are mapped (and may raise).
    live = bytearray(len(gates))
    for signal in outputs:
        live[signal] = 1
    for position in range(len(gates) - 1, len(inputs) - 1, -1):
        if live[position]:
            for fanin in gates[position][2]:
                live[fanin] = 1
    order = [position for position in range(len(inputs), len(gates)) if live[position]]

    # ------------------------------------------------------------------
    # Phase 1: two-polarity cost estimation (tree DP over the DAG),
    # recording the cheapest implementation of each (gate, polarity).
    # An implementation costs its cell (plus inverter) plus the sum of
    # its children's costs, in that association: float ties decide.
    # ------------------------------------------------------------------
    options: dict[tuple[str, int], list[_Implementation]] = {}
    for key, alternatives in _IMPLEMENTATIONS.items():
        options[key] = [
            (library.cells[fn].area + (inv_area if inv_after else 0.0), fn, pols, inv_after)
            for fn, pols, inv_after in alternatives
            if library.has(fn)
        ]
    cost: list[tuple[float, float]] = [(0.0, inv_area)] * len(gates)
    chosen: list[list[_Implementation]] = [[] for _ in gates]
    for position in order:
        kind, out_inv, fanins, _ = gates[position]
        if kind == "const0" or kind == "const1":
            cost[position] = (0.0, 0.0)
            continue
        if kind == "buf":
            base = cost[fanins[0]]
            cost[position] = (base[out_inv], base[1 - out_inv])
            continue
        children = [cost[fanin] for fanin in fanins]
        per_polarity = []
        for want in (POS, NEG):
            best = float("inf")
            for impl in options[(kind, want ^ out_inv)]:
                pols = impl[2]
                if len(pols) == 2:
                    total = impl[0] + (children[0][pols[0]] + children[1][pols[1]])
                else:
                    total = impl[0] + (
                        children[0][pols[0]] + children[1][pols[1]] + children[2][pols[2]]
                    )
                if total < best:
                    best = total
                    pick = impl
            if best == float("inf"):
                raise MappingError(f"no implementation for {kind!r} in {library.name!r}")
            per_polarity.append(best)
            chosen[position].append(pick)
        cost[position] = (per_polarity[0], per_polarity[1])

    # ------------------------------------------------------------------
    # Phase 2a: consumers-to-producers, which polarities of which gate
    # must exist under the phase 1 choices (bit 1: POS, bit 2: NEG).
    # ------------------------------------------------------------------
    demand = bytearray(len(gates))
    for signal in outputs:
        demand[signal] |= 1
    for position in reversed(order):
        kind, out_inv, fanins, _ = gates[position]
        if kind == "const0" or kind == "const1":
            continue
        wanted = demand[position]
        for polarity in (POS, NEG):
            if not wanted >> polarity & 1:
                continue
            if kind == "buf":
                demand[fanins[0]] |= 1 << (polarity ^ out_inv)
                continue
            for fanin, child_pol in zip(fanins, chosen[position][polarity][2]):
                demand[fanin] |= 1 << child_pol

    # ------------------------------------------------------------------
    # Phase 2b: materialization with structural hashing, bottom-up.
    # ``built[2 * gate + polarity]`` is the mapped net computing it.
    # ------------------------------------------------------------------
    nodes: list[tuple[str, tuple[str, ...], tuple[str, ...], bool]] = []
    cell_of: dict[str, Cell] = {}
    intern: dict[tuple[str, tuple[str, ...]], str] = {}
    counter = 0
    output_names = set(network.outputs)

    def place_cell(cell_fn: str, fanins: tuple[str, ...], preferred: str | None) -> str:
        nonlocal counter
        key = (cell_fn, fanins)
        existing = intern.get(key)
        if existing is not None:
            if preferred is None:
                return existing
            # An output needs its own named node: emit an alias wire.
            nodes.append((preferred, (existing,), ("1",), False))
            cell_of[preferred] = _WIRE
            return preferred
        if preferred is not None:
            name = preferred
        else:
            counter += 1
            name = f"g{counter}"
        cover, inverted = _CELL_COVERS[cell_fn]
        nodes.append((name, fanins, cover, inverted))
        cell_of[name] = library.cells[cell_fn]
        intern[key] = name
        return name

    def place_const(value: bool) -> str:
        nonlocal counter
        cell_fn = "tie1" if value else "tie0"
        existing = intern.get((cell_fn, ()))
        if existing is not None:
            return existing
        counter += 1
        name = f"g{counter}"
        nodes.append((name, (), ("",) if value else (), False))
        cell_of[name] = library.cell(cell_fn)
        intern[(cell_fn, ())] = name
        return name

    built: list[str | None] = [None] * (2 * len(gates))
    for position, name in enumerate(inputs):
        built[2 * position] = name
        if demand[position] & 2:
            built[2 * position + 1] = place_cell("inv", (name,), None)
    for position in order:
        kind, out_inv, fanins, name = gates[position]
        wanted = demand[position]
        for polarity in (POS, NEG):
            if not wanted >> polarity & 1:
                continue
            if kind == "const0" or kind == "const1":
                built[2 * position + polarity] = place_const((kind == "const1") ^ bool(polarity))
                continue
            if kind == "buf":
                built[2 * position + polarity] = built[2 * fanins[0] + (polarity ^ out_inv)]
                continue
            _, cell_fn, child_pols, inv_after = chosen[position][polarity]
            children = tuple(
                [built[2 * fanin + child_pol] for fanin, child_pol in zip(fanins, child_pols)]
            )
            # Name the cell after the signal when it is a primary output
            # materialized positively (keeps the netlist readable and
            # avoids alias wires for the common case).
            preferred = name if polarity == POS and name in output_names else None
            result = place_cell(cell_fn, children, None if inv_after else preferred)
            if inv_after:
                result = place_cell("inv", (result,), preferred)
            built[2 * position + polarity] = result

    for output, signal in zip(network.outputs, outputs):
        if signal < len(inputs):
            continue  # Input fed straight to an output: zero-cost wire.
        net = built[2 * signal]
        if net != output:
            nodes.append((output, (net,), ("1",), False))
            cell_of[output] = _WIRE

    mapped = LogicNetwork(f"{network.name}_mapped")
    for name in inputs:
        mapped.add_input(name)
    for name, fanins, cover, inverted in nodes:
        mapped.add_node(name, fanins, cover, inverted)
    for output in network.outputs:
        mapped.add_output(output)
    return MappedCircuit(mapped, cell_of, library)
