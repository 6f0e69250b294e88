"""Reference copy of the structural technology mapper as it was before
it became one int-indexed walk over the optimized network.

* :func:`expand_for_library` copies the whole network, expanding SOP
  and MUX nodes (and XOR/MAJ when the library lacks their cells) into
  fresh AND/OR/NOT nodes, then sweeps what the outputs do not reach.
* :func:`map_network` classifies every node of that copy again, runs
  the two-polarity cost DP, the demand pass and the materialization
  over dicts keyed by signal name, and sweeps the mapped network.

:func:`classify_gate` and the implementation table are copied with
them, so the oracle does not move with the live module.

``test_reference_mapper.py`` requires the live mapper to give the very
same BLIF text, cell bindings and timing report.
"""

from __future__ import annotations

from repro.mapping import Cell, CellLibrary, MappedCircuit, MappingError, cmos22_library
from repro.network import LogicNetwork, Node

#: Internal polarity markers.
POS, NEG = 0, 1


# ----------------------------------------------------------------------
# Gate classification
# ----------------------------------------------------------------------
#: Canonical covers for 1- and 2-input gates and the 3-input MAJ/MUX.
def classify_gate(node: Node) -> tuple[str, bool, tuple[str, ...]]:
    """Classify a node as ``(base_kind, output_inverted, fanins)``.

    ``base_kind`` is one of ``const0 const1 buf and or xor maj mux
    sop``; NAND/NOR/XNOR/NOT are folded into their base kind with
    ``output_inverted`` set (and the ``inverted`` cover flag handled).
    ``sop`` marks anything that needs pre-expansion.
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
        table = {
            frozenset({"11"}): ("and", False, node.fanins),
            frozenset({"1-", "-1"}): ("or", False, node.fanins),
            frozenset({"00"}): ("or", True, node.fanins),
            frozenset({"0-", "-0"}): ("and", True, node.fanins),
            frozenset({"10", "01"}): ("xor", False, node.fanins),
            frozenset({"11", "00"}): ("xor", True, node.fanins),
            frozenset({"10"}): ("andnot", False, node.fanins),
            frozenset({"01"}): ("notand", False, node.fanins),
        }
        entry = table.get(rows)
        if entry is not None:
            kind, out_inv, fanins = entry
            return kind, out_inv ^ inverted, fanins
        return "sop", inverted, node.fanins
    if arity == 3:
        if rows == {"11-", "1-1", "-11"}:
            return "maj", inverted, node.fanins
        if rows == {"11-", "0-1"}:
            return "mux", inverted, node.fanins
        return "sop", inverted, node.fanins
    return "sop", inverted, node.fanins


# ----------------------------------------------------------------------
# Pre-expansion of unmappable nodes
# ----------------------------------------------------------------------
def expand_for_library(network: LogicNetwork, library: CellLibrary) -> LogicNetwork:
    """Rewrite ``network`` so every node is a gate the mapper handles
    with the given library: SOP and MUX nodes become AND/OR/NOT trees,
    XOR/XNOR/MAJ are expanded when the library lacks their cells."""
    result = LogicNetwork(network.name)
    for name in network.inputs:
        result.add_input(name)
    counter = [0]

    def fresh(stem: str) -> str:
        counter[0] += 1
        return f"__map{counter[0]}_{stem}"

    def emit_not(source: str) -> str:
        name = fresh("n")
        result.add_not(name, source)
        return name

    def emit_and(left: str, right: str) -> str:
        name = fresh("a")
        result.add_and(name, left, right)
        return name

    def emit_or(left: str, right: str) -> str:
        name = fresh("o")
        result.add_or(name, left, right)
        return name

    def expand_row(row: str, fanins: tuple[str, ...]) -> str | None:
        literals: list[str] = []
        for ch, fanin in zip(row, fanins):
            if ch == "1":
                literals.append(fanin)
            elif ch == "0":
                literals.append(emit_not(fanin))
        if not literals:
            return None  # tautological row
        while len(literals) > 1:
            literals = [
                emit_and(literals[i], literals[i + 1])
                for i in range(0, len(literals) - 1, 2)
            ] + ([literals[-1]] if len(literals) % 2 else [])
        return literals[0]

    for name in network.topological_order():
        node = network.node(name)
        kind, out_inv, fanins = classify_gate(node)
        keep_as_is = (
            kind in ("const0", "const1", "buf", "and", "or", "andnot", "notand")
            or (kind == "xor" and library.has("xor2"))
            or (kind == "maj" and library.has("maj3"))
        )
        if keep_as_is:
            result.add_node(name, node.fanins, node.cover, node.inverted)
            continue
        # Expand into AND/OR/NOT gates, ending in a node named ``name``.
        if kind == "mux":
            select, when_true, when_false = fanins
            then_part = emit_and(select, when_true)
            else_part = emit_and(emit_not(select), when_false)
            result.add_node(
                name, (then_part, else_part), ("1-", "-1"), inverted=out_inv
            )
            continue
        if kind == "xor":
            left, right = fanins
            then_part = emit_and(left, emit_not(right))
            else_part = emit_and(emit_not(left), right)
            result.add_node(
                name, (then_part, else_part), ("1-", "-1"), inverted=out_inv
            )
            continue
        if kind == "maj":
            a, b, c = fanins
            ab = emit_and(a, b)
            ac = emit_and(a, c)
            bc = emit_and(b, c)
            result.add_node(
                name, (emit_or(ab, ac), bc), ("1-", "-1"), inverted=out_inv
            )
            continue
        # General SOP.
        terms = [expand_row(row, node.fanins) for row in node.cover]
        if any(term is None for term in terms):
            result.add_const(name, not node.inverted)
            continue
        if not terms:
            result.add_const(name, node.inverted)
            continue
        while len(terms) > 1:
            terms = [
                emit_or(terms[i], terms[i + 1])
                for i in range(0, len(terms) - 1, 2)
            ] + ([terms[-1]] if len(terms) % 2 else [])
        result.add_node(name, (terms[0],), ("0",) if node.inverted else ("1",))

    for output in network.outputs:
        result.add_output(output)
    result.sweep_dangling()
    return result


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


def map_network(
    network: LogicNetwork, library: CellLibrary | None = None
) -> MappedCircuit:
    """Map a gate-level network onto ``library`` (default: the paper's
    cmos22 library)."""
    if library is None:
        library = cmos22_library()
    prepared = expand_for_library(network, library)
    inv_area = library.cell("inv").area

    kinds: dict[str, tuple[str, bool, tuple[str, ...]]] = {}
    for name in prepared.topological_order():
        kinds[name] = classify_gate(prepared.node(name))

    # ------------------------------------------------------------------
    # Phase 1: two-polarity cost estimation (tree DP over the DAG),
    # recording the cheapest implementation of each (node, polarity).
    # ------------------------------------------------------------------
    cost: dict[str, tuple[float, float]] = {}
    chosen: dict[tuple[str, int], tuple[str, tuple[int, ...], bool]] = {}
    for name in prepared.inputs:
        cost[name] = (0.0, inv_area)

    def child_cost(signal: str, polarity: int) -> float:
        return cost[signal][polarity]

    for name in prepared.topological_order():
        kind, out_inv, fanins = kinds[name]
        if kind in ("const0", "const1"):
            cost[name] = (0.0, 0.0)
            continue
        if kind == "buf":
            base = cost[fanins[0]]
            cost[name] = (base[out_inv], base[1 - out_inv])
            continue
        per_polarity: list[float] = []
        for want in (POS, NEG):
            base_want = want ^ out_inv
            best = float("inf")
            for impl in _IMPLEMENTATIONS[(kind, base_want)]:
                cell_fn, child_pols, inv_after = impl
                if not library.has(cell_fn):
                    continue
                total = library.cell(cell_fn).area + (inv_area if inv_after else 0.0)
                total += sum(
                    child_cost(f, p) for f, p in zip(fanins, child_pols)
                )
                if total < best:
                    best = total
                    chosen[(name, want)] = impl
            if best == float("inf"):
                raise MappingError(f"no implementation for {kind!r} in {library.name!r}")
            per_polarity.append(best)
        cost[name] = (per_polarity[0], per_polarity[1])

    # ------------------------------------------------------------------
    # Phase 2: materialization with structural hashing.
    # ------------------------------------------------------------------
    mapped = LogicNetwork(f"{network.name}_mapped")
    for name in prepared.inputs:
        mapped.add_input(name)
    cell_of: dict[str, Cell] = {}
    intern: dict[tuple[str, tuple[str, ...]], str] = {}
    counter = [0]
    output_names = set(prepared.outputs)

    covers = {
        "inv": (("0",), False),
        "nand2": (("11",), True),
        "nor2": (("1-", "-1"), True),
        "xor2": (("10", "01"), False),
        "xnor2": (("11", "00"), False),
        "maj3": (("11-", "1-1", "-11"), False),
    }

    def place_cell(cell_fn: str, fanins: tuple[str, ...], preferred: str | None) -> str:
        key = (cell_fn, fanins)
        existing = intern.get(key)
        if existing is not None and preferred is None:
            return existing
        if existing is not None and preferred is not None:
            # An output needs its own named node: emit an alias wire.
            mapped.add_node(preferred, (existing,), ("1",))
            cell_of[preferred] = Cell("WIRE", "wire", 1, 0.0, 0.0, 0.0)
            return preferred
        if preferred is not None:
            name = preferred
        else:
            counter[0] += 1
            name = f"g{counter[0]}"
        cover, inverted = covers[cell_fn]
        mapped.add_node(name, fanins, cover, inverted)
        cell_of[name] = library.cell(cell_fn)
        intern.setdefault(key, name)
        return name

    def place_const(value: bool, preferred: str | None) -> str:
        cell_fn = "tie1" if value else "tie0"
        if preferred is not None:
            name = preferred
        else:
            existing = intern.get((cell_fn, ()))
            if existing is not None:
                return existing
            counter[0] += 1
            name = f"g{counter[0]}"
        mapped.add_const(name, value)
        cell_of[name] = library.cell(cell_fn)
        if preferred is None:
            intern[(cell_fn, ())] = name
        return name

    # Phase 2a (iterative; deep netlists exceed the recursion limit):
    # walk consumers-to-producers collecting which polarity of which
    # signal must exist under the phase 1 implementation choices.
    order = prepared.topological_order()
    demands: dict[str, set[int]] = {name: set() for name in order}
    for name in prepared.inputs:
        demands[name] = set()
    for output in prepared.outputs:
        demands[output].add(POS)
    for name in reversed(order):
        kind, out_inv, fanins = kinds[name]
        for polarity in tuple(demands[name]):
            if kind in ("const0", "const1"):
                continue
            if kind == "buf":
                demands[fanins[0]].add(polarity ^ out_inv)
                continue
            _, child_pols, _ = chosen[(name, polarity)]
            for fanin, child_pol in zip(fanins, child_pols):
                demands[fanin].add(child_pol)

    # Phase 2b: build bottom-up.  ``built`` maps (signal, polarity) to
    # the mapped net computing it.
    built: dict[tuple[str, int], str] = {}
    for name in prepared.inputs:
        built[(name, POS)] = name
        if NEG in demands[name]:
            built[(name, NEG)] = place_cell("inv", (name,), None)
    for name in order:
        kind, out_inv, fanins = kinds[name]
        for polarity in sorted(demands[name]):
            if kind in ("const0", "const1"):
                value = (kind == "const1") ^ bool(polarity)
                built[(name, polarity)] = place_const(value, None)
                continue
            if kind == "buf":
                built[(name, polarity)] = built[(fanins[0], polarity ^ out_inv)]
                continue
            cell_fn, child_pols, inv_after = chosen[(name, polarity)]
            children = tuple(
                built[(fanin, child_pol)]
                for fanin, child_pol in zip(fanins, child_pols)
            )
            # Name the cell after the signal when it is a primary output
            # materialized positively (keeps the netlist readable and
            # avoids alias wires for the common case).
            preferred = None
            if (
                polarity == POS
                and name in output_names
                and not mapped.has_signal(name)
                and not inv_after
            ):
                preferred = name
            result = place_cell(cell_fn, children, preferred)
            if inv_after:
                inv_preferred = None
                if (
                    polarity == POS
                    and name in output_names
                    and not mapped.has_signal(name)
                ):
                    inv_preferred = name
                result = place_cell("inv", (result,), inv_preferred)
            built[(name, polarity)] = result

    for output in prepared.outputs:
        if prepared.is_input(output):
            # Input fed straight to an output: zero-cost wire.
            mapped.add_output(output)
            continue
        signal = built[(output, POS)]
        if signal != output:
            mapped.add_node(output, (signal,), ("1",))
            cell_of[output] = Cell("WIRE", "wire", 1, 0.0, 0.0, 0.0)
        mapped.add_output(output)

    mapped.sweep_dangling()
    cell_of = {name: cell for name, cell in cell_of.items() if mapped.has_signal(name)}
    return MappedCircuit(mapped, cell_of, library)
