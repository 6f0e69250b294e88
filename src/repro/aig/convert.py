"""Conversions between :class:`LogicNetwork` and :class:`Aig`."""

from __future__ import annotations

from ..network.netlist import LogicNetwork
from .aig import Aig


def network_to_aig(network: LogicNetwork) -> Aig:
    """Strash a logic network into an AIG (covers become OR-of-ANDs)."""
    aig = Aig()
    literals: dict[str, int] = {}
    for name in network.inputs:
        literals[name] = aig.add_input(name)
    for name in network.topological_order():
        node = network.node(name)
        terms = []
        for row in node.cover:
            term = aig.ONE
            for ch, fanin in zip(row, node.fanins):
                if ch == "1":
                    term = aig.and_(term, literals[fanin])
                elif ch == "0":
                    term = aig.and_(term, literals[fanin] ^ 1)
            terms.append(term)
        literal = aig.or_many(terms)
        literals[name] = literal ^ 1 if node.inverted else literal
    for output in network.outputs:
        aig.add_output(output, literals[output])
    return aig


def aig_to_network(
    aig: Aig, name: str = "from_aig", detect_xor: bool = False
) -> LogicNetwork:
    """Emit an AIG as a gate-level network of AND2 and NOT nodes.

    Inverters are shared (one NOT node per complemented signal); the
    primary outputs keep their names via buffer/inverter nodes so the
    interface matches the original network exactly.

    With ``detect_xor`` the classic three-AND pattern
    ``n = (a·b)'·(a'·b')'`` is recovered as a single XOR/XNOR gate when
    the inner ANDs have no other fanout — this emulates the Boolean
    matching an ABC-style mapper performs against XOR library cells.
    """
    network = LogicNetwork(name)
    signal_of: dict[int, str] = {}
    for pi_name in aig.inputs:
        network.add_input(pi_name)
        signal_of[aig.input_literal(pi_name) >> 1] = pi_name

    counter = [0]
    inverter_of: dict[str, str] = {}
    output_names = {po_name for po_name, _ in aig.outputs}

    def fresh(stem: str) -> str:
        counter[0] += 1
        candidate = f"{stem}{counter[0]}"
        while network.has_signal(candidate) or candidate in output_names:
            counter[0] += 1
            candidate = f"{stem}{counter[0]}"
        return candidate

    constant_one: list[str] = []

    def literal_signal(literal: int) -> str:
        node = literal >> 1
        if node == 0:
            if not constant_one:
                constant_one.append(network.add_const(fresh("const"), True))
            base = constant_one[0]
        else:
            base = signal_of[node]
        if literal & 1 == 0:
            return base
        existing = inverter_of.get(base)
        if existing is None:
            existing = network.add_not(fresh("inv"), base)
            inverter_of[base] = existing
        return existing

    topo = aig.reachable_ands()
    xor_of: dict[int, tuple[int, int]] = {}
    skipped: set[int] = set()
    if detect_xor:
        refs = aig.reference_counts()

        def xor_operands(node: int) -> tuple[int, int] | None:
            """Literals (p, q) with node == XOR(p, q), or None."""
            f0, f1 = aig.fanins(node)
            if not (f0 & 1 and f1 & 1):
                return None
            u, v = f0 >> 1, f1 >> 1
            if not (aig.is_and(u) and aig.is_and(v)):
                return None
            if refs.get(u, 0) != 1 or refs.get(v, 0) != 1:
                return None
            pu = aig.fanins(u)
            pv = aig.fanins(v)
            if {pv[0], pv[1]} == {pu[0] ^ 1, pu[1] ^ 1}:
                return pu
            return None

        # Claim patterns from the roots downward so a node consumed as
        # an inner AND is never also rewritten as an XOR root itself.
        for node in reversed(topo):
            if node in skipped:
                continue
            operands = xor_operands(node)
            if operands is not None:
                xor_of[node] = operands
                f0, f1 = aig.fanins(node)
                skipped.update((f0 >> 1, f1 >> 1))

    for node in topo:
        if node in skipped:
            continue
        operands = xor_of.get(node)
        if operands is not None:
            p, q = operands
            left = literal_signal(p & ~1)
            right = literal_signal(q & ~1)
            if (p & 1) ^ (q & 1):
                signal_of[node] = network.add_xnor(fresh("xnor"), left, right)
            else:
                signal_of[node] = network.add_xor(fresh("xor"), left, right)
            continue
        f0, f1 = aig.fanins(node)
        signal_of[node] = network.add_and(
            fresh("and"), literal_signal(f0), literal_signal(f1)
        )

    for po_name, literal in aig.outputs:
        node = literal >> 1
        if node == 0:
            network.add_const(po_name, literal == Aig.ONE)
        elif literal & 1:
            network.add_not(po_name, signal_of[node])
        else:
            network.add_buf(po_name, signal_of[node])
        network.add_output(po_name)
    return network
