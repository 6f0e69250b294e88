"""Seeded circuit draws for the three workloads, with reference functions.

Every workload synthesizes a fixed, stratified set of circuits, so the
work per seed stays the same.  The seed draws the Boolean functions: it
picks which half of each circuit's primary inputs enter inverted (the
circuit computes ``f(x xor m)``).  That leaves BDD sizes alone but
changes the functions and the mapped netlists.  Drawing the members per
seed instead made the work per seed vary by a quarter on ``datapath``,
and drawing fresh random control networks per seed made ``bds-maj``
time vary by 9 % (IQR over median, ten seeds); both are more than the
bounds allow.

* ``datapath``: XOR/MAJ-heavy arithmetic from ``repro.benchgen`` at
  reduced widths (a Wallace multiplier, a MAC, a reciprocal array, a
  Kogge-Stone and a four-operand adder) plus the alu2 stand-in;
* ``control``: AND/OR-heavy control logic built by the random
  control-network, PLA and key-mixing generators (the MCNC stand-ins);
* ``batch``: four of the datapath circuits and two control networks.

A :class:`Circuit` carries the source network and a reference.  For
arithmetic, ``reference`` maps the operand values (``{bus prefix: int}``)
to the expected output bits in Python integer arithmetic, independent of
any netlist.  Control networks have no closed form (``reference=None``):
the check evaluates the source network with the benchmark's evaluator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.benchgen import arithmetic, extra, mcnc, random_logic
from repro.network import LogicNetwork

Buses = dict[str, int]


@dataclass
class Circuit:
    """One generated input circuit of a draw."""

    name: str
    network: LogicNetwork
    #: ``{bus prefix: width}`` of the inputs the reference reads.
    buses: dict[str, int] = field(default_factory=dict)
    #: Operand values -> ``{output name: bit}``; None = evaluate the source.
    reference: Callable[[Buses], dict[str, int]] | None = None
    #: Operand values -> whether the outputs are specified for them.
    care: Callable[[Buses], bool] | None = None
    #: Inputs whose polarity the seed inverted.
    flipped: frozenset[str] = frozenset()


def _bits(prefix: str, value: int, width: int) -> dict[str, int]:
    return {f"{prefix}{i}": value >> i & 1 for i in range(width)}


def _product(width: int):
    return lambda v: _bits("prod", v["a"] * v["b"], 2 * width)


def _mac(width: int):
    return lambda v: _bits("mac", v["a"] * v["b"] + v["acc"], 2 * width + 1)


def adder_reference(width: int, carry_in: bool):
    def reference(v: Buses) -> dict[str, int]:
        total = v["a"] + v["b"] + (v["cin"] if carry_in else 0)
        return {**_bits("sum", total, width), "cout": total >> width & 1}

    return reference


def _four_operand(width: int):
    return lambda v: _bits("sum", v["a"] + v["b"] + v["c"] + v["d"], width + 2)


def _reciprocal(width: int):
    return lambda v: _bits("q", (1 << (width - 1)) // v["x"], width)


def _alu2(v: Buses) -> dict[str, int]:
    """``mcnc.alu2``: 3-bit ADD/SUB/AND/OR/XOR/XNOR/NOT-A/PASS-B."""
    a, b, cin, op = v["a"], v["b"], v["cin"], v["op"]
    op0, op1, op2 = op & 1, op >> 1 & 1, op >> 2 & 1
    arith = a + (~b & 7) + cin if op0 else a + b + cin
    logic_a = (a | b) if op0 else (a & b)
    logic_b = (~(a ^ b) & 7) if op0 else (a ^ b)
    misc = b if op0 else (~a & 7)
    low = logic_a if op1 else arith
    high = misc if op1 else logic_b
    result = (high if op2 else low) & 7
    is_arith = int(not (op1 or op2))
    msb_a, msb_b, msb_r = a >> 2 & 1, b >> 2 & 1, result >> 2 & 1
    return {
        **_bits("r", result, 3),
        "cout": (arith >> 3 & 1) & is_arith,
        "zero": int(result == 0),
        "ovf": int(msb_a == msb_b and msb_a != msb_r) & is_arith,
    }


#: name -> (build function, operand buses, reference, care)
DATAPATH = {
    "wallace6": (lambda: arithmetic.wallace_multiplier(6, "wallace6"),
                 {"a": 6, "b": 6}, _product(6), None),
    "mac5": (lambda: arithmetic.multiply_accumulate(5, "mac5"),
             {"a": 5, "b": 5, "acc": 10}, _mac(5), None),
    "rev6": (lambda: arithmetic.reciprocal(6, "rev6"),
             {"x": 6}, _reciprocal(6), lambda v: v["x"] != 0),
    "ks12": (lambda: extra.kogge_stone_adder(12, "ks12"),
             {"a": 12, "b": 12, "cin": 1}, adder_reference(12, True), None),
    "add4x8": (lambda: arithmetic.four_operand_adder(8, "add4x8"),
               {"a": 8, "b": 8, "c": 8, "d": 8}, _four_operand(8), None),
    "alu2": (lambda: mcnc.alu2("alu2"),
             {"a": 3, "b": 3, "cin": 1, "op": 3}, _alu2, None),
}

#: AND/OR-heavy control logic: the MCNC apex6, vda and misex3 stand-ins and
#: a key-mixing network like bigkey's at half width and three rounds (to
#: keep a round short).
CONTROL = {
    "apex6": mcnc.apex6,
    "vda": mcnc.vda,
    "misex3": mcnc.misex3,
    "bigkey": lambda: random_logic.key_mixing_network("bigkey", 32, 32, 3, seed=0xB16),
}

WORKLOAD_CIRCUITS = {
    "datapath": list(DATAPATH),
    "control": list(CONTROL),
    "batch": ["wallace6", "rev6", "ks12", "alu2", "apex6", "misex3"],
}


def with_polarity(network: LogicNetwork, flipped: frozenset[str]) -> LogicNetwork:
    """``network`` computing ``f(x xor m)``: every flipped input feeds its
    consumers through an inverter."""
    result = LogicNetwork(network.name)
    for name in network.inputs:
        result.add_input(name)
    for name in network.inputs:
        if name in flipped:
            result.add_not(f"{name}__inv", name)
    for name in network.node_names:
        node = network.node(name)
        fanins = [f"{f}__inv" if f in flipped else f for f in node.fanins]
        result.add_node(name, fanins, node.cover, node.inverted)
    for name in network.outputs:
        result.add_output(name)
    return result


def draw(workload: str, seed: int) -> list[Circuit]:
    """The circuits of ``workload`` for ``seed`` (same seed, same draw)."""
    rng = random.Random(f"{workload}:{seed}")
    circuits = []
    for name in WORKLOAD_CIRCUITS[workload]:
        if name in DATAPATH:
            build, buses, reference, care = DATAPATH[name]
        else:
            build, buses, reference, care = CONTROL[name], {}, None, None
        network = build()
        inputs = list(network.inputs)
        flipped = frozenset(rng.sample(inputs, len(inputs) // 2))
        circuits.append(Circuit(name, with_polarity(network, flipped), buses,
                                reference, care, flipped))
    return circuits
