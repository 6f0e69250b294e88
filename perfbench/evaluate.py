"""Independent output check: bit-parallel evaluation of SOP covers.

The evaluator reads only the netlist data (inputs, outputs and each
node's fanins, cover rows and ``inverted`` flag) and evaluates every
node as an OR of AND-ed literals over Python integers used as bit
vectors, one bit per input vector.  It shares no code with ``repro``'s
simulators or equivalence checkers.

Circuits with at most :data:`EXHAUSTIVE_INPUTS` inputs are checked on
every input vector; larger ones on :data:`RANDOM_VECTORS` vectors drawn
from the run's seed.
"""

from __future__ import annotations

import random

EXHAUSTIVE_INPUTS = 16
RANDOM_VECTORS = 2048


def evaluate(network, stimulus: dict[str, int], mask: int) -> dict[str, int]:
    """Packed values of every output of ``network`` under ``stimulus``
    (``{input name: packed vector}``)."""
    values = {name: stimulus[name] & mask for name in network.inputs}
    expanded: set[str] = set()
    # Iterative post-order over fanins, from the outputs.
    for output in network.outputs:
        stack = [output]
        while stack:
            name = stack[-1]
            if name in values:
                stack.pop()
                continue
            node = network.node(name)
            pending = [f for f in node.fanins if f not in values]
            if pending:
                if name in expanded:
                    raise ValueError(f"combinational cycle through {name!r}")
                expanded.add(name)
                stack.extend(pending)
                continue
            stack.pop()
            fanins = [values[f] for f in node.fanins]
            result = 0
            for row in node.cover:
                term = mask
                for literal, value in zip(row, fanins):
                    if literal == "1":
                        term &= value
                    elif literal == "0":
                        term &= ~value
                result |= term
            values[name] = (~result if node.inverted else result) & mask
    return {name: values[name] for name in network.outputs}


def bus_signals(prefix: str, width: int) -> list[str]:
    return [prefix] if width == 1 else [f"{prefix}{i}" for i in range(width)]


class Vectors:
    """Input vectors for one circuit: assignments packed per input."""

    def __init__(self, inputs: list[str], assignments: list[int]) -> None:
        self.inputs = inputs
        self.assignments = assignments
        self.mask = (1 << len(assignments)) - 1
        self.stimulus = {
            name: _pack(a >> position & 1 for a in assignments)
            for position, name in enumerate(inputs)
        }

    @classmethod
    def for_inputs(cls, inputs: list[str], rng: random.Random) -> "Vectors":
        width = len(inputs)
        if width <= EXHAUSTIVE_INPUTS:
            return cls(inputs, list(range(1 << width)))
        return cls(inputs, [rng.getrandbits(width) for _ in range(RANDOM_VECTORS)])

    def restricted(self, keep: list[bool]) -> "Vectors":
        return Vectors(self.inputs, [a for a, k in zip(self.assignments, keep) if k])


def _pack(bits) -> int:
    """Pack an iterable of 0/1 (vector 0 first) into an int."""
    return int("".join("1" if b else "0" for b in bits)[::-1] or "0", 2)


def bus_values(circuit, position: dict[str, int], assignment: int) -> dict[str, int]:
    """Operand values the circuit's arithmetic sees under ``assignment``
    (flipped inputs reach it inverted)."""
    values = {}
    for prefix, width in circuit.buses.items():
        value = 0
        for i, signal in enumerate(bus_signals(prefix, width)):
            bit = (assignment >> position[signal] & 1) ^ (signal in circuit.flipped)
            value |= bit << i
        values[prefix] = value
    return values


class Expected:
    """Reference outputs of one circuit on its check vectors."""

    def __init__(self, circuit, rng: random.Random) -> None:
        network = circuit.network
        inputs = list(network.inputs)
        vectors = Vectors.for_inputs(inputs, rng)
        if circuit.reference is None:
            self.vectors = vectors
            self.outputs = evaluate(network, vectors.stimulus, vectors.mask)
        else:
            position = {name: i for i, name in enumerate(inputs)}
            buses = [bus_values(circuit, position, a) for a in vectors.assignments]
            if circuit.care is not None:
                keep = [circuit.care(b) for b in buses]
                vectors = vectors.restricted(keep)
                buses = [b for b, k in zip(buses, keep) if k]
            rows = [circuit.reference(b) for b in buses]
            self.vectors = vectors
            self.outputs = {
                name: _pack(row[name] for row in rows) for name in network.outputs
            }
        self.inputs = frozenset(inputs)

    def matches(self, network) -> bool:
        """Whether ``network`` computes the reference on every vector."""
        if frozenset(network.inputs) != self.inputs:
            return False
        if set(network.outputs) != set(self.outputs):
            return False
        got = evaluate(network, self.vectors.stimulus, self.vectors.mask)
        return got == self.outputs


def self_test() -> list[str]:
    """Known-answer tests of the evaluator; returns the failures."""
    from repro.benchgen import ripple_carry_adder
    from repro.network import LogicNetwork

    from circuits import Circuit, adder_reference, with_polarity

    failures = []
    # MAJ-5 as the ten 3-literal cubes; output 1 iff >= 3 inputs are 1.
    rows = []
    for a in range(32):
        if bin(a).count("1") == 3:
            rows.append("".join("1" if a >> i & 1 else "-" for i in range(5)))
    maj5 = LogicNetwork("maj5")
    for i in range(5):
        maj5.add_input(f"x{i}")
    maj5.add_node("y", [f"x{i}" for i in range(5)], rows)
    maj5.add_output("y")
    vectors = Vectors.for_inputs(list(maj5.inputs), random.Random(0))
    want = _pack(bin(a).count("1") >= 3 for a in vectors.assignments)
    if evaluate(maj5, vectors.stimulus, vectors.mask) != {"y": want}:
        failures.append("maj5")
    # The check must reject a broken MAJ-5 (one cube missing).
    broken = LogicNetwork("maj5")
    for i in range(5):
        broken.add_input(f"x{i}")
    broken.add_node("y", [f"x{i}" for i in range(5)], rows[1:])
    broken.add_output("y")
    if evaluate(broken, vectors.stimulus, vectors.mask) == {"y": want}:
        failures.append("maj5-broken-accepted")
    # rca8 against a + b on all 2^16 vectors, plain and with flipped inputs.
    for flipped in (frozenset(), frozenset({"a0", "a7", "b3"})):
        network = with_polarity(ripple_carry_adder(8, "rca8"), flipped)
        rca8 = Circuit("rca8", network, {"a": 8, "b": 8}, adder_reference(8, False),
                       flipped=flipped)
        expected = Expected(rca8, random.Random(0))
        if len(expected.vectors.assignments) != 1 << 16 or not expected.matches(network):
            failures.append(f"rca8 flipped={sorted(flipped)}")
    return failures
