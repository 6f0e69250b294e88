"""Static timing analysis and reporting on mapped circuits.

Implements the delay model of the library characterization: a cell's
output arrival is the latest input arrival plus the cell's intrinsic
delay plus a per-fanout load term.  Produces the three numbers Table II
reports per circuit: area (µm²), gate count and delay (ns).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .mapper import MappedCircuit


@dataclass(frozen=True)
class TimingReport:
    """Table-II style metrics of one mapped circuit."""

    area: float
    gate_count: int
    delay: float
    critical_path: tuple[str, ...]
    depth: int

    def row(self) -> tuple[float, int, float]:
        return (round(self.area, 2), self.gate_count, round(self.delay, 3))


def analyze(mapped: MappedCircuit) -> TimingReport:
    """Compute arrival times and the critical path of ``mapped``."""
    network = mapped.network
    order = network.topological_order()
    loads = Counter(fanin for name in order for fanin in network.node(name).fanins)
    arrival: dict[str, float] = {name: 0.0 for name in network.inputs}
    depth: dict[str, int] = {name: 0 for name in network.inputs}
    predecessor: dict[str, str | None] = {name: None for name in network.inputs}

    for name in order:
        node = network.node(name)
        cell = mapped.cell_of.get(name)
        if cell is None or not node.fanins:
            arrival[name] = 0.0
            depth[name] = 0
            predecessor[name] = None
            continue
        worst_signal = max(node.fanins, key=arrival.__getitem__)
        arrival[name] = arrival[worst_signal] + cell.delay + cell.load_delay * loads[name]
        depth[name] = depth[worst_signal] + (0 if cell.function == "wire" else 1)
        predecessor[name] = worst_signal

    if network.outputs:
        worst_output = max(network.outputs, key=lambda o: arrival.get(o, 0.0))
        delay = arrival.get(worst_output, 0.0)
        path = _trace_path(predecessor, worst_output)
        max_depth = max(depth.get(o, 0) for o in network.outputs)
    else:
        delay, path, max_depth = 0.0, (), 0

    return TimingReport(
        area=mapped.area,
        gate_count=mapped.gate_count,
        delay=delay,
        critical_path=path,
        depth=max_depth,
    )


def _trace_path(predecessor: dict[str, str | None], end: str) -> tuple[str, ...]:
    path = [end]
    current = predecessor.get(end)
    while current is not None:
        path.append(current)
        current = predecessor.get(current)
    return tuple(reversed(path))
