"""The verify stage refutes a broken netlist with a fixed counterexample.

``VerifyEquivalence`` compares the optimized network and the mapped
netlist with the source on one set of stimuli.  The counterexamples
below were recorded when it ran one ``check_equivalence`` per network
(optimized first): sharing the stimuli must report the same one, and
the optimized network's when both are broken.
"""

from __future__ import annotations

import pytest

from repro.api import FunctionStage, get_pipeline
from repro.benchgen import build_benchmark
from repro.network import LogicNetwork

ALU2_MAPPED = (
    "{'a0': 0, 'a1': 0, 'a2': 0, 'b0': 0, 'b1': 0, 'b2': 0, 'cin': 0, "
    "'op0': 0, 'op1': 0, 'op2': 1}"
)
ALU2_OPTIMIZED = (
    "{'a0': 0, 'a1': 0, 'a2': 0, 'b0': 0, 'b1': 0, 'b2': 0, 'cin': 0, "
    "'op0': 0, 'op1': 1, 'op2': 0}"
)
VDA_MAPPED = (
    "{'x0': 0, 'x1': 1, 'x2': 1, 'x3': 0, 'x4': 1, 'x5': 0, 'x6': 0, 'x7': 1, "
    "'x8': 1, 'x9': 1, 'x10': 1, 'x11': 0, 'x12': 0, 'x13': 1, 'x14': 0, "
    "'x15': 1, 'x16': 0}"
)
VDA_OPTIMIZED = (
    "{'x0': 0, 'x1': 1, 'x2': 0, 'x3': 0, 'x4': 0, 'x5': 0, 'x6': 0, 'x7': 1, "
    "'x8': 1, 'x9': 1, 'x10': 0, 'x11': 0, 'x12': 1, 'x13': 0, 'x14': 0, "
    "'x15': 0, 'x16': 1}"
)


def _flip_middle_node(network: LogicNetwork) -> None:
    order = network.topological_order()
    node = network.node(order[len(order) // 2])
    network.replace_node(node.name, node.fanins, node.cover, not node.inverted)


def _counterexample(circuit: str, optimized: bool, mapped: bool) -> str:
    def corrupt(ctx):
        if optimized:
            _flip_middle_node(ctx.optimized)
        if mapped:
            _flip_middle_node(ctx.mapped.network)
        return ctx

    pipeline = get_pipeline("dc").insert_after("map", FunctionStage("corrupt", corrupt))
    config = pipeline.default_config()
    config.verify = True
    with pytest.raises(AssertionError) as raised:
        pipeline.run(build_benchmark(circuit), config)
    prefix = f"dc broke {circuit}: counterexample "
    message = str(raised.value)
    assert message.startswith(prefix)
    return message[len(prefix) :]


@pytest.mark.parametrize(
    "circuit,mapped_only,both",
    [
        ("alu2", ALU2_MAPPED, ALU2_OPTIMIZED),  # 10 inputs: exhaustive
        ("vda", VDA_MAPPED, VDA_OPTIMIZED),  # 17 inputs: random vectors
    ],
)
def test_broken_netlists_are_refuted_with_the_same_counterexample(circuit, mapped_only, both):
    assert _counterexample(circuit, optimized=False, mapped=True) == mapped_only
    assert _counterexample(circuit, optimized=True, mapped=True) == both
    assert _counterexample(circuit, optimized=True, mapped=False) == both


@pytest.mark.parametrize(
    "circuit,method,vectors", [("alu2", "exhaustive", 1024), ("vda", "random", 2048)]
)
def test_a_passing_check_keeps_its_method_and_vector_count(circuit, method, vectors):
    pipeline = get_pipeline("dc")
    config = pipeline.default_config()
    config.verify = True
    result = pipeline.run_context(build_benchmark(circuit), config).equivalence
    assert (result.equivalent, result.method, result.vectors) == (True, method, vectors)
