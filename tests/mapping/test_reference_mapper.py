"""The live mapper against the reference copy in ``reference_mapper.py``.

Both must give the very same mapped BLIF text, cell bindings (in the
same order, which fixes the float sum behind ``area``) and timing
report, under the paper's library and the NAND-only ablation library.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import get_pipeline
from repro.benchgen import BENCHMARKS, build_benchmark
from repro.mapping import analyze, cmos22_library, map_network, nand_only_library
from repro.network import LogicNetwork, NetworkError, to_blif

from . import reference_mapper

LIBRARIES = (cmos22_library(), nand_only_library())

#: ``(fanin count, cover)`` of every gate shape the mapper classifies,
#: plus covers it must expand or fold to a constant.
SHAPES = (
    (0, ()),
    (0, ("",)),
    (1, ("1",)),
    (1, ("0",)),
    (1, ("1", "0")),
    (1, ("-",)),
    (1, ()),
    (2, ("11",)),
    (2, ("1-", "-1")),
    (2, ("00",)),
    (2, ("0-", "-0")),
    (2, ("10", "01")),
    (2, ("11", "00")),
    (2, ("10",)),
    (2, ("01",)),
    (3, ("11-", "1-1", "-11")),
    (3, ("11-", "0-1")),
)


@st.composite
def gate_networks(draw) -> LogicNetwork:
    """A random network over every cover shape: SOP nodes with random
    rows (tautological and empty covers too), output-0 covers, repeated
    fanins, primary inputs as outputs and dangling nodes, inserted in a
    random order.  Some nodes are named like the mapper's own cells, so
    both mappers must reject the same name clashes."""
    num_inputs = draw(st.integers(1, 5))
    num_nodes = draw(st.integers(0, 14))
    signals = [f"i{k}" for k in range(num_inputs)]
    nodes = []
    for position in range(num_nodes):
        if draw(st.booleans()):
            arity, cover = draw(st.sampled_from(SHAPES))
        else:
            arity = draw(st.integers(2, 4))
            rows = st.text(alphabet="01-", min_size=arity, max_size=arity)
            cover = tuple(draw(st.lists(rows, max_size=4)))
        fanins = tuple(draw(st.sampled_from(signals)) for _ in range(arity))
        name = draw(st.sampled_from(("n", "n", "n", "g"))) + str(position)
        nodes.append((name, fanins, cover, draw(st.booleans())))
        signals.append(name)
    network = LogicNetwork("random")
    for name in signals[:num_inputs]:
        network.add_input(name)
    for name, fanins, cover, inverted in draw(st.permutations(nodes)):
        network.add_node(name, fanins, cover, inverted)
    for name in draw(st.lists(st.sampled_from(signals), min_size=1, max_size=5, unique=True)):
        network.add_output(name)
    return network


def outcome(mapper, network: LogicNetwork, library):
    """What a mapper gives: the netlist, bindings and timing, or the
    kind of error it raised."""
    try:
        mapped = mapper(network, library)
    except NetworkError as error:
        return type(error)
    return to_blif(mapped.network), list(mapped.cell_of.items()), analyze(mapped)


def same_outcome(network: LogicNetwork, library):
    live = outcome(map_network, network, library)
    assert live == outcome(reference_mapper.map_network, network, library)
    return live


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(network=gate_networks(), library=st.sampled_from(LIBRARIES))
def test_live_mapper_matches_reference_on_random_networks(network, library):
    same_outcome(network, library)


@pytest.mark.slow
@pytest.mark.parametrize("flow", ["bds-maj", "bds-pga", "abc", "dc"])
def test_live_mapper_matches_reference_on_the_suite(flow):
    pipeline = get_pipeline(flow)
    prefix = pipeline.optimize_prefix()
    for circuit in sorted(BENCHMARKS):
        config = pipeline.default_config()
        config.verify = False
        optimized = prefix.run_context(build_benchmark(circuit), config).optimized
        for library in LIBRARIES:
            assert isinstance(same_outcome(optimized, library), tuple)
