"""Golden regression: the published batch report for all 10 MCNC
circuits, pinned byte-for-byte.

``golden_batch_mcnc.json`` is the output of ``bdsmaj batch --category
mcnc`` (one sifting pass per supernode).  Node counts, decomposition
steps and op-cache counters must stay **byte-identical** to it.  The
golden was last regenerated when the engine began deciding each
distinct function shape once per circuit and replaying the decision in
other supernode managers, and again when it stopped running the
majority search on functions whose BDD has one node per support
variable (no triple of those can pass the global test), and again when
the flows began to build, sift and decompose each distinct supernode
structure once per circuit.  Each time every QoR field stayed the same
and only the ``cache`` counters fell.

If an intentional change moves these numbers, regenerate the golden
with::

    PYTHONPATH=src python -m repro.experiments.cli batch --category mcnc \
        --output tests/flows/golden_batch_mcnc.json
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.bdd import BDD, BddArena
from repro.bdd.arena import attach_worker_arena
from repro.benchgen import build_benchmark
from repro.benchgen.registry import benchmark_keys
from repro.flows import BatchConfig, WarmPoolManager, run_batch
from repro.flows.batch import _arena_verify_state
from repro.network import global_bdds

GOLDEN = Path(__file__).with_name("golden_batch_mcnc.json")

#: The arena snapshot used by the arena-verify goldens: the small MCNC
#: circuits whose global BDDs build quickly (the serve layer's default).
_ARENA_CIRCUITS = ("alu2", "f51m", "misex3", "vda")


def _publish_arena() -> BddArena:
    """An arena over :data:`_ARENA_CIRCUITS`, as the serve layer
    publishes it."""
    manager = BDD([])
    roots: dict[str, int] = {}
    for name in _ARENA_CIRCUITS:
        network = build_benchmark(name)
        manager, edges = global_bdds(network, mgr=manager, max_nodes=500_000)
        for output, edge in edges.items():
            roots[f"{name}/{output}"] = edge
    return BddArena.publish(manager, roots)


#: Per-circuit report fields that carry the synthesis result (QoR).
_QOR_FIELDS = ("status", "node_counts", "steps", "total_nodes")


def test_mcnc_batch_report_is_byte_identical_to_golden():
    report = run_batch(benchmark_keys("mcnc"), BatchConfig())
    text = report.to_json()
    # QoR first, so a moved node count fails with a readable message
    # instead of a whole-report string diff.
    golden = json.loads(GOLDEN.read_text())
    produced = json.loads(text)
    for expected, got in zip(golden["circuits"], produced["circuits"], strict=True):
        name = expected["benchmark"]
        assert got["benchmark"] == name
        for key in _QOR_FIELDS:
            assert got[key] == expected[key], f"{name}: {key} moved"
    assert text == GOLDEN.read_text()


def test_warm_pool_mcnc_batch_matches_golden():
    """The warm-serving path (reused worker pools, 4 workers) must pin
    to the very same golden bytes as the cold serial run — parked pools
    change latency, never the report."""
    manager = WarmPoolManager()
    try:
        report = run_batch(
            benchmark_keys("mcnc"), BatchConfig(workers=4), pool=manager
        )
    finally:
        manager.drain()
    assert report.to_json() == GOLDEN.read_text()


@pytest.fixture(scope="module")
def private_verified_bytes() -> str:
    """The no-arena ``verify=True`` MCNC report: the bytes every
    arena-backed verified run must reproduce."""
    return run_batch(benchmark_keys("mcnc"), BatchConfig(verify=True)).to_json()


def _worker_imported_nodes(_: int) -> tuple[int, int]:
    """``(pid, arena nodes this process' verify binding imported)``."""
    time.sleep(0.05)  # hold the worker so the probes spread over all of them
    state = getattr(_arena_verify_state, "value", None)
    return os.getpid(), 0 if state is None else state[2].imported_nodes()


def test_arena_verify_is_byte_identical_to_private_verify(private_verified_bytes):
    """Serial verified run with the arena attached in-process: the
    arena only answers the boolean ``verified`` field — every node
    count, decomposition step and op-cache counter in the report must
    stay byte-identical to the arena-less run."""
    arena = _publish_arena()
    try:
        attach_worker_arena(arena)
        try:
            report = run_batch(benchmark_keys("mcnc"), BatchConfig(verify=True))
        finally:
            attach_worker_arena(None)
        assert report.to_json() == private_verified_bytes
        # The arena really answered: verify copied spec cones out of it.
        state = _arena_verify_state.value
        assert state[0] is arena
        assert state[2].imported_nodes() > 0
    finally:
        arena.unlink()


def test_arena_warm_pool_verify_matches_serial_bytes(private_verified_bytes):
    """Four warm pool workers attached to the arena by name produce the
    same verified-report bytes as the serial arena-less run."""
    arena = _publish_arena()
    manager = WarmPoolManager(arena_name=arena.name)
    try:
        report = run_batch(
            benchmark_keys("mcnc"),
            BatchConfig(verify=True, workers=4),
            pool=manager,
        )
        assert report.to_json() == private_verified_bytes
        # The arena really answered in the workers that verified its
        # circuits: probe every worker of the parked pool.
        pool = manager.acquire(4)
        try:
            probes = dict(pool.map(_worker_imported_nodes, range(16), chunksize=1))
        finally:
            manager.release(pool)
        assert sum(probes.values()) > 0
    finally:
        manager.drain()
        arena.unlink()


def test_golden_covers_all_ten_mcnc_circuits_cleanly():
    payload = json.loads(GOLDEN.read_text())
    assert [c["benchmark"] for c in payload["circuits"]] == benchmark_keys("mcnc")
    assert payload["summary"]["circuits"] == 10
    assert payload["summary"]["failed"] == 0
