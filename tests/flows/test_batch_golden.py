"""Golden regression: the published batch report for all 10 MCNC
circuits, pinned byte-for-byte.

``golden_batch_mcnc.json`` is the output of ``bdsmaj batch --category
mcnc`` (one sifting pass per supernode).  Node counts, decomposition
steps and op-cache counters must stay **byte-identical** to it.  The
golden was last regenerated when the engine began deciding each
distinct function shape once per circuit and replaying the decision in
other supernode managers, and again when it stopped running the
majority search on functions whose BDD has one node per support
variable (no triple of those can pass the global test).  Both times
every QoR field stayed the same and only the ``cache`` counters fell.

If an intentional change moves these numbers, regenerate the golden
with::

    PYTHONPATH=src python -m repro.experiments.cli batch --category mcnc \
        --output tests/flows/golden_batch_mcnc.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bdd import BDD, BddArena, SharedNodeStore, WorkerArenaSpec
from repro.bdd.arena import attach_worker_arena
from repro.benchgen import build_benchmark
from repro.benchgen.registry import benchmark_keys
from repro.flows import BatchConfig, WarmPoolManager, run_batch
from repro.network import global_bdds

GOLDEN = Path(__file__).with_name("golden_batch_mcnc.json")

#: The arena snapshot used by the shared-store goldens: the small MCNC
#: circuits whose global BDDs build quickly (the serve layer's default).
_ARENA_CIRCUITS = ("alu2", "f51m", "misex3", "vda")


def _publish_arena_and_store() -> tuple[BddArena, SharedNodeStore]:
    """An arena over :data:`_ARENA_CIRCUITS` plus a shared store seeded
    with the arena's variable order — the pair the serve layer installs."""
    manager = BDD([])
    roots: dict[str, int] = {}
    for name in _ARENA_CIRCUITS:
        network = build_benchmark(name)
        manager, edges = global_bdds(network, mgr=manager, max_nodes=500_000)
        for output, edge in edges.items():
            roots[f"{name}/{output}"] = edge
    arena = BddArena.publish(manager, roots)
    store = SharedNodeStore.create(manager.var_names)
    return arena, store


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


def test_shared_store_verify_is_byte_identical_to_private_verify():
    """Serial verified run, store off vs store on: the writable shared
    unique table only accelerates the boolean ``verified`` answer —
    every node count, decomposition step and op-cache counter in the
    report must stay byte-identical.  Synthesis always runs on private
    managers; the store hosts only the verify cones."""
    config = BatchConfig(verify=True)
    private = run_batch(benchmark_keys("mcnc"), config).to_json()
    arena, store = _publish_arena_and_store()
    try:
        attach_worker_arena(WorkerArenaSpec(arena=arena, store=store))
        try:
            shared = run_batch(benchmark_keys("mcnc"), config).to_json()
            # The store really was exercised: verify rebuilt cones into
            # it (read before detaching — that closes the owner view).
            counters = store.counters()
        finally:
            attach_worker_arena(None)
        assert shared == private
        assert counters["nodes"] > 1
        assert counters["misses"] > 0
    finally:
        arena.unlink()
        store.unlink()


def test_shared_store_warm_pool_verify_matches_serial_bytes():
    """Four pool workers sharing one writable unique table produce the
    same verified-report bytes as the serial private run — cross-worker
    find-or-create changes who allocates a node, never what any report
    says."""
    private = run_batch(benchmark_keys("mcnc"), BatchConfig(verify=True)).to_json()
    arena, store = _publish_arena_and_store()
    manager = WarmPoolManager(
        arena_name=WorkerArenaSpec(arena=arena.name, store=store.handle())
    )
    try:
        report = run_batch(
            benchmark_keys("mcnc"),
            BatchConfig(verify=True, workers=4),
            pool=manager,
        )
        assert report.to_json() == private
        assert store.count > 1
    finally:
        manager.drain()
        arena.unlink()
        store.unlink()


def test_golden_covers_all_ten_mcnc_circuits_cleanly():
    payload = json.loads(GOLDEN.read_text())
    assert [c["benchmark"] for c in payload["circuits"]] == benchmark_keys("mcnc")
    assert payload["summary"]["circuits"] == 10
    assert payload["summary"]["failed"] == 0
