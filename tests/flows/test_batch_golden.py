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
structure once per circuit, and again when the simple-dominator scan
began to refute identities by path simulation before building them,
and again when the majority search began to balance its triples on
truth tables and build only the triple it returns, and again when the
whole majority search (β, γ and ω) moved onto truth tables and began
to build only the triple the engine accepts, and again when the
simple-dominator scan began to decide identities on supports of at
most 12 levels by simulation alone and to build only the split the
engine takes (33 leaves moved, all ``cache``/``cache_*``).  Each time
every QoR field stayed the same and only the ``cache`` counters fell.

If an intentional change moves these numbers, regenerate the golden
with::

    PYTHONPATH=src python -m repro.experiments.cli batch --category mcnc \
        --output tests/flows/golden_batch_mcnc.json
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.benchgen.registry import benchmark_keys
from repro.flows import BatchConfig, WarmPoolManager, run_batch

GOLDEN = Path(__file__).with_name("golden_batch_mcnc.json")

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


def test_golden_covers_all_ten_mcnc_circuits_cleanly():
    payload = json.loads(GOLDEN.read_text())
    assert [c["benchmark"] for c in payload["circuits"]] == benchmark_keys("mcnc")
    assert payload["summary"]["circuits"] == 10
    assert payload["summary"]["failed"] == 0
