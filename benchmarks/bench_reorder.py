"""Benchmark: the in-place sifting engine vs the rebuild-based baseline.

For each benchmark circuit this harness partitions the network exactly
like the BDS flows do, picks the largest supernode BDDs, and reorders
each one two ways from the same starting order:

* ``rebuild`` — :func:`repro.bdd.reorder.sift_rebuild`, the historical
  transfer-based sifter (one full reconstruction per candidate
  position);
* ``inplace`` — :meth:`repro.bdd.BDD.sift`, the in-place engine
  (adjacent level swaps over per-level subtables).

The two searches use the same visit order and tie-breaks, so their
final sizes must agree (asserted: in-place ≤ rebuild).  Results are
written to ``BENCH_reorder.json``.

Run directly (no pytest needed — CI's perf-smoke job does)::

    python benchmarks/bench_reorder.py --quick --output BENCH_reorder.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bdd.reorder import sift_rebuild
from repro.flows.bds import BdsFlowConfig
from repro.network import partition_with_bdds

#: The acceptance circuits (the paper rows the ≥5× criterion names).
DEFAULT_CIRCUITS = ("alu2", "f51m", "vda")


def bench_circuit(key: str, top: int) -> dict:
    """Reorder the ``top`` largest supernodes of ``key`` both ways."""
    from repro.benchgen import build_benchmark

    partitions = partition_with_bdds(
        build_benchmark(key), BdsFlowConfig().partition
    )
    partitions.sort(key=lambda entry: -entry[1].size(entry[2]))
    supernodes = []
    rebuild_seconds = inplace_seconds = 0.0
    for supernode, mgr, root in partitions[:top]:
        size_before = mgr.size(root)
        num_vars = mgr.num_vars

        start = time.perf_counter()
        rebuilt_mgr, (rebuilt_root,) = sift_rebuild(mgr, [root])
        rebuild_elapsed = time.perf_counter() - start
        rebuild_size = rebuilt_mgr.size(rebuilt_root)

        start = time.perf_counter()
        result = mgr.sift([root])
        inplace_elapsed = time.perf_counter() - start
        inplace_size = mgr.size(root)

        if inplace_size > rebuild_size:
            raise AssertionError(
                f"{key}/{supernode.output}: in-place sift ended at "
                f"{inplace_size} nodes, rebuild baseline at {rebuild_size}"
            )
        rebuild_seconds += rebuild_elapsed
        inplace_seconds += inplace_elapsed
        supernodes.append(
            {
                "output": supernode.output,
                "vars": num_vars,
                "size_before": size_before,
                "rebuild": {
                    "seconds": round(rebuild_elapsed, 6),
                    "size": rebuild_size,
                },
                "inplace": {
                    "seconds": round(inplace_elapsed, 6),
                    "size": inplace_size,
                    "swaps": result.swaps,
                    "changed": result.changed,
                },
            }
        )
    return {
        "circuit": key,
        "supernodes": supernodes,
        "rebuild_seconds": round(rebuild_seconds, 6),
        "inplace_seconds": round(inplace_seconds, 6),
        "speedup": round(rebuild_seconds / inplace_seconds, 2)
        if inplace_seconds
        else None,
        "nodes_before": sum(s["size_before"] for s in supernodes),
        "nodes_rebuild": sum(s["rebuild"]["size"] for s in supernodes),
        "nodes_inplace": sum(s["inplace"]["size"] for s in supernodes),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--circuits",
        default=",".join(DEFAULT_CIRCUITS),
        help="comma-separated registry keys (default: %(default)s)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=8,
        help="largest supernodes sifted per circuit (default: %(default)s)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: only the 3 default circuits, top 4 supernodes",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="fail unless every circuit's rebuild/inplace speedup "
        "reaches this factor",
    )
    parser.add_argument(
        "--output",
        default="BENCH_reorder.json",
        help="result file (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        circuits, top = list(DEFAULT_CIRCUITS), 4
    else:
        circuits = [key for key in args.circuits.split(",") if key]
        top = args.top

    results = []
    for key in circuits:
        entry = bench_circuit(key, top)
        results.append(entry)
        print(
            f"{key:10s} rebuild {entry['rebuild_seconds'] * 1000:8.1f}ms  "
            f"inplace {entry['inplace_seconds'] * 1000:7.1f}ms  "
            f"speedup {entry['speedup']}x  "
            f"sizes {entry['nodes_before']} -> {entry['nodes_inplace']} "
            f"(rebuild {entry['nodes_rebuild']})",
            flush=True,
        )

    payload = {
        "schema": "bdsmaj-bench-reorder/v3",
        "top_supernodes_per_circuit": top,
        "circuits": results,
        "total_rebuild_seconds": round(
            sum(r["rebuild_seconds"] for r in results), 6
        ),
        "total_inplace_seconds": round(
            sum(r["inplace_seconds"] for r in results), 6
        ),
    }
    total_inplace = payload["total_inplace_seconds"]
    payload["total_speedup"] = (
        round(payload["total_rebuild_seconds"] / total_inplace, 2)
        if total_inplace
        else None
    )
    with open(args.output, "w") as sink:
        json.dump(payload, sink, indent=2, sort_keys=True)
        sink.write("\n")
    print(f"wrote {args.output}: total speedup {payload['total_speedup']}x")

    if args.min_speedup is not None:
        slow = [
            r["circuit"]
            for r in results
            if r["speedup"] is not None and r["speedup"] < args.min_speedup
        ]
        if slow:
            print(
                f"FAIL: speedup below {args.min_speedup}x on {slow}",
                file=sys.stderr,
            )
            return 1
    return 0


def bench_reorder_inplace_vs_rebuild(benchmark):
    """pytest-benchmark harness row (the CI perf-smoke job runs this
    module as a script instead; see ``main``)."""
    from conftest import run_once

    results = run_once(
        benchmark, lambda: [bench_circuit(key, 4) for key in DEFAULT_CIRCUITS]
    )
    for entry in results:
        assert entry["nodes_inplace"] <= entry["nodes_rebuild"], entry
    benchmark.extra_info.update(
        speedups={r["circuit"]: r["speedup"] for r in results},
        sizes={
            r["circuit"]: (r["nodes_before"], r["nodes_inplace"]) for r in results
        },
    )


# pytest-benchmark collects functions named test_* too; use test_ alias
# so plain `pytest benchmarks/` discovers the harness.
test_reorder_inplace_vs_rebuild = bench_reorder_inplace_vs_rebuild


if __name__ == "__main__":
    raise SystemExit(main())
