"""Command-line interface: ``bdsmaj <command>``.

Commands mirror the paper's experiments:

* ``table1`` — decomposition node counts (BDS-MAJ vs BDS-PGA);
* ``table2`` — mapped area/gates/delay for all four flows;
* ``fig1`` / ``fig2`` / ``fig3`` — figure reproductions;
* ``synth`` — run one flow on one benchmark or BLIF file;
* ``batch`` — parallel batch synthesis over many benchmarks and/or
  globs of BLIF files (``--files``) with a deterministic JSON/CSV
  report (byte-identical for any worker count);
* ``serve`` — the async HTTP synthesis service (:mod:`repro.serve`):
  submit/status/result/cancel endpoints plus streamed progress,
  optionally durable (``--journal``) and authenticated
  (``--auth-token``);
* ``lint`` — project-contract static analysis (:mod:`repro.analysis`):
  determinism, async-safety, resource-lifecycle and engine-invariant
  rules with justified inline suppressions;
* ``list`` — available benchmarks.

Circuit arguments resolve through the pluggable input layer of
:mod:`repro.api`: registry keys, BLIF file paths and glob patterns are
all accepted where a circuit is expected.
"""

from __future__ import annotations

import argparse
import sys

from ..api import (
    BlifGlobSource,
    InputSourceError,
    get_pipeline,
    pipeline_names,
    resolve_source,
)
from ..benchgen import BENCHMARKS
from ..benchgen.registry import benchmark_keys
from ..flows import BATCH_FLOWS, BatchConfig, run_batch
from ..network import to_blif
from ..serve.journal import DEFAULT_COMPACT_BYTES
from .figures import figure1, figure2, figure3
from .table1 import TOOLS, format_table1
from .table2 import FLOW_ORDER, format_table2


def _positive_int(text: str) -> int:
    """argparse type for options that must be >= 1 (``--workers``,
    ``--concurrency``): a clean usage error
    instead of a traceback from deep inside the batch layer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type for options where 0 is meaningful (``--event-cap``
    0 = unlimited, ``--max-finished-jobs`` 0 = retain none)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _port(text: str) -> int:
    """argparse type for TCP ports (0 = ephemeral)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if not 0 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"port must be in 0..65535, got {value}")
    return value


def _parse_keys(text: str | None) -> list[str] | None:
    if text is None:
        return None
    keys = [key.strip() for key in text.split(",") if key.strip()]
    unknown = [key for key in keys if key not in BENCHMARKS]
    if unknown:
        raise SystemExit(f"unknown benchmarks: {', '.join(unknown)}")
    return keys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bdsmaj",
        description="BDS-MAJ reproduction (Amaru et al., DAC 2013)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t1 = sub.add_parser("table1", help="regenerate Table I")
    t1.add_argument("--benchmarks", help="comma-separated registry keys")
    t1.add_argument("--verify", action="store_true", help="equivalence-check outputs")
    t1.add_argument("--no-paper", action="store_true", help="omit paper rows")

    t2 = sub.add_parser("table2", help="regenerate Table II")
    t2.add_argument("--benchmarks", help="comma-separated registry keys")
    t2.add_argument("--no-verify", action="store_true")
    t2.add_argument("--no-paper", action="store_true")

    sub.add_parser("fig1", help="Figure 1: m-dominator BDD (dot output)")
    sub.add_parser("fig2", help="Figure 2: balancing walkthrough")
    f3 = sub.add_parser("fig3", help="Figure 3: flow stage trace")
    f3.add_argument("--benchmark", default="alu2")

    synth = sub.add_parser("synth", help="run one flow on one circuit")
    synth.add_argument("circuit", help="benchmark key or path to a BLIF file")
    synth.add_argument("--flow", default="bds-maj", choices=pipeline_names())
    synth.add_argument("--blif-out", help="write the optimized network as BLIF")

    batch = sub.add_parser(
        "batch", help="parallel batch synthesis over registry circuits and BLIF files"
    )
    batch.add_argument("--benchmarks", help="comma-separated registry keys (default: all)")
    batch.add_argument(
        "--files",
        action="append",
        metavar="GLOB",
        help="glob of BLIF files to synthesize (repeatable, combinable "
        "with --benchmarks); an empty match is an error",
    )
    batch.add_argument(
        "--category", choices=["mcnc", "hdl"], help="restrict to one registry category"
    )
    batch.add_argument("--flow", default="bds-maj", choices=sorted(BATCH_FLOWS))
    batch.add_argument(
        "--workers", type=_positive_int, default=1, help="worker processes (>= 1)"
    )
    batch.add_argument("--verify", action="store_true", help="equivalence-check outputs")
    batch.add_argument(
        "--circuit-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-circuit synthesis deadline; a circuit past it is "
        "retried up to --max-retries times, then reported as a "
        "deterministic error row (default: no deadline)",
    )
    batch.add_argument(
        "--max-retries",
        type=_nonnegative_int,
        default=2,
        metavar="N",
        help="retries per circuit after a timeout or worker death "
        "before the error row is final (default: 2)",
    )
    batch.add_argument("--format", choices=["json", "csv"], default="json")
    batch.add_argument("--output", help="write the report to a file (default: stdout)")
    batch.add_argument(
        "--timings",
        action="store_true",
        help="include wall-clock fields (report is no longer byte-reproducible)",
    )

    serve = sub.add_parser(
        "serve", help="async HTTP synthesis service (submit/status/result/cancel)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=_port, default=8347)
    serve.add_argument(
        "--concurrency",
        type=_positive_int,
        default=2,
        help="jobs synthesized concurrently (>= 1); each job may also "
        "request its own worker processes",
    )
    serve.add_argument(
        "--event-cap",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="wire events retained per finished job (default: 256; "
        "0 = unlimited; the /jobs/<id>/events stream reports any "
        "truncation explicitly)",
    )
    serve.add_argument(
        "--max-finished-jobs",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="finished jobs retained before the oldest expire "
        "(default: unlimited; 0 = drop every finished job on the "
        "next submission)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="close connections idle for this long (default: 60; "
        "0 = never time out)",
    )
    serve.add_argument(
        "--result-cache",
        type=_nonnegative_int,
        default=None,
        metavar="N",
        help="finished reports cached by content hash, so identical "
        "resubmissions answer without resynthesis (default: 64; "
        "0 = disable)",
    )
    serve.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="append-only job journal; on restart finished jobs replay "
        "byte-identically (rehydrating the result cache) and "
        "interrupted jobs re-run under their original ids",
    )
    serve.add_argument(
        "--journal-compact-bytes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="rewrite the journal once it grows past N bytes, keeping "
        f"only live records (default: {DEFAULT_COMPACT_BYTES / (1 << 20):g} MiB)",
    )
    serve.add_argument(
        "--max-pending",
        type=_positive_int,
        default=None,
        metavar="N",
        help="refuse new submissions past this queued backlog with "
        "429 + Retry-After (default: unlimited; cache hits are exempt)",
    )
    serve.add_argument(
        "--auth-token",
        default=None,
        metavar="TOKEN",
        help="require 'Authorization: Bearer TOKEN' on every endpoint "
        "except /healthz (default: $BDSMAJ_AUTH_TOKEN; unset = no auth)",
    )
    serve.add_argument(
        "--max-attempts",
        type=_positive_int,
        default=3,
        metavar="N",
        help="times journal replay may (re)start one job before "
        "quarantining it as a poison job (default: 3)",
    )

    sub.add_parser(
        "lint",
        help="run bdslint project-contract static analysis "
        "(see `bdsmaj lint --help`)",
        add_help=False,
    )

    sub.add_parser("list", help="list available benchmarks")

    # ``lint`` owns its whole argument tail (argparse.REMAINDER cannot
    # pass through leading options), so delegate before parsing.
    raw_args = sys.argv[1:] if argv is None else argv
    if raw_args[:1] == ["lint"]:
        from ..analysis.cli import run as run_lint

        return run_lint(raw_args[1:], prog="bdsmaj lint")

    args = parser.parse_args(argv)

    if args.command in ("table1", "table2"):
        keys = _parse_keys(args.benchmarks)
        if keys is None:
            keys = list(BENCHMARKS)
        elif not keys:
            raise SystemExit(f"{args.command}: --benchmarks names no circuit")
        if args.command == "table1":
            flows, mapped, verify, render = TOOLS, False, args.verify, format_table1
        else:
            flows, mapped, verify, render = FLOW_ORDER, True, not args.no_verify, format_table2
        reports = [
            run_batch(keys, BatchConfig(flow=flow, verify=verify, mapped=mapped), _progress)
            for flow in flows
        ]
        failed = [circuit for report in reports for circuit in report.failed_circuits]
        if failed:
            raise SystemExit(
                "\n".join(
                    f"{args.command}: {circuit.benchmark} failed under {circuit.flow}: "
                    f"{circuit.error}"
                    for circuit in failed
                )
            )
        print(render(reports, include_paper=not args.no_paper))
    elif args.command == "fig1":
        result = figure1()
        print(result.dot)
        print(
            f"// non-trivial m-dominators: {result.num_candidates} "
            f"(Fa = {result.dominator_function})",
        )
    elif args.command == "fig2":
        for step in figure2().steps:
            print(step)
    elif args.command == "fig3":
        result = figure3(args.benchmark)
        print(f"BDS-MAJ flow trace on {result.benchmark}:")
        for line in result.lines:
            print(line)
    elif args.command == "synth":
        try:
            items = resolve_source(args.circuit).items()
        except InputSourceError as exc:
            raise SystemExit(str(exc)) from None
        if len(items) != 1:
            raise SystemExit(
                f"synth expects exactly one circuit, but {args.circuit!r} "
                f"matched {len(items)} files (use `batch --files` for suites)"
            )
        network = items[0].load()
        result = get_pipeline(args.flow).run(network)
        area, gates, delay = result.table2_row()
        print(f"flow      : {result.flow}")
        print(f"benchmark : {result.benchmark}")
        if result.node_counts:
            print(f"nodes     : {result.node_counts} (total {result.total_nodes})")
        print(f"area      : {area} um^2")
        print(f"gates     : {gates}")
        print(f"delay     : {delay} ns")
        print(f"optimized : {result.optimize_seconds:.2f} s")
        if result.equivalence is not None:
            print(f"verified  : {result.equivalence.method}")
        if args.blif_out:
            with open(args.blif_out, "w") as stream:
                stream.write(to_blif(result.optimized))
            print(f"wrote     : {args.blif_out}")
    elif args.command == "batch":
        keys = _parse_keys(args.benchmarks)
        if keys is None:
            # No explicit keys: a purely file-driven batch runs only the
            # globbed files, but an explicit --category is a registry
            # request and is honored either way.
            if args.files and args.category is None:
                keys = []
            else:
                keys = benchmark_keys(args.category)
        elif args.category is not None:
            category_keys = set(benchmark_keys(args.category))
            dropped = [key for key in keys if key not in category_keys]
            keys = [key for key in keys if key in category_keys]
            if dropped:
                _progress(
                    f"dropping benchmarks outside --category {args.category}: "
                    + ", ".join(dropped)
                )
            if not keys and not args.files:
                raise SystemExit(
                    f"no requested benchmarks in category {args.category!r}"
                )
        # run_batch normalizes plain registry keys itself; only the file
        # items need resolving here.
        items: list = list(keys)
        for pattern in args.files or ():
            try:
                items.extend(BlifGlobSource(pattern).items())
            except InputSourceError as exc:
                raise SystemExit(f"--files: {exc}") from None
        config = BatchConfig(
            flow=args.flow,
            workers=args.workers,
            verify=args.verify,
            circuit_timeout=args.circuit_timeout,
            max_retries=args.max_retries,
        )
        report = run_batch(items, config, progress=_progress)
        if args.format == "csv":
            text = report.to_csv(include_timing=args.timings)
        else:
            text = report.to_json(include_timing=args.timings)
        if args.output:
            with open(args.output, "w") as stream:
                stream.write(text)
            summary = report.summary()
            _progress(
                f"wrote {args.output}: {summary['ok']}/{summary['circuits']} ok, "
                f"cache hit rate {summary['cache_hit_rate'] * 100:.1f}%, "
                f"{report.elapsed_seconds:.1f}s elapsed "
                f"({report.total_seconds:.1f}s summed synthesis)"
            )
        else:
            sys.stdout.write(text)
        if report.failed_circuits:
            return 1
    elif args.command == "serve":
        from ..serve import (
            DEFAULT_EVENT_CAP,
            DEFAULT_IDLE_TIMEOUT,
            DEFAULT_RESULT_CACHE_SIZE,
            run_server,
        )

        if args.event_cap is None:
            event_cap = DEFAULT_EVENT_CAP
        else:
            event_cap = args.event_cap or None  # 0 = unlimited
        if args.idle_timeout is None:
            idle_timeout = DEFAULT_IDLE_TIMEOUT
        else:
            idle_timeout = args.idle_timeout or None  # 0 = no timeout
        if args.result_cache is None:
            result_cache_size = DEFAULT_RESULT_CACHE_SIZE
        else:
            result_cache_size = args.result_cache or None  # 0 = off
        return run_server(
            host=args.host,
            port=args.port,
            concurrency=args.concurrency,
            echo=_progress,
            event_cap=event_cap,
            max_finished_jobs=args.max_finished_jobs,
            idle_timeout=idle_timeout,
            result_cache_size=result_cache_size,
            journal_path=args.journal,
            journal_compact_bytes=args.journal_compact_bytes or DEFAULT_COMPACT_BYTES,
            max_pending=args.max_pending,
            auth_token=args.auth_token,
            max_attempts=args.max_attempts,
        )
    elif args.command == "list":
        for key, benchmark in BENCHMARKS.items():
            print(f"{key:12s} {benchmark.display:18s} [{benchmark.category}] {benchmark.description}")
    return 0


def _progress(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
