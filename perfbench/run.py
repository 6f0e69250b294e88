#!/usr/bin/env python3
"""Full-flow synthesis benchmark: compile time, QoR and checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload datapath --seed 1 --seconds 30 --trace 0

One run, in a fresh interpreter:

1. imports ``repro`` from the ``src/`` next to this directory (and exits
   with an error when there is none) and self-tests the output checker;
2. set-up, repeated :data:`SETUP_REPEATS` times: draws the workload's
   circuits from the seed, writes them as BLIF and computes the
   reference outputs;
3. measures rounds for ``--seconds`` seconds.  A round synthesizes every
   circuit in all four flows (``bds-maj``, ``bds-pga``, ``abc``,
   ``dc``), flow by flow, rotating the flow order from round to round.
   ``datapath`` and ``control`` run each circuit through the full
   pipeline (map + verify) serially from its BLIF file; ``batch`` runs
   each flow through ``run_batch`` with a fresh pool of one worker per
   CPU, as ``bdsmaj batch`` does;
4. checks every output with the benchmark's own evaluator
   (:mod:`evaluate`).  The batch path returns no netlists, so ``batch``
   checks the same circuits through the serial pipeline once and
   requires the batch reports' node counts to match it;
5. prints one line per circuit, the comparison with the paper's tables,
   and as the last line a JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

Timings are medians over the rounds of a run (means on ``batch``, see
:func:`end_to_end`), in nominal seconds: each
flow run's measured times are scaled by the host speed that slices of a
reference workload timed around and between its jobs give
(:mod:`calibrate`).  Serial jobs are timed in CPU time, which leaves
out the time the host steals.  A batch flow run is timed in wall time
and multiplied by the pool workers' CPU seconds per second of circuit
wall time, which removes the stolen time and keeps the pool's start-up,
polling and stragglers.  With ``--trace 1`` the
run is split into an untraced half (stage times from ``ctx.timings``)
and a traced half (spans, :mod:`spans`) and reports the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import NOMINAL_SECONDS, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("datapath", "control", "batch")
FLOWS = ("bds-maj", "bds-pga", "abc", "dc")
BDS_FLOWS = ("bds-maj", "bds-pga")
#: The seed the benchmark was tuned on, and one held out from tuning.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919
SETUP_REPEATS = 5
#: Reference slices timed before and after each batch flow run and
#: each set-up (the parent idles while the pool works, so they cannot
#: interleave).
BATCH_SLICES = 3
MIN_ROUNDS = 2
ENGINE_PHASES = ("core.simple_scan", "core.maj_search", "core.alpha", "core.beta",
                 "core.gamma", "bdd.xor_split")
LAYERS = ("network", "bdd", "core", "aig", "sop", "mapping", "verify")
#: bds-maj over each other flow in the paper: Table I's 29.1 % node
#: reduction over BDS-PGA, Table II's area and delay reductions.
PAPER_RATIOS = {
    "nodes": {"bds-pga": 1 - 0.291},
    "area": {"abc": 1 - 0.288, "bds-pga": 1 - 0.264, "dc": 1 - 0.060},
    "delay": {"abc": 1 - 0.128, "bds-pga": 1 - 0.209, "dc": 1 - 0.078},
}


def fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no repro package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    circuits: list
    paths: dict[str, str]
    expected: dict


def set_up(workload: str, seed: int, directory: Path) -> Inputs:
    from circuits import draw
    from evaluate import Expected
    from repro.network import write_blif

    directory.mkdir(parents=True)
    circuits = draw(workload, seed)
    paths = {}
    for circuit in circuits:
        path = directory / f"{circuit.name}.blif"
        with open(path, "w") as stream:
            write_blif(circuit.network, stream)
        paths[circuit.name] = str(path)
    rng = random.Random(f"vectors:{workload}:{seed}")
    expected = {c.name: Expected(c, rng) for c in circuits}
    return Inputs(circuits, paths, expected)


# ----------------------------------------------------------------------
# Jobs and rounds
# ----------------------------------------------------------------------
@dataclass
class Job:
    """One circuit through one flow."""

    circuit: str
    flow: str
    #: CPU seconds; for a batch row, the worker's wall seconds times the
    #: pool's CPU seconds per wall second.
    seconds: float
    error: str | None = None
    ok: bool = False
    #: (nodes, area um^2, gates, delay ns)
    qor: tuple = ()
    node_counts: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    mapped: object = None


@dataclass
class FlowRun:
    """One flow over every circuit of a draw, within one round.

    Times are in nominal seconds (see :mod:`calibrate`); ``speed`` is
    the factor that converted them from the measured ones."""

    flow: str
    elapsed: float
    first_result: float
    jobs: list
    speed: float = 1.0


class Reference:
    """Reference-workload slices, timed in ``processes`` processes at
    once; a context manager that stops them.

    ``batch`` times its slices in one process per pool worker, because
    its jobs keep every CPU busy.  Over 45 ``bds-maj`` batch rounds the
    workers' CPU time correlated 0.36 with two-process slices and 0.17
    with one-process slices."""

    def __init__(self, processes: int = 1) -> None:
        self.seconds = 0.0
        self.slices = 0
        self.processes = processes
        self.pool = None
        if processes > 1:
            self.pool = multiprocessing.get_context("fork").Pool(processes)

    def __enter__(self) -> "Reference":
        return self

    def __exit__(self, *exc) -> None:
        if self.pool is not None:
            self.pool.terminate()
            self.pool.join()

    def slice(self) -> float:
        """One slice in each process; returns this process's CPU seconds
        spent on it."""
        start = time.process_time()
        if self.pool is None:
            seconds = [reference_seconds()]
        else:
            seconds = self.pool.starmap(reference_seconds, [()] * self.processes)
        self.seconds += sum(seconds)
        self.slices += len(seconds)
        return time.process_time() - start

    def mark(self) -> tuple[float, int]:
        return self.seconds, self.slices

    def speed_since(self, mark: tuple[float, int]) -> float:
        """Nominal seconds per measured second, from the slices timed
        since ``mark``."""
        seconds, slices = mark
        return NOMINAL_SECONDS * (self.slices - slices) / (self.seconds - seconds)

    @property
    def speed(self) -> float:
        """Nominal seconds per measured second, from every slice so far."""
        return self.speed_since((0.0, 0))


def to_nominal(run: FlowRun, speed: float, workers: int = 0) -> FlowRun:
    """Scale ``run``'s measured times by ``speed``.

    For a pool of ``workers``, only the circuit work in the elapsed time
    scales: the rest (pool start-up, the dispatcher's 100 ms polling,
    idle workers) does not follow the host's speed.  With six circuits,
    ``dc``'s batch wall read 0.415 to 0.417 s in five runs whose speed
    factors ranged from 0.55 to 1.03."""
    run.speed = speed
    if workers:
        run.elapsed += sum(job.seconds for job in run.jobs) / workers * (speed - 1)
    else:
        run.elapsed *= speed
        run.first_result *= speed
    for job in run.jobs:
        job.seconds *= speed
        job.stages = {name: t * speed for name, t in job.stages.items()}
    return run


def children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _aig_size_observer():
    from repro.api import PipelineObserver

    class AigInputSize(PipelineObserver):
        """Records the AIG size entering the abc flow's resyn2 stage."""

        size = 0

        def on_stage_start(self, ctx, stage) -> None:
            if ctx.flow == "abc" and stage.name == "rewrite":
                self.size = ctx.scratch["aig"].size()

    return AigInputSize()


def run_job(circuit: str, path: str, flow: str, tracer=None) -> Job:
    from repro.api import BlifFileSource, get_pipeline
    from spans import StageSpans

    aig = _aig_size_observer()
    observers = [aig] if tracer is None else [aig, StageSpans(tracer)]
    span = None if tracer is None else tracer.begin(f"job.{flow}", "bench")
    start = time.process_time()
    try:
        item = BlifFileSource(path).items()[0]
        ctx = get_pipeline(flow).run_context(item, observers=observers)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
        seconds = time.process_time() - start
        return Job(circuit, flow, seconds, error=f"{type(exc).__name__}: {exc}")
    finally:
        if span is not None:
            tracer.end(span)
    seconds = time.process_time() - start
    job = Job(circuit, flow, seconds)
    try:
        return summarize(job, ctx, aig.size)
    except Exception as exc:  # noqa: BLE001 - an incomplete result fails the job
        job.error = f"summary: {type(exc).__name__}: {exc}"
        return job


def summarize(job: Job, ctx, aig_in: int) -> Job:
    timing = ctx.timing_report
    job.node_counts = dict(ctx.node_counts)
    job.qor = (sum(job.node_counts.values()), timing.area, timing.gate_count, timing.delay)
    job.stages = {t.stage: t.seconds for t in ctx.timings}
    job.mapped = ctx.mapped.network
    counters = job.counters
    counters["exhaustive"] = int(
        ctx.equivalence is not None and ctx.equivalence.method == "exhaustive"
    )
    if job.flow in BDS_FLOWS:
        trace = ctx.scratch["trace"]
        partitions = ctx.scratch["partitions"]
        counters.update(
            supernodes=trace.supernodes,
            maj_accepted=trace.majority_steps,
            tree_nodes=trace.tree_nodes,
            cache_hits=int(ctx.cache_stats["hits"]),
            cache_lookups=int(ctx.cache_stats["hits"] + ctx.cache_stats["misses"]),
            nodes_built=sum(mgr.num_nodes() for _, mgr, _ in partitions),
            nodes_sifted=sum(mgr.size(root) for _, mgr, root in partitions),
        )
    elif job.flow == "abc":
        counters.update(aig_in=aig_in, aig_out=ctx.scratch["aig"].size())
    return job


def check(job: Job, expected) -> None:
    """Independent output check; drops the netlist afterwards."""
    if job.error is None:
        try:
            job.ok = expected.matches(job.mapped)
        except Exception as exc:  # noqa: BLE001 - a broken netlist fails the job
            job.error = f"check: {type(exc).__name__}: {exc}"
    job.mapped = None


def rotated(index: int) -> tuple[str, ...]:
    shift = index % len(FLOWS)
    return FLOWS[shift:] + FLOWS[:shift]


def serial_round(inputs: Inputs, index: int, reference: Reference,
                 tracer=None) -> list[FlowRun]:
    """Every flow over the draw in this process; CPU times, with the
    reference slices before and after every job left out.  Over 30
    ``control`` rounds on a busy host, slices on both sides of each job
    spread the scaled ``bds-maj`` times by 7.3 % (CV) where one slice
    before each job spread them by 8.9 %; unscaled they spread by 16 %."""
    runs = []
    for flow in rotated(index):
        jobs = []
        first = 0.0
        mark = reference.mark()
        first_span = len(tracer.spans) if tracer is not None else 0
        start = time.process_time()
        calibrating = 0.0
        for circuit in inputs.circuits:
            gc.collect()
            calibrating += reference.slice()
            job = run_job(circuit.name, inputs.paths[circuit.name], flow, tracer)
            jobs.append(job)
            if not first:
                first = time.process_time() - start - calibrating
            calibrating += reference.slice()
        elapsed = time.process_time() - start - calibrating
        run = to_nominal(FlowRun(flow, elapsed, first, jobs), reference.speed_since(mark))
        if tracer is not None:
            tracer.scale(first_span, run.speed)
        runs.append(run)
    for run in runs:
        for job in run.jobs:
            check(job, inputs.expected[job.circuit])
    return runs


def batch_round(inputs: Inputs, index: int, workers: int, reference: Reference,
                tracer=None) -> list[FlowRun]:
    """Every flow over the draw through ``run_batch``, each with a fresh
    pool.  Wall times, times the workers' CPU seconds per circuit wall
    second: the host steals most when both CPUs are busy, and on
    ``bds-maj`` that spread the wall time by 6 to 10 % (CV over eight
    rounds) where the product spread by 4 %.

    The times stay as measured; :func:`run` scales them by the speed
    that all the slices of the run give.  The slices cannot run during
    a pool's work, and a factor from the few slices around one flow run
    moved ``dc``'s time, which the 100 ms polling grid holds nearly
    still, by up to a fifth."""
    from repro.api import BlifFileSource
    from repro.flows.batch import BatchConfig, run_batch

    items = [BlifFileSource(inputs.paths[c.name]).items()[0] for c in inputs.circuits]
    runs = []
    for flow in rotated(index):
        gc.collect()
        config = BatchConfig(flow=flow, workers=workers, verify=True)
        for _ in range(BATCH_SLICES):
            reference.slice()
        done: list[float] = []
        span = None if tracer is None else tracer.begin(f"job.{flow}", "bench")
        children = children_cpu()
        start = time.perf_counter()
        if span is not None:
            tracer.begin(f"batch.{flow}", "flows.batch")
        try:
            report = run_batch(
                items, config, progress=lambda _line: done.append(time.perf_counter())
            )
        finally:
            if span is not None:
                tracer.end(span)
        elapsed = time.perf_counter() - start
        # The pool is joined when run_batch returns, so its workers' CPU
        # time is in RUSAGE_CHILDREN by now.
        circuit_seconds = sum(c.seconds for c in report.circuits)
        on_cpu = (children_cpu() - children) / circuit_seconds if circuit_seconds else 1.0
        jobs = [
            Job(
                c.benchmark,
                flow,
                c.seconds * on_cpu,
                error=None if c.ok else (c.error or c.status),
                node_counts=dict(c.node_counts),
            )
            for c in report.circuits
        ]
        for _ in range(BATCH_SLICES):
            reference.slice()
        first = (done[0] - start) if done else elapsed
        runs.append(FlowRun(flow, elapsed * on_cpu, first * on_cpu, jobs))
    return runs


def measure(budget: float, one_round) -> tuple[list[list[FlowRun]], list[float]]:
    """Rounds until ``budget`` seconds have passed (at least MIN_ROUNDS);
    returns the rounds and each round's wall time."""
    rounds, walls = [], []
    start = time.perf_counter()
    # Start another round only while half a round of the budget is left,
    # so a run overshoots its budget by about half a round at most.
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start + walls[-1] / 2 < budget:
        round_start = time.perf_counter()
        rounds.append(one_round(len(rounds)))
        walls.append(time.perf_counter() - round_start)
    return rounds, walls


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def median(values) -> float:
    return statistics.median(list(values))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def flow_wall(run: FlowRun, batch: bool) -> float:
    return run.elapsed if batch else sum(job.seconds for job in run.jobs)


def by_flow(round_runs: list[FlowRun]) -> dict[str, FlowRun]:
    return {run.flow: run for run in round_runs}


def jobs_of(round_runs: list[FlowRun], flow: str | None = None) -> list[Job]:
    return [j for r in round_runs if flow in (None, r.flow) for j in r.jobs]


def end_to_end(rounds, batch: bool, qor_jobs: list[Job]) -> dict[str, tuple[float, str]]:
    """The gated metrics; QoR comes from ``qor_jobs`` (one job per
    circuit and flow).

    Times are medians over the rounds, except on ``batch``, where they
    are means.  The dispatcher polls every 100 ms from the launch of the
    first circuit, so each finished circuit's successor starts on that
    grid and a flow run's wall time moves in steps of 100 ms: over 16
    rounds ``abc``'s took two levels, 0.84-0.92 s and 1.02-1.18 s.  The
    median of five such rounds jumps between the levels; over 4000
    draws of five of those rounds it spread by 10.7 % (IQR over median)
    and the mean by 6.6 %."""
    center = statistics.fmean if batch else median
    metrics: dict[str, tuple[float, str]] = {
        "wall_s": (center([sum(flow_wall(r, batch) for r in rnd) for rnd in rounds]), "s"),
    }
    for flow in FLOWS:
        metrics[f"{flow}.wall_s"] = (
            center([flow_wall(by_flow(rnd)[flow], batch) for rnd in rounds]), "s"
        )
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = ((self_kb + children_kb) / 1024, "MB")
    attempted = [j for rnd in rounds for j in jobs_of(rnd)]
    metrics["ok_frac"] = (sum(j.ok for j in attempted) / len(attempted), "frac")
    first = rounds[0]
    for flow in BDS_FLOWS:
        metrics[f"{flow}.nodes"] = (
            sum(sum(j.node_counts.values()) for j in jobs_of(first, flow)), "nodes"
        )
    # Total area; geomean delay, so the deepest circuit does not set it.
    for flow in ("bds-maj", "abc", "dc"):
        qor = [j.qor for j in qor_jobs if j.flow == flow and j.qor]
        metrics[f"{flow}.area_um2"] = (sum(q[1] for q in qor), "um2")
        metrics[f"{flow}.delay_ns"] = (geomean(q[3] for q in qor), "ns")
    return metrics


def paper_lines(qor_jobs: list[Job]) -> list[str]:
    """bds-maj over each other flow, geomean over circuits, next to the
    paper's figure (information only, not gated)."""
    qor = {(j.circuit, j.flow): j.qor for j in qor_jobs if j.qor}
    circuits = sorted({c for c, _ in qor})
    lines = []
    for metric, position in (("nodes", 0), ("area", 1), ("delay", 3)):
        for other, paper in PAPER_RATIOS[metric].items():
            ratios = [
                qor[c, "bds-maj"][position] / qor[c, other][position]
                for c in circuits
                if (c, "bds-maj") in qor and (c, other) in qor and qor[c, other][position]
            ]
            table = "Table I" if metric == "nodes" else "Table II"
            lines.append(
                f"paper {table}: {metric} bds-maj/{other} geomean "
                f"{geomean(ratios):.3f} over {len(ratios)} circuits (paper {paper:.3f})"
            )
    return lines


def circuit_lines(rounds, qor_jobs: list[Job], batch: bool) -> list[str]:
    lines = []
    seconds: dict[tuple[str, str], list[float]] = {}
    for rnd in rounds:
        for job in jobs_of(rnd):
            seconds.setdefault((job.circuit, job.flow), []).append(job.seconds)
    for job in qor_jobs:
        nodes, area, gates, delay = job.qor or (0, 0.0, 0, 0.0)
        lines.append(
            f"circuit {job.circuit:16s} {job.flow:8s} "
            f"{'batch ' if batch else ''}median {median(seconds.get((job.circuit, job.flow), [0.0])):.3f} s  "
            f"nodes {nodes:5d}  area {area:8.2f}  gates {gates:5d}  delay {delay:.3f}  "
            f"{'ok' if job.ok else 'FAILED ' + str(job.error)}"
        )
    return lines


def per_layer(rounds, stage_rounds, workers: int, traced_walls, untraced_walls
              ) -> dict[str, tuple[float, str]]:
    """Layer metrics: stage times and counters from ``stage_rounds``,
    scheduling from ``rounds`` (spans are added by :func:`span_metrics`)."""
    metrics: dict[str, tuple[float, str]] = {}

    def stage(flows, name) -> float:
        return median(
            sum(j.stages.get(name, 0.0) for f in flows for j in jobs_of(rnd, f))
            for rnd in stage_rounds
        )

    metrics["network.blif.load_s"] = (stage(FLOWS, "load-input"), "s")
    for flow in BDS_FLOWS:
        metrics[f"network.partition.{flow}.s"] = (stage([flow], "build-bdds"), "s")
    metrics["network.partition.dc.s"] = (stage(["dc"], "collapse"), "s")
    for flow in BDS_FLOWS:
        metrics[f"bdd.reorder.{flow}.s"] = (stage([flow], "reorder"), "s")
        metrics[f"core.engine.{flow}.decompose_s"] = (stage([flow], "decompose"), "s")
        metrics[f"core.emit.{flow}.s"] = (stage([flow], "rewrite"), "s")
    metrics["aig.strash_s"] = (stage(["abc"], "strash"), "s")
    metrics["aig.resyn2_s"] = (stage(["abc"], "rewrite"), "s")
    metrics["aig.emit_s"] = (stage(["abc"], "emit"), "s")
    metrics["sop.factor_s"] = (stage(["dc"], "rewrite"), "s")
    for flow in FLOWS:
        metrics[f"mapping.{flow}.map_s"] = (stage([flow], "map"), "s")
        metrics[f"verify.{flow}.s"] = (stage([flow], "verify"), "s")

    # Deterministic counters, from one pass over the draw.
    first = stage_rounds[0]

    def total(flow, key) -> int:
        return sum(j.counters.get(key, 0) for j in jobs_of(first, flow))

    metrics["network.partition.supernodes"] = (total("bds-maj", "supernodes"), "count")
    metrics["bdd.nodes_built"] = (total("bds-maj", "nodes_built"), "count")
    metrics["bdd.nodes_sifted"] = (total("bds-maj", "nodes_sifted"), "count")
    for flow in BDS_FLOWS:
        lookups = total(flow, "cache_lookups")
        metrics[f"bdd.cache.{flow}.lookups"] = (lookups, "count")
        metrics[f"bdd.cache.{flow}.hit_rate"] = (
            total(flow, "cache_hits") / lookups if lookups else 0.0, "frac"
        )
    metrics["core.maj_accepted"] = (total("bds-maj", "maj_accepted"), "count")
    metrics["core.tree_nodes"] = (total("bds-maj", "tree_nodes"), "count")
    metrics["aig.nodes_in"] = (total("abc", "aig_in"), "count")
    metrics["aig.nodes_out"] = (total("abc", "aig_out"), "count")
    for flow in FLOWS:
        metrics[f"mapping.{flow}.gates"] = (
            sum(j.qor[2] for j in jobs_of(first, flow) if j.qor), "count"
        )
    checked = jobs_of(first)
    metrics["verify.exhaustive_frac"] = (
        sum(j.counters.get("exhaustive", 0) for j in checked) / len(checked), "frac"
    )

    # Scheduling: one worker per CPU in the pool, one for the serial loop.
    metrics["flows.batch.first_result_s"] = (
        median(statistics.mean(r.first_result for r in rnd) for rnd in rounds), "s"
    )
    metrics["flows.batch.busy_frac"] = (
        median(
            sum(j.seconds for j in jobs_of(rnd)) / (workers * sum(r.elapsed for r in rnd))
            for rnd in rounds
        ),
        "frac",
    )
    metrics["flows.batch.max_circuit_s"] = (
        median(max(j.seconds for j in jobs_of(rnd)) for rnd in rounds), "s"
    )
    metrics["flows.batch.tail_s"] = (
        median(
            sum(r.elapsed - sum(j.seconds for j in r.jobs) / workers for r in rnd)
            for rnd in rounds
        ),
        "s",
    )
    for flow in FLOWS:
        metrics[f"flows.batch.{flow}.circuit_s"] = (
            median(sum(j.seconds for j in jobs_of(rnd, flow)) for rnd in rounds), "s"
        )

    metrics["trace.overhead_frac"] = (median(traced_walls) / median(untraced_walls) - 1, "frac")
    return metrics


def span_metrics(tracer, passes: int) -> dict[str, float]:
    """Self seconds and call counts per pass, and the share of the
    benchmark's job spans that no layer span covers."""
    by_name, calls, by_layer = tracer.self_times()
    metrics = {f"{name}_s": by_name.get(name, 0.0) / passes for name in ENGINE_PHASES}
    metrics["bdd.xor_split_calls"] = calls.get("bdd.xor_split", 0) / passes
    metrics["core.maj_search_calls"] = calls.get("core.maj_search", 0) / passes
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = by_layer.get(layer, 0.0) / passes
    metrics["trace.uncovered_frac"] = tracer.uncovered_frac("bench")
    return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args, workdir: Path, reference: Reference) -> tuple[dict, list[str]]:
    from spans import Tracer

    batch = args.workload == "batch"
    workers = len(os.sched_getaffinity(0))
    setups = []
    for index in range(SETUP_REPEATS):
        mark = reference.mark()
        for _ in range(BATCH_SLICES):
            reference.slice()
        start = time.process_time()
        inputs = set_up(args.workload, args.seed, workdir / f"setup{index}")
        seconds = time.process_time() - start
        for _ in range(BATCH_SLICES):
            reference.slice()
        setups.append(seconds * reference.speed_since(mark))

    if batch:
        def one_round(index, tracer=None):
            return batch_round(inputs, index, workers, reference, tracer)
    else:
        def one_round(index, tracer=None):
            return serial_round(inputs, index, reference, tracer)

    tracer = Tracer()
    budget = args.seconds / 2 if args.trace else args.seconds
    rounds, walls = measure(budget, one_round)
    traced: list = []
    if args.trace:
        if batch:
            traced, _ = measure(budget, lambda i: one_round(i, tracer))
        else:
            with tracer.patched():
                traced, _ = measure(budget, lambda i: one_round(i, tracer))

    if batch:
        speed = reference.speed
        for rnd in rounds + traced:
            for flow_run in rnd:
                to_nominal(flow_run, speed, workers)
        # The pool returns no netlists: check the same circuits through
        # the serial pipeline once (traced in a traced run: the workers'
        # spans stay in the workers) and hold the batch rows to it.
        check_tracer = Tracer()
        if args.trace:
            with check_tracer.patched():
                check_round = serial_round(inputs, 0, reference, check_tracer)
        else:
            check_round = serial_round(inputs, 0, reference)
        qor_jobs = jobs_of(check_round)
        serial = {(j.circuit, j.flow): j for j in qor_jobs}
        for job in (j for rnd in rounds + traced for j in jobs_of(rnd)):
            checked = serial[job.circuit, job.flow]
            job.ok = job.error is None and checked.ok and (
                job.flow not in BDS_FLOWS or job.node_counts == checked.node_counts
            )
        stage_rounds = [check_round]
    else:
        qor_jobs = jobs_of(rounds[0])
        stage_rounds = rounds

    def fingerprint(rnd) -> dict:
        return {(j.circuit, j.flow): j.node_counts if batch else j.qor for j in jobs_of(rnd)}

    repeat = all(fingerprint(rnd) == fingerprint(rounds[0]) for rnd in rounds + traced)
    attempted = [j for rnd in rounds + traced for j in jobs_of(rnd)]
    failed = sum(not j.ok for j in attempted)
    if args.trace:
        untraced_walls = [sum(flow_wall(r, batch) for r in rnd) for rnd in rounds]
        traced_walls = [sum(flow_wall(r, batch) for r in rnd) for rnd in traced]
        metrics = per_layer(rounds, stage_rounds, workers if batch else 1,
                            traced_walls, untraced_walls)
        spans = span_metrics(tracer, len(traced))
        if batch:
            # Engine phases and layer self times from the check pass; the
            # uncovered share stays that of the traced batch rounds.
            check_spans = span_metrics(check_tracer, 1)
            spans = {
                name: value if name == "trace.uncovered_frac" else value + check_spans[name]
                for name, value in spans.items()
            }
        metrics.update(
            (name, (value, "count" if name.endswith("_calls") else "frac" if name.endswith("_frac") else "s"))
            for name, value in spans.items()
        )
    else:
        metrics = end_to_end(rounds, batch, qor_jobs)
        metrics["setup_s"] = (median(setups), "s")
    lines = circuit_lines(rounds, qor_jobs, batch) + paper_lines(qor_jobs)
    speeds = [r.speed for rnd in rounds for r in rnd]
    lines.append(
        f"run: workload {args.workload} seed {args.seed} rounds {len(rounds)} "
        f"setup {median(setups):.3f} s  measured round walls "
        f"{' '.join(f'{w:.2f}' for w in walls)} s  host speed factor "
        f"{min(speeds):.3f}..{max(speeds):.3f}"
    )
    result = {
        "correct": failed == 0 and repeat,
        "attempted": len(attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    from evaluate import self_test

    failures = self_test()
    if failures:
        fail(f"output checker failed its self-test: {failures}", code=3)
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}"
    processes = len(os.sched_getaffinity(0)) if args.workload == "batch" else 1
    try:
        with Reference(processes) as reference:
            result, lines = run(args, workdir, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
