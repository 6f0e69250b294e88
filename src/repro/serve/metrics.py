"""Operational metrics for the serving layer (the ``/metrics`` payload).

One :class:`ServiceMetrics` instance per :class:`SynthesisService`
aggregates what an operator watches on a warm server:

* queue pressure — jobs by state (from the store) plus configured
  concurrency;
* result-cache effectiveness — hits/misses/entries (from the
  :class:`~repro.serve.cache.ResultCache`);
* worker-pool temperature — warm vs cold acquires, respawns, parked
  pools (from the :class:`~repro.flows.WarmPoolManager`);
* journal durability — bytes, records, compactions, replayed jobs
  (when ``--journal`` is on);
* per-stage latency — fixed-bucket histograms per job lifecycle stage
  (``resolve``, ``queue_wait``, ``run``) with count/min/mean/max *and*
  p50/p90/p99 estimates, recorded by the queue and submit paths;
* fault-tolerance counters — named monotonic counters (circuit
  retries/timeouts, worker deaths, quarantined jobs) recorded by the
  queue runner and journal replay, summable across servers exactly
  like the histograms.

The histogram buckets are fixed and log-spaced (1 ms .. 60 s, plus an
overflow bucket), so two servers' histograms can be summed
bucket-by-bucket; percentile estimates quote the upper bound of the
bucket that crosses the quantile (the overflow bucket quotes the
observed max), which is the standard fixed-bucket trade: cheap, mergeable
and never more than one bucket width off.

Latency observations arrive from executor threads as well as the loop
thread, so the stage table takes a lock; everything else is read-only
composition over objects with their own thread stories.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

#: Upper bounds (seconds) of the fixed latency buckets; one overflow
#: bucket past the last bound catches everything slower.  Log-spaced
#: from "cache hit" to "heavy batch" territory.
LATENCY_BUCKET_BOUNDS = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: The percentiles every stage summary estimates.
SUMMARY_QUANTILES = (("p50_seconds", 0.50), ("p90_seconds", 0.90), ("p99_seconds", 0.99))


class _StageHistogram:
    """Fixed-bucket latency histogram for one lifecycle stage."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets = [0] * (len(LATENCY_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        self.buckets[bisect_left(LATENCY_BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = min(self.min, seconds)
        self.max = max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile: the upper bound of the bucket
        where the cumulative count crosses ``q * count`` (clamped to
        the observed max, and quoting it for the overflow bucket)."""
        threshold = q * self.count
        cumulative = 0
        for index, entries in enumerate(self.buckets):
            cumulative += entries
            if cumulative >= threshold and entries:
                if index >= len(LATENCY_BUCKET_BOUNDS):
                    return self.max
                return min(LATENCY_BUCKET_BOUNDS[index], self.max)
        return self.max

    def summary(self) -> dict[str, object]:
        cumulative = 0
        buckets: dict[str, int] = {}
        for bound, entries in zip(LATENCY_BUCKET_BOUNDS, self.buckets):
            cumulative += entries
            buckets[f"le_{bound:g}"] = cumulative
        buckets["le_inf"] = self.count
        entry: dict[str, object] = {
            "count": self.count,
            "total_seconds": self.total,
            "min_seconds": self.min,
            "max_seconds": self.max,
            "mean_seconds": self.total / self.count,
            "buckets": buckets,
        }
        for name, q in SUMMARY_QUANTILES:
            entry[name] = self.quantile(q)
        return entry


class ServiceMetrics:
    """Mutable counters + a composer for the ``/metrics`` payload."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._stages: dict[str, _StageHistogram] = {}
        self._counters: dict[str, int] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        """Bump a named monotonic counter (no-op for ``amount=0``, so
        callers can pass report tallies unconditionally)."""
        if not amount:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counters(self) -> dict[str, int]:
        """All named counters, sorted by name (mergeable across servers
        by plain per-key addition)."""
        with self._lock:
            return dict(sorted(self._counters.items()))

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency sample for a lifecycle ``stage``."""
        with self._lock:
            histogram = self._stages.get(stage)
            if histogram is None:
                histogram = self._stages[stage] = _StageHistogram()
            histogram.observe(seconds)

    def stage_summaries(self) -> dict[str, dict[str, object]]:
        """Per-stage histogram summary: count/min/mean/max, cumulative
        fixed buckets, and p50/p90/p99 estimates."""
        with self._lock:
            return {
                stage: histogram.summary()
                for stage, histogram in sorted(self._stages.items())
            }

    def payload(
        self,
        *,
        jobs: dict[str, int],
        concurrency: int,
        cache_stats: dict | None = None,
        pool_stats: dict | None = None,
        journal_stats: dict | None = None,
        pending_limit: int | None = None,
    ) -> dict:
        """The full ``/metrics`` response body (minus the schema tag,
        which the wire encoder attaches)."""
        return {
            "jobs": jobs,
            "concurrency": concurrency,
            "max_pending": pending_limit,
            "result_cache": cache_stats,
            "worker_pools": pool_stats,
            "journal": journal_stats,
            "counters": self.counters(),
            "stages": self.stage_summaries(),
        }
