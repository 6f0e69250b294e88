"""``repro.serve`` — the async synthesis-serving layer.

The batch service (:func:`repro.flows.run_batch`) answers "synthesize
this suite"; this package answers the ROADMAP's production question:
synthesis requests that *stream in* over HTTP, get prioritised, report
progress while running, and can be cancelled — without ever blocking
the event loop on a BDD operation.

The stack, bottom up:

* :mod:`.jobs` — :class:`JobRequest` / :class:`Job` / :class:`JobStore`:
  the request model, the job state machine and its append-only event
  log;
* :mod:`.queue` — :class:`JobQueue`: priority scheduling with bounded
  concurrency, dispatching each job onto an executor thread that runs
  ``run_batch`` (and, for ``workers > 1`` requests, the multiprocessing
  pool underneath it);
* :mod:`.cache` — :class:`ResultCache` + :func:`submission_key`:
  content-hash caching of finished reports, so resubmitting identical
  work answers instantly;
* :mod:`.metrics` — :class:`ServiceMetrics`: the ``/metrics`` gauges
  (queue depth, cache hit rate, warm/cold pool counts, per-stage
  latency);
* :mod:`.journal` — :class:`JobJournal`: an append-only, CRC-guarded
  NDJSON journal the store writes through, replayed on startup so a
  restart (or crash) loses nothing — finished jobs come back
  byte-identical and interrupted jobs re-run;
* :mod:`.wire` — the JSON wire format: submission validation, status
  payloads, NDJSON progress lines;
* :mod:`.server` — :class:`SynthesisService`: a hardened HTTP/1.1
  front end (read timeouts, header caps, keep-alive, bearer auth) over
  submit/status/result/cancel/events endpoints, queue backpressure (429 +
  ``Retry-After`` past ``max_pending``), a
  :class:`~repro.flows.WarmPoolManager` of reusable worker pools — plus
  :func:`run_server`, the blocking ``bdsmaj serve`` entry point.

One service spreads work over CPUs itself: a ``workers > 1`` job, one
circuit included, runs in parked worker processes, so concurrent jobs
synthesize in parallel instead of sharing the executor threads' GIL.

The invariant that makes the service trustworthy: a finished job's
``/result`` is the **byte-identical** ``BatchReport`` serialization
``run_batch`` (and ``bdsmaj batch``) produces for the same circuits —
serving adds scheduling, never different numbers.

Quickstart::

    bdsmaj serve --port 8347 &
    curl -d '{"circuits": ["alu2"], "flow": "bds-maj"}' localhost:8347/jobs
    curl localhost:8347/jobs/job-000001/events   # streamed progress
    curl localhost:8347/jobs/job-000001/result   # == `bdsmaj batch` bytes
"""

from .cache import DEFAULT_RESULT_CACHE_SIZE, ResultCache, submission_key
from .journal import (
    DEFAULT_COMPACT_BYTES,
    JobJournal,
    JournalError,
    ReplayedJob,
    ReplayResult,
)
from .jobs import (
    CANCELLED,
    DEFAULT_EVENT_CAP,
    DONE,
    ERROR,
    QUARANTINED,
    QUEUED,
    RUNNING,
    TERMINAL_STATES,
    Job,
    JobRequest,
    JobStore,
)
from .metrics import ServiceMetrics
from .queue import JobQueue
from .server import (
    AUTH_TOKEN_ENV,
    DEFAULT_IDLE_TIMEOUT,
    SynthesisService,
    run_server,
)
from .wire import (
    SCHEMA,
    WireError,
    encode_event_line,
    encode_json,
    job_payload,
    parse_submission,
)

__all__ = [
    "AUTH_TOKEN_ENV",
    "CANCELLED",
    "DEFAULT_COMPACT_BYTES",
    "DEFAULT_EVENT_CAP",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_RESULT_CACHE_SIZE",
    "DONE",
    "ERROR",
    "QUARANTINED",
    "QUEUED",
    "RUNNING",
    "SCHEMA",
    "TERMINAL_STATES",
    "Job",
    "JobJournal",
    "JobQueue",
    "JobRequest",
    "JobStore",
    "JournalError",
    "ReplayResult",
    "ReplayedJob",
    "ResultCache",
    "ServiceMetrics",
    "SynthesisService",
    "WireError",
    "encode_event_line",
    "encode_json",
    "job_payload",
    "parse_submission",
    "run_server",
    "submission_key",
]
