"""Asyncio HTTP front end: the ``bdsmaj serve`` service.

A deliberately small HTTP/1.1 server on :func:`asyncio.start_server`
(stdlib only — the repo's no-heavy-deps rule applies to the serving
layer too).  Connections are persistent by HTTP/1.1 default: a client
polling a job reuses one socket for the whole conversation, and the
``Connection:`` request header is honored (``close`` to drop after the
response; HTTP/1.0 clients must opt in with ``keep-alive``).  The
events stream is the exception — its end is signalled by closing the
connection.

The front end is hardened against misbehaving clients: every read off
the socket is bounded by a configurable idle timeout (a connection
silent *between* requests is closed quietly; one that stalls *mid*
request gets a 408), header counts and line lengths are capped (431),
and ``Content-Length`` must be a plain non-negative ASCII integer.

Endpoints
---------
``GET  /healthz``           liveness + job tally by state
``GET  /metrics``           operational gauges: queue depth, result-
                            cache hit rate, warm/cold pool counts,
                            per-stage latency
``POST /jobs``              submit (JSON body, see :mod:`.wire`) → 202
``GET  /jobs``              all jobs, submission order
``GET  /jobs/<id>``         status payload
``GET  /jobs/<id>/result``  the finished job's BatchReport — raw
                            ``to_json`` bytes (``?format=csv`` for CSV,
                            ``?timings=1`` to include wall-clock);
                            409 until the job is done
``POST /jobs/<id>/cancel``  cancel queued/running job → status payload
``GET  /jobs/<id>/events``  NDJSON progress stream (state transitions,
                            per-circuit completions, per-stage
                            start/end events) until the job finishes

:class:`SynthesisService` bundles the :class:`~repro.serve.JobStore`,
the :class:`~repro.serve.JobQueue` and the listener; :func:`run_server`
is the blocking CLI entry point with SIGINT/SIGTERM-triggered graceful
shutdown (drain nothing, cancel everything, reap all workers).
"""

from __future__ import annotations

import asyncio
import hmac
import math
import os
import signal
import sys
import time
from http import HTTPStatus
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from ..api import InputSourceError, resolve_source
from ..flows.batch import WarmPoolManager
from .cache import DEFAULT_RESULT_CACHE_SIZE, ResultCache, submission_key
from .jobs import (
    DEFAULT_EVENT_CAP,
    DONE,
    ERROR,
    QUARANTINED,
    QUEUED,
    Job,
    JobRequest,
    JobStore,
)
from .journal import DEFAULT_COMPACT_BYTES, JobJournal, ReplayedJob, ReplayResult
from .metrics import ServiceMetrics
from .queue import JobQueue
from .wire import WireError, encode_event_line, encode_json, job_payload, parse_submission

#: Environment variable consulted when ``--auth-token`` is not given.
AUTH_TOKEN_ENV = "BDSMAJ_AUTH_TOKEN"

#: Largest accepted request body; a submission is a short JSON object,
#: so anything bigger is a client bug, not a workload.
MAX_BODY_BYTES = 1 << 20

#: Most header lines accepted per request; real clients send a handful,
#: so a flood is an attack (or a badly broken proxy), answered 431.
MAX_HEADER_LINES = 100

#: Default seconds a connection may sit silent before the server stops
#: reading (quietly between requests, 408 mid-request).
DEFAULT_IDLE_TIMEOUT = 60.0

#: Seconds the server keeps draining a connection after its last
#: response (half-closed) so a client still mid-send sees the response
#: instead of a connection reset destroying it.
_LINGER_SECONDS = 1.0

class SynthesisService:
    """Store + queue + HTTP listener, wired together.

    The listener is a hardened HTTP/1.1 front end: request framing with
    idle timeouts, header caps, keep-alive semantics, the lingering
    close, bearer-token auth and the error funnel, in front of
    :meth:`_route`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        concurrency: int = 2,
        event_cap: int | None = DEFAULT_EVENT_CAP,
        max_finished_jobs: int | None = None,
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
        result_cache_size: int | None = DEFAULT_RESULT_CACHE_SIZE,
        journal_path: "str | os.PathLike | None" = None,
        journal_compact_bytes: int = DEFAULT_COMPACT_BYTES,
        max_pending: int | None = None,
        auth_token: str | None = None,
        max_attempts: int = 3,
    ) -> None:
        """``idle_timeout=None`` disables read timeouts;
        ``result_cache_size=None``/``0`` disables result caching;
        ``journal_path`` makes the job store durable
        (append-only NDJSON, replayed on :meth:`start`);
        ``max_pending`` bounds the queued-job backlog (overflow answers
        429 with ``Retry-After``); ``auth_token`` requires ``Bearer``
        auth on every endpoint except ``/healthz``; ``max_attempts``
        caps how many times journal replay will (re)start one job — a
        job whose attempt records reach the cap is quarantined instead
        of re-enqueued, ending a restart crash loop."""
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.journal = (
            JobJournal(journal_path, compact_bytes=journal_compact_bytes)
            if journal_path is not None
            else None
        )
        self.store = JobStore(
            event_cap=event_cap,
            max_finished_jobs=max_finished_jobs,
            journal=self.journal,
        )
        self.metrics = ServiceMetrics()
        self.result_cache = (
            ResultCache(result_cache_size) if result_cache_size else None
        )
        # One parked pool per concurrent job: concurrent one-circuit jobs
        # each hold a one-worker pool, and a smaller bound would
        # terminate one at every release and cold-spawn it on the next.
        self.pool_manager = WarmPoolManager(max_idle_per_size=concurrency)
        self.queue = JobQueue(
            concurrency=concurrency,
            pool_manager=self.pool_manager,
            result_cache=self.result_cache,
            metrics=self.metrics,
        )
        self._host = host
        self._port = port
        self._idle_timeout = idle_timeout
        self._auth_token = auth_token
        self._server: asyncio.base_events.Server | None = None
        self._max_pending = max_pending
        self._max_attempts = max_attempts
        self.last_replay: ReplayResult | None = None

    # ------------------------------------------------------------------
    # HTTP front end
    # ------------------------------------------------------------------
    async def _start_listener(self) -> tuple[str, int]:
        """Bind and return the actual ``(host, port)`` (with ``port=0``
        the kernel picks)."""
        self._server = await asyncio.start_server(
            self._handle_client, self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def _close_listener(self) -> None:
        if self._server is None:
            return
        try:
            await asyncio.wait_for(self._server.wait_closed(), timeout=5.0)
        except asyncio.TimeoutError:  # a client holding a dead connection
            pass
        self._server = None

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve requests off one connection until the client closes it,
        asks to (``Connection: close``), streams events, or errors.

        HTTP/1.1 connections are persistent by default; HTTP/1.0 ones
        only with an explicit ``Connection: keep-alive``.  Error
        responses always close — after a protocol error the framing of
        the byte stream can no longer be trusted.
        """
        try:
            keep_alive = False
            while True:
                parsed = await self._read_request(reader)
                if parsed is None:
                    break
                method, path, query, body, headers, version = parsed
                connection = headers.get("connection", "").lower()
                if version == "HTTP/1.0":
                    keep_alive = connection == "keep-alive"
                else:
                    keep_alive = connection != "close"
                try:
                    streamed = await self._route(
                        writer, method, path, query, body, keep_alive, headers
                    )
                except WireError as exc:
                    self._write_response(
                        writer,
                        exc.status,
                        encode_json({"error": str(exc)}),
                        extra_headers=exc.headers,
                    )
                    break
                if streamed or not keep_alive:
                    break
                await writer.drain()
        except WireError as exc:  # malformed framing: respond and close
            self._write_response(
                writer,
                exc.status,
                encode_json({"error": str(exc)}),
                extra_headers=exc.headers,
            )
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-request/response
        except Exception as exc:  # noqa: BLE001 — a handler bug must not kill the server
            self._write_response(
                writer,
                500,
                encode_json({"error": f"{type(exc).__name__}: {exc}"}),
            )
        finally:
            try:
                await writer.drain()
                # Lingering close: closing while the peer is still
                # sending (an over-long line we rejected mid-read, say)
                # resets the connection and can destroy the response we
                # just wrote.  Send our FIN first, then briefly drain
                # whatever the peer had in flight before closing.
                if writer.can_write_eof():
                    writer.write_eof()
                try:
                    await asyncio.wait_for(
                        reader.read(MAX_BODY_BYTES), timeout=_LINGER_SECONDS
                    )
                except (asyncio.TimeoutError, ValueError):
                    pass
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, asyncio.IncompleteReadError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, list[str]], bytes, dict[str, str], str] | None:
        """Read and parse one request, defensively.

        Every read is bounded by the configured idle timeout: a client
        silent before sending a request line is dropped quietly (that
        is what an idle keep-alive connection looks like), one that
        stalls *after* starting a request gets a 408.  Oversized lines
        (``StreamReader``'s limit surfaces as :class:`ValueError`),
        header floods and malformed ``Content-Length`` values are
        client errors, not server tracebacks.
        """
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), self._idle_timeout
            )
        except asyncio.TimeoutError:
            return None  # idle between requests: close without a response
        except ValueError:
            raise WireError("request line too long", status=431) from None
        if not request_line.strip():
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise WireError("malformed request line")
        method, target, version = parts
        headers: dict[str, str] = {}
        header_lines = 0
        while True:
            try:
                line = await asyncio.wait_for(
                    reader.readline(), self._idle_timeout
                )
            except asyncio.TimeoutError:
                raise WireError(
                    "timed out reading request headers", status=408
                ) from None
            except ValueError:
                raise WireError("header line too long", status=431) from None
            if line in (b"\r\n", b"\n", b""):
                break
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                raise WireError("too many header lines", status=431)
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "0").strip()
        # int() alone would accept "-5", "+5", " 5", "5_0" and unicode
        # digits; Content-Length is plain ASCII decimal or it is a lie.
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise WireError("bad Content-Length header")
        length = int(raw_length)
        if length > MAX_BODY_BYTES:
            raise WireError("request body too large", status=413)
        if length > 0:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), self._idle_timeout
                )
            except asyncio.TimeoutError:
                raise WireError(
                    "timed out reading request body", status=408
                ) from None
        else:
            body = b""
        url = urlsplit(target)
        return method.upper(), url.path, parse_qs(url.query), body, headers, version

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        keep_alive: bool = False,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        writer.write(
            self._head(status, content_type, len(body), keep_alive, extra_headers)
            + body
        )

    def _head(
        self,
        status: int,
        content_type: str,
        length: int | None,
        keep_alive: bool = False,
        extra_headers: dict[str, str] | None = None,
    ) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        if length is not None:
            lines.append(f"Content-Length: {length}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def _require(self, method: str, expected: str) -> None:
        if method != expected:
            raise WireError(f"use {expected} on this endpoint", status=405)

    def _check_auth(self, headers: dict[str, str]) -> None:
        """Enforce bearer-token auth when configured (constant-time
        compare; 401 with ``WWW-Authenticate`` on missing/mismatch)."""
        if self._auth_token is None:
            return
        supplied = headers.get("authorization", "")
        scheme, _, token = supplied.partition(" ")
        if scheme.lower() == "bearer" and hmac.compare_digest(
            token.strip(), self._auth_token
        ):
            return
        raise WireError(
            "missing or invalid bearer token",
            status=401,
            headers={"WWW-Authenticate": "Bearer"},
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Start the runners and the listener; returns the bound
        ``(host, port)`` (useful with ``port=0``)."""
        self.queue.start()
        if self.journal is not None and self.last_replay is None:
            self._replay_journal()
        return await self._start_listener()

    def _replay_journal(self) -> None:
        """Replay the journal into the store: finished jobs come back
        with their exact reports (rehydrating the result cache), jobs
        the crash interrupted are re-enqueued under their original ids.

        Re-enqueueing is bounded: each replay re-enqueue journals an
        ``attempt`` record first, and a job whose start count has
        already reached ``max_attempts`` is quarantined instead — a
        poison job that kills the service on every run must not keep
        killing it on every restart.
        """
        result = self.journal.open()
        self.last_replay = result
        for replayed in result.jobs:
            if replayed.state is not None:
                self._restore_terminal(self.store.adopt(replayed, result.next_id), replayed)
                continue
            if replayed.attempts >= self._max_attempts:
                # Poison job: it was started max_attempts times
                # without ever reaching a terminal record.  Park it
                # (terminal, inspectable) instead of re-enqueueing —
                # and do not even re-resolve its inputs.
                self.store.adopt(replayed, result.next_id).mark_quarantined(
                    f"quarantined after {replayed.attempts} attempt(s): "
                    "the job never finished before a service restart"
                )
                self.metrics.inc("jobs_quarantined")
                continue
            # Interrupted mid-run: re-resolve and run it again.
            try:
                items = self._resolve_items(replayed.request)
            except WireError as exc:
                self.store.adopt(replayed, result.next_id).fail(
                    f"journal replay could not re-resolve inputs: {exc}"
                )
                continue
            key = None
            cached = None
            if self.result_cache is not None:
                key = submission_key(items, replayed.request.batch_config())
                # An identical submission may already have been
                # replayed finished (ids replay in order): answer from
                # the rehydrated cache instead of synthesizing twice.
                cached = self.result_cache.get(key)
            job = self.store.adopt(replayed, result.next_id, items, resubmitted=cached is None)
            job.cache_key = key
            if cached is not None:
                job.cache_hit = True
                job.finish(cached)
                continue
            # This re-enqueue is one more start; journal it *before*
            # the job runs so the evidence survives another crash.
            job.attempts += 1
            self.journal.record_attempt(job)
            self.queue.submit(job)

    def _restore_terminal(self, job: Job, replayed: ReplayedJob) -> None:
        """Put a replayed job back in its journaled terminal state; a
        fully successful report also rehydrates the result cache."""
        if replayed.state == DONE and replayed.report is not None:
            job.finish(replayed.report)
            if (
                self.result_cache is not None
                and replayed.cache_key is not None
                and all(circuit.ok for circuit in replayed.report.circuits)
            ):
                self.result_cache.put(replayed.cache_key, replayed.report)
        elif replayed.state == ERROR:
            job.fail(replayed.error or "unknown error")
        elif replayed.state == QUARANTINED:
            job.mark_quarantined(replayed.error or "crash-looped the service")
        else:
            job.mark_cancelled()

    async def shutdown(self) -> None:
        """Stop accepting, cancel every live job, reap every worker."""
        if self._server is not None:
            self._server.close()
        # Cancel jobs BEFORE waiting on the listener: event-stream
        # handlers only finish once their job reaches a terminal state,
        # and (on Pythons where wait_closed really waits for handlers)
        # the reverse order would deadlock.
        await self.queue.shutdown(self.store.jobs())
        # Parked pools hold live worker processes; drain() joins them,
        # so keep it off the loop thread.
        await asyncio.get_running_loop().run_in_executor(
            None, self.pool_manager.drain
        )
        if self.journal is not None:
            self.journal.close()
        await self._close_listener()

    # ------------------------------------------------------------------
    # Submission (also the seam tests drive without HTTP)
    # ------------------------------------------------------------------
    def submit(self, request: JobRequest) -> Job:
        """Resolve the request's circuit specs through the input layer
        and enqueue a job for them.

        Callers building a :class:`JobRequest` directly (the HTTP path
        goes through :func:`~repro.serve.parse_submission`, which
        validates) get the knob errors here instead of at run time.

        A submission whose content hash matches a cached finished
        report is answered immediately: the job is created already
        ``done``, carrying the cached :class:`~repro.flows.BatchReport`
        (and ``cached: true`` in its status payload) — no queue trip,
        no resynthesis.
        """
        items, key = self._resolve_items_keyed(request)
        return self._create_job(request, items, key)

    async def submit_async(self, request: JobRequest) -> Job:
        """Like :meth:`submit`, but resolves circuit specs on a worker
        thread: glob expansion (and cache-key file hashing) walks the
        filesystem, and a slow walk on the loop thread would freeze
        every other request."""
        loop = asyncio.get_running_loop()
        items, key = await loop.run_in_executor(
            None, self._resolve_items_keyed, request
        )
        return self._create_job(request, items, key)

    def _create_job(self, request: JobRequest, items: list, key: str | None) -> Job:
        cached = self.result_cache.get(key) if self.result_cache is not None else None
        if cached is not None:
            # Cache hits bypass the backpressure gate: they consume no
            # queue slot, so rejecting them would protect nothing.
            job = self.store.create(request, items)
            job.cache_key = key
            job.cache_hit = True
            job.finish(cached)
            return job
        self._check_backpressure()
        job = self.store.create(request, items)
        job.cache_key = key
        self.queue.submit(job)
        return job

    def _check_backpressure(self) -> None:
        """Refuse new queue entries past ``max_pending`` with a 429 and
        a ``Retry-After`` estimated from the observed run latency."""
        if self._max_pending is None:
            return
        pending = sum(1 for job in self.store.jobs() if job.state == QUEUED)
        if pending < self._max_pending:
            return
        raise WireError(
            f"queue is full ({pending} jobs pending, limit {self._max_pending})",
            status=429,
            headers={"Retry-After": str(self._retry_after(pending))},
        )

    def _retry_after(self, pending: int) -> int:
        """Seconds until a queue slot plausibly frees: the backlog
        drained at the observed mean run latency over ``concurrency``
        lanes, clamped to [1, 300]."""
        run = self.metrics.stage_summaries().get("run")
        mean = float(run["mean_seconds"]) if run else 1.0
        estimate = mean * max(1, pending) / max(1, self.queue.concurrency)
        return max(1, min(300, math.ceil(estimate)))

    def _resolve_items_keyed(self, request: JobRequest) -> tuple[list, str | None]:
        """Resolve circuit specs and (when caching is on) the
        submission's content-hash key — both touch the filesystem, so
        the async path runs this whole helper on a worker thread."""
        start = time.perf_counter()
        items = self._resolve_items(request)
        key = (
            submission_key(items, request.batch_config())
            if self.result_cache is not None
            else None
        )
        self.metrics.observe("resolve", time.perf_counter() - start)
        return items, key

    def _resolve_items(self, request: JobRequest) -> list:
        try:
            request.batch_config()
        except ValueError as exc:
            raise WireError(str(exc)) from None
        items: list = []
        try:
            for spec in request.circuits:
                items.extend(resolve_source(spec).items())
        except InputSourceError as exc:
            raise WireError(str(exc)) from None
        return items

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: dict[str, list[str]],
        body: bytes,
        keep_alive: bool = False,
        headers: dict[str, str] | None = None,
    ) -> bool:
        """Dispatch one request.  Returns True when the response was a
        stream whose end is signalled by closing the connection (the
        events endpoint), so the caller must not reuse the socket."""
        segments = [part for part in path.split("/") if part]
        # /healthz stays reachable without credentials: supervisors
        # probe it to decide whether to restart the service.
        if segments != ["healthz"]:
            self._check_auth(headers or {})
        if segments == ["healthz"]:
            self._require(method, "GET")
            self._write_response(
                writer,
                200,
                encode_json({"status": "ok", "jobs": self.store.counts()}),
                keep_alive=keep_alive,
            )
        elif segments == ["metrics"]:
            self._require(method, "GET")
            self._write_response(
                writer,
                200,
                encode_json(
                    self.metrics.payload(
                        jobs=self.store.counts(),
                        concurrency=self.queue.concurrency,
                        cache_stats=(
                            self.result_cache.stats()
                            if self.result_cache is not None
                            else None
                        ),
                        pool_stats=self.pool_manager.stats(),
                        journal_stats=(
                            self.journal.stats()
                            if self.journal is not None
                            else None
                        ),
                        pending_limit=self._max_pending,
                    )
                ),
                keep_alive=keep_alive,
            )
        elif segments == ["jobs"]:
            if method == "POST":
                job = await self.submit_async(parse_submission(body))
                self._write_response(
                    writer, 202, encode_json(job_payload(job)), keep_alive=keep_alive
                )
            elif method == "GET":
                self._write_response(
                    writer,
                    200,
                    encode_json(
                        {"jobs": [job_payload(j) for j in self.store.jobs()]}
                    ),
                    keep_alive=keep_alive,
                )
            else:
                raise WireError("use GET or POST on /jobs", status=405)
        elif len(segments) == 2 and segments[0] == "jobs":
            self._require(method, "GET")
            job = self._job(segments[1])
            self._write_response(
                writer, 200, encode_json(job_payload(job)), keep_alive=keep_alive
            )
        elif len(segments) == 3 and segments[0] == "jobs":
            job = self._job(segments[1])
            action = segments[2]
            if action == "result":
                self._require(method, "GET")
                self._send_result(writer, job, query, keep_alive)
            elif action == "cancel":
                self._require(method, "POST")
                job.request_cancel()
                self._write_response(
                    writer, 200, encode_json(job_payload(job)), keep_alive=keep_alive
                )
            elif action == "events":
                self._require(method, "GET")
                await self._stream_events(writer, job)
                return True
            else:
                raise WireError(f"unknown job action {action!r}", status=404)
        else:
            raise WireError(f"no such endpoint: {path!r}", status=404)
        return False

    def _job(self, job_id: str) -> Job:
        job = self.store.get(job_id)
        if job is None:
            raise WireError(f"no such job: {job_id!r}", status=404)
        return job

    def _send_result(
        self,
        writer: asyncio.StreamWriter,
        job: Job,
        query: dict[str, list[str]],
        keep_alive: bool = False,
    ) -> None:
        if job.state != DONE or job.report is None:
            raise WireError(
                f"job {job.id} has no result (status: {job.state})", status=409
            )
        include_timing = query.get("timings", ["0"])[-1] in ("1", "true", "yes")
        # Raw BatchReport serialization — byte-identical to `bdsmaj
        # batch` output for the same circuits (timings excluded).
        if query.get("format", ["json"])[-1] == "csv":
            body = job.report.to_csv(include_timing).encode("utf-8")
            self._write_response(
                writer, 200, body, content_type="text/csv", keep_alive=keep_alive
            )
        else:
            body = job.report.to_json(include_timing).encode("utf-8")
            self._write_response(writer, 200, body, keep_alive=keep_alive)

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job
    ) -> None:
        """Replay the job's event log, then follow it live until the job
        reaches a terminal state (NDJSON, one event per line).

        The cursor is an *absolute* event position: a finished job's
        log may have been truncated (:class:`~repro.serve.JobStore`
        ``event_cap``), in which case the dropped head is reported
        explicitly with one ``{"type": "truncated", "dropped": N}``
        line instead of being silently skipped.
        """
        writer.write(self._head(200, "application/x-ndjson", None))
        cursor = 0
        while True:
            # Capture the wakeup *before* draining: an event appended
            # after the drain but before the await still sets it.
            changed = job.change_event()
            base = job.events_dropped
            if cursor < base:
                writer.write(
                    encode_event_line(
                        {"type": "truncated", "dropped": base - cursor, "job": job.id}
                    )
                )
                cursor = base
            while cursor < base + len(job.events):
                writer.write(encode_event_line(job.events[cursor - base]))
                cursor += 1
            await writer.drain()
            if cursor < job.total_events:
                # The job appended (possibly its terminal state event)
                # while drain() was suspended; flush before closing.
                continue
            if job.finished:
                return
            await changed.wait()


async def _serve_until_stopped(
    service: SynthesisService, echo: Callable[[str], None]
) -> None:
    bound_host, bound_port = await service.start()
    if service.last_replay is not None:
        replay = service.last_replay
        echo(
            f"bdsmaj serve: journal {service.journal.path} replayed "
            f"{len(replay.jobs)} jobs ({replay.records} records"
            + (
                f", {replay.truncated_bytes} torn bytes truncated"
                if replay.truncated_bytes
                else ""
            )
            + ")"
        )
    echo(
        f"bdsmaj serve: listening on http://{bound_host}:{bound_port} "
        f"({service.queue.concurrency} concurrent jobs); Ctrl-C to stop"
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        echo("bdsmaj serve: shutting down (cancelling jobs, reaping workers)")
        await service.shutdown()


def run_server(echo: Callable[[str], None] | None = None, **options) -> int:
    """Blocking entry point behind ``bdsmaj serve``.

    ``options`` are :class:`SynthesisService`'s keyword arguments.  An
    absent or ``None`` ``auth_token`` falls back to the
    :data:`AUTH_TOKEN_ENV` environment variable (so tokens need not
    appear on command lines); an empty value in either place means "no
    auth"."""
    if echo is None:
        echo = lambda message: print(message, file=sys.stderr, flush=True)  # noqa: E731
    if options.get("auth_token") is None:
        options["auth_token"] = os.environ.get(AUTH_TOKEN_ENV) or None
    asyncio.run(_serve_until_stopped(SynthesisService(**options), echo))
    return 0
