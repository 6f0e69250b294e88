"""Consistent-hash shard dispatcher: the ``bdsmaj shard`` process.

One dispatcher process spawns and supervises ``--backends N``
independent ``bdsmaj serve`` subprocesses (the *shards*), each
listening on its own ephemeral loopback port, and proxies the full job
API in front of them:

* ``POST /jobs`` routes by **content**: the dispatcher resolves the
  submission exactly like a backend would and hashes it with
  :func:`~repro.serve.cache.submission_key`, so identical circuits
  (same registry keys, same BLIF bytes, same report-affecting knobs)
  always land on the same shard — which is what makes each shard's
  result cache effective.  Uncacheable submissions route by a hash of
  the request itself; either way the mapping is a consistent-hash ring
  (:class:`HashRing`), so the shard count changing moves only ~1/N of
  the key space.
* ``GET /jobs/<id>/result`` is a **raw byte passthrough**: the body the
  backend produced is forwarded verbatim, so a served report stays
  byte-identical to what ``bdsmaj batch`` writes for the same circuits
  — the dispatcher adds routing, never different bytes.
* Status payloads and event streams are re-encoded only to namespace
  job ids: shard ``i``'s ``job-000007`` is exposed as
  ``s<i>-job-000007``, which is also how the dispatcher routes
  status/result/cancel/events lookups back to the owning shard.
* ``GET /metrics`` aggregates: per-shard payloads (so an operator can
  see *which* shard's cache answered) plus summed job tallies and
  result-cache counters, which the fixed-bucket histogram design makes
  meaningful to merge.

A supervisor task health-checks every backend (``/healthz`` probes plus
exit detection) and respawns dead ones — behind a per-backend **circuit
breaker**: a backend that dies again shortly after each respawn (within
``rapid_failure_seconds``, ``breaker_threshold`` times in a row) stops
being respawned eagerly.  Its breaker *opens* for an exponentially
growing backoff (``breaker_base_seconds`` doubling up to
``breaker_max_seconds``), then a single *half-open* probe respawn runs;
only a probe that survives the rapid-failure window *closes* the
breaker again.  A crash-looping shard therefore costs a bounded respawn
rate instead of a tight fork loop, while its requests answer 503 +
``Retry-After`` exactly like any restarting shard.  With
``--journal-dir`` each
backend keeps its own journal, so a respawned backend replays its jobs
— finished reports come back byte-identical, interrupted jobs re-run —
and the namespaced ids the dispatcher handed out stay valid across the
crash.  While a shard is down, requests owned by it answer 503 with
``Retry-After`` instead of failing over: moving a job to another shard
would abandon the journal record and split the cache key space.

The dispatcher is the auth edge: ``--auth-token`` guards its endpoints
(except ``/healthz``), while the backends trust their loopback sockets
(their inherited ``BDSMAJ_AUTH_TOKEN`` is explicitly cleared).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import re
import signal
import sys
import time
from bisect import bisect_right
from pathlib import Path
from typing import Callable

from ..api import InputSourceError, resolve_source
from .cache import submission_key
from .jobs import JobRequest
from .server import AUTH_TOKEN_ENV, DEFAULT_IDLE_TIMEOUT, AsyncHttpServer
from .wire import WireError, encode_event_line, encode_json, parse_submission

#: Virtual nodes per shard on the hash ring.  64 points per shard keeps
#: the key-space split within a few percent of even for small N while
#: the ring stays tiny (N*64 sorted ints).
DEFAULT_VNODES = 64

#: Seconds between supervisor health sweeps.
DEFAULT_HEALTH_INTERVAL = 1.0

#: Consecutive failed ``/healthz`` probes before a live-but-unresponsive
#: backend is killed and respawned.
HEALTH_FAILURE_LIMIT = 3

#: Consecutive rapid failures before a backend's breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3

#: First open-breaker backoff (seconds); doubles per consecutive open.
DEFAULT_BREAKER_BASE_SECONDS = 1.0

#: Backoff ceiling for a breaker that keeps reopening.
DEFAULT_BREAKER_MAX_SECONDS = 30.0

#: A backend death within this many seconds of its (re)start counts as
#: *rapid* — the crash-loop signal the breaker accumulates.  Surviving
#: past it closes a half-open breaker and resets the failure streak.
DEFAULT_RAPID_FAILURE_SECONDS = 5.0

#: Breaker states (per backend).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"

#: The backend's startup line the spawner scrapes the bound port from
#: (backends run ``--port 0``; only the kernel knows the port).
_LISTEN_RE = re.compile(r"listening on http://([0-9.]+):(\d+)")

#: How a namespaced job id decomposes into (shard index, backend id).
_SHARD_ID_RE = re.compile(r"^s(\d+)-(.+)$")


class HashRing:
    """Consistent hashing over ``shards`` backends.

    Each shard contributes ``vnodes`` pseudo-random points (SHA-256 of
    a stable label) on a 64-bit ring; a key is owned by the first point
    at or after its own hash, wrapping around.  Deterministic across
    processes and restarts — routing must not depend on anything but
    the key and the shard count.
    """

    def __init__(self, shards: int, vnodes: int = DEFAULT_VNODES) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if vnodes < 1:
            raise ValueError("need at least one virtual node per shard")
        self.shards = shards
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(vnodes):
                label = f"shard-{shard}-vnode-{replica}".encode("ascii")
                digest = hashlib.sha256(label).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def owner(self, key: str) -> int:
        """The shard index owning ``key``."""
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        point = int.from_bytes(digest[:8], "big")
        index = bisect_right(self._points, point) % len(self._points)
        return self._owners[index]


class BackendProcess:
    """One supervised ``bdsmaj serve`` subprocess."""

    def __init__(self, index: int, command: list[str], env: dict[str, str]) -> None:
        self.index = index
        self.command = command
        self.env = env
        self.process: asyncio.subprocess.Process | None = None
        self.host: str | None = None
        self.port: int | None = None
        #: Times the process has been (re)started beyond the first.
        self.restarts = -1
        self.health_failures = 0
        #: Monotonic time of the last (re)start attempt — the breaker's
        #: rapid-failure clock.
        self.started_at = 0.0
        #: Circuit-breaker state: ``closed`` (normal supervision),
        #: ``open`` (respawns suspended until :attr:`retry_at`), or
        #: ``half_open`` (one probe respawn is being judged).
        self.breaker_state = BREAKER_CLOSED
        #: Consecutive rapid failures (deaths within the rapid window).
        self.failure_streak = 0
        #: Times the breaker has opened over this backend's lifetime.
        self.breaker_opens = 0
        #: Consecutive opens without an intervening close — the backoff
        #: exponent.
        self.open_streak = 0
        #: Monotonic time an open breaker allows its half-open probe.
        self.retry_at = 0.0
        self._stderr_task: asyncio.Task | None = None

    @property
    def alive(self) -> bool:
        return (
            self.process is not None
            and self.process.returncode is None
            and self.port is not None
        )

    async def start(self, startup_timeout: float = 60.0) -> None:
        """Spawn the subprocess and scrape its bound port off stderr
        (backends bind ``--port 0``)."""
        self.host = self.port = None
        self.health_failures = 0
        self.started_at = time.monotonic()
        self.process = await asyncio.create_subprocess_exec(
            *self.command,
            env=self.env,
            stdout=asyncio.subprocess.DEVNULL,
            stderr=asyncio.subprocess.PIPE,
        )
        self.restarts += 1
        deadline = time.monotonic() + startup_timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                await self.stop(grace=0.0)
                raise RuntimeError(
                    f"shard backend {self.index} reported no port within "
                    f"{startup_timeout:.0f}s"
                )
            line = await asyncio.wait_for(self.process.stderr.readline(), remaining)
            if not line:
                code = await self.process.wait()
                raise RuntimeError(
                    f"shard backend {self.index} exited with code {code} "
                    "before listening"
                )
            match = _LISTEN_RE.search(line.decode("utf-8", "replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
        # Keep draining stderr so the pipe never fills up and blocks the
        # backend; the task ends itself at EOF when the process exits.
        self._stderr_task = asyncio.ensure_future(self._drain_stderr())

    async def _drain_stderr(self) -> None:
        try:
            # An unbounded read is the point here: the task exists to
            # drain the pipe for the process' whole lifetime and ends
            # at EOF when the process exits (or via cancellation in
            # ``stop``); a timeout would only make it spin.
            while await self.process.stderr.readline():  # bdslint: disable=RES004 -- lifetime-bound drain task, terminated by EOF or stop()'s cancel
                pass
        except (OSError, ValueError):  # pipe torn down under us
            pass

    async def stop(self, grace: float = 5.0) -> None:
        """SIGTERM (the backend's graceful shutdown journals its live
        jobs as cancelled), escalating to SIGKILL after ``grace``."""
        process = self.process
        if process is None:
            return
        if process.returncode is None:
            process.terminate()  # bdslint: disable=ASY004 -- asyncio.subprocess.Process.terminate() only sends SIGTERM; it never waits for the child
            try:
                await asyncio.wait_for(process.wait(), grace)
            except asyncio.TimeoutError:
                process.kill()
                await process.wait()
        if self._stderr_task is not None:
            self._stderr_task.cancel()
            try:
                await self._stderr_task
            except asyncio.CancelledError:
                pass
            self._stderr_task = None
        self.port = None


class ShardDispatcher(AsyncHttpServer):
    """HTTP front end routing jobs across supervised serve backends."""

    def __init__(
        self,
        backends: int = 3,
        host: str = "127.0.0.1",
        port: int = 0,
        journal_dir: "str | os.PathLike | None" = None,
        backend_concurrency: int = 2,
        result_cache_size: int | None = None,
        max_pending: int | None = None,
        idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
        auth_token: str | None = None,
        health_interval: float = DEFAULT_HEALTH_INTERVAL,
        backend_args: "tuple[str, ...] | list[str]" = (),
        vnodes: int = DEFAULT_VNODES,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_base_seconds: float = DEFAULT_BREAKER_BASE_SECONDS,
        breaker_max_seconds: float = DEFAULT_BREAKER_MAX_SECONDS,
        rapid_failure_seconds: float = DEFAULT_RAPID_FAILURE_SECONDS,
    ) -> None:
        """``journal_dir`` enables per-backend journals
        (``backend-<i>.journal``) so respawned backends replay their
        jobs; ``backend_args`` appends raw extra CLI flags to every
        backend's command line (the test seam for small event caps and
        the like); the ``breaker_*``/``rapid_failure_seconds`` knobs
        tune the per-backend respawn circuit breaker (see the module
        docstring)."""
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if breaker_base_seconds <= 0 or breaker_max_seconds <= 0:
            raise ValueError("breaker backoff seconds must be > 0")
        if rapid_failure_seconds <= 0:
            raise ValueError("rapid_failure_seconds must be > 0")
        super().__init__(
            host=host, port=port, idle_timeout=idle_timeout, auth_token=auth_token
        )
        self.ring = HashRing(backends, vnodes=vnodes)
        self._journal_dir = Path(journal_dir) if journal_dir is not None else None
        self._backend_concurrency = backend_concurrency
        self._result_cache_size = result_cache_size
        self._max_pending = max_pending
        self._backend_args = tuple(backend_args)
        self._health_interval = health_interval
        self._breaker_threshold = breaker_threshold
        self._breaker_base = breaker_base_seconds
        self._breaker_max = breaker_max_seconds
        self._rapid_window = rapid_failure_seconds
        env = self._backend_env()
        self.backends = [
            BackendProcess(index, self._backend_command(index), env)
            for index in range(backends)
        ]
        #: Jobs routed (accepted submissions) per shard.
        self.routed = [0] * backends
        #: Backends the supervisor brought back from the dead.
        self.respawns = 0
        self._supervisor_task: asyncio.Task | None = None
        # Set by shutdown and checked by the supervisor loop: on Python
        # 3.11 `asyncio.wait_for` swallows a cancel that lands as its
        # inner await completes, so the cancel alone may not end it.
        self._stopping = False

    # ------------------------------------------------------------------
    # Backend process management
    # ------------------------------------------------------------------
    def _backend_command(self, index: int) -> list[str]:
        command = [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--arena",
            "off",
            "--concurrency",
            str(self._backend_concurrency),
        ]
        if self._journal_dir is not None:
            command += ["--journal", str(self._journal_dir / f"backend-{index}.journal")]
        if self._result_cache_size is not None:
            command += ["--result-cache", str(self._result_cache_size)]
        if self._max_pending is not None:
            command += ["--max-pending", str(self._max_pending)]
        command += list(self._backend_args)
        return command

    def _backend_env(self) -> dict[str, str]:
        env = dict(os.environ)
        # Backends must import this very checkout whether or not it is
        # pip-installed in the child's interpreter.
        src_root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        # The dispatcher is the auth edge; backends trust loopback (and
        # must not pick the token up from the inherited environment).
        env[AUTH_TOKEN_ENV] = ""
        return env

    async def start(self) -> tuple[str, int]:
        """Spawn every backend (concurrently — interpreter startup
        dominates), start the supervisor, bind the listener."""
        if self._journal_dir is not None:
            self._journal_dir.mkdir(parents=True, exist_ok=True)
        try:
            await asyncio.gather(*(backend.start() for backend in self.backends))
        except BaseException:
            await asyncio.gather(
                *(backend.stop(grace=0.0) for backend in self.backends),
                return_exceptions=True,
            )
            raise
        self._supervisor_task = asyncio.ensure_future(self._supervise())
        return await self._start_listener()

    async def shutdown(self) -> None:
        """Stop the supervisor first (it must not respawn what we are
        about to terminate), then the backends, then the listener."""
        self._stopping = True
        if self._supervisor_task is not None:
            self._supervisor_task.cancel()
            try:
                await self._supervisor_task
            except asyncio.CancelledError:
                pass
            self._supervisor_task = None
        if self._server is not None:
            self._server.close()
        await asyncio.gather(*(backend.stop() for backend in self.backends))
        await self._close_listener()

    async def _supervise(self) -> None:
        """Respawn exited backends; kill-and-respawn unresponsive ones
        after :data:`HEALTH_FAILURE_LIMIT` failed probes.

        Respawning runs behind each backend's circuit breaker: rapid
        deaths (within the rapid-failure window of the last start)
        accumulate a streak, the streak opens the breaker, and an open
        breaker suspends respawns for an exponentially growing backoff
        before one half-open probe is allowed.  Only a probe that
        survives the rapid window closes the breaker.
        """
        while not self._stopping:
            await asyncio.sleep(self._health_interval)
            for backend in self.backends:
                now = time.monotonic()
                if backend.breaker_state == BREAKER_OPEN:
                    if now < backend.retry_at:
                        continue  # still backing off
                    backend.breaker_state = BREAKER_HALF_OPEN
                    if not await self._respawn(backend):
                        self._trip_breaker(backend, time.monotonic())
                    continue
                if (
                    backend.process is not None
                    and backend.process.returncode is not None
                ):
                    self._note_failure(backend, now)
                    if backend.breaker_state != BREAKER_OPEN and not (
                        await self._respawn(backend)
                    ):
                        self._trip_breaker(backend, time.monotonic())
                    continue
                if not backend.alive:
                    continue
                try:
                    status, _, _ = await self._backend_request(
                        backend, "GET", "/healthz", timeout=2.0
                    )
                    healthy = status == 200
                except (WireError, OSError, asyncio.TimeoutError):
                    healthy = False
                if healthy:
                    backend.health_failures = 0
                    if now - backend.started_at >= self._rapid_window:
                        self._close_breaker(backend)
                    continue
                backend.health_failures += 1
                if backend.health_failures >= HEALTH_FAILURE_LIMIT:
                    await backend.stop(grace=0.5)
                    self._note_failure(backend, now)
                    if backend.breaker_state != BREAKER_OPEN and not (
                        await self._respawn(backend)
                    ):
                        self._trip_breaker(backend, time.monotonic())

    def _note_failure(self, backend: BackendProcess, now: float) -> None:
        """Record one backend death; open the breaker once the rapid
        streak reaches the threshold."""
        rapid = now - backend.started_at < self._rapid_window
        backend.failure_streak = backend.failure_streak + 1 if rapid else 1
        if backend.failure_streak >= self._breaker_threshold:
            self._trip_breaker(backend, now)

    def _trip_breaker(self, backend: BackendProcess, now: float) -> None:
        """Open (or re-open) a backend's breaker, doubling the backoff
        per consecutive open up to the ceiling."""
        backoff = min(
            self._breaker_base * (2.0**backend.open_streak), self._breaker_max
        )
        backend.breaker_state = BREAKER_OPEN
        backend.breaker_opens += 1
        backend.open_streak += 1
        backend.retry_at = now + backoff

    def _close_breaker(self, backend: BackendProcess) -> None:
        """A backend survived the rapid window: full reset."""
        backend.breaker_state = BREAKER_CLOSED
        backend.failure_streak = 0
        backend.open_streak = 0

    async def _respawn(self, backend: BackendProcess) -> bool:
        """One respawn attempt; ``False`` means the process never even
        reached its listening line (still dead — the caller decides
        whether the breaker should take over).  While a backend is
        down its jobs answer 503 + Retry-After."""
        self.respawns += 1
        try:
            await backend.start()
        except (RuntimeError, asyncio.TimeoutError, OSError):
            return False
        return True

    # ------------------------------------------------------------------
    # Backend HTTP client (stdlib streams; one request per connection)
    # ------------------------------------------------------------------
    async def _backend_open(
        self,
        backend: BackendProcess,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = 60.0,
    ) -> tuple[int, dict[str, str], asyncio.StreamReader, asyncio.StreamWriter]:
        """Send one request; returns (status, headers, reader, writer)
        with the body still unread — callers either slurp or stream it."""
        if not backend.alive:
            raise WireError(
                f"shard {backend.index} is restarting",
                status=503,
                headers={"Retry-After": "1"},
            )
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(backend.host, backend.port), timeout
            )
        except (OSError, asyncio.TimeoutError):
            raise WireError(
                f"shard {backend.index} is not accepting connections",
                status=503,
                headers={"Retry-After": "1"},
            ) from None
        try:
            request = (
                f"{method} {path} HTTP/1.1\r\n"
                f"Host: {backend.host}:{backend.port}\r\n"
                "Connection: close\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1") + body
            writer.write(request)
            await writer.drain()
            status_line = await asyncio.wait_for(reader.readline(), timeout)
            parts = status_line.decode("latin-1").split(None, 2)
            if len(parts) < 2 or not parts[1].isdigit():
                raise WireError(
                    f"shard {backend.index} answered a malformed status line",
                    status=502,
                )
            status = int(parts[1])
            headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout)
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            return status, headers, reader, writer
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            writer.close()
            raise WireError(
                f"shard {backend.index} dropped the connection",
                status=502,
            ) from None
        except BaseException:
            writer.close()
            raise

    async def _backend_request(
        self,
        backend: BackendProcess,
        method: str,
        path: str,
        body: bytes = b"",
        timeout: float = 60.0,
    ) -> tuple[int, dict[str, str], bytes]:
        status, headers, reader, writer = await self._backend_open(
            backend, method, path, body, timeout
        )
        try:
            length = headers.get("content-length")
            if length is not None and length.isdigit():
                payload = await asyncio.wait_for(
                    reader.readexactly(int(length)), timeout
                )
            else:  # Connection: close framing — read to EOF
                payload = await asyncio.wait_for(reader.read(), timeout)
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.TimeoutError):
            raise WireError(
                f"shard {backend.index} truncated its response", status=502
            ) from None
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return status, headers, payload

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
        segments = [part for part in path.split("/") if part]
        # /healthz stays probe-able without credentials, mirroring the
        # backends' own contract.
        if segments != ["healthz"]:
            self._check_auth(headers or {})
        if segments == ["healthz"]:
            self._require(method, "GET")
            alive = sum(1 for backend in self.backends if backend.alive)
            self._write_response(
                writer,
                200,
                encode_json(
                    {
                        "status": "ok" if alive == len(self.backends) else "degraded",
                        "backends": {"alive": alive, "total": len(self.backends)},
                    }
                ),
                keep_alive=keep_alive,
            )
        elif segments == ["metrics"]:
            self._require(method, "GET")
            await self._send_metrics(writer, keep_alive)
        elif segments == ["jobs"]:
            if method == "POST":
                await self._submit(writer, body, keep_alive)
            elif method == "GET":
                await self._list_jobs(writer, keep_alive)
            else:
                raise WireError("use GET or POST on /jobs", status=405)
        elif len(segments) in (2, 3) and segments[0] == "jobs":
            shard, local_id = self._locate(segments[1])
            backend = self.backends[shard]
            if len(segments) == 2:
                self._require(method, "GET")
                await self._proxy_json(
                    writer, backend, "GET", f"/jobs/{local_id}", shard, keep_alive
                )
            elif segments[2] == "result":
                self._require(method, "GET")
                target = f"/jobs/{local_id}/result" + self._query_suffix(query)
                await self._proxy_raw(writer, backend, "GET", target, keep_alive)
            elif segments[2] == "cancel":
                self._require(method, "POST")
                await self._proxy_json(
                    writer,
                    backend,
                    "POST",
                    f"/jobs/{local_id}/cancel",
                    shard,
                    keep_alive,
                )
            elif segments[2] == "events":
                self._require(method, "GET")
                await self._stream_events(writer, backend, local_id, shard)
                return True
            else:
                raise WireError(f"unknown job action {segments[2]!r}", status=404)
        else:
            raise WireError(f"no such endpoint: {path!r}", status=404)
        return False

    def _locate(self, job_id: str) -> tuple[int, str]:
        """Split a namespaced ``s<i>-job-NNNNNN`` id into (shard index,
        backend-local id)."""
        match = _SHARD_ID_RE.match(job_id)
        if match is None:
            raise WireError(f"no such job: {job_id!r}", status=404)
        shard = int(match.group(1))
        if shard >= len(self.backends):
            raise WireError(f"no such job: {job_id!r}", status=404)
        return shard, match.group(2)

    @staticmethod
    def _query_suffix(query: dict[str, list[str]]) -> str:
        if not query:
            return ""
        pairs = "&".join(
            f"{name}={value}" for name, values in query.items() for value in values
        )
        return f"?{pairs}"

    def _namespace(self, payload: dict, shard: int) -> dict:
        if isinstance(payload.get("id"), str):
            payload["id"] = f"s{shard}-{payload['id']}"
        return payload

    def _routing_key(self, request: JobRequest) -> str:
        """The consistent-hash key of one submission: its result-cache
        content hash when cacheable (so cache-equal submissions share a
        shard), else a hash of the request itself.  Resolution touches
        the filesystem, so callers run this on a worker thread."""
        try:
            items = [
                item
                for spec in request.circuits
                for item in resolve_source(spec).items()
            ]
        except InputSourceError as exc:
            raise WireError(str(exc)) from None
        key = submission_key(items, request.batch_config())
        if key is not None:
            return key
        canonical = json.dumps(
            dataclasses.asdict(request), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    async def _submit(
        self, writer: asyncio.StreamWriter, body: bytes, keep_alive: bool
    ) -> None:
        # Validate at the edge: a malformed submission never costs a
        # backend round trip (and errors mention no shard).
        request = parse_submission(body)
        loop = asyncio.get_running_loop()
        key = await loop.run_in_executor(None, self._routing_key, request)
        shard = self.ring.owner(key)
        backend = self.backends[shard]
        status, resp_headers, payload = await self._backend_request(
            backend, "POST", "/jobs", body
        )
        if status == 202:
            self.routed[shard] += 1
        self._forward_json(writer, status, resp_headers, payload, shard, keep_alive)

    async def _proxy_json(
        self,
        writer: asyncio.StreamWriter,
        backend: BackendProcess,
        method: str,
        path: str,
        shard: int,
        keep_alive: bool,
    ) -> None:
        status, resp_headers, payload = await self._backend_request(
            backend, method, path
        )
        self._forward_json(writer, status, resp_headers, payload, shard, keep_alive)

    def _forward_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        resp_headers: dict[str, str],
        payload: bytes,
        shard: int,
        keep_alive: bool,
    ) -> None:
        """Forward a JSON response, namespacing any job id in it (and
        preserving the backend's ``Retry-After`` on backpressure)."""
        extra = (
            {"Retry-After": resp_headers["retry-after"]}
            if "retry-after" in resp_headers
            else None
        )
        try:
            parsed = json.loads(payload)
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = None
        if isinstance(parsed, dict):
            payload = encode_json(self._namespace(parsed, shard))
        self._write_response(
            writer, status, payload, keep_alive=keep_alive, extra_headers=extra
        )

    async def _proxy_raw(
        self,
        writer: asyncio.StreamWriter,
        backend: BackendProcess,
        method: str,
        path: str,
        keep_alive: bool,
    ) -> None:
        """Verbatim passthrough — the result endpoint's byte-identity
        contract survives the dispatcher because nothing re-encodes."""
        status, resp_headers, payload = await self._backend_request(
            backend, method, path
        )
        self._write_response(
            writer,
            status,
            payload,
            content_type=resp_headers.get("content-type", "application/json"),
            keep_alive=keep_alive,
        )

    async def _list_jobs(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        jobs: list[dict] = []
        unavailable: list[int] = []
        for shard, backend in enumerate(self.backends):
            try:
                status, _, payload = await self._backend_request(
                    backend, "GET", "/jobs"
                )
                parsed = json.loads(payload) if status == 200 else None
            except (WireError, json.JSONDecodeError, UnicodeDecodeError):
                parsed = None
            if not isinstance(parsed, dict):
                unavailable.append(shard)
                continue
            jobs.extend(
                self._namespace(job, shard)
                for job in parsed.get("jobs", [])
                if isinstance(job, dict)
            )
        self._write_response(
            writer,
            200,
            encode_json({"jobs": jobs, "unavailable_shards": unavailable}),
            keep_alive=keep_alive,
        )

    async def _send_metrics(
        self, writer: asyncio.StreamWriter, keep_alive: bool
    ) -> None:
        shards: list[dict] = []
        cache = {"hits": 0, "misses": 0, "entries": 0}
        jobs_total: dict[str, int] = {}
        counters_total: dict[str, int] = {}
        breaker_states: dict[str, int] = {
            BREAKER_CLOSED: 0,
            BREAKER_OPEN: 0,
            BREAKER_HALF_OPEN: 0,
        }
        breaker_opens = 0
        for shard, backend in enumerate(self.backends):
            breaker_states[backend.breaker_state] += 1
            breaker_opens += backend.breaker_opens
            entry: dict = {
                "shard": shard,
                "alive": backend.alive,
                "port": backend.port,
                "restarts": max(0, backend.restarts),
                "routed": self.routed[shard],
                "breaker": {
                    "state": backend.breaker_state,
                    "failure_streak": backend.failure_streak,
                    "opens": backend.breaker_opens,
                },
                "metrics": None,
            }
            if backend.alive:
                try:
                    status, _, payload = await self._backend_request(
                        backend, "GET", "/metrics", timeout=10.0
                    )
                    if status == 200:
                        entry["metrics"] = json.loads(payload)
                except (WireError, json.JSONDecodeError, UnicodeDecodeError):
                    pass
            metrics = entry["metrics"]
            if isinstance(metrics, dict):
                shard_cache = metrics.get("result_cache") or {}
                for counter in cache:
                    cache[counter] += int(shard_cache.get(counter, 0))
                for state, count in (metrics.get("jobs") or {}).items():
                    jobs_total[state] = jobs_total.get(state, 0) + int(count)
                # Named monotonic counters (retries, timeouts, worker
                # deaths, quarantines) merge by plain addition — that is
                # the contract ServiceMetrics.counters() keeps.
                for name, count in (metrics.get("counters") or {}).items():
                    counters_total[name] = counters_total.get(name, 0) + int(count)
            shards.append(entry)
        lookups = cache["hits"] + cache["misses"]
        cache["hit_rate"] = (cache["hits"] / lookups) if lookups else 0.0
        self._write_response(
            writer,
            200,
            encode_json(
                {
                    "backends": len(self.backends),
                    "respawns": self.respawns,
                    "jobs": jobs_total,
                    "result_cache": cache,
                    "counters": dict(sorted(counters_total.items())),
                    "breakers": {"states": breaker_states, "opens": breaker_opens},
                    "shards": shards,
                }
            ),
            keep_alive=keep_alive,
        )

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        backend: BackendProcess,
        local_id: str,
        shard: int,
    ) -> None:
        """Proxy the NDJSON event stream, rewriting each line's ``job``
        field to the namespaced id.  Ends when the backend closes (job
        terminal) — or dies, which truncates the stream exactly like a
        single server crashing would."""
        status, resp_headers, reader, upstream = await self._backend_open(
            backend, "GET", f"/jobs/{local_id}/events"
        )
        try:
            if status != 200:
                length = resp_headers.get("content-length")
                if length is not None and length.isdigit():
                    payload = await asyncio.wait_for(
                        reader.readexactly(int(length)), 60.0
                    )
                else:  # Connection: close framing — read to EOF
                    payload = await asyncio.wait_for(reader.read(), 60.0)
                self._forward_json(writer, status, resp_headers, payload, shard, False)
                return
            writer.write(self._head(200, "application/x-ndjson", None))
            while True:
                # The event stream intentionally follows the job for as
                # long as it runs — there is no honest upper bound, and
                # a dead backend closes the socket (EOF) anyway.
                line = await reader.readline()  # bdslint: disable=RES004 -- unbounded by design: stream ends at backend EOF, which process death guarantees
                if not line:
                    return
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    event = json.loads(stripped)
                except json.JSONDecodeError:
                    continue
                if isinstance(event, dict) and isinstance(event.get("job"), str):
                    event["job"] = f"s{shard}-{event['job']}"
                writer.write(encode_event_line(event))
                await writer.drain()
        finally:
            upstream.close()
            try:
                await upstream.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _shard_until_stopped(
    dispatcher: ShardDispatcher, echo: Callable[[str], None]
) -> None:
    bound_host, bound_port = await dispatcher.start()
    echo(
        f"bdsmaj shard: listening on http://{bound_host}:{bound_port} "
        f"routing {len(dispatcher.backends)} backends "
        f"({', '.join(str(b.port) for b in dispatcher.backends)}); Ctrl-C to stop"
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        echo("bdsmaj shard: shutting down (terminating backends)")
        await dispatcher.shutdown()


def run_shard(
    host: str = "127.0.0.1",
    port: int = 8348,
    backends: int = 3,
    journal_dir: "str | os.PathLike | None" = None,
    backend_concurrency: int = 2,
    result_cache_size: int | None = None,
    max_pending: int | None = None,
    idle_timeout: float | None = DEFAULT_IDLE_TIMEOUT,
    auth_token: str | None = None,
    echo: Callable[[str], None] | None = None,
) -> int:
    """Blocking entry point behind ``bdsmaj shard`` (same auth-token
    environment fallback as :func:`~repro.serve.run_server`)."""
    if echo is None:
        echo = lambda message: print(message, file=sys.stderr, flush=True)  # noqa: E731
    if auth_token is None:
        auth_token = os.environ.get(AUTH_TOKEN_ENV) or None
    dispatcher = ShardDispatcher(
        backends=backends,
        host=host,
        port=port,
        journal_dir=journal_dir,
        backend_concurrency=backend_concurrency,
        result_cache_size=result_cache_size,
        max_pending=max_pending,
        idle_timeout=idle_timeout,
        auth_token=auth_token,
    )
    asyncio.run(_shard_until_stopped(dispatcher, echo))
    return 0
