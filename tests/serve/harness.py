"""Run one test scenario against a live :class:`SynthesisService`.

Every serve test starts a service on a kernel-picked port, runs its
scenario, and shuts the service down.  The shutdown is bounded: a
service whose shutdown hangs (say, a cancelled pool whose workers
ignore SIGTERM, leaving an executor thread blocked in ``join()``) fails
the test after :data:`SHUTDOWN_TIMEOUT` seconds instead of holding the
run.  Worker processes this process forked are then killed, so the
blocked thread returns and the interpreter can still exit.

Crash tests need a server they can SIGKILL: :func:`spawn_serve` starts
``bdsmaj serve`` as a subprocess instead.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import re
import subprocess
import sys
import threading
from pathlib import Path
from typing import IO

from repro.serve import SynthesisService

#: Seconds a service gets to shut down once its scenario is over.  A
#: clean shutdown of the test services takes well under a second.
SHUTDOWN_TIMEOUT = 20.0


async def with_service(test, **kwargs):
    """``await test(service, host, port)`` on a fresh service built with
    ``kwargs``; returns what the scenario returns."""
    service = SynthesisService(port=0, **kwargs)
    host, port = await service.start()
    try:
        return await test(service, host, port)
    finally:
        try:
            await asyncio.wait_for(service.shutdown(), SHUTDOWN_TIMEOUT)
        except asyncio.TimeoutError:
            stuck = multiprocessing.active_children()
            for child in stuck:
                child.kill()
            for child in stuck:
                child.join(5)
            raise AssertionError(
                f"service shutdown took over {SHUTDOWN_TIMEOUT:g} s; "
                f"killed {len(stuck)} worker process(es) it was waiting on"
            )


_LISTENING = re.compile(r"listening on http://([0-9.]+):(\d+)")


def spawn_serve(
    journal: Path,
    extra: "list[str] | None" = None,
    fault_plan: "str | None" = None,
    wait_listen: bool = True,
) -> "tuple[subprocess.Popen[bytes], int | None]":
    """Start ``bdsmaj serve --concurrency 1 --journal JOURNAL`` plus
    ``extra`` on an ephemeral port, with ``fault_plan`` armed (``None``
    runs clean).  Returns ``(process, port)`` once the listen line
    appears on stderr, or ``(process, None)`` at once when not
    ``wait_listen`` (stderr then goes nowhere).

    After the listen line a daemon thread drains the rest of stderr and
    closes the pipe at EOF, so the server never blocks on a full pipe
    and the pipe is closed once the process is gone."""
    src_root = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(src_root)
        + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    )
    env["BDSMAJ_AUTH_TOKEN"] = ""
    env.pop("BDSMAJ_FAULT_PLAN", None)
    if fault_plan is not None:
        env["BDSMAJ_FAULT_PLAN"] = fault_plan
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--port",
            "0",
            "--concurrency",
            "1",
            "--journal",
            str(journal),
            *(extra or []),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE if wait_listen else subprocess.DEVNULL,
    )
    if not wait_listen:
        return process, None
    assert process.stderr is not None
    while True:
        line = process.stderr.readline()
        if not line:
            process.stderr.close()
            raise RuntimeError(f"server exited with {process.wait()} before listening")
        match = _LISTENING.search(line.decode("utf-8", "replace"))
        if match:
            threading.Thread(target=_drain, args=(process.stderr,), daemon=True).start()
            return process, int(match.group(2))


def _drain(stream: IO[bytes]) -> None:
    with stream:
        while stream.read(65536):
            pass
