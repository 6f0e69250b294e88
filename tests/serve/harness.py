"""Run one test scenario against a live :class:`SynthesisService`.

Every serve test starts a service on a kernel-picked port, runs its
scenario, and shuts the service down.  The shutdown is bounded: a
service whose shutdown hangs (say, a cancelled pool whose workers
ignore SIGTERM, leaving an executor thread blocked in ``join()``) fails
the test after :data:`SHUTDOWN_TIMEOUT` seconds instead of holding the
run.  Worker processes this process forked are then killed, so the
blocked thread returns and the interpreter can still exit.
"""

from __future__ import annotations

import asyncio
import multiprocessing

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
