"""Hold a served job at its first pipeline stage, from the test itself.

A job with ``workers=1`` runs serially on the service's executor
thread, in the test's own process, so a fault plan installed here
reaches it.  A ``batch.stage`` stall keeps a fast job (alu2 synthesizes
in a small fraction of a second) from finishing before the test's next
request lands, which fixes the order instead of racing it.

Pool workers see the plan only when they are forked from this process.
The service starts its pools from an executor thread, through a
forkserver, so a test that holds a pooled job must switch
``repro.flows.batch._pool_context`` to the fork context.

The process that stalls writes its pid to a marker file before it
sleeps, and leaving the hold waits for that marker: a stall that never
fires (a forkserver-started worker, say) fails the test instead of
letting it pass without holding anything.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from collections.abc import AsyncIterator
from contextlib import asynccontextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.faults import FaultPlan, FaultRule, install_plan

#: Seconds the end of a hold waits for its stall to have started.
FIRE_TIMEOUT = 10.0


@dataclass
class StageHold(FaultPlan):
    """A fault plan whose stall leaves a marker naming the process that
    stalled, wherever that process runs."""

    #: Set by :func:`stalled_first_stage`, which owns its directory.
    marker: Path | None = None

    def _act(self, rule: FaultRule, site: str, key: str) -> None:
        # Written aside and renamed, so a reader never sees it half done.
        scratch = self.marker.with_suffix(f".{os.getpid()}")
        try:
            scratch.write_text(str(os.getpid()))
            os.replace(scratch, self.marker)
        except OSError:  # the hold is over and its directory gone
            pass
        super()._act(rule, site, key)

    def stalled_pid(self) -> int | None:
        """The pid of the process that stalled, or ``None`` if none has."""
        try:
            return int(self.marker.read_text())
        except FileNotFoundError:
            return None

    async def fired(self, timeout: float = FIRE_TIMEOUT) -> int:
        """Wait until the stall has started; returns the stalling pid."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while (pid := self.stalled_pid()) is None:
            if loop.time() > deadline:
                raise AssertionError(
                    f"the stall never fired within {timeout:g} s: no process "
                    "that saw the plan reached the held stage"
                )
            await asyncio.sleep(0.02)
        return pid


@asynccontextmanager
async def stalled_first_stage(circuit: str, seconds: float = 1.0) -> AsyncIterator[StageHold]:
    """Stall ``circuit``'s first pipeline stage once for ``seconds``.

    Yields the plan; leaving the block waits for the stall to have
    started (keeping the plan installed until then) and fails if it
    never does.  A block that raises skips that wait."""
    with tempfile.TemporaryDirectory(prefix="bdsmaj-hold-") as directory:
        hold = StageHold(
            rules=[
                FaultRule(site="batch.stage", action="stall", match=f"{circuit}:", seconds=seconds)
            ],
            marker=Path(directory) / "stalled",
        )
        previous = install_plan(hold)
        try:
            yield hold
            await hold.fired()
        finally:
            install_plan(previous)
