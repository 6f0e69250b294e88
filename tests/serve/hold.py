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
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import contextmanager

from repro.faults import FaultPlan, FaultRule, install_plan


@contextmanager
def stalled_first_stage(circuit: str, seconds: float = 1.0) -> Iterator[FaultPlan]:
    """Stall ``circuit``'s first pipeline stage once for ``seconds``;
    yields the plan so the test can assert that the stall fired."""
    plan = FaultPlan(
        rules=[
            FaultRule(site="batch.stage", action="stall", match=f"{circuit}:", seconds=seconds)
        ]
    )
    previous = install_plan(plan)
    try:
        yield plan
    finally:
        install_plan(previous)
