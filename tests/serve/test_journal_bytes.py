"""The journal's bytes, pinned: one scripted history, written through
and then compacted, must reproduce two committed files exactly.

The history submits five jobs, then finishes one under a cache key,
fails one, cancels one, journals a replay ``attempt`` for one (left
unfinished) and quarantines one after its attempts, then forces a
``compact``.  ``golden_journal_write_through.ndjson`` is the file
before the rewrite and ``golden_journal_compacted.ndjson`` the file
after it.  Later builds must replay what earlier ones wrote, so
regenerate them only for a deliberate format change, with::

    PYTHONPATH=src python -m tests.serve.test_journal_bytes

A second property checks compaction against write-through on random
histories: both files must replay to the same jobs and id counter.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import InputItem
from repro.flows.batch import BatchReport, CircuitReport
from repro.serve import JobRequest, JobStore
from repro.serve.journal import JobJournal

HERE = Path(__file__).resolve().parent
WRITE_THROUGH = HERE / "golden_journal_write_through.ndjson"
COMPACTED = HERE / "golden_journal_compacted.ndjson"

CIRCUITS = ("alu2", "f51m", "vda", "misex3", "rd53")


def _report(benchmark: str) -> BatchReport:
    """A fixed report (hand-built, so no synthesis change moves it)."""
    return BatchReport(
        flow="bds-maj",
        circuits=[
            CircuitReport(
                benchmark=benchmark,
                flow="bds-maj",
                status="ok",
                node_counts={"and": 12, "maj": 3, "xor": 2},
                steps={"supernodes": 4, "majority": 3},
                cache={"hits": 5, "misses": 7, "evictions": 0, "hit_rate": 0.4167},
                verified=True,
            )
        ],
    )


def _open_store(path: Path) -> tuple[JobJournal, JobStore]:
    journal = JobJournal(path, fsync=False)
    journal.open()
    return journal, JobStore(journal=journal)


def _submit(store: JobStore, circuit: str):
    return store.create(JobRequest(circuits=(circuit,)), [InputItem(name=circuit)])


def scripted_history(directory: Path) -> tuple[bytes, bytes]:
    """Run the pinned history; returns (write-through, compacted) bytes."""
    path = directory / "jobs.journal"
    journal, store = _open_store(path)
    done, failed, cancelled, retried, poison = [_submit(store, key) for key in CIRCUITS]
    done.cache_key = "9f" * 32
    done.finish(_report("alu2"))
    failed.fail("boom: f51m")
    cancelled.mark_cancelled()
    retried.attempts = 2
    journal.record_attempt(retried)
    poison.attempts = 3
    journal.record_attempt(poison)
    poison.mark_quarantined("quarantined after 3 attempt(s): the job never finished")
    write_through = path.read_bytes()
    journal.compact(store.jobs(), len(CIRCUITS) + 1)
    journal.close()
    return write_through, path.read_bytes()


def test_write_through_and_compacted_bytes_match_golden(tmp_path):
    write_through, compacted = scripted_history(tmp_path)
    assert write_through == WRITE_THROUGH.read_bytes()
    assert compacted == COMPACTED.read_bytes()


#: One step of a random history: (operation, circuit index, job pick,
#: whether a finish has a cache key).
_steps = st.lists(
    st.tuples(
        st.sampled_from(["submit", "finish", "fail", "cancel", "attempt", "quarantine"]),
        st.integers(min_value=0, max_value=len(CIRCUITS) - 1),
        st.integers(min_value=0, max_value=63),
        st.booleans(),
    ),
    max_size=24,
)


def _replay(path: Path):
    journal = JobJournal(path, fsync=False)
    result = journal.open()
    journal.close()
    return result


@settings(max_examples=60, deadline=None)
@given(_steps)
def test_compacted_journal_replays_like_write_through(steps):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        path = directory / "jobs.journal"
        journal, store = _open_store(path)
        jobs = []
        for operation, circuit, pick, flag in steps:
            live = [job for job in jobs if not job.finished]
            if operation == "submit" or not live:
                jobs.append(_submit(store, CIRCUITS[circuit]))
                continue
            job = live[pick % len(live)]
            if operation == "finish":
                job.cache_key = f"key-{circuit}" if flag else None
                job.finish(_report(CIRCUITS[circuit]))
            elif operation == "fail":
                job.fail(f"error {pick}")
            elif operation == "cancel":
                job.mark_cancelled()
            elif operation == "attempt":
                job.attempts += 1
                journal.record_attempt(job)
            else:
                job.mark_quarantined(f"parked after {job.attempts} attempt(s)")
        write_through = directory / "write-through.journal"
        shutil.copyfile(path, write_through)
        journal.compact(store.jobs(), len(jobs) + 1)
        journal.close()

        expected = _replay(write_through)
        compacted = _replay(path)
        assert compacted.jobs == expected.jobs
        assert compacted.next_id == expected.next_id


def regenerate() -> None:
    """Rewrite both golden files from the scripted history."""
    with tempfile.TemporaryDirectory() as tmp:
        write_through, compacted = scripted_history(Path(tmp))
    WRITE_THROUGH.write_bytes(write_through)
    COMPACTED.write_bytes(compacted)
    print(f"wrote {WRITE_THROUGH} and {COMPACTED}")


if __name__ == "__main__":
    regenerate()
