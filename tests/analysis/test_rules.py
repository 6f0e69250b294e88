"""Fixture-snippet coverage: every rule's positive and negative cases.

Each test feeds a small source snippet to :func:`analyze_source` under
a module name inside (or outside) the rule's scope and asserts exactly
which findings fire.  These snippets are the rule pack's executable
specification.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis import REGISTRY, analyze_source


def rules_fired(source, module="repro.flows.batch"):
    result = analyze_source(textwrap.dedent(source), module=module)
    return [f.rule for f in result.findings]


def test_registry_ships_at_least_ten_rules():
    assert len(REGISTRY.rules()) >= 10


def test_every_rule_has_rationale_and_valid_severity():
    for rule in REGISTRY.rules():
        assert rule.rationale, rule.id
        assert rule.severity in ("error", "warning", "info"), rule.id


# ---------------------------------------------------------------------------
# DET001 — unsorted set iteration
# ---------------------------------------------------------------------------

DET001_POSITIVE = [
    "for item in {1, 2, 3}:\n    print(item)\n",
    "rows = [x for x in set(data)]\n",
    "names = list({'a', 'b'} | extra_set())\n",
    "line = ','.join({'a', 'b'})\n",
    """
    def emit(data):
        pending = set(data)
        for item in pending:
            print(item)
    """,
    """
    def emit(data):
        pending: set[str] = set()
        pending.update(data)
        rows = tuple(pending)
        return rows
    """,
]


@pytest.mark.parametrize("source", DET001_POSITIVE)
def test_det001_flags_order_sensitive_set_iteration(source):
    assert "DET001" in rules_fired(source)


DET001_NEGATIVE = [
    "for item in sorted({1, 2, 3}):\n    print(item)\n",
    "total = sum({1, 2, 3})\n",
    "count = len(set(data))\n",
    "if x in {1, 2, 3}:\n    pass\n",
    "union = set(a) | set(b)\n",
    "for item in [1, 2, 3]:\n    print(item)\n",
    """
    def emit(data):
        pending = set(data)
        pending = list(data)  # rebound to a non-set: inference drops it
        for item in pending:
            print(item)
    """,
]


@pytest.mark.parametrize("source", DET001_NEGATIVE)
def test_det001_allows_order_insensitive_consumption(source):
    assert "DET001" not in rules_fired(source)


def test_det001_scoped_to_report_affecting_modules():
    source = "for item in {1, 2}:\n    print(item)\n"
    assert "DET001" in rules_fired(source, module="repro.serve.wire")
    assert "DET001" in rules_fired(source, module="repro.network.partition")
    assert "DET001" not in rules_fired(source, module="repro.serve.server")
    assert "DET001" not in rules_fired(source, module="repro.experiments.cli")


@pytest.mark.parametrize(
    "module", ["repro.aig.opt", "repro.sop.algebraic", "repro.mapping.mapper"]
)
def test_det001_covers_the_abc_dc_and_mapping_modules(module):
    source = "for item in {1, 2}:\n    print(item)\n"
    assert "DET001" in rules_fired(source, module=module)


# ---------------------------------------------------------------------------
# DET002 — builtin hash()
# ---------------------------------------------------------------------------


def test_det002_flags_builtin_hash():
    assert "DET002" in rules_fired("key = hash(name)\n")


def test_det002_allows_hashlib_and_rebound_hash():
    assert "DET002" not in rules_fired(
        "import hashlib\nkey = hashlib.sha256(blob).hexdigest()\n"
    )
    assert "DET002" not in rules_fired(
        "from zlib import crc32 as hash\nkey = hash(blob)\n"
    )
    assert "DET002" not in rules_fired("key = obj.hash(name)\n")


# ---------------------------------------------------------------------------
# DET003 — wall-clock reads
# ---------------------------------------------------------------------------


def test_det003_flags_wall_clock_reads():
    assert "DET003" in rules_fired("import time\nstamp = time.time()\n")
    assert "DET003" in rules_fired(
        "from datetime import datetime\nstamp = datetime.now()\n"
    )
    assert "DET003" in rules_fired(
        "import time as clock\nstamp = clock.time_ns()\n"
    )


def test_det003_allows_monotonic_timers():
    assert "DET003" not in rules_fired(
        "import time\nelapsed = time.perf_counter()\n"
    )
    assert "DET003" not in rules_fired("import time\nt = time.monotonic()\n")


# ---------------------------------------------------------------------------
# ASY001/ASY002/ASY003 — blocking calls in async def
# ---------------------------------------------------------------------------


def test_asy001_flags_time_sleep_in_async_def():
    source = """
    import time
    async def handler():
        time.sleep(1)
    """
    assert "ASY001" in rules_fired(source, module="repro.serve.server")


def test_asy001_ignores_sync_and_out_of_scope():
    sync = "import time\ndef worker():\n    time.sleep(1)\n"
    assert "ASY001" not in rules_fired(sync, module="repro.serve.server")
    in_async = """
    import time
    async def handler():
        time.sleep(1)
    """
    assert "ASY001" not in rules_fired(in_async, module="repro.flows.batch")


def test_asy001_sync_def_nested_in_async_is_executor_material():
    source = """
    import time
    async def handler(loop):
        def blocking():
            time.sleep(1)
        await loop.run_in_executor(None, blocking)
    """
    assert "ASY001" not in rules_fired(source, module="repro.serve.server")


def test_asy002_flags_open_and_fsync_in_async_def():
    source = """
    import os
    async def handler(path, fd):
        with open(path) as fh:
            data = fh.read()
        os.fsync(fd)
    """
    fired = rules_fired(source, module="repro.serve.server")
    assert fired.count("ASY002") == 2


def test_asy002_allows_sync_open():
    source = "def loader(path):\n    return open(path).read()\n"
    assert "ASY002" not in rules_fired(source, module="repro.serve.cache")


def test_asy003_flags_subprocess_in_async_def():
    source = """
    import subprocess
    async def handler():
        subprocess.run(["ls"])
    """
    assert "ASY003" in rules_fired(source, module="repro.serve.server")


def test_asy003_allows_asyncio_subprocess():
    source = """
    import asyncio
    async def handler():
        proc = await asyncio.create_subprocess_exec("ls")
        await proc.wait()
    """
    assert "ASY003" not in rules_fired(source, module="repro.serve.server")


# ---------------------------------------------------------------------------
# ASY004 — blocking pool/executor teardown in async def
# ---------------------------------------------------------------------------


def test_asy004_flags_join_terminate_and_shutdown_wait():
    source = """
    async def teardown(pool, executor):
        pool.terminate()
        pool.join()
        executor.shutdown(wait=True)
    """
    fired = rules_fired(source, module="repro.serve.queue")
    assert fired.count("ASY004") == 3


def test_asy004_allows_awaited_and_str_join():
    source = """
    async def teardown(process, parts):
        await process.wait()
        label = ",".join(parts)
        executor.shutdown(wait=False)
    """
    assert "ASY004" not in rules_fired(source, module="repro.serve.queue")


# ---------------------------------------------------------------------------
# RES001 — raw SharedMemory attach by name
# ---------------------------------------------------------------------------


def test_res001_flags_raw_attach_everywhere():
    source = """
    from multiprocessing import shared_memory
    block = shared_memory.SharedMemory(name="bdsmaj-block")
    """
    assert "RES001" in rules_fired(source, module="repro.serve.server")
    assert "RES001" in rules_fired(source, module="repro.flows.batch")
    assert "RES001" in rules_fired(source, module="repro.bdd.manager")


def test_res001_allows_owning_create():
    source = """
    from multiprocessing.shared_memory import SharedMemory
    block = SharedMemory(name="bdsmaj-block", create=True, size=1024)
    """
    assert "RES001" not in rules_fired(source, module="repro.serve.server")


# ---------------------------------------------------------------------------
# RES002 — journal write without fsync
# ---------------------------------------------------------------------------


def test_res002_flags_write_without_fsync_in_journal():
    source = """
    def append(handle, line):
        handle.write(line)
        handle.flush()
    """
    assert "RES002" in rules_fired(source, module="repro.serve.journal")


def test_res002_allows_fsynced_writes_and_other_modules():
    durable = """
    import os
    def append(handle, line):
        handle.write(line)
        handle.flush()
        os.fsync(handle.fileno())
    """
    assert "RES002" not in rules_fired(durable, module="repro.serve.journal")
    volatile = "def append(handle, line):\n    handle.write(line)\n"
    assert "RES002" not in rules_fired(volatile, module="repro.serve.wire")


# ---------------------------------------------------------------------------
# RES003 — unguarded pool acquisition
# ---------------------------------------------------------------------------


def test_res003_flags_bare_pool_construction():
    source = """
    import multiprocessing
    def run():
        pool = multiprocessing.get_context("spawn").Pool(4)
        pool.map(work, items)
        pool.close()
    """
    assert "RES003" in rules_fired(source)


def test_res003_allows_with_try_and_acquire_then_try():
    guarded = """
    import multiprocessing
    def run():
        with multiprocessing.get_context("spawn").Pool(4) as pool:
            pool.map(work, items)
    """
    assert "RES003" not in rules_fired(guarded)
    acquire_then_try = """
    def run(pool_manager):
        pool = pool_manager.acquire(4)
        try:
            pool.map(work, items)
        finally:
            pool_manager.release(pool)
    """
    assert "RES003" not in rules_fired(acquire_then_try)
    lock_acquire = "def run(lock):\n    lock.acquire()\n    lock.release()\n"
    assert "RES003" not in rules_fired(lock_acquire)


# ---------------------------------------------------------------------------
# RES004 — awaited stream read without a wait_for bound
# ---------------------------------------------------------------------------

RES004_POSITIVE = [
    """
    async def handle(reader):
        line = await reader.readline()
        return line
    """,
    """
    async def slurp(reader, length):
        return await reader.readexactly(length)
    """,
    """
    async def drain(process):
        while await process.stderr.readline():
            pass
    """,
    """
    async def body(reader):
        data = await reader.read(1024)
        return data
    """,
]

RES004_NEGATIVE = [
    # wait_for-wrapped reads are bounded.
    """
    import asyncio
    async def handle(reader, timeout):
        line = await asyncio.wait_for(reader.readline(), timeout)
        return line
    """,
    """
    import asyncio
    async def slurp(reader, length):
        return await asyncio.wait_for(reader.readexactly(length), 60.0)
    """,
    # Synchronous file reads never await anything.
    """
    def load(path):
        with open(path, "rb") as stream:
            return stream.read()
    """,
]


@pytest.mark.parametrize("source", RES004_POSITIVE)
def test_res004_flags_unbounded_awaited_reads(source):
    assert "RES004" in rules_fired(source, module="repro.serve.server")


@pytest.mark.parametrize("source", RES004_NEGATIVE)
def test_res004_allows_bounded_and_sync_reads(source):
    assert "RES004" not in rules_fired(source, module="repro.serve.server")


def test_res004_scoped_to_the_serving_layer():
    source = """
    async def handle(reader):
        return await reader.readline()
    """
    assert "RES004" not in rules_fired(source, module="repro.flows.batch")


def test_res004_suppression_needs_justification():
    justified = """
    async def follow(reader):
        while True:
            line = await reader.readline()  # bdslint: disable=RES004 -- stream ends at peer EOF by design
            if not line:
                return
    """
    result_rules = rules_fired(justified, module="repro.serve.server")
    assert "RES004" not in result_rules
    bare = """
    async def follow(reader):
        return await reader.readline()  # bdslint: disable=RES004
    """
    fired = rules_fired(bare, module="repro.serve.server")
    assert "RES004" in fired  # unjustified suppression is ignored...
    assert "SUP001" in fired  # ...and is itself a finding


# ---------------------------------------------------------------------------
# ENG001 — subtable surgery without cache flush
# ---------------------------------------------------------------------------


def test_eng001_flags_surgery_without_flush():
    source = """
    class Manager:
        def evict(self, level, key):
            del self._subtables[level][key]
    """
    assert "ENG001" in rules_fired(source, module="repro.bdd.manager")
    repoint = """
    class Manager:
        def swap(self, level, key, node):
            self._subtables[level][key] = node
    """
    assert "ENG001" in rules_fired(repoint, module="repro.bdd.manager")


def test_eng001_allows_flushed_surgery_and_appends():
    flushed = """
    class Manager:
        def evict(self, level, key):
            del self._subtables[level][key]
            self._cache.clear()
    """
    assert "ENG001" not in rules_fired(flushed, module="repro.bdd.manager")
    append_only = """
    class Manager:
        def add_level(self):
            self._subtables.append({})
    """
    assert "ENG001" not in rules_fired(append_only, module="repro.bdd.manager")


# ---------------------------------------------------------------------------
# ENG002 — refcount helpers outside the manager
# ---------------------------------------------------------------------------


def test_eng002_flags_foreign_refcount_calls():
    source = "def rebuild(mgr, level, high, low):\n    return mgr._mk(level, high, low)\n"
    assert "ENG002" in rules_fired(source, module="repro.bdd.substitute")
    deref = "def drop(mgr, edge):\n    mgr._deref(edge)\n"
    assert "ENG002" in rules_fired(deref, module="repro.bdd.sift")


def test_eng002_exempts_manager_and_self_calls():
    source = "def rebuild(mgr, level, high, low):\n    return mgr._mk(level, high, low)\n"
    assert "ENG002" not in rules_fired(source, module="repro.bdd.manager")
    self_call = """
    class Manager:
        def mk_public(self, level, high, low):
            return self._mk(level, high, low)
    """
    assert "ENG002" not in rules_fired(self_call, module="repro.bdd.sift")


# ---------------------------------------------------------------------------
# PARSE001 — unparseable source
# ---------------------------------------------------------------------------


def test_parse001_reports_syntax_errors():
    result = analyze_source("def broken(:\n", module="repro.flows.batch")
    assert [f.rule for f in result.findings] == ["PARSE001"]
    assert result.findings[0].severity == "error"
