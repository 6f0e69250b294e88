"""Tests for the parallel batch-synthesis service."""

from __future__ import annotations

import json
import time

import pytest

from repro.flows import (
    BatchCancelled,
    BatchConfig,
    BatchReport,
    CircuitReport,
    run_batch,
)
from repro.flows import batch as batch_module

SMALL = ["alu2", "f51m"]


class TestConfig:
    def test_rejects_unknown_flow(self):
        with pytest.raises(ValueError):
            BatchConfig(flow="not-a-flow")

    def test_accepts_every_registered_flow(self):
        for flow in ("bds-maj", "bds-pga", "abc", "dc"):
            assert BatchConfig(flow=flow).flow == flow

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            BatchConfig(workers=0)


class TestDeterminism:
    @pytest.fixture(scope="class")
    def serial_report(self):
        return run_batch(SMALL, BatchConfig(workers=1))

    @pytest.fixture(scope="class")
    def parallel_report(self):
        return run_batch(SMALL, BatchConfig(workers=4))

    def test_json_byte_identical_across_worker_counts(
        self, serial_report, parallel_report
    ):
        assert serial_report.to_json() == parallel_report.to_json()

    def test_csv_byte_identical_across_worker_counts(
        self, serial_report, parallel_report
    ):
        assert serial_report.to_csv() == parallel_report.to_csv()

    def test_report_preserves_input_order(self, parallel_report):
        assert [c.benchmark for c in parallel_report.circuits] == SMALL

    def test_cache_counters_populated(self, serial_report):
        for circuit in serial_report.circuits:
            assert circuit.cache["hits"] > 0
            assert circuit.cache["misses"] > 0
            assert 0.0 < circuit.cache["hit_rate"] < 1.0

    def test_timing_collected_but_not_serialized(self, serial_report):
        assert serial_report.total_seconds > 0.0
        assert serial_report.elapsed_seconds > 0.0
        default_payload = json.loads(serial_report.to_json())
        assert "seconds" not in default_payload["circuits"][0]
        assert "elapsed_seconds" not in default_payload
        timed_payload = json.loads(serial_report.to_json(include_timing=True))
        assert "seconds" in timed_payload["circuits"][0]
        # Serial run: summed synthesis time cannot exceed true elapsed.
        assert timed_payload["total_seconds"] <= timed_payload["elapsed_seconds"]


class TestFailureIsolation:
    def test_unknown_benchmark_does_not_abort_batch(self):
        report = run_batch(["alu2", "definitely-not-a-circuit", "f51m"])
        assert [c.status for c in report.circuits] == ["ok", "error", "ok"]
        failed = report.circuits[1]
        assert failed.error is not None and "definitely-not-a-circuit" in failed.error
        summary = report.summary()
        assert summary["ok"] == 2 and summary["failed"] == 1

    def test_raising_circuit_is_isolated(self, monkeypatch):
        real_build = batch_module.build_benchmark

        def exploding_build(key):
            if key == "f51m":
                raise RuntimeError("synthetic failure")
            return real_build(key)

        monkeypatch.setattr(batch_module, "build_benchmark", exploding_build)
        report = run_batch(["f51m", "alu2"], BatchConfig(workers=1))
        assert [c.status for c in report.circuits] == ["error", "ok"]
        assert "synthetic failure" in report.circuits[0].error

    def test_failed_rows_survive_serialization(self):
        report = BatchReport(
            flow="bds-maj",
            circuits=[
                CircuitReport(
                    benchmark="x", flow="bds-maj", status="error", error="Boom: nope"
                )
            ],
        )
        assert "Boom: nope" in report.to_json()
        assert "Boom: nope" in report.to_csv()


class TestTable2Row:
    """A mapped batch records the Table II row; a report carries it
    through serialization only when it is set."""

    @pytest.fixture(scope="class")
    def mapped_report(self):
        return run_batch(["f51m", "alu2"], BatchConfig(flow="abc", mapped=True, verify=True))

    def test_row_matches_the_full_pipeline(self, mapped_report):
        from repro.api import get_pipeline
        from repro.benchgen import build_benchmark

        for circuit in mapped_report.circuits:
            assert circuit.ok and circuit.verified is True
            expected = get_pipeline("abc").run(build_benchmark(circuit.benchmark)).table2_row()
            assert circuit.table2_row == expected

    def test_row_round_trips_through_payload(self, mapped_report):
        circuit = mapped_report.circuits[0]
        rebuilt = CircuitReport.from_payload(json.loads(json.dumps(circuit.to_payload())))
        assert rebuilt.table2_row == circuit.table2_row
        assert rebuilt.to_payload() == circuit.to_payload()
        text = mapped_report.to_json()
        assert BatchReport.from_payload(json.loads(text)).to_json() == text

    def test_unmapped_rows_serialize_without_it(self):
        report = run_batch(["f51m"], BatchConfig(flow="abc"))
        assert report.circuits[0].table2_row is None
        assert "table2_row" not in report.circuits[0].to_payload()
        assert "table2_row" not in report.to_csv()


class TestReportContent:
    @pytest.fixture(scope="class")
    def report(self):
        return run_batch(["f51m"], BatchConfig(verify=True))

    def test_verification_recorded(self, report):
        assert report.circuits[0].verified is True

    def test_supernodes_are_sifted(self, report):
        assert report.circuits[0].steps["sifted"] > 0

    def test_node_counts_match_table1_shape(self, report):
        counts = report.circuits[0].node_counts
        assert set(counts) == {"and", "or", "xor", "xnor", "maj"}
        assert report.circuits[0].total_nodes == sum(counts.values())

    def test_csv_has_header_and_rows(self, report):
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("benchmark,flow,status,")
        assert len(lines) == 2
        assert lines[1].startswith("f51m,bds-maj,ok,")

    def test_json_schema_tag(self, report):
        payload = json.loads(report.to_json())
        assert payload["schema"] == batch_module.REPORT_SCHEMA
        assert payload["summary"]["circuits"] == 1


class TestFileInputs:
    """Batches over BLIF files via the pluggable input layer."""

    @pytest.fixture(scope="class")
    def blif_dir(self, tmp_path_factory):
        from repro.benchgen import build_benchmark
        from repro.network import to_blif

        directory = tmp_path_factory.mktemp("blifs")
        for key in ("f51m", "alu2"):
            (directory / f"{key}.blif").write_text(to_blif(build_benchmark(key)))
        return directory

    def test_glob_source_batch_deterministic_across_workers(self, blif_dir):
        from repro.api import BlifGlobSource

        source = BlifGlobSource(str(blif_dir / "*.blif"))
        serial = run_batch(source, BatchConfig(workers=1))
        parallel = run_batch(source, BatchConfig(workers=4))
        assert serial.to_json() == parallel.to_json()
        # Sorted glob order, not creation order.
        assert [c.benchmark for c in serial.circuits] == ["alu2", "f51m"]
        assert all(c.ok for c in serial.circuits)

    def test_file_and_registry_rows_agree(self, blif_dir):
        from repro.api import BlifFileSource

        via_file = run_batch(
            BlifFileSource(str(blif_dir / "f51m.blif")), BatchConfig()
        ).circuits[0]
        via_registry = run_batch(["f51m"], BatchConfig()).circuits[0]
        assert via_file.node_counts == via_registry.node_counts
        assert via_file.cache == via_registry.cache
        assert via_file.steps == via_registry.steps

    def test_mixed_items_and_keys(self, blif_dir):
        from repro.api import InputItem

        items = [
            "alu2",
            InputItem(name="f51m", kind="blif", path=str(blif_dir / "f51m.blif")),
        ]
        report = run_batch(items, BatchConfig())
        assert [c.benchmark for c in report.circuits] == ["alu2", "f51m"]
        assert all(c.ok for c in report.circuits)

    def test_unreadable_file_is_isolated(self, blif_dir):
        from repro.api import InputItem

        items = [
            InputItem(name="ghost", kind="blif", path=str(blif_dir / "ghost.blif")),
            "f51m",
        ]
        report = run_batch(items, BatchConfig())
        assert [c.status for c in report.circuits] == ["error", "ok"]
        assert "ghost" in (report.circuits[0].error or "")


class TestNonBddFlows:
    """The pipeline registry lets the batch service run abc/dc too."""

    @pytest.mark.parametrize("flow", ["abc", "dc"])
    def test_flow_runs_and_verifies(self, flow):
        report = run_batch(["f51m"], BatchConfig(flow=flow, verify=True))
        circuit = report.circuits[0]
        assert circuit.ok
        assert circuit.verified is True
        # Non-BDS flows do not define Table-I counts or trace steps.
        assert circuit.node_counts == {}
        assert circuit.steps == {}

    def test_deterministic_across_workers(self):
        keys = ["alu2", "f51m"]
        serial = run_batch(keys, BatchConfig(flow="dc", workers=1))
        parallel = run_batch(keys, BatchConfig(flow="dc", workers=4))
        assert serial.to_json() == parallel.to_json()


class TestCli:
    def test_batch_subcommand_writes_report(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        out = tmp_path / "report.json"
        assert (
            cli_main(
                ["batch", "--benchmarks", "f51m", "--workers", "1", "--output", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["circuits"][0]["benchmark"] == "f51m"

    def test_batch_csv_to_stdout(self, capsys):
        from repro.experiments.cli import main as cli_main

        assert cli_main(["batch", "--benchmarks", "f51m", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("benchmark,flow,status,")

    def test_batch_files_flag(self, tmp_path, capsys):
        from repro.benchgen import build_benchmark
        from repro.experiments.cli import main as cli_main
        from repro.network import to_blif

        (tmp_path / "f51m.blif").write_text(to_blif(build_benchmark("f51m")))
        out = tmp_path / "report.json"
        assert (
            cli_main(
                ["batch", "--files", str(tmp_path / "*.blif"), "--output", str(out)]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert [c["benchmark"] for c in payload["circuits"]] == ["f51m"]
        assert payload["summary"]["failed"] == 0

    def test_batch_files_empty_glob_is_clear_error(self, tmp_path):
        from repro.experiments.cli import main as cli_main

        with pytest.raises(SystemExit, match="matched no BLIF files"):
            cli_main(["batch", "--files", str(tmp_path / "*.blif")])

    def test_batch_files_combined_with_benchmarks(self, tmp_path, capsys):
        from repro.benchgen import build_benchmark
        from repro.experiments.cli import main as cli_main
        from repro.network import to_blif

        (tmp_path / "f51m.blif").write_text(to_blif(build_benchmark("f51m")))
        out = tmp_path / "report.json"
        assert (
            cli_main(
                [
                    "batch",
                    "--benchmarks",
                    "alu2",
                    "--files",
                    str(tmp_path / "*.blif"),
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert [c["benchmark"] for c in payload["circuits"]] == ["alu2", "f51m"]

    def test_batch_files_with_category_keeps_registry_rows(self, tmp_path):
        """An explicit --category is a registry request even when the
        batch also pulls in globbed files."""
        from repro.benchgen import build_benchmark
        from repro.benchgen.registry import benchmark_keys
        from repro.experiments.cli import main as cli_main
        from repro.network import to_blif

        (tmp_path / "zz_extra.blif").write_text(to_blif(build_benchmark("f51m")))
        out = tmp_path / "report.json"
        assert (
            cli_main(
                [
                    "batch",
                    "--category",
                    "mcnc",
                    "--files",
                    str(tmp_path / "*.blif"),
                    "--output",
                    str(out),
                ]
            )
            == 0
        )
        payload = json.loads(out.read_text())
        names = [c["benchmark"] for c in payload["circuits"]]
        assert names == [*benchmark_keys("mcnc"), "zz_extra"]


class TestEmptyBatch:
    """A source resolving to zero items is a valid (vacuous) batch."""

    @pytest.mark.parametrize("workers", [1, 4])
    def test_empty_input_returns_empty_report(self, workers):
        report = run_batch([], BatchConfig(workers=workers))
        assert report.circuits == []
        assert report.flow == "bds-maj"

    def test_empty_report_serializes(self):
        report = run_batch([], BatchConfig(workers=8))
        payload = json.loads(report.to_json())
        assert payload["circuits"] == []
        assert payload["summary"]["circuits"] == 0
        assert payload["summary"]["ok"] == 0
        assert payload["summary"]["cache_hit_rate"] == 0.0
        lines = report.to_csv().splitlines()
        assert len(lines) == 1  # header only
        assert lines[0].startswith("benchmark,flow,status,")

    def test_empty_registry_source(self):
        from repro.api import RegistrySource

        report = run_batch(RegistrySource([]), BatchConfig(workers=4))
        assert report.circuits == []


class TestCancellation:
    def test_serial_cancel_before_first_circuit(self):
        with pytest.raises(BatchCancelled):
            run_batch(["f51m", "alu2"], BatchConfig(), cancel=lambda: True)

    def test_serial_cancel_between_circuits(self):
        seen: list[str] = []
        with pytest.raises(BatchCancelled, match="after 1 of 2"):
            run_batch(
                ["f51m", "alu2"],
                BatchConfig(),
                progress=seen.append,
                cancel=lambda: len(seen) >= 1,
            )
        assert len(seen) == 1  # alu2 never started

    def test_serial_cancel_mid_circuit_between_stages(self):
        """A serial batch polls the hook before every pipeline stage,
        so a single-circuit job can still be cancelled mid-flight."""
        stages_seen: list[str] = []

        def stage_progress(_benchmark, event):
            if event.kind == "stage_end":
                stages_seen.append(event.stage)

        with pytest.raises(BatchCancelled, match="while synthesizing 'f51m'"):
            run_batch(
                ["f51m"],
                BatchConfig(),
                cancel=lambda: len(stages_seen) >= 2,
                stage_progress=stage_progress,
            )
        # It stopped partway through the pipeline, not after the circuit.
        assert len(stages_seen) == 2

    def test_parallel_cancel_reaps_pool(self):
        with pytest.raises(BatchCancelled):
            run_batch(
                ["f51m", "alu2", "vda"],
                BatchConfig(workers=2),
                cancel=lambda: True,
            )

    def test_no_cancel_hook_is_unchanged(self):
        report = run_batch(["f51m"], BatchConfig(), cancel=None)
        assert report.circuits[0].ok


class TestPoolLifecycle:
    def test_clean_exit_closes_pool(self):
        from repro.flows import batch_pool

        with batch_pool(2) as pool:
            assert pool.map(len, (["a"], ["b", "c"])) == [1, 2]
        with pytest.raises(ValueError):
            pool.apply(len, (["d"],))  # closed and joined

    def test_keyboard_interrupt_terminates_pool(self):
        """Ctrl-C mid-batch must reap the workers before propagating."""
        from repro.flows import batch_pool

        with pytest.raises(KeyboardInterrupt):
            with batch_pool(2) as pool:
                raise KeyboardInterrupt
        with pytest.raises(ValueError):
            pool.apply(len, (["d"],))  # terminated and joined

    def test_cancellation_terminates_pool(self):
        from repro.flows import batch_pool

        with pytest.raises(BatchCancelled):
            with batch_pool(2) as pool:
                raise BatchCancelled("stop")
        with pytest.raises(ValueError):
            pool.apply(len, (["d"],))

    def test_landing_result_wakes_the_dispatcher(self, monkeypatch):
        """A pooled batch wakes when a result lands, not on its poll
        tick: with the tick stretched to 30 s it still returns at once."""
        monkeypatch.setattr(batch_module, "_CANCEL_POLL_SECONDS", 30.0)
        started = time.monotonic()
        report = run_batch(SMALL, BatchConfig(workers=2))
        assert time.monotonic() - started < 10.0
        assert [circuit.ok for circuit in report.circuits] == [True, True]


class TestStageProgress:
    def test_serial_batch_streams_stage_events(self):
        events: list[tuple[str, object]] = []
        run_batch(
            ["f51m"],
            BatchConfig(),
            stage_progress=lambda benchmark, event: events.append((benchmark, event)),
        )
        assert events and all(benchmark == "f51m" for benchmark, _ in events)
        kinds = [event.kind for _, event in events]
        assert kinds.count("stage_start") == kinds.count("stage_end")
        starts = [event.stage for _, event in events if event.kind == "stage_start"]
        assert "decompose" in starts
        ends = [event for _, event in events if event.kind == "stage_end"]
        assert all(event.seconds is not None for event in ends)

    def test_stage_events_cover_the_optimize_prefix(self):
        from repro.api import get_pipeline

        streamed: list[object] = []
        run_batch(
            ["f51m"],
            BatchConfig(),
            stage_progress=lambda _benchmark, event: streamed.append(event),
        )
        stage_names = get_pipeline("bds-maj").optimize_prefix().stage_names()
        expected = sorted(
            (kind, name)
            for name in stage_names
            for kind in ("stage_start", "stage_end")
        )
        assert sorted((e.kind, e.stage) for e in streamed) == expected

