"""Tests for the experiment harnesses (tables, figures, CLI)."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.api import standard_stages
from repro.benchgen import BENCHMARKS
from repro.experiments import (
    FLOW_ORDER,
    PAPER_HEADLINES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    TOOLS,
    figure1,
    figure2,
    figure3,
    format_table1,
    format_table2,
    summarize_table1,
    summarize_table2,
)
from repro.experiments.cli import main as cli_main
from repro.flows import BatchConfig, BatchReport, CircuitReport, run_batch

SMALL = ["alu2", "f51m", "vda"]
HERE = Path(__file__).parent


def table_reports(flows, **config) -> list[BatchReport]:
    """One serial batch per flow over ``SMALL``, as the table commands run them."""
    return [run_batch(SMALL, BatchConfig(flow=flow, **config)) for flow in flows]


@pytest.fixture(scope="module")
def table1_reports():
    return table_reports(TOOLS, verify=True)


@pytest.fixture(scope="module")
def table2_reports():
    return table_reports(FLOW_ORDER, verify=True, mapped=True)


class TestPaperData:
    def test_covers_all_benchmarks(self):
        assert set(PAPER_TABLE1) == set(BENCHMARKS)
        assert set(PAPER_TABLE2) == set(BENCHMARKS)

    def test_row_totals_consistent(self):
        for rows in PAPER_TABLE1.values():
            for row in rows.values():
                assert row.and_ + row.or_ + row.xor + row.xnor + row.maj == row.total

    def test_paper_averages_match_headlines(self):
        """Sanity-check the transcription against the paper's abstract."""
        maj_mean = sum(r["bds-maj"].total for r in PAPER_TABLE1.values()) / 17
        pga_mean = sum(r["bds-pga"].total for r in PAPER_TABLE1.values()) / 17
        assert 1 - maj_mean / pga_mean == pytest.approx(
            PAPER_HEADLINES["table1_node_reduction"], abs=0.005
        )
        area_maj = sum(r["bds-maj"][0] for r in PAPER_TABLE2.values()) / 17
        area_abc = sum(r["abc"][0] for r in PAPER_TABLE2.values()) / 17
        assert 1 - area_maj / area_abc == pytest.approx(
            PAPER_HEADLINES["table2_area_vs_abc"], abs=0.005
        )

    def test_bds_pga_never_has_maj(self):
        for rows in PAPER_TABLE1.values():
            assert rows["bds-pga"].maj == 0


class TestTable1Harness:
    def test_entries_structure(self, table1_reports):
        assert [report.flow for report in table1_reports] == list(TOOLS)
        for report in table1_reports:
            assert [c.benchmark for c in report.circuits] == SMALL
            assert all(c.verified is True for c in report.circuits)

    def test_pga_has_no_maj(self, table1_reports):
        pga = dict(zip(TOOLS, table1_reports))["bds-pga"]
        for circuit in pga.circuits:
            assert circuit.node_counts["maj"] == 0

    def test_summary_fields(self, table1_reports):
        summary = summarize_table1(table1_reports)
        assert summary["benchmarks"] == len(SMALL)
        assert 0 <= summary["maj_fraction"] <= 1
        assert summary["node_reduction"] > 0

    def test_format_includes_paper_rows(self, table1_reports):
        text = format_table1(table1_reports)
        assert "TABLE I" in text
        assert "(paper)" in text
        assert "29.1%" in text

    def test_format_without_paper(self, table1_reports):
        text = format_table1(table1_reports, include_paper=False)
        assert "(paper)" not in text.split("\n---")[0].split("Average")[0]


class TestTable2Harness:
    def test_rows_structure(self, table2_reports):
        assert [report.flow for report in table2_reports] == list(FLOW_ORDER)
        for report in table2_reports:
            assert [c.benchmark for c in report.circuits] == SMALL
            for circuit in report.circuits:
                assert circuit.verified is True
                area, gates, delay = circuit.table2_row
                assert area > 0 and gates > 0 and delay > 0

    def test_summary_and_format(self, table2_reports):
        summary = summarize_table2(table2_reports)
        assert "area_vs_abc" in summary
        text = format_table2(table2_reports)
        assert "TABLE II" in text
        assert "CMOS 22nm" in text


def _mask_runtimes(text: str) -> str:
    """Blank Table I's measured seconds column and its runtime line."""
    lines = []
    for line in text.splitlines():
        if line.startswith("Runtime:"):
            line = "Runtime: <masked>"
        elif re.match(r"\S", line) and re.search(r" \d+\.\d$", line):
            line = line[:-6] + "     -"
        lines.append(line)
    return "\n".join(lines)


class TestPinnedTables:
    """The table bytes for three circuits, as the per-table loops printed
    them before both tables became ``run_batch`` reports.  Table II
    prints no runtime; Table I's seconds column and runtime line are
    masked (they are wall-clock).  Table I's op-cache hit-rate line
    fell from 13.9 % to 3.7 % when the majority search began to balance
    its triples on truth tables, to 2.1 % when its construction (β)
    and selection (ω) moved onto the tables too, and to 0.5 % when the
    simple-dominator scan began to build only the split the engine
    takes; no other byte moved."""

    def test_table2_bytes(self, table2_reports):
        golden = (HERE / "golden_table2_small.txt").read_text()
        assert format_table2(table2_reports) + "\n" == golden

    def test_table1_bytes_without_runtimes(self, table1_reports):
        golden = (HERE / "golden_table1_small.txt").read_text()
        assert _mask_runtimes(format_table1(table1_reports) + "\n") == _mask_runtimes(golden)

    def test_mask_hides_only_runtimes(self):
        golden = (HERE / "golden_table1_small.txt").read_text()
        masked = _mask_runtimes(golden)
        assert masked.count("<masked>") == 1
        assert masked.count("     -\n") == 2 * len(SMALL)
        assert "  (paper)          bds-maj     45    99     4    10    13    171    0.9" in masked

    def test_formatters_refuse_failed_rows(self, table1_reports):
        broken = CircuitReport(benchmark="f51m", flow="bds-pga", status="error", error="Boom")
        pga = BatchReport(
            flow="bds-pga",
            circuits=[table1_reports[1].circuits[0], broken, table1_reports[1].circuits[2]],
        )
        with pytest.raises(ValueError, match="f51m failed under bds-pga: Boom"):
            format_table1([table1_reports[0], pga])

    def test_table2_refuses_unmapped_reports(self, table1_reports, table2_reports):
        unmapped = [table1_reports[0], *table2_reports[1:]]
        with pytest.raises(ValueError, match="alu2 has no Table II row"):
            format_table2(unmapped)

    @pytest.mark.parametrize("summarize", [summarize_table1, summarize_table2])
    def test_summaries_refuse_reports_without_circuits(self, summarize):
        empty = [BatchReport(flow=flow, circuits=[]) for flow in FLOW_ORDER]
        with pytest.raises(ValueError, match="the reports hold no circuits"):
            summarize(empty)

    @pytest.mark.parametrize("summarize", [summarize_table1, summarize_table2])
    def test_summaries_refuse_a_missing_flow(self, summarize):
        with pytest.raises(ValueError, match="no report for bds-maj, bds-pga"):
            summarize([])


class TestFigures:
    def test_figure1(self):
        result = figure1()
        assert result.num_candidates == 1
        assert result.dominator_function == "a"
        assert "digraph" in result.dot

    def test_figure2_reaches_literal_triple(self):
        result = figure2()
        assert any("[1, 1, 1]" in step for step in result.steps)

    def test_figure3_trace(self):
        result = figure3("f51m")
        assert any("partitioning" in line for line in result.lines)


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "alu2" in out and "wallace16" in out

    def test_fig2(self, capsys):
        assert cli_main(["fig2"]) == 0
        assert "Maj(a, b, c)" in capsys.readouterr().out

    def test_table1_subset(self, capsys):
        assert cli_main(["table1", "--benchmarks", "f51m"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out

    def test_synth_benchmark(self, capsys, tmp_path):
        blif = tmp_path / "out.blif"
        assert cli_main(["synth", "f51m", "--flow", "bds-maj", "--blif-out", str(blif)]) == 0
        out = capsys.readouterr().out
        assert "area" in out
        assert blif.exists()

    def test_synth_blif_input(self, capsys, tmp_path):
        from repro.benchgen import ripple_carry_adder
        from repro.network import to_blif

        path = tmp_path / "adder.blif"
        path.write_text(to_blif(ripple_carry_adder(3)))
        assert cli_main(["synth", str(path), "--flow", "dc"]) == 0

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["table1", "--benchmarks", "nope"])

    @pytest.mark.parametrize("command", ["table1", "table2"])
    def test_empty_benchmark_list_is_a_usage_error(self, command):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([command, "--benchmarks", ","])
        assert "names no circuit" in str(excinfo.value.code)

    def test_quick_flag_is_gone(self, capsys):
        """Table II's ABC column is resyn2, the paper's baseline."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["table2", "--benchmarks", "alu2", "--quick"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --quick" in capsys.readouterr().err


def _break_alu2(monkeypatch):
    """Make the BDS flows complement one output of alu2's optimized
    network, as if the rewrite stage dropped an inverter."""
    original = standard_stages.RewriteTrees.run

    def dropping_an_inverter(self, ctx):
        ctx = original(self, ctx)
        if ctx.network.name == "alu2":
            optimized = ctx.optimized
            name = next(o for o in optimized.outputs if not optimized.is_input(o))
            node = optimized.node(name)
            optimized.replace_node(name, node.fanins, node.cover, not node.inverted)
        return ctx

    monkeypatch.setattr(standard_stages.RewriteTrees, "run", dropping_an_inverter)


class TestFailedCheckFailsTheCommand:
    """A counterexample is an error row, and every command that can
    verify exits non-zero naming the broken circuit."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--verify", "--benchmarks", "alu2,f51m"],
            ["table2", "--benchmarks", "alu2,f51m"],
            ["batch", "--verify", "--benchmarks", "alu2,f51m"],
        ],
    )
    def test_counterexample_fails_the_command(self, argv, monkeypatch, capsys):
        _break_alu2(monkeypatch)
        try:
            code = cli_main(argv)
            message = ""
        except SystemExit as exc:
            code, message = exc.code, str(exc.code)
        captured = capsys.readouterr()
        assert code not in (0, None)
        lines = (message + "\n" + captured.out + "\n" + captured.err).splitlines()
        failures = [line for line in lines if "counterexample" in line]
        assert failures and all("alu2" in line for line in failures)
        assert not any("f51m" in line for line in failures)
        assert "TABLE" not in captured.out

    def test_unverified_batch_still_succeeds(self, monkeypatch, capsys):
        _break_alu2(monkeypatch)
        assert cli_main(["batch", "--benchmarks", "alu2"]) == 0
        assert '"verified": null' in capsys.readouterr().out


class TestCliValidation:
    """Numeric options fail with a clean argparse usage error (exit
    code 2), never a traceback from deep inside the batch layer."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "--workers", "0"],
            ["batch", "--workers", "-3"],
            ["batch", "--workers", "two"],
            ["serve", "--concurrency", "0"],
            ["serve", "--port", "-1"],
            ["serve", "--port", "70000"],
        ],
    )
    def test_nonpositive_numeric_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert ">= 1" in err or "integer" in err or "0..65535" in err

    def test_reorder_flag_is_gone(self, capsys):
        """One sift per supernode is the only reordering: the batch
        command has no policy to choose."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["batch", "--benchmarks", "alu2", "--reorder", "once"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --reorder" in capsys.readouterr().err

    def test_batch_config_mirrors_the_guards(self):
        from repro.flows import BatchConfig

        with pytest.raises(ValueError):
            BatchConfig(workers=0)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["batch", "--benchmarks", "alu2", "--cache-capacity", "4096"], "--cache-capacity"),
            (["serve", "--cold-pools"], "--cold-pools"),
            (["serve", "--arena", "auto"], "--arena"),
        ],
    )
    def test_tuning_flags_are_gone(self, argv, flag, capsys):
        """The op-cache size belongs to the BDD package, serve always
        parks warm pools and verifies the way batch does: none of these
        is a command-line choice."""
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_serve_subcommand_exists(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--concurrency" in out and "--port" in out

    def test_journal_compact_bytes_help_states_the_default(self, capsys):
        from repro.serve import DEFAULT_COMPACT_BYTES

        with pytest.raises(SystemExit):
            cli_main(["serve", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert f"(default: {DEFAULT_COMPACT_BYTES / (1 << 20):g} MiB)" in out
