"""Tests for the experiment harnesses (tables, figures, CLI)."""

from __future__ import annotations

import pytest

from repro.benchgen import BENCHMARKS
from repro.experiments import (
    PAPER_HEADLINES,
    PAPER_TABLE1,
    PAPER_TABLE2,
    figure1,
    figure2,
    figure3,
    format_table1,
    format_table2,
    run_table1,
    run_table2,
    summarize_table1,
    summarize_table2,
)
from repro.experiments.cli import main as cli_main

SMALL = ["alu2", "f51m"]


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
    @pytest.fixture(scope="class")
    def entries(self):
        return run_table1(SMALL, verify=True)

    def test_entries_structure(self, entries):
        assert [e.key for e in entries] == SMALL
        for entry in entries:
            assert set(entry.counts) == {"bds-maj", "bds-pga"}
            assert entry.verified["bds-maj"] and entry.verified["bds-pga"]

    def test_pga_has_no_maj(self, entries):
        for entry in entries:
            assert entry.counts["bds-pga"]["maj"] == 0

    def test_summary_fields(self, entries):
        summary = summarize_table1(entries)
        assert summary["benchmarks"] == len(SMALL)
        assert 0 <= summary["maj_fraction"] <= 1
        assert summary["node_reduction"] > 0

    def test_format_includes_paper_rows(self, entries):
        text = format_table1(entries)
        assert "TABLE I" in text
        assert "(paper)" in text
        assert "29.1%" in text

    def test_format_without_paper(self, entries):
        text = format_table1(entries, include_paper=False)
        assert "(paper)" not in text.split("\n---")[0].split("Average")[0]


class TestTable2Harness:
    @pytest.fixture(scope="class")
    def entries(self):
        return run_table2(SMALL, verify=True)

    def test_rows_structure(self, entries):
        for entry in entries:
            assert set(entry.rows) == {"bds-maj", "bds-pga", "abc", "dc"}
            for area, gates, delay in entry.rows.values():
                assert area > 0 and gates > 0 and delay > 0

    def test_summary_and_format(self, entries):
        summary = summarize_table2(entries)
        assert "area_vs_abc" in summary
        text = format_table2(entries)
        assert "TABLE II" in text
        assert "CMOS 22nm" in text


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
