"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _parse_range, build_parser, main
from repro.core.columnar import TraceColumns
from repro.experiments.common import ExperimentTable, format_series, format_table


class TestParseRange:
    def test_single(self):
        assert _parse_range("5") == [5]

    def test_two_part(self):
        assert _parse_range("2:6") == [2, 3, 4, 5]

    def test_three_part(self):
        assert _parse_range("2:10:3") == [2, 5, 8]

    def test_invalid(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_range("1:2:3:4")


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        sub = [
            "fig1",
            "fig2",
            "fig4",
            "fig5",
            "fig6",
            "theorem1",
            "bounds",
            "ablation-rate",
            "ablation-quantum",
            "ablation-discipline",
            "ablation-allocator",
        ]
        for cmd in sub:
            args = parser.parse_args([cmd])
            assert callable(args.func)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestResilienceFlagValidation:
    """``--jobs``/``--workers``/``--retries``/``--task-timeout`` are validated
    at the CLI boundary with friendly argparse errors."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--jobs", "-1"],
            ["all", "--jobs", "two"],
            ["fig5", "--workers", "-2"],
            ["fig6", "--workers", "1.5"],
            ["fig5", "--jobs", "0"],
            ["fig6", "--sets", "0"],
            ["fig6", "--bins", "-3"],
            ["all", "--retries", "-1"],
            ["fig5", "--retries", "many"],
            ["all", "--task-timeout", "0"],
            ["fig6", "--task-timeout", "-5"],
            ["all", "--task-timeout", "soon"],
            ["all", "--faults", "rate=7"],
            ["all", "--faults", "kinds=explode"],
        ],
    )
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(argv)
        assert info.value.code == 2
        assert "error: argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["all", "--jobs", "0"],  # 0 = all cores
            ["fig5", "--workers", "0", "--retries", "0"],
            ["fig6", "--workers", "3", "--task-timeout", "2.5"],
            ["all", "--resume", "--retries", "4"],
            ["all", "--no-resume"],
            ["all", "--faults", "seed=1:rate=0.5:kinds=crash,transient"],
        ],
    )
    def test_accepted(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.func)


class TestNoRecordObjects:
    """The artifact paths answer from trace columns: none of them may build
    record objects, however much simulated data they summarize."""

    @pytest.fixture(autouse=True)
    def refuse_record_builds(self, monkeypatch):
        def refuse(cols):
            raise AssertionError("an artifact path built record objects")

        monkeypatch.setattr(TraceColumns, "build_records", refuse)

    def test_giant(self, tmp_path, capsys):
        csv = tmp_path / "giant.csv"
        argv = ["giant", "--groups", "8", "--jobs-per-group", "32", "--quanta", "60"]
        assert main(argv + ["--csv", str(csv)]) == 0
        assert len(csv.read_text().splitlines()) == 8 * 32 + 1

    def test_fig6(self, tmp_path, capsys):
        csv = tmp_path / "fig6.csv"
        assert main(["fig6", "--sets", "4", "--csv", str(csv)]) == 0
        assert len(csv.read_text().splitlines()) == 4 + 1

    def test_fig5(self, tmp_path, capsys):
        assert main(["fig5", "--factors", "2:20:9", "--jobs", "2"]) == 0


class TestMainCommands:
    """End-to-end through main() with tiny parameters where supported."""

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "matches paper: True" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--parallelism", "6", "--quanta", "6"]) == 0
        assert "request d(q)" in capsys.readouterr().out

    def test_fig4(self, capsys):
        assert main(["fig4", "--parallelism", "6"]) == 0
        out = capsys.readouterr().out
        assert "(a) ABG" in out and "(b) A-Greedy" in out

    def test_fig5_tiny(self, capsys):
        assert main(["fig5", "--factors", "2:20:9", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "running-time ratio" in out

    def test_fig6_tiny(self, capsys):
        assert main(["fig6", "--sets", "4", "--bins", "2"]) == 0
        out = capsys.readouterr().out
        assert "light load" in out

    def test_theorem1(self, capsys):
        assert main(["theorem1"]) == 0
        assert "A-Greedy" in capsys.readouterr().out

    def test_bounds(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "theorem3-time" in out
        assert "no" not in [cell.strip() for cell in out.split()]  # all hold

    def test_ablation_discipline(self, capsys):
        assert main(["ablation-discipline"]) == 0
        assert "lifo" in capsys.readouterr().out


class TestFormatting:
    def test_format_table_alignment(self):
        table = ExperimentTable(
            title="t", columns=("a", "b"), rows=({"a": 1, "b": 2.5},)
        )
        text = format_table(table)
        assert "a" in text and "2.5" in text

    def test_format_table_bools_and_big_floats(self):
        table = ExperimentTable(
            title="t",
            columns=("ok", "x"),
            rows=({"ok": True, "x": 123456.0}, {"ok": False, "x": float("nan")}),
        )
        text = format_table(table)
        assert "yes" in text and "no" in text
        assert "1.235e+05" in text and "nan" in text

    def test_format_series_wraps(self):
        text = format_series("s", list(range(25)), per_line=10)
        assert text.count("\n") == 3
