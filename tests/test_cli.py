"""Tests for repro.cli."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_locate2d_args(self):
        args = build_parser().parse_args(["locate2d", "0.5", "1.8"])
        assert args.x == 0.5 and args.y == 1.8

    def test_trials_defaults(self):
        args = build_parser().parse_args(["trials"])
        assert args.trials == 20
        assert not args.three_d

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_tags_command(self, capsys):
        assert main(["tags"]) == 0
        output = capsys.readouterr().out
        assert "ALN-9640" in output
        assert "Squiggle" in output

    def test_locate2d_command(self, capsys):
        assert main(["locate2d", "0.5", "1.8", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "error" in output
        assert "estimate" in output

    def test_trials_command(self, capsys):
        assert main(["trials", "--trials", "2", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "mean_cm" in output


class TestBenchEngine:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench-engine"])
        assert args.scales == ["medium"]
        assert "adaptive-harmonic" in args.engines
        assert args.rounds == 3

    def test_bench_engine_command(self, capsys, tmp_path):
        """A tiny run: the table prints and the JSON artifact is written."""
        json_path = tmp_path / "timings.json"
        assert main([
            "bench-engine",
            "--scales", "small",
            "--engines", "reference", "harmonic",
            "--rounds", "1",
            "--snapshots", "24",
            "--json", str(json_path),
        ]) == 0
        output = capsys.readouterr().out
        assert "scenario small" in output
        assert "harmonic" in output
        assert json_path.exists()

    def test_bench_engine_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            main([
                "bench-engine", "--scales", "small",
                "--engines", "warp-drive", "--rounds", "1",
                "--snapshots", "24",
            ])


class TestNewCommands:
    def test_plan_command(self, capsys):
        assert main(["plan", "--resolution", "1.0"]) == 0
        output = capsys.readouterr().out
        assert "predicted RMSE map" in output
        assert "coverage" in output

    def test_health_command(self, capsys):
        assert main(["health", "--seed", "4"]) == 0
        output = capsys.readouterr().out
        assert "rate_hz" in output
        assert "ok" in output
