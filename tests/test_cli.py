"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figure12_args(self):
        args = build_parser().parse_args(
            ["figure12", "--ta", "64", "--designs", "SAM-en"]
        )
        assert args.ta == 64 and args.designs == ["SAM-en"]

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "SELECT f1 FROM Ta"])
        assert args.scheme == "SAM-en" and not args.baseline

    @pytest.mark.parametrize("command", [
        ["kernels"],
        ["query", "SELECT f1 FROM Ta"],
        ["explain", "SELECT f1 FROM Ta"],
    ], ids=["kernels", "query", "explain"])
    def test_gather_rejects_unsimulatable_factor(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--gather", "3"])


class TestCommands:
    def test_schemes(self, capsys):
        assert main(["schemes"]) == 0
        out = capsys.readouterr().out
        assert "SAM-en" in out and "RC-NVM-wd" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "Reliability" in capsys.readouterr().out

    def test_figure14c(self, capsys):
        assert main(["figure14c"]) == 0
        assert "SAM-sub" in capsys.readouterr().out

    def test_reliability(self, capsys):
        assert main(["reliability", "--trials", "20"]) == 0
        out = capsys.readouterr().out
        assert "GS-DRAM" in out and "False" in out

    def test_query_runs(self, capsys):
        code = main(
            [
                "query",
                "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--scheme", "SAM-en", "--baseline",
                "--ta", "128", "--tb", "128",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out and "gathers" in out

    def test_figure12_small(self, capsys):
        code = main(
            [
                "figure12", "--ta", "64", "--tb", "64",
                "--designs", "SAM-en", "--queries", "Q3",
            ]
        )
        assert code == 0
        assert "Gmean" in capsys.readouterr().out

    def test_figure15_unknown_panel(self, capsys):
        code = main(["figure15", "--ta", "64", "--panels", "z"])
        assert code == 2

    @pytest.mark.parametrize("pair,message", [
        pytest.param("tRCD=abc", "tRCD wants an integer, got 'abc'",
                     id="tRCD=abc"),
        pytest.param("tRCDX=5",
                     "unknown timing parameter 'tRCDX'; valid: tRCD, tRP",
                     id="tRCDX=5"),
        pytest.param("name=5",
                     "unknown timing parameter 'name'; valid: tRCD, tRP",
                     id="name=5"),
    ])
    def test_fuzz_rejects_bad_inject(self, pair, message):
        with pytest.raises(SystemExit, match=message):
            main(["check", "fuzz", "--cases", "2", "--inject", pair])

    def test_figure15_runs_only_chosen_panels(self, tmp_path, capsys):
        code = main(["figure15", "--ta", "64", "--panels", "a", "--json",
                     "--no-cache", "--artifacts", str(tmp_path)])
        assert code == 0
        assert list(json.loads(capsys.readouterr().out)["panels"]) == ["a"]
        manifest = json.loads((tmp_path / "figure15.sweep.json").read_text())
        # panel (a): five selectivities x (row store, column store and
        # the three Figure 15 designs)
        assert manifest["totals"]["points"] == 25


class TestJsonOutput:
    def test_schemes_json(self, capsys):
        assert main(["schemes", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert any(row["name"] == "SAM-en" for row in rows)

    def test_figure14c_json(self, capsys):
        assert main(["figure14c", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "figure14c"
        assert "SAM-en" in payload["designs"]

    def test_table1_json(self, capsys):
        assert main(["table1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "table1"

    def test_figure12_json(self, capsys):
        code = main(
            [
                "figure12", "--ta", "64", "--tb", "64",
                "--designs", "SAM-en", "--queries", "Q3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "figure12"
        assert payload["speedups"]["SAM-en"]["Q3"] > 0

    def test_query_json_is_manifest(self, capsys):
        code = main(
            [
                "query", "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--ta", "128", "--tb", "128", "--json",
            ]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "run"
        assert manifest["scheme"] == "SAM-en"
        assert manifest["metrics"]["dram.reads"] > 0
        assert manifest["spans"]["name"] == "run_query"

    def test_figure14c_artifacts(self, tmp_path, capsys):
        code = main(["figure14c", "--artifacts", str(tmp_path)])
        assert code == 0
        path = tmp_path / "figure14c.json"
        assert json.loads(path.read_text())["kind"] == "figure14c"
        # text output still printed alongside the artifact
        assert "SAM-sub" in capsys.readouterr().out

    def test_query_artifacts_and_trace(self, tmp_path, capsys):
        code = main(
            [
                "query", "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--ta", "128", "--tb", "128",
                "--artifacts", str(tmp_path), "--timeline",
            ]
        )
        assert code == 0
        assert (tmp_path / "run-SAM-en-cli.json").exists(), \
            "query manifest not written"
        traces = list(tmp_path.glob("run-*.timeline.jsonl"))
        assert traces, "command JSONL not written"
        assert "commands: " in capsys.readouterr().out

    def test_query_stats_and_profile(self, capsys):
        code = main(
            [
                "query", "SELECT SUM(f9) FROM Ta WHERE f10 > 7500",
                "--ta", "128", "--tb", "128", "--stats", "--profile",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "dram.reads" in out  # registry dump
        assert "flush_drain" in out  # span profile
