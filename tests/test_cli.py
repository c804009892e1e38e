"""Tests for repro.cli."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_analyze_flags(self):
        args = build_parser().parse_args(
            ["analyze", "--hidden", "4096", "--seq-len", "1024",
             "--tp", "8"]
        )
        assert args.hidden == 4096
        assert args.dp == 1  # default


#: A usage error in each subcommand's own arguments.
USAGE_ERRORS = {
    "analyze": ["analyze", "--hidden", "2048"],
    "experiment": ["experiment"],
    "check": ["check", "--configs", "many"],
    "search": ["search", "--hidden", "1024", "--seq-len", "0,x"],
    "zoo": ["zoo", "--format", "xml"],
    "forecast": ["forecast", "--start", "soon"],
    "cache": ["cache", "purge"],
    "plan": ["plan", "--devices", "8"],
}


def _parsed(parse, argv, capsys):
    """``(exit code, stdout, stderr)`` of a parse that exits."""
    with pytest.raises(SystemExit) as exit_info:
        parse(argv)
    out, err = capsys.readouterr()
    return exit_info.value.code, out, err


class TestPerCommandParser:
    """``main`` adds only the invoked subcommand's arguments; what it
    prints must be byte-identical to the full parser's output."""

    @pytest.mark.parametrize("argv", [
        ["--help"], [], ["bogus"], ["-h", "search"], ["zoo", "extra"],
        *([command, "--help"] for command in USAGE_ERRORS),
        *USAGE_ERRORS.values(),
    ], ids=lambda argv: " ".join(argv) or "no-args")
    def test_output_matches_full_parser(self, argv, capsys):
        full = _parsed(build_parser().parse_args, argv, capsys)
        assert _parsed(main, argv, capsys) == full
        assert full[0] in (0, 2)
        assert full[1] or full[2]

    def test_every_command_has_a_case(self):
        choices = build_parser()._subparsers._group_actions[0].choices
        assert list(choices) == list(USAGE_ERRORS)


class TestAnalyze:
    def test_prints_breakdown(self, capsys):
        code = main(["analyze", "--hidden", "2048", "--seq-len", "512",
                     "--tp", "4", "--dp", "2", "--layers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serialized comm" in out
        assert "critical path" in out

    def test_hardware_scaling_flags(self, capsys):
        base_code = main(["analyze", "--hidden", "2048", "--seq-len",
                          "512", "--tp", "4", "--layers", "2"])
        base = capsys.readouterr().out
        future_code = main(["analyze", "--hidden", "2048", "--seq-len",
                            "512", "--tp", "4", "--layers", "2",
                            "--compute-scale", "4"])
        future = capsys.readouterr().out
        assert base_code == future_code == 0

        def serialized_pct(text: str) -> float:
            line = next(l for l in text.splitlines()
                        if l.startswith("serialized comm"))
            return float(line.split("(")[1].rstrip("%)"))

        assert serialized_pct(future) > serialized_pct(base)

    def test_timeline_flag(self, capsys):
        code = main(["analyze", "--hidden", "2048", "--seq-len", "512",
                     "--tp", "4", "--dp", "2", "--layers", "2",
                     "--timeline"])
        out = capsys.readouterr().out
        assert code == 0
        assert "comm-async" in out
        assert "#" in out

    def test_hotspots_flag(self, capsys):
        code = main(["analyze", "--hidden", "2048", "--seq-len", "512",
                     "--tp", "4", "--layers", "2", "--hotspots", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "top 3 operators" in out

    def test_invalid_config_exits_nonzero(self, capsys):
        code = main(["analyze", "--hidden", "100", "--seq-len", "10",
                     "--tp", "7"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_device_rejected(self):
        with pytest.raises(SystemExit):
            main(["analyze", "--hidden", "1024", "--seq-len", "512",
                  "--device", "TPU"])


class TestExperiment:
    def test_single_experiment(self, capsys):
        assert main(["experiment", "table-2"]) == 0
        assert "BERT" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["experiment", "list"]) == 0
        out = capsys.readouterr().out
        assert "figure-10" in out
        assert "extension-zero" in out

    def test_unknown_id(self, capsys):
        assert main(["experiment", "figure-99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestExperimentFormats:
    def test_json_format(self, capsys):
        assert main(["experiment", "table-3", "--format", "json"]) == 0
        import json
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "table-3"

    def test_csv_format(self, capsys):
        assert main(["experiment", "table-3", "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("parameter / setup,")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["experiment", "table-2", "--format", "json",
                     "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "table-2" in target.read_text()


class TestPlan:
    def test_ranks_plans(self, capsys):
        code = main(["plan", "--hidden", "4096", "--seq-len", "1024",
                     "--layers", "8", "--batch", "4", "--devices", "16",
                     "--microbatches", "4", "--top", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "feasible plans" in out
        assert "TP=" in out

    def test_infeasible_budget(self, capsys):
        code = main(["plan", "--hidden", "65536", "--seq-len", "4096",
                     "--devices", "2"])
        assert code == 1
        assert "add devices" in capsys.readouterr().err

    def test_bad_world_size(self, capsys):
        code = main(["plan", "--hidden", "4096", "--seq-len", "1024",
                     "--devices", "24"])
        assert code == 2
        assert "power of two" in capsys.readouterr().err


class TestExperimentRuntime:
    def test_cache_dir_cold_then_warm_identical(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cold = tmp_path / "cold.txt"
        warm = tmp_path / "warm.txt"
        assert main(["experiment", "figure-10", "--cache-dir", str(cache),
                     "-o", str(cold)]) == 0
        assert main(["experiment", "figure-10", "--cache-dir", str(cache),
                     "-o", str(warm)]) == 0
        assert cold.read_text() == warm.read_text()
        assert list(cache.glob("*.json"))

    def test_meta_flag_appends_run_line(self, capsys):
        assert main(["experiment", "table-3", "--meta"]) == 0
        out = capsys.readouterr().out
        assert "run:" in out
        assert "session" in out

    def test_default_output_has_no_meta(self, capsys):
        assert main(["experiment", "table-3"]) == 0
        assert "run:" not in capsys.readouterr().out

    def test_cache_hit_reports_unchecked(self, tmp_path, capsys):
        # Figure 10 runs a validator under --check; replaying its cached
        # result validates nothing, so the warm run must not claim it.
        cache = str(tmp_path / "cache")
        assert main(["experiment", "figure-10", "--cache-dir", cache,
                     "--check", "--meta"]) == 0
        cold = capsys.readouterr().out.splitlines()[-1]
        assert "cache miss" in cold and "checked" in cold
        assert main(["experiment", "figure-10", "--cache-dir", cache,
                     "--check", "--meta"]) == 0
        warm = capsys.readouterr().out.splitlines()[-1]
        assert "cache hit" in warm
        assert "checked" not in warm

    def test_no_cache_flag(self, capsys):
        assert main(["experiment", "table-3", "--no-cache",
                     "--meta"]) == 0
        assert "cache off" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment_id", [
        "figure-10", "figure-13", "validation-projection",
        "extension-designspace",
    ])
    def test_cold_run_stores_one_entry(self, experiment_id, tmp_path):
        cache = tmp_path / "cache"
        assert main(["experiment", experiment_id, "--cache-dir",
                     str(cache), "-o", str(tmp_path / "out.txt")]) == 0
        assert len(list(cache.glob("*.json"))) == 1

    def test_no_cache_reads_and_writes_nothing(self, tmp_path,
                                               monkeypatch):
        from repro.runtime.cache import ResultCache

        cache = tmp_path / "cache"
        assert main(["experiment", "validation-projection", "--cache-dir",
                     str(cache), "-o", str(tmp_path / "cold.txt")]) == 0

        def snapshot():
            return {path.name: (path.read_bytes(), path.stat().st_mtime_ns)
                    for path in cache.iterdir()}

        before = snapshot()
        reads = []
        real_get = ResultCache.get

        def recording_get(self, key, default=None):
            reads.append(key)
            return real_get(self, key, default)

        monkeypatch.setattr(ResultCache, "get", recording_get)
        assert main(["experiment", "validation-projection", "--no-cache",
                     "--cache-dir", str(cache),
                     "-o", str(tmp_path / "off.txt")]) == 0
        assert reads == []
        assert snapshot() == before
        assert ((tmp_path / "off.txt").read_text()
                == (tmp_path / "cold.txt").read_text())

    def test_no_cache_all_leaves_store_empty(self, tmp_path):
        cache = tmp_path / "cache"
        assert main(["experiment", "all", "--no-cache", "--cache-dir",
                     str(cache), "-o", str(tmp_path / "all.txt")]) == 0
        assert not cache.exists() or list(cache.iterdir()) == []


class TestCacheCommand:
    def test_info_empty(self, tmp_path, capsys):
        assert main(["cache", "info", "--cache-dir",
                     str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "disk entries:   0" in out

    def test_info_after_runs(self, tmp_path, capsys):
        cache = tmp_path / "c"
        assert main(["experiment", "table-2", "--cache-dir",
                     str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "info", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "disk entries:   0" not in out

    def test_clear(self, tmp_path, capsys):
        cache = tmp_path / "c"
        assert main(["experiment", "table-2", "--cache-dir",
                     str(cache)]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", str(cache)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert list(cache.glob("*.json")) == []


class TestOtherCommands:
    def test_zoo(self, capsys):
        assert main(["zoo"]) == 0
        assert "PaLM" in capsys.readouterr().out

    def test_zoo_json_format(self, capsys):
        import json
        assert main(["zoo", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "table-2"

    def test_zoo_output_file(self, tmp_path, capsys):
        target = tmp_path / "zoo.csv"
        assert main(["zoo", "--format", "csv", "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("model,")

    def test_forecast(self, capsys):
        assert main(["forecast", "--start", "2023", "--end", "2024"]) == 0
        out = capsys.readouterr().out
        assert "2023" in out and "2024" in out

    def test_forecast_json_format(self, capsys):
        import json
        assert main(["forecast", "--start", "2023", "--end", "2023",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["experiment_id"] == "extension-forecast"

    def test_forecast_output_file(self, tmp_path, capsys):
        target = tmp_path / "forecast.txt"
        assert main(["forecast", "--start", "2023", "--end", "2023",
                     "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert "2023" in target.read_text()

    def test_forecast_bad_range(self, capsys):
        assert main(["forecast", "--start", "2025", "--end", "2023"]) == 2
