"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import compare_main, search_main


class TestSearchMain:
    def test_text_output(self, capsys):
        code = search_main(
            ["--model", "gpt3-350m", "--gpus", "2", "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "stage 0" in out

    def test_json_output(self, capsys):
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "gpt3-350m"
        assert payload["throughput_samples_per_s"] > 0

    def test_stage_counts_flag(self, capsys):
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--stage-counts", "2",
            ]
        )
        assert code == 0
        assert "2-stage pipeline" in capsys.readouterr().out

    def test_workers_flag(self, capsys):
        code = search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--workers", "2", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["search_workers"] == 2
        assert payload["search_seconds_wall"] > 0
        assert payload["throughput_samples_per_s"] > 0

    def test_search_cost_line_labels_wall_and_critical_path(self, capsys):
        code = search_main(
            [
                "--model", "gpt-2l", "--gpus", "4",
                "--iterations", "2", "--stage-counts", "1", "2",
            ]
        )
        assert code == 0
        (line,) = [
            line
            for line in capsys.readouterr().out.splitlines()
            if "configurations estimated" in line
        ]
        assert line.startswith("search wall ")
        assert ", critical path " in line
        assert "search cost" not in line

    def test_bad_model_raises(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            search_main(["--model", "bogus-1b", "--iterations", "1"])
        assert exit_info.value.code == 2
        assert "unknown model 'bogus-1b'" in capsys.readouterr().err

    def test_unbuildable_gpus_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            search_main(["--model", "gpt-4l", "--gpus", "12"])
        assert exit_info.value.code == 2
        assert "--gpus 12: multi-node clusters" in capsys.readouterr().err


class TestEstimateMain:
    def test_roundtrip_with_search(self, tmp_path, capsys):
        from repro.cli import estimate_main, search_main

        plan = tmp_path / "plan.json"
        search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--output", str(plan),
            ]
        )
        capsys.readouterr()
        code = estimate_main(
            ["--model", "gpt3-350m", "--gpus", "2", str(plan), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["actual_oom"] is False
        assert payload["throughput_samples_per_s"] > 0

    def test_wrong_cluster_rejected(self, tmp_path, capsys):
        from repro.cli import estimate_main, search_main

        plan = tmp_path / "plan.json"
        search_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "2", "--output", str(plan),
            ]
        )
        capsys.readouterr()
        code = estimate_main(
            ["--model", "gpt3-350m", "--gpus", "4", str(plan)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(
            "repro-estimate: plan does not fit gpt3-350m on 4 GPUs: "
        )

    def test_malformed_plan_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import estimate_main

        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"format_version": 1,
                                    "microbatch_size": 1}))
        code = estimate_main(
            ["--model", "gpt-2l", "--gpus", "4", str(plan)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-estimate: cannot load plan")
        assert "stages" in err
        assert len(err.strip().splitlines()) == 1


class TestCompareMain:
    def test_json_output(self, capsys):
        code = compare_main(
            [
                "--model", "gpt3-350m", "--gpus", "2",
                "--iterations", "3", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"megatron", "alpa", "aceso"}
        for stats in payload.values():
            assert stats["throughput"] > 0

    def test_text_table(self, capsys):
        code = compare_main(
            ["--model", "gpt3-350m", "--gpus", "2", "--iterations", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "system" in out
        assert "aceso" in out


class TestEntryPoints:
    """Every ``[project.scripts]`` line resolves and answers --help."""

    def test_every_script_imports_and_prints_help(self, capsys):
        import importlib
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert "repro-serve" in scripts
        for name, target in sorted(scripts.items()):
            module, _, attr = target.partition(":")
            main = getattr(importlib.import_module(module), attr)
            with pytest.raises(SystemExit) as exit_info:
                main(["--help"])
            assert exit_info.value.code == 0, name
            assert "usage:" in capsys.readouterr().out, name
