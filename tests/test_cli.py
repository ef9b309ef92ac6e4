"""CLI tests: the dfq code planes, write and search failures, and the environment."""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner

from fpq.cli import main
from fpq.formats import E2M1, E2M3
from fpq.quantize import dfq_quantize
from fpq.tensorfile import read_tensor, write_tensor


@pytest.fixture
def activation(tmp_path):
    path = tmp_path / "act.fpqt"
    write_tensor(path, np.random.default_rng(0).standard_normal((4, 32)))
    return path


def _records(report):
    return [json.loads(line) for line in report.read_text().splitlines()]


class TestDfq:
    def test_wide_negative_format_writes_both_planes(self, tmp_path, activation) -> None:
        prefix = tmp_path / "out"
        report = tmp_path / "report.jsonl"
        result = CliRunner().invoke(main, [
            "dfq", "--input", str(activation), "--neg-format", "E2M3",
            "--out-prefix", str(prefix), "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        want = dfq_quantize(read_tensor(activation).data, E2M3, E2M1)
        neg = read_tensor(f"{prefix}.neg_codes.fpqt")
        pos = read_tensor(f"{prefix}.pos_codes.fpqt")
        assert (neg.kind, pos.kind) == ("code8", "code4")
        np.testing.assert_array_equal(neg.data, want.neg_codes)
        np.testing.assert_array_equal(pos.data, want.pos_codes)
        (record,) = _records(report)
        assert record["metrics"]["neg_format"] == "E2M3"


class TestErrors:
    def test_unwritable_output_is_a_json_error(self, tmp_path, activation) -> None:
        result = CliRunner().invoke(main, [
            "rotate", "--input", str(activation), "--group", "32",
            "--output", str(tmp_path / "missing" / "rot.fpqt"),
        ])
        assert result.exit_code == 2
        problems = json.loads(result.stderr)["problems"]
        assert len(problems) == 1 and problems[0].startswith("output: ")


class TestSearchErrors:
    @pytest.fixture(params=["nan", "partial_group"])
    def bad_input(self, request, tmp_path):
        x = np.random.default_rng(1).standard_normal((4, 200))
        if request.param == "nan":
            x[1, 3] = np.nan
            flags = []
        else:
            flags = ["--granularity", "per_group", "--group", "128"]
        path = tmp_path / "bad.fpqt"
        write_tensor(path, x)
        return ["--input", str(path), *flags], request.param

    @pytest.mark.parametrize("command", [["search"], ["dfq", "--search"]])
    def test_search_value_error_is_a_json_error(self, tmp_path, bad_input, command) -> None:
        args, kind = bad_input
        result = CliRunner().invoke(main, [*command, *args, "--report", str(tmp_path / "r.jsonl")])
        assert result.exit_code == 2, result.output
        (problem,) = json.loads(result.stderr)["problems"]
        want = "requires finite input" if kind == "nan" else "not divisible by group size 128"
        assert problem.startswith("search: ") and want in problem
        assert not (tmp_path / "r.jsonl").exists()


class TestEnvironment:
    def test_fpq_threads_is_not_read(self, tmp_path, activation) -> None:
        report = tmp_path / "report.jsonl"
        result = CliRunner().invoke(
            main,
            ["quantize", "--input", str(activation), "--report", str(report)],
            env={"FPQ_THREADS": "not-a-number"},
        )
        assert result.exit_code == 0, result.output
        (record,) = _records(report)
        assert "threads" not in record["config"]


def _problems(result) -> list[str]:
    assert result.exit_code == 2, result.output
    return json.loads(result.stderr)["problems"]


class TestReport:
    def test_non_object_line_is_a_json_error(self, tmp_path) -> None:
        report = tmp_path / "r.jsonl"
        report.write_text('{"command": "rotate", "metrics": {}}\n[1, 2]\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert _problems(result) == ["line 2: expected a JSON object, got list"]

    def test_metrics_without_command_go_to_history(self, tmp_path) -> None:
        report = tmp_path / "r.jsonl"
        report.write_text('{"metrics": {"mse": 0.5}}\n{"epoch": 0, "loss": 1.0}\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert result.exit_code == 0, result.output
        lines = result.stdout.splitlines()
        assert lines[1] == "  history: 2"
        assert json.loads(lines[2]) == {"command": "history", "metrics": {"mse": 0.5}}


class TestConfigTypes:
    """Config-file and environment values go through the option's click type."""

    @pytest.mark.parametrize("command, doc, key", [
        (["rotate", "--output", "rot.fpqt"], {"group_size": "abc"}, "group_size"),
        (["galt", "--synth"], {"epochs": "x"}, "epochs"),
        (["galt", "--synth"], {"lr": "x"}, "lr"),
        (["emu-check"], {"seed": "x"}, "seed"),
        (["emu-check"], {"seed": -1}, "seed"),
    ])
    def test_bad_config_value_is_a_json_error(self, tmp_path, activation, command, doc, key) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        args = [*command, "--config", str(config), "--report", str(tmp_path / "r.jsonl")]
        if command[0] == "rotate":
            args += ["--input", str(activation)]
        (problem,) = _problems(CliRunner().invoke(main, args))
        assert problem.startswith(f"config: {key}: ")
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("raw", ["x", "-1"])
    def test_bad_fpq_seed_is_a_json_error(self, raw) -> None:
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10"], env={"FPQ_SEED": raw})
        (problem,) = _problems(result)
        assert problem.startswith("env: FPQ_SEED: ")

    def test_negative_seed_flag_is_a_usage_error(self) -> None:
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10", "--seed", "-1"])
        assert result.exit_code == 2
        assert "-1 is not in the range" in result.stderr

    def test_config_values_are_converted(self, tmp_path) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schedule": [1, 4], "epochs": "1", "dim": 8, "group_size": 8}))
        report = tmp_path / "r.jsonl"
        result = CliRunner().invoke(main, [
            "galt", "--synth", "--out-features", "4", "--config", str(config),
            "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        record = _records(report)[-1]
        assert record["config"]["schedule"] == [1, 4]
        assert record["config"]["epochs"] == 1
        assert record["metrics"]["epochs"] == 1
