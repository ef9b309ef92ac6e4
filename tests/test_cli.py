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
