"""CLI tests: the dfq code planes, write and search failures, and the environment."""

from __future__ import annotations

import json
import re
import struct

import click
import numpy as np
import pytest
from click.testing import CliRunner

from fpq import cli, galt, hwemu, synth
from fpq.cli import main
from fpq.formats import E2M1, E2M3, E3M0, E3M2, get_format, nearest_codes
from fpq.quantize import DFQ_CANDIDATE_FORMATS, Granularity, dfq_quantize, dfq_search_format, quantize
from fpq.tensorfile import read_tensor, write_tensor


@pytest.fixture
def activation(tmp_path):
    path = tmp_path / "act.fpqt"
    write_tensor(path, np.random.default_rng(0).standard_normal((4, 32)))
    return path


def _records(report):
    return [json.loads(line) for line in report.read_text().splitlines()]


def _contents(root) -> dict:
    """The bytes of every file under ``root``, read through symlinks."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


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
        for side, scales in (("neg", want.s_neg), ("pos", want.s_pos)):
            written = read_tensor(f"{prefix}.{side}_scales.fpqt")
            assert written.kind == "f64" and written.data.tobytes() == scales.tobytes()
        (record,) = _records(report)
        assert record["metrics"]["neg_format"] == "E2M3"

    def test_offline_search_pair_quantizes_another_tensor(self, tmp_path) -> None:
        # The paper's flow: search the pair on calibration files, then apply it at inference.
        prefix, report = tmp_path / "out", tmp_path / "r.jsonl"
        calib = [synth.gelu_activations(seed, (4, 32)) for seed in (3, 4)]
        x = synth.gelu_activations(5, (4, 32))
        paths = [tmp_path / f"{name}.fpqt" for name in ("c0", "c1", "x")]
        for path, t in zip(paths, [*calib, x]):
            write_tensor(path, t)
        g = Granularity.per_token()
        pair = dfq_search_format(calib, g)
        # The positive grid is not dfq's default, and a search on x would pick another pair.
        assert [f.name for f in pair] == ["E1M2", "E3M0"] and dfq_search_format([x], g) != pair
        result = CliRunner().invoke(main, [
            "search", "--input", str(paths[0]), "--input", str(paths[1]), "--granularity", "per_token",
            "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        metrics = _records(report)[0]["metrics"]
        config = _write_config(tmp_path, {key: metrics[key] for key in ("neg_format", "pos_format")})
        result = CliRunner().invoke(main, [
            "dfq", "--input", str(paths[2]), "--config", config, "--granularity", "per_token",
            "--out-prefix", str(prefix), "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        record = _records(report)[1]
        for key, fmt in zip(("neg_format", "pos_format"), pair):
            assert record["config"][key] == record["metrics"][key] == fmt.name
        want = dfq_quantize(x, *pair, g)
        for side, codes, scales in (("neg", want.neg_codes, want.s_neg), ("pos", want.pos_codes, want.s_pos)):
            for part, array in (("codes", codes), ("scales", scales)):
                written = read_tensor(f"{prefix}.{side}_{part}.fpqt").data
                assert written.dtype == array.dtype and written.tobytes() == array.tobytes()

    def test_search_key_in_a_config_is_unknown(self, tmp_path, activation) -> None:
        result = CliRunner().invoke(main, ["dfq", "--input", str(activation),
                                           "--config", _write_config(tmp_path, {"search": True})])
        assert _problems(result) == ["config: unknown key 'search'"]


class TestQuantize:
    def test_writes_the_codes_and_f64_scales(self, tmp_path) -> None:
        src = tmp_path / "w.fpqt"
        write_tensor(src, np.random.default_rng(5).standard_normal((6, 64)).astype(np.float32))
        codes, scales = tmp_path / "q.codes.fpqt", tmp_path / "q.scales.fpqt"
        result = CliRunner().invoke(main, [
            "quantize", "--input", str(src), "--granularity", "per_group", "--group", "16",
            "--out-prefix", str(tmp_path / "q"),
        ])
        assert result.exit_code == 0, result.output
        want = quantize(read_tensor(src).data, E2M1, Granularity.per_group(16))
        written = read_tensor(scales)
        assert written.kind == "f64" and written.data.tobytes() == want.scales.tobytes()
        assert read_tensor(codes).kind == "code4"
        np.testing.assert_array_equal(read_tensor(codes).data, want.codes)


class TestOutputRule:
    """``quantize`` and ``dfq`` name every plane's files from one prefix, the
    input path minus its suffix unless --out-prefix gives it, and label the
    record with the input's stem."""

    # Each input's stem, then the files each command writes beside it by default, named in full.
    DEFAULTS = {
        "x.rot.fpqt": ("x.rot", {
            "quantize": ["x.rot.codes.fpqt", "x.rot.scales.fpqt"],
            "dfq": ["x.rot.neg_codes.fpqt", "x.rot.neg_scales.fpqt", "x.rot.pos_codes.fpqt", "x.rot.pos_scales.fpqt"],
        }),
        "x": ("x", {
            "quantize": ["x.codes.fpqt", "x.scales.fpqt"],
            "dfq": ["x.neg_codes.fpqt", "x.neg_scales.fpqt", "x.pos_codes.fpqt", "x.pos_scales.fpqt"],
        }),
        "x.tar.fpqt": ("x.tar", {
            "quantize": ["x.tar.codes.fpqt", "x.tar.scales.fpqt"],
            "dfq": ["x.tar.neg_codes.fpqt", "x.tar.neg_scales.fpqt", "x.tar.pos_codes.fpqt", "x.tar.pos_scales.fpqt"],
        }),
    }
    PARTS = {"quantize": ["codes", "scales"], "dfq": ["neg_codes", "neg_scales", "pos_codes", "pos_scales"]}

    def _run(self, tmp_path, command, src, *flags) -> tuple[dict, set]:
        """The run's record and the files it added under ``tmp_path``."""
        report = tmp_path / "r.jsonl"
        before = _contents(tmp_path)
        result = CliRunner().invoke(main, [command, "--input", str(src), *flags, "--report", str(report)])
        assert result.exit_code == 0, result.output
        (record,) = _records(report)
        return record, set(_contents(tmp_path)) - set(before) - {report}

    @pytest.mark.parametrize("command", PARTS)
    @pytest.mark.parametrize("name", DEFAULTS)
    def test_default_names(self, tmp_path, name, command) -> None:
        src = tmp_path / name
        write_tensor(src, np.random.default_rng(0).standard_normal((4, 32)))
        stem, names = self.DEFAULTS[name]
        record, written = self._run(tmp_path, command, src)
        assert written == {tmp_path / n for n in names[command]}
        assert record["config"]["out_prefix"] == str(tmp_path / stem)
        assert record["metrics"]["layer"] == stem
        assert list(record["metrics"]["outputs"]) == self.PARTS[command]
        assert sorted(record["metrics"]["outputs"].values()) == sorted(str(p) for p in written)

    @pytest.mark.parametrize("command", PARTS)
    def test_prefix_moves_every_plane(self, tmp_path, activation, monkeypatch, command) -> None:
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        record, written = self._run(tmp_path, command, activation, "--out-prefix", "d/p")
        assert written == {tmp_path / "d" / f"p.{part}.fpqt" for part in self.PARTS[command]}
        assert record["metrics"]["outputs"] == {part: f"d/p.{part}.fpqt" for part in self.PARTS[command]}
        assert (record["config"]["out_prefix"], record["metrics"]["layer"]) == ("d/p", "act")


class TestOverflowingMse:
    """An MSE past float64's range is recorded as null: the outputs are
    written, the record stays strict JSON and the run exits 0."""

    @pytest.mark.parametrize("command, values, n_outputs", [
        (["quantize"], [1e200, -3e199, 7e150, 1.0], 2),
        (["dfq", "--pos-format", "E1M2"], [1e200, 2.5e199, -1.0, -0.3], 4),
    ], ids=["quantize", "dfq"])
    def test_record_holds_null(self, tmp_path, command, values, n_outputs: int) -> None:
        path, report = tmp_path / "big.fpqt", tmp_path / "r.jsonl"
        write_tensor(path, np.array([values]))
        result = CliRunner().invoke(main, [*command, "--input", str(path), "--report", str(report)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""

        def reject(constant):
            raise AssertionError(f"non-strict JSON constant {constant}")

        (record,) = [json.loads(line, parse_constant=reject) for line in report.read_text().splitlines()]
        assert record["metrics"]["mse"] is None
        outputs = sorted(tmp_path.glob("big.*.fpqt"))
        assert len(outputs) == n_outputs
        for out in outputs:
            assert read_tensor(out).data.shape in ((1, 4), (), (1,))


class TestErrors:
    def test_unwritable_output_is_a_json_error(self, tmp_path, activation) -> None:
        result = CliRunner().invoke(main, [
            "rotate", "--input", str(activation), "--group", "32",
            "--output", str(tmp_path / "missing" / "rot.fpqt"),
        ])
        assert result.exit_code == 2
        problems = json.loads(result.stderr)["problems"]
        assert len(problems) == 1 and problems[0].startswith("output: ")


class TestUnwritableReport:
    """A report path that cannot be appended to is one problem, found before
    any output file is written."""

    @pytest.mark.parametrize("command", ["quantize", "rotate", "galt"])
    def test_is_a_json_error_before_any_output(self, tmp_path, activation, command) -> None:
        out = {"quantize": [activation.with_suffix(".codes.fpqt"), activation.with_suffix(".scales.fpqt")],
               "rotate": [tmp_path / "rot.fpqt"], "galt": [tmp_path / "lam.fpqt"]}[command]
        args = {"quantize": ["--input", str(activation)],
                "rotate": ["--input", str(activation), "--group", "32", "--output", str(out[0])],
                "galt": ["--dim", "16", "--group", "8", "--schedule", "2,4", "--epochs", "1",
                         "--out-lambda", str(out[0])]}[command]
        report = tmp_path / "missing" / "r.jsonl"
        problems = _problems(CliRunner().invoke(main, [command, *args, "--report", str(report)]))
        assert problems == [f"report: cannot append to {report}: no directory {report.parent}"]
        assert not any(p.exists() for p in out)

    def test_names_the_directory_as_given(self, tmp_path, activation) -> None:
        # The report is resolved through the symlinked directory, but the problem names it as typed.
        (tmp_path / "dlink").symlink_to(tmp_path / "missing")
        report = tmp_path / "dlink" / "r.jsonl"
        problems = _problems(CliRunner().invoke(main, ["quantize", "--input", str(activation),
                                                       "--report", str(report)]))
        assert problems == [f"report: cannot append to {report}: no directory {report.parent}"]

    def test_directory_is_a_json_error(self, tmp_path, activation) -> None:
        problems = _problems(CliRunner().invoke(main, ["quantize", "--input", str(activation),
                                                       "--report", str(tmp_path)]))
        assert problems == [f"report: cannot append to {tmp_path}: it is a directory"]
        assert not activation.with_suffix(".codes.fpqt").exists()


class TestUnwritableOutputs:
    """Every output path that cannot be written is one problem, all found
    before any input is read or any work done, and nothing is written."""

    def test_quantize_writes_nothing(self, tmp_path, activation) -> None:
        bad = tmp_path / "missing" / "p"
        before = sorted(tmp_path.iterdir())
        problems = _problems(CliRunner().invoke(main, ["quantize", "--input", str(activation),
                                                       "--out-prefix", str(bad)]))
        assert problems == [f"output: {bad}.{part}.fpqt: no directory {bad.parent}" for part in ("codes", "scales")]
        assert sorted(tmp_path.iterdir()) == before

    def test_every_bad_path_is_reported(self, tmp_path, activation) -> None:
        prefix = tmp_path / "missing" / "p"
        before = sorted(tmp_path.iterdir())
        problems = _problems(CliRunner().invoke(main, ["dfq", "--input", str(activation),
                                                       "--out-prefix", str(prefix)]))
        assert problems == [f"output: {prefix}.{side}_{part}.fpqt: no directory {prefix.parent}"
                            for side in ("neg", "pos") for part in ("codes", "scales")]
        assert sorted(tmp_path.iterdir()) == before

    def test_directory_and_unreadable_input_together(self, tmp_path) -> None:
        missing = tmp_path / "absent.fpqt"
        problems = _problems(CliRunner().invoke(main, ["rotate", "--input", str(missing),
                                                       "--output", str(tmp_path)]))
        assert problems[0] == f"output: {tmp_path}: it is a directory"
        assert len(problems) == 2 and problems[1].startswith(f"input: {missing}: ")

    def test_galt_fit_never_runs(self, tmp_path, monkeypatch) -> None:
        calls = []
        monkeypatch.setattr(galt, "optimize_galt", lambda *a, **k: calls.append(a))
        bad = tmp_path / "missing" / "l.fpqt"
        problems = _problems(CliRunner().invoke(main, [
            "galt", "--dim", "128", "--out-features", "256", "--epochs", "20",
            "--out-lambda", str(bad)]))
        assert problems == [f"output: {bad}: no directory {bad.parent}"]
        assert calls == []

    def test_write_failure_names_only_the_target(self, tmp_path, capsys) -> None:
        # A path that passed the check but whose directory went away since.
        bad = tmp_path / "gone" / "l.fpqt"
        with pytest.raises(SystemExit) as exc:
            cli._write(bad, np.zeros(2), "f64")
        assert exc.value.code == 2
        problems = json.loads(capsys.readouterr().err)["problems"]
        assert problems == [f"output: {bad}: No such file or directory"]
        assert not re.search(r"tmp[0-9a-f]*\.tmp", problems[0])


class TestGaltNonFiniteInput:
    """A calibration step or weight file that is not finite is an input
    problem naming the file, found as the files are read."""

    def test_names_the_file_and_step(self, tmp_path) -> None:
        paths = {name: tmp_path / f"{name}.fpqt" for name in ("nan", "ok", "w", "inf_w")}
        rng = np.random.default_rng(3)
        write_tensor(paths["nan"], np.where(np.eye(1, 64) > 0, np.nan, 1.0))
        write_tensor(paths["ok"], rng.standard_normal((4, 64)))
        write_tensor(paths["w"], rng.standard_normal((8, 64)))
        write_tensor(paths["inf_w"], np.where(np.eye(8, 64) > 0, -np.inf, 1.0))
        out = tmp_path / "lam.fpqt"

        def run(calib, weight):
            return _problems(CliRunner().invoke(main, [
                "galt", *(a for c in calib for a in ("--calib", str(paths[c]))), "--weight", str(paths[weight]),
                "--group", "64", "--epochs", "1", "--out-lambda", str(out)]))

        assert run(["nan", "ok"], "w") == [f"input: {paths['nan']}: calibration step 0 is not finite"]
        assert run(["ok"], "inf_w") == [f"input: {paths['inf_w']}: the weight is not finite"]
        assert run(["ok", "nan"], "inf_w") == [f"input: {paths['nan']}: calibration step 1 is not finite",
                                               f"input: {paths['inf_w']}: the weight is not finite"]
        assert not out.exists()


class TestRotateNonFinite:
    """A rotation that is not finite in the file's float kind is one problem
    naming the input, and no output is written."""

    @pytest.mark.parametrize("x, want", [
        (np.full((2, 128), 3.0e38, dtype=np.float32), "the rotation overflows f32"),
        (np.full((2, 128), 1e308), "the rotation overflows f64"),
        (np.where(np.eye(2, 128) > 0, np.nan, 1.0), "the input is not finite"),
    ], ids=["f32_overflow", "f64_overflow", "nan"])
    def test_is_a_json_error(self, tmp_path, x, want) -> None:
        path, out = tmp_path / "x.fpqt", tmp_path / "rot.fpqt"
        write_tensor(path, x)
        problems = _problems(CliRunner().invoke(main, ["rotate", "--input", str(path), "--output", str(out)]))
        assert problems == [f"input: {path}: {want}"]
        assert not out.exists()


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

    @pytest.mark.parametrize("command", [["search"]])
    def test_search_value_error_is_a_json_error(self, tmp_path, bad_input, command) -> None:
        args, kind = bad_input
        result = CliRunner().invoke(main, [*command, *args, "--report", str(tmp_path / "r.jsonl")])
        assert result.exit_code == 2, result.output
        (problem,) = json.loads(result.stderr)["problems"]
        if kind == "nan":
            assert problem == f"input: {args[1]}: calibration tensor 0 is not finite"
        else:
            assert problem.startswith(f"{command[0]}: ") and "not divisible by group size 128" in problem
        assert not (tmp_path / "r.jsonl").exists()


class TestNonFiniteInput:
    """A NaN or inf in any input file is one problem naming that file and
    the tensor it holds, found as the files are read: no output is written
    and no record appended."""

    # command args: "{bad}" is the non-finite file, "{ok}" a finite input,
    # "{w}" a finite weight; the last item is the tensor the problem names.
    CASES = {
        "quantize": (["quantize", "--input", "{bad}"], "the input"),
        "dfq": (["dfq", "--input", "{bad}"], "the input"),
        "search": (["search", "--input", "{ok}", "--input", "{bad}"], "calibration tensor 1"),
        "rotate": (["rotate", "--input", "{bad}", "--output", "{tmp}/rot.fpqt", "--group", "32"], "the input"),
        "galt_calib": (["galt", "--calib", "{ok}", "--calib", "{bad}", "--weight", "{w}", "--group", "32",
                        "--epochs", "1", "--out-lambda", "{tmp}/lam.fpqt"], "calibration step 1"),
        "galt_weight": (["galt", "--calib", "{ok}", "--weight", "{bad}", "--group", "32",
                         "--epochs", "1", "--out-lambda", "{tmp}/lam.fpqt"], "the weight"),
    }

    @pytest.mark.parametrize("value", [np.nan, -np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("case", CASES)
    def test_names_the_file(self, tmp_path, case, value) -> None:
        rng = np.random.default_rng(6)
        paths = {"ok": tmp_path / "ok.fpqt", "bad": tmp_path / "bad.fpqt", "w": tmp_path / "w.fpqt"}
        write_tensor(paths["ok"], rng.standard_normal((4, 32)))
        write_tensor(paths["w"], rng.standard_normal((8, 32)))
        bad = rng.standard_normal((8 if case == "galt_weight" else 4, 32))
        bad[1, 5] = value
        write_tensor(paths["bad"], bad)
        command, what = self.CASES[case]
        args = [a.format(tmp=tmp_path, **paths) for a in command]
        before, report = sorted(tmp_path.iterdir()), tmp_path / "r.jsonl"
        problems = _problems(CliRunner().invoke(main, [*args, "--report", str(report)]))
        assert problems == [f"input: {paths['bad']}: {what} is not finite"]
        assert sorted(tmp_path.iterdir()) == before


class TestOneFileWrittenTwice:
    """Two writes of one command that resolve to the same file are one
    problem, found before any input is read: nothing is written and no
    record appended."""

    def _run(self, tmp_path, args, report) -> list[str]:
        before = sorted(tmp_path.iterdir())
        problems = _problems(CliRunner().invoke(main, [*args, "--report", str(report)]))
        assert sorted(tmp_path.iterdir()) == before
        return problems

    def test_quantize_outputs_that_differ_only_in_spelling(self, tmp_path, activation, monkeypatch) -> None:
        # The codes and the report: one prefix never names one file twice.
        monkeypatch.chdir(tmp_path)
        args = ["quantize", "--input", str(activation), "--out-prefix", "./a"]
        assert self._run(tmp_path, args, "a.codes.fpqt") == ["output: ./a.codes.fpqt: same file as the report"]

    def test_rotate_output_on_the_report(self, tmp_path, activation) -> None:
        out = tmp_path / "r.fpqt"
        args = ["rotate", "--input", str(activation), "--group", "32", "--output", str(out)]
        assert self._run(tmp_path, args, out) == [f"output: {out}: same file as the report"]

    def test_galt_lambda_on_the_report(self, tmp_path) -> None:
        out = tmp_path / "l.fpqt"
        args = ["galt", "--dim", "16", "--group", "8", "--schedule", "2,4", "--epochs", "1",
                "--out-lambda", str(out)]
        assert self._run(tmp_path, args, out) == [f"output: {out}: same file as the report"]

    @pytest.fixture
    def linked(self, tmp_path):
        """An empty directory d1 and a symlink d2 to it."""
        (tmp_path / "d1").mkdir()
        (tmp_path / "d2").symlink_to(tmp_path / "d1")
        return tmp_path / "d1", tmp_path / "d2"

    def test_quantize_outputs_through_a_symlinked_directory(self, tmp_path, activation, linked) -> None:
        args = ["quantize", "--input", str(activation), "--out-prefix", str(linked[1] / "a")]
        scales = linked[1] / "a.scales.fpqt"
        assert self._run(tmp_path, args, linked[0] / "a.scales.fpqt") == [f"output: {scales}: same file as the report"]
        assert list(linked[0].iterdir()) == []

    def test_rotate_output_on_the_report_through_a_symlinked_directory(self, tmp_path, activation, linked) -> None:
        out, report = linked[1] / "r.fpqt", linked[0] / "r.fpqt"
        args = ["rotate", "--input", str(activation), "--group", "32", "--output", str(out)]
        assert self._run(tmp_path, args, report) == [f"output: {out}: same file as the report"]
        assert list(linked[0].iterdir()) == []


class TestEnvironment:
    def test_fpq_threads_is_not_read(self, tmp_path) -> None:
        # Neither FPQ_THREADS nor FPQ_SEED is a setting: each run takes the
        # default or flag seed and records no thread count.
        report = tmp_path / "report.jsonl"
        for flags in ([], ["--seed", "5"]):
            result = CliRunner().invoke(
                main,
                ["emu-check", "--samples", "2000", *flags, "--report", str(report)],
                env={"FPQ_THREADS": "not-a-number", "FPQ_SEED": "abc"},
            )
            assert result.exit_code == 0, result.output
        default, flagged = _records(report)
        assert "threads" not in default["config"]
        assert (default["config"]["seed"], flagged["config"]["seed"]) == (0, 5)


def _problems(result) -> list[str]:
    assert result.exit_code == 2, result.output
    return json.loads(result.stderr)["problems"]


class TestReport:
    def test_non_object_line_is_a_json_error(self, tmp_path) -> None:
        report = tmp_path / "r.jsonl"
        report.write_text('{"command": "rotate", "metrics": {}}\n[1, 2]\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert _problems(result) == ["line 2: expected a JSON object, got list"]

    def test_record_without_command_is_a_json_error(self, tmp_path) -> None:
        report = tmp_path / "r.jsonl"
        report.write_text('{"metrics": {"mse": 0.5}}\n{"command": "dfq"}\n{"epoch": 0, "loss": 1.0}\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert _problems(result) == ["line 1: no command", "line 3: no command"]

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_constant_is_a_json_error(self, tmp_path, constant) -> None:
        # fpq's own writer never emits these; Python's json would read them.
        report = tmp_path / "r.jsonl"
        report.write_text(f'{{"command": "rotate"}}\n{{"command": "dfq", "metrics": {{"mse": {constant}}}}}\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert _problems(result) == [f"line 2: invalid JSON: {constant} is not a JSON value"]

    def test_summary_text_is_pinned(self, tmp_path) -> None:
        report = tmp_path / "r.jsonl"
        report.write_text('{"command": "rotate", "metrics": {"shape": [2]}}\n\n'
                          '{"command": "dfq", "metrics": {"mse": 0.25}}\n'
                          '{"command": "rotate", "config": {}}\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert result.exit_code == 0, result.output
        assert result.stdout == (
            f"3 records in {report}\n  dfq: 1\n  rotate: 2\n"
            '{"command": "rotate", "metrics": {"shape": [2]}}\n'
            '{"command": "dfq", "metrics": {"mse": 0.25}}\n'
        )

    @pytest.mark.parametrize("command", ["5", '["a"]', "null", '{"a": 1}'])
    def test_command_that_is_not_a_string_is_a_json_error(self, tmp_path, command) -> None:
        report = tmp_path / "r.jsonl"
        report.write_text(f'{{"command": "rotate"}}\n{{"command": {command}, "metrics": {{}}}}\n')
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert _problems(result) == [f"line 2: command must be a string, got {command}"]

    def test_non_utf8_file_is_a_json_error(self, tmp_path) -> None:
        report = tmp_path / "r.jsonl"
        report.write_bytes(b'{"command": "rotate"}\n\n{"command": "dfq", "layer": "\xff"}\n')
        (problem,) = _problems(CliRunner().invoke(main, ["report", "--input", str(report)]))
        assert problem.startswith("line 3: not UTF-8: ")


class TestUsageErrors:
    """A usage error in a command line is one JSON problem with exit 2, not click's usage text."""

    @pytest.mark.parametrize("args, want", [
        (["rotate", "--output", "y"], "usage: Missing option '--input'."),
        (["report"], "usage: Missing option '--input'."),
        (["quantize", "--bogus"], "usage: No such option '--bogus'."),
        (["bogus"], "usage: No such command 'bogus'."),
        (["--bogus"], "usage: No such option '--bogus'."),
        (["rotate", "--input"], "usage: Option '--input' requires an argument."),
        # The layer label is the input's stem and --out-prefix names every output: no such flags.
        (["quantize", "--input", "x", "--layer", "a"], "usage: No such option '--layer'."),
        (["quantize", "--input", "x", "--out-codes", "a"],
         "usage: No such option '--out-codes'. Did you mean '--out-prefix'?"),
        (["quantize", "--input", "x", "--out-scales", "a"], "usage: No such option '--out-scales'."),
        (["dfq", "--input", "x", "--layer", "a"], "usage: No such option '--layer'."),
        (["galt", "--layer", "a"], "usage: No such option '--layer'. Did you mean '--lr'?"),
    ], ids=["missing_option", "report_missing_input", "unknown_flag", "unknown_command",
            "unknown_top_level_flag", "flag_without_value", "removed_quantize_layer",
            "removed_quantize_out_codes", "removed_quantize_out_scales", "removed_dfq_layer",
            "removed_galt_layer"])
    def test_is_one_json_problem(self, args, want) -> None:
        result = CliRunner().invoke(main, args)
        assert _problems(result) == [want]
        assert "Usage:" not in result.output

    def test_in_process_call_exits_2(self) -> None:
        with pytest.raises(SystemExit) as info:
            main.main(["bogus"], standalone_mode=False)
        assert info.value.code == 2

    def test_bare_command_prints_the_help(self) -> None:
        result = CliRunner().invoke(main, [])
        assert "Commands:" in result.output and "problems" not in result.output


class TestConfigTypes:
    """Config-file values go through the option's click type."""

    @pytest.mark.parametrize("command, doc, key", [
        (["rotate", "--output", "rot.fpqt"], {"group_size": "abc"}, "group_size"),
        (["galt"], {"epochs": "x"}, "epochs"),
        (["galt"], {"lr": "x"}, "lr"),
        (["emu-check"], {"seed": "x"}, "seed"),
        (["emu-check"], {"seed": -1}, "seed"),
        # click.Path would take a number as a file descriptor.
        (["quantize"], {"out_prefix": 7}, "out_prefix"),
        (["quantize"], {"out_prefix": ["a"]}, "out_prefix"),
        (["dfq"], {"out_prefix": 7}, "out_prefix"),
        (["galt"], {"out_lambda": 7}, "out_lambda"),
    ])
    def test_bad_config_value_is_a_json_error(self, tmp_path, activation, command, doc, key) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        args = [*command, "--config", str(config), "--report", str(tmp_path / "r.jsonl")]
        if command[0] in ("rotate", "quantize", "dfq"):
            args += ["--input", str(activation)]
        (problem,) = _problems(CliRunner().invoke(main, args))
        assert problem.startswith(f"config: {key}: ")
        assert not (tmp_path / "r.jsonl").exists()

    def test_non_utf8_config_is_a_json_error(self, tmp_path) -> None:
        config = tmp_path / "config.json"
        config.write_bytes(b'{"seed": "\xff"}')
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10", "--config", str(config)])
        (problem,) = _problems(result)
        assert problem.startswith(f"config: cannot read {config}: 'utf-8' codec can't decode")

    def test_non_json_constant_in_config_is_a_json_error(self, tmp_path) -> None:
        # Python's json would read NaN, and the run would take it as its seed.
        config = tmp_path / "config.json"
        config.write_text('{"seed": NaN}')
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10", "--config", str(config)])
        assert _problems(result) == [f"config: invalid JSON in {config}: NaN is not a JSON value"]

    def test_negative_seed_flag_is_a_usage_error(self) -> None:
        # A usage error, reported as the same JSON problem a config value gets.
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10", "--seed", "-1"])
        assert _problems(result) == ["flag: --seed: -1 is not in the range x>=0."]

    @pytest.mark.parametrize("command, doc, want", [
        (["galt"], {"epochs": 2.9}, "config: epochs: expected an integer, got 2.9"),
        (["galt"], {"lr": True}, "config: lr: expected a number, got true"),
        (["emu-check"], {"samples": True}, "config: samples: expected an integer, got true"),
        (["galt"], {"epochs": [1]}, "config: epochs: expected an integer, got [1]"),
        (["rotate", "--output", "rot.fpqt"], {"group_size": {"a": 1}},
         'config: group_size: expected an integer, got {"a": 1}'),
    ], ids=["fraction_for_int", "bool_for_float", "bool_for_int", "list_for_int", "object_for_int"])
    def test_numeric_option_rejects_other_json_types(self, tmp_path, activation, command, doc, want) -> None:
        # click's INT and FLOAT types would run 2 epochs for 2.9 and lr 1.0 for true.
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        args = [*command, "--config", str(config), "--report", str(tmp_path / "r.jsonl")]
        if command[0] == "rotate":
            args += ["--input", str(activation)]
        assert _problems(CliRunner().invoke(main, args)) == [want]
        assert not (tmp_path / "r.jsonl").exists()

    def test_integral_float_is_an_integer(self, tmp_path) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"epochs": 1.0, "lr": 1}))
        report = tmp_path / "r.jsonl"
        result = CliRunner().invoke(main, [
            "galt", "--dim", "8", "--group", "8", "--out-features", "4", "--schedule", "1,4",
            "--config", str(config), "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        config = _records(report)[-1]["config"]
        assert (config["epochs"], config["lr"]) == (1, 1.0)
        assert type(config["epochs"]) is int and type(config["lr"]) is float

    def test_config_values_are_converted(self, tmp_path) -> None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"schedule": [1, 4], "epochs": "1", "dim": 8, "group_size": 8}))
        report = tmp_path / "r.jsonl"
        result = CliRunner().invoke(main, [
            "galt", "--out-features", "4", "--config", str(config),
            "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        record = _records(report)[-1]
        assert record["config"]["schedule"] == [1, 4]
        assert record["config"]["epochs"] == 1
        assert record["metrics"]["epochs"] == 1


class TestGaltInputs:
    """Bad numbers for ``galt`` on synthetic calibration end in exit 2, never a traceback."""

    def _invoke(self, tmp_path, flags):
        return CliRunner().invoke(main, [
            "galt", "--dim", "16", "--group", "16", "--out-features", "8",
            "--epochs", "1", *flags, "--out-lambda", str(tmp_path / "lam.fpqt"),
            "--report", str(tmp_path / "r.jsonl"),
        ])

    @pytest.mark.parametrize("flags, want", [
        (["--lr", "nan"], "galt: lr must be finite and positive, got nan"),
        (["--lr", "inf"], "galt: lr must be finite and positive, got inf"),
        (["--dim", "64", "--outlier-channels", "100"], "outlier_channels: 100 exceeds dim 64"),
        (["--outlier-magnitude", "nan"], "outlier_magnitude: must be finite, got nan"),
        (["--outlier-magnitude", "1e308"], "outlier_magnitude: 1e+308 overflows float64 in the GALT fit"),
        (["--outlier-magnitude", "1e154"], "outlier_magnitude: 1e+154 overflows float64 in the GALT fit"),
        (["--outlier-magnitude", "1e100"], "outlier_magnitude: 1e+100 overflows float64 in the GALT fit"),
        # The gradient's square overflows at the first update, whatever the step size.
        (["--outlier-magnitude", "1e100", "--lr", "1e-30"],
         "outlier_magnitude: 1e+100 overflows float64 in the GALT fit"),
        # The baseline at lambda = 1 is finite; the first update throws lambda near
        # 1e200 and the next gradient's square overflows, which the data did not cause.
        (["--lr", "1e200"], "lr: 1e+200 overflows float64 in the GALT fit"),
    ])
    def test_bad_value_is_a_json_error(self, tmp_path, flags, want) -> None:
        assert _problems(self._invoke(tmp_path, flags)) == [want]
        assert not (tmp_path / "r.jsonl").exists()

    @pytest.mark.parametrize("magnitude", ["50", "1e6"])
    def test_large_finite_magnitude_fits(self, tmp_path, magnitude: str) -> None:
        result = self._invoke(tmp_path, ["--outlier-magnitude", magnitude])
        assert result.exit_code == 0, result.output
        assert _records(tmp_path / "r.jsonl")[-1]["command"] == "galt"

    def test_overflowing_calibration_file_is_a_json_error(self, tmp_path) -> None:
        calib, weight = tmp_path / "c.fpqt", tmp_path / "w.fpqt"
        write_tensor(calib, np.random.default_rng(0).standard_normal((4, 16)) * 1e200)
        write_tensor(weight, np.ones((8, 16)))
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(calib), "--weight", str(weight), "--group", "16",
            "--schedule", "4", "--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt"),
            "--report", str(tmp_path / "r.jsonl"),
        ])
        assert _problems(result) == ["galt: input overflows float64 in the GALT fit"]
        assert not (tmp_path / "r.jsonl").exists()

    def test_calib_without_weight_is_the_one_problem(self, tmp_path) -> None:
        calib = tmp_path / "c.fpqt"
        write_tensor(calib, np.ones((4, 16)))
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(calib), "--group", "16", "--epochs", "1",
            "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(tmp_path / "r.jsonl"),
        ])
        assert _problems(result) == ["weight: required with --calib files"]
        assert not (tmp_path / "r.jsonl").exists() and not (tmp_path / "lam.fpqt").exists()

    def test_overflowing_step_size_with_files_names_lr(self, tmp_path) -> None:
        calib, weight = tmp_path / "c.fpqt", tmp_path / "w.fpqt"
        write_tensor(calib, np.random.default_rng(0).standard_normal((4, 16)))
        write_tensor(weight, np.ones((8, 16)))
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(calib), "--weight", str(weight), "--group", "16", "--epochs", "3",
            "--lr", "1e200", "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(tmp_path / "r.jsonl"),
        ])
        assert _problems(result) == ["lr: 1e+200 overflows float64 in the GALT fit"]
        assert not (tmp_path / "r.jsonl").exists() and not (tmp_path / "lam.fpqt").exists()

    def test_mismatched_calibration_steps_are_a_json_error(self, tmp_path) -> None:
        paths = [tmp_path / "c0.fpqt", tmp_path / "c1.fpqt", tmp_path / "w.fpqt"]
        for path, shape in zip(paths, [(1, 16), (4, 8), (8, 16)]):
            write_tensor(path, np.ones(shape))
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(paths[0]), "--calib", str(paths[1]), "--weight", str(paths[2]),
            "--group", "8", "--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt"),
        ])
        assert _problems(result) == ["galt: calibration step 1 must be 2-D with step 0's columns, got (4, 8)"]

    def test_calibration_step_without_tokens_is_a_json_error(self, tmp_path) -> None:
        calib, weight = tmp_path / "c.fpqt", tmp_path / "w.fpqt"
        write_tensor(calib, np.ones((0, 4)))
        write_tensor(weight, np.ones((2, 4)))
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(calib), "--weight", str(weight), "--group", "4", "--epochs", "1",
            "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(tmp_path / "r.jsonl"),
        ])
        assert _problems(result) == ["galt: calibration step 0 has no tokens, got shape (0, 4)"]
        assert not (tmp_path / "r.jsonl").exists() and not (tmp_path / "lam.fpqt").exists()

    def test_zero_loss_run_writes_strict_json(self, tmp_path) -> None:
        # All-ones data quantizes exactly, so every loss is 0 and the
        # improvement ratio has no value.
        calib, weight, report = tmp_path / "c.fpqt", tmp_path / "w.fpqt", tmp_path / "r.jsonl"
        write_tensor(calib, np.ones((2, 4)))
        write_tensor(weight, np.ones((2, 4)))
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(calib), "--weight", str(weight), "--granularity", "per_tensor",
            "--group", "4", "--epochs", "2", "--out-lambda", str(tmp_path / "lam.fpqt"),
            "--report", str(report),
        ])
        assert result.exit_code == 0, result.output

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        (record,) = [json.loads(line, parse_constant=reject) for line in report.read_text().splitlines()]
        assert record["command"] == "galt" and record["metrics"]["history"] == [0.0, 0.0, 0.0]
        assert record["metrics"]["best_loss"] == 0.0 and record["metrics"]["improvement"] is None

    @pytest.mark.parametrize("flags", [
        ["--dim", "0"], ["--out-features", "0"], ["--epochs", "-3"], ["--outlier-channels", "-1"],
    ])
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, flags) -> None:
        # A usage error, reported as the same JSON problem a config value gets.
        (problem,) = _problems(self._invoke(tmp_path, flags))
        assert problem.startswith(f"flag: {flags[0]}: {flags[1]} is not in the range x>=")
        assert not (tmp_path / "r.jsonl").exists()


class TestEmuCheck:
    def test_passes_on_the_shipped_tables(self) -> None:
        result = CliRunner().invoke(main, ["emu-check", "--samples", "20000"])
        assert result.exit_code == 0, result.output
        metrics = json.loads(result.stdout)["metrics"]
        assert (metrics["quantizer_parity"], metrics["mul_tables"], metrics["gemm_rows"]) == ("pass",) * 3
        assert metrics["mul_exact"] == {
            "E1M2xE2M1": "256/256", "E2M1xE2M1": "256/256", "E3M0xE2M1": "256/256",
            "E2M3xE2M3": "4096/4096", "E2M3xE3M2": "4096/4096", "E3M2xE2M3": "4096/4096", "E3M2xE3M2": "4096/4096"}
        # Three FP4 grids, two FP6 grids and nine DFQ pairs, every one exact.
        assert len(metrics["mismatches"]) == 14 and set(metrics["mismatches"].values()) == {0}
        assert metrics["scale_mismatches"] == [] and metrics["samples"] == 20000
        assert (metrics["addr_frac_bits"]["E2M1"], metrics["addr_frac_bits"]["E3M0/E2M1"]) == (2, 3)

    def test_checks_every_grid_a_format_option_offers(self) -> None:
        offered = {get_format(name) for name in cli._FORMAT.choices}
        assert offered == {*DFQ_CANDIDATE_FORMATS, *hwemu._FP6_GRIDS}
        result = CliRunner().invoke(main, ["emu-check", "--samples", "2000"])
        assert result.exit_code == 0, result.output
        assert {f.name for f in offered} <= set(json.loads(result.stdout)["metrics"]["mismatches"])

    def test_flipped_quantizer_entry_fails(self, monkeypatch) -> None:
        build = hwemu.build_tables

        def flipped():
            luts = build()
            lut = luts.quantizer(E2M1, E2M1).copy()
            lut[3] ^= 1  # q in (0.25, 0.5): code 1 becomes 0
            return hwemu.LutTables({**luts.address, (E2M1, E2M1): lut}, luts.product)

        monkeypatch.setattr(hwemu, "build_tables", flipped)
        result = CliRunner().invoke(main, ["emu-check", "--samples", "20000"])
        assert result.exit_code == 1
        assert '"quantizer_parity": "fail"' in result.stdout
        assert json.loads(result.stdout)["metrics"]["mismatches"]["E2M1"] > 0

    def test_wrong_e3m0_product_fails(self, monkeypatch) -> None:
        build = hwemu.build_tables

        def flipped():
            luts = build()
            mul = luts.multiplier(E3M0, E2M1).copy()
            mul[0x17] ^= 1  # 8 * 0.25 * 6 = 12 becomes 13
            return hwemu.LutTables(luts.address, {**luts.product, (E3M0, E2M1): mul})

        monkeypatch.setattr(hwemu, "build_tables", flipped)
        result = CliRunner().invoke(main, ["emu-check", "--samples", "2000"])
        assert result.exit_code == 1
        metrics = json.loads(result.stdout)["metrics"]
        assert metrics["mul_tables"] == "fail" and metrics["mul_exact"]["E3M0xE2M1"] == "255/256"
        assert metrics["quantizer_parity"] == "pass"

    def test_wrong_fp6_product_fails_the_gemm_rows(self, monkeypatch) -> None:
        # emu_gemm multiplies k-scaled values and emu_dot reads the table, so
        # one wrong entry sets them apart.  With the exhaustive table check
        # stubbed to pass, the GEMM rows alone fail the run.
        build = hwemu.build_tables

        def bumped():
            luts = build()
            mul = luts.multiplier(E3M2, E3M2).copy()
            c = int(nearest_codes(E3M2, 8.0))
            mul[(c << E3M2.width) | c] += 1
            return hwemu.LutTables(luts.address, {**luts.product, (E3M2, E3M2): mul})

        monkeypatch.setattr(hwemu, "build_tables", bumped)
        monkeypatch.setattr(hwemu, "verify_mul_tables", lambda luts: {"mul_tables": "pass"})
        result = CliRunner().invoke(main, ["emu-check", "--samples", "2000"])
        assert result.exit_code == 1
        metrics = json.loads(result.stdout)["metrics"]
        assert (metrics["gemm_rows"], metrics["mul_tables"], metrics["quantizer_parity"]) == ("fail", "pass", "pass")

    def test_any_failing_suite_fails_the_run(self, monkeypatch) -> None:
        # The suites name their own verdicts: a key the command does not
        # know still fails the run when it reads "fail".
        rows = hwemu.verify_gemm_rows
        monkeypatch.setattr(hwemu, "verify_gemm_rows", lambda luts, seed: {**rows(luts, seed), "costs": "fail"})
        result = CliRunner().invoke(main, ["emu-check", "--samples", "2000"])
        assert result.exit_code == 1
        metrics = json.loads(result.stdout)["metrics"]
        assert metrics["costs"] == "fail"
        assert (metrics["gemm_rows"], metrics["mul_tables"], metrics["quantizer_parity"]) == ("pass",) * 3


def _write_config(tmp_path, doc) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def wide(tmp_path):
    """A float tensor wide enough for every command's default group."""
    path = tmp_path / "wide.fpqt"
    write_tensor(path, np.random.default_rng(2).standard_normal((4, 128)))
    return str(path)


def _base_args(command: str, tmp_path, wide: str) -> list[str]:
    """A small invocation of each command that succeeds on its own."""
    return {
        "quantize": ["quantize", "--input", wide],
        "dfq": ["dfq", "--input", wide],
        "search": ["search", "--input", wide],
        "rotate": ["rotate", "--input", wide, "--output", str(tmp_path / "rot.fpqt")],
        "galt": ["galt", "--dim", "16", "--group", "16", "--out-features", "8",
                 "--schedule", "1,4", "--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt")],
        "emu-check": ["emu-check", "--samples", "2000"],
    }[command]


COMMANDS = ("quantize", "dfq", "search", "rotate", "galt", "emu-check")


class TestOneRecordShape:
    """Every command appends one record, and every record has one set of keys."""

    def test_every_command_writes_one_record_of_one_shape(self, tmp_path, wide) -> None:
        report = tmp_path / "r.jsonl"
        for command in COMMANDS:
            result = CliRunner().invoke(main, [*_base_args(command, tmp_path, wide), "--report", str(report)])
            assert result.exit_code == 0, result.output
        records = _records(report)
        assert [r["command"] for r in records] == list(COMMANDS)
        assert all(set(r) == {"command", "config", "metrics", "wall_time_s"} for r in records)
        result = CliRunner().invoke(main, ["report", "--input", str(report)])
        assert result.exit_code == 0, result.output
        # The count rows: one per command, and no "history" bucket.
        counts = [line for line in result.stdout.splitlines() if line.startswith("  ")]
        assert counts == [f"  {command}: 1" for command in sorted(COMMANDS)]


class TestRecordReplays:
    """A record's config alone, as --config, replays the run, its required options too."""

    @pytest.mark.parametrize("command, prefix", [
        ("quantize", False), ("dfq", False), ("search", False), ("rotate", False), ("quantize", True), ("dfq", True),
    ], ids=["quantize", "dfq", "search", "rotate", "quantize-out_prefix", "dfq-out_prefix"])
    def test_config_alone_replays_the_run(self, tmp_path, wide, command, prefix) -> None:
        report, sub = tmp_path / "r.jsonl", tmp_path / "sub"
        sub.mkdir()
        extra = ["--out-prefix", str(sub / "p")] if prefix else []
        before = _contents(tmp_path)
        result = CliRunner().invoke(main, [*_base_args(command, tmp_path, wide), *extra, "--report", str(report)])
        assert result.exit_code == 0, result.output
        outputs = {p: b for p, b in _contents(tmp_path).items() if p not in before and p != report}
        assert bool(outputs) == (command != "search")
        assert all(p.parent == (sub if prefix else tmp_path) for p in outputs)
        for path in outputs:
            path.unlink()
        (record,) = _records(report)
        config = _write_config(tmp_path, record["config"])
        result = CliRunner().invoke(main, [command, "--config", config, "--report", str(report)])
        assert result.exit_code == 0, result.output
        replay = _records(report)[1]
        assert (replay["config"], replay["metrics"]) == (record["config"], record["metrics"])
        assert {p: p.read_bytes() for p in outputs} == outputs

    def test_missing_option_joins_the_config_problems(self, tmp_path) -> None:
        result = CliRunner().invoke(main, ["search", "--config", _write_config(tmp_path, {"input_paths": 7})])
        assert _problems(result) == ["config: input_paths: expected a path string, got 7",
                                     "usage: Missing option '--input'."]


PATH_OPTIONS = [(command, p) for command in (*COMMANDS, "report") for p in main.commands[command].params
                if isinstance(p.type, click.Path)]


class TestEmptyPath:
    """An empty path value of any option, as a flag or in a config, is the one
    problem ``<key>: empty path``: nothing is read or written and no record is appended."""

    def _run(self, tmp_path, monkeypatch, args) -> list[str]:
        monkeypatch.chdir(tmp_path)  # where a default output path derived from '' would land
        before = _contents(tmp_path)
        problems = _problems(CliRunner().invoke(main, args))
        assert _contents(tmp_path) == before
        return problems

    def _args(self, command: str, tmp_path, wide: str) -> list[str]:
        if command != "report":
            return [*_base_args(command, tmp_path, wide), "--report", str(tmp_path / "r.jsonl")]
        (tmp_path / "old.jsonl").write_text('{"command": "rotate"}\n')
        return ["report", "--input", str(tmp_path / "old.jsonl")]

    @pytest.mark.parametrize("command, param", PATH_OPTIONS, ids=[f"{c}-{p.name}" for c, p in PATH_OPTIONS])
    def test_flag(self, tmp_path, monkeypatch, wide, command, param) -> None:
        args, flag = self._args(command, tmp_path, wide), param.opts[0]
        args = [*args, flag, ""] if flag not in args else [
            "" if i and args[i - 1] == flag else a for i, a in enumerate(args)]
        assert self._run(tmp_path, monkeypatch, args) == [f"{param.name}: empty path"]

    @pytest.mark.parametrize("command, param", [(c, p) for c, p in PATH_OPTIONS
                                                if c != "report" and p.name not in ("report_path", "config_path")],
                             ids=lambda v: getattr(v, "name", v))
    def test_config_value(self, tmp_path, monkeypatch, wide, command, param) -> None:
        config = _write_config(tmp_path, {param.name: [""] if param.multiple else ""})
        args = self._args(command, tmp_path, wide)
        if param.opts[0] in args:  # a flag would win over the config
            i = args.index(param.opts[0])
            del args[i:i + 2]
        args += ["--config", config]
        assert self._run(tmp_path, monkeypatch, args) == [f"{param.name}: empty path"]

    def test_every_empty_option_is_named(self, tmp_path, monkeypatch) -> None:
        args = ["galt", "--calib", "", "--weight", "", "--report", str(tmp_path / "r.jsonl")]
        assert self._run(tmp_path, monkeypatch, args) == ["weight_path: empty path", "calib_paths: empty path"]

    def test_joins_a_missing_option(self, tmp_path, monkeypatch) -> None:
        assert self._run(tmp_path, monkeypatch, ["rotate", "--output", ""]) == [
            "output_path: empty path", "usage: Missing option '--input'."]


# Each free-text option (a click.STRING) and the problem its empty value gives.
# A text option has no empty-path check, and ``cfg[key] or default`` would
# quietly replace its '' (as ``--layer ''`` once gave the input's stem), so a
# new one joins this table with a check of its own.
EMPTY_TEXT = {("galt", "schedule"): "schedule: token counts must be positive, got ''"}


class TestEmptyText:
    def test_every_free_text_option_has_a_named_check(self) -> None:
        text = {(command, p.name) for command, cmd in main.commands.items() for p in cmd.params
                if isinstance(p.type, click.types.StringParamType)}
        assert text == set(EMPTY_TEXT)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, key", EMPTY_TEXT)
    def test_empty_value_is_its_problem(self, tmp_path, wide, source, command, key) -> None:
        flag = next(p.opts[0] for p in main.commands[command].params if p.name == key)
        args = _base_args(command, tmp_path, wide)
        if flag in args:
            del args[args.index(flag):args.index(flag) + 2]
        args += [flag, ""] if source == "flag" else ["--config", _write_config(tmp_path, {key: ""})]
        before = _contents(tmp_path)
        assert _problems(CliRunner().invoke(main, [*args, "--report", str(tmp_path / "r.jsonl")])) == [
            EMPTY_TEXT[command, key]]
        assert _contents(tmp_path) == before


class TestReportOnAFileTheCommandUses:
    """A report that is an input, the config or an output, through any
    spelling or symlink, is one problem: every file keeps its bytes, nothing
    is written and no record appended."""

    def _run(self, tmp_path, args) -> list[str]:
        before = _contents(tmp_path)
        problems = _problems(CliRunner().invoke(main, args))
        assert _contents(tmp_path) == before
        return problems

    def test_quantize_report_on_the_input(self, tmp_path, activation) -> None:
        args = ["quantize", "--input", str(activation), "--report", str(activation)]
        assert self._run(tmp_path, args) == [f"report: {activation}: same file as {activation}"]

    def test_search_report_on_an_input(self, tmp_path, activation) -> None:
        other = tmp_path / "other.fpqt"
        write_tensor(other, np.ones((4, 32)))
        args = ["search", "--input", str(activation), "--input", str(other), "--report", str(other)]
        assert self._run(tmp_path, args) == [f"report: {other}: same file as {other}"]

    def test_galt_report_through_a_symlink_to_the_weight(self, tmp_path) -> None:
        rng = np.random.default_rng(3)
        steps = [tmp_path / "c0.fpqt", tmp_path / "c1.fpqt"]
        for path, tokens in zip(steps, (2, 4)):
            write_tensor(path, rng.standard_normal((tokens, 16)))
        weight, link = tmp_path / "w.fpqt", tmp_path / "wlink"
        write_tensor(weight, rng.standard_normal((8, 16)))
        link.symlink_to(weight)
        args = ["galt", "--calib", str(steps[0]), "--calib", str(steps[1]), "--weight", str(weight),
                "--group", "8", "--epochs", "1", "--out-lambda", str(tmp_path / "l.fpqt"),
                "--report", str(link)]
        assert self._run(tmp_path, args) == [f"report: {link}: same file as {weight}"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_report_on_the_config(self, tmp_path, wide, command) -> None:
        config = _write_config(tmp_path, {})
        args = [*_base_args(command, tmp_path, wide), "--config", config, "--report", config]
        assert self._run(tmp_path, args) == [f"report: {config}: same file as {config}"]

    def test_rotate_output_on_a_symlinked_report(self, tmp_path, activation) -> None:
        (tmp_path / "d1").mkdir()
        out, link = tmp_path / "d1" / "r.log", tmp_path / "rlink"
        out.write_text("an earlier report\n")
        link.symlink_to(out)
        args = ["rotate", "--input", str(activation), "--group", "32", "--output", str(out),
                "--report", str(link)]
        assert self._run(tmp_path, args) == [f"output: {out}: same file as the report"]


class TestOutputOverASymlinkedReport:
    """An output renamed over a symlink on the report's path replaces only
    the link: the record is appended to the file the link reached."""

    def _run(self, tmp_path, args, links: int, output_at: int, output_flag: str, suffix: str = "") -> list[dict]:
        """Run ``args`` with the report a chain of ``links`` symlinks to d1/r.log, each named with
        ``suffix``, and the output the ``output_at``-th link, given to ``output_flag`` without the
        suffix; the output reads back and the records follow the earlier line."""
        (tmp_path / "d1").mkdir()
        chain = [tmp_path / "d1" / "r.log"]
        chain[0].write_text("an earlier report\n")
        for i in range(links):
            chain.insert(0, tmp_path / f"l{i}{suffix}")
            chain[0].symlink_to(chain[1])
        output = str(chain[output_at]).removesuffix(suffix)
        result = CliRunner().invoke(main, [*args, output_flag, output, "--report", str(chain[0])])
        assert result.exit_code == 0, result.output
        assert not chain[output_at].is_symlink()
        read_tensor(chain[output_at])
        first, *records = chain[-1].read_text().splitlines()
        assert first == "an earlier report"
        return [json.loads(line) for line in records]

    @pytest.mark.parametrize("links, output_at", [(1, 0), (2, 0), (2, 1)])
    def test_rotate(self, tmp_path, activation, links, output_at) -> None:
        args = ["rotate", "--input", str(activation), "--group", "32"]
        records = self._run(tmp_path, args, links, output_at, "--output")
        assert [r["command"] for r in records] == ["rotate"]

    def test_galt_out_lambda(self, tmp_path) -> None:
        records = self._run(tmp_path, _base_args("galt", tmp_path, ""), 1, 0, "--out-lambda")
        assert [r["command"] for r in records] == ["galt"]
        assert len(records[0]["metrics"]["history"]) == 2

    def test_quantize_out_prefix(self, tmp_path, activation) -> None:
        records = self._run(tmp_path, ["quantize", "--input", str(activation)], 1, 0, "--out-prefix", ".codes.fpqt")
        assert [r["command"] for r in records] == ["quantize"]
        read_tensor(tmp_path / "l0.scales.fpqt")


class TestPrecedence:
    """option default < --config < flag, seen in the record."""

    # command: (config key, flag, default, config value, flag value)
    CASES = {
        "quantize": ("format_name", "--format", "E2M1", "E3M0", "E1M2"),
        "dfq": ("pos_format", "--pos-format", "E2M1", "E3M0", "E1M2"),
        "search": ("granularity", "--granularity", "per_tensor", "per_token", "per_channel"),
        "rotate": ("group_size", "--group", 128, 64, 32),
        "galt": ("seed", "--seed", 0, 3, 5),
        "emu-check": ("seed", "--seed", 0, 3, 5),
    }

    def _config(self, tmp_path, wide, command, extra) -> dict:
        report = tmp_path / "r.jsonl"
        report.unlink(missing_ok=True)
        result = CliRunner().invoke(
            main, [*_base_args(command, tmp_path, wide), *extra, "--report", str(report)]
        )
        assert result.exit_code == 0, result.output
        return _records(report)[-1]["config"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_layers_in_order(self, tmp_path, wide, command) -> None:
        key, flag, default, from_config, from_flag = self.CASES[command]
        config = ["--config", _write_config(tmp_path, {key: from_config})]
        assert self._config(tmp_path, wide, command, [])[key] == default
        assert self._config(tmp_path, wide, command, config)[key] == from_config
        both = [*config, flag, str(from_flag)]
        assert self._config(tmp_path, wide, command, both)[key] == from_flag

    def test_config_value_takes_effect(self, tmp_path, wide) -> None:
        report = tmp_path / "r.jsonl"
        config = _write_config(tmp_path, {"format_name": "E3M0"})
        result = CliRunner().invoke(
            main, ["quantize", "--input", wide, "--config", config, "--report", str(report)]
        )
        assert result.exit_code == 0, result.output
        assert _records(report)[0]["metrics"]["format"] == "E3M0"


class TestOptionTable:
    """Config keys, record keys and --help all follow each command's options."""

    @pytest.mark.parametrize("command", COMMANDS)
    # The input's stem is the layer and --out-prefix names the outputs: a config with these keys does not run.
    @pytest.mark.parametrize("key", ["bogus", "report_path", "config_path", "layer", "out_codes", "out_scales"])
    def test_unknown_config_key_is_one_problem(self, tmp_path, wide, command, key) -> None:
        report = tmp_path / "r.jsonl"
        args = [*_base_args(command, tmp_path, wide), "--report", str(report),
                "--config", _write_config(tmp_path, {key: 1})]
        assert _problems(CliRunner().invoke(main, args)) == [f"config: unknown key {key!r}"]
        assert not report.exists()

    @pytest.mark.parametrize("command, key", [
        (command, p.name) for command in COMMANDS for p in main.commands[command].params
        if p.name not in ("report_path", "config_path") and p.default is not None
    ])
    def test_null_for_an_option_with_a_default_is_one_problem(self, tmp_path, wide, command, key) -> None:
        report = tmp_path / "r.jsonl"
        args = [*_base_args(command, tmp_path, wide), "--report", str(report),
                "--config", _write_config(tmp_path, {key: None})]
        assert _problems(CliRunner().invoke(main, args)) == [f"config: {key}: expected a value, got null"]
        assert not report.exists()

    @pytest.mark.parametrize("command, key", [
        ("quantize", "out_prefix"), ("dfq", "out_prefix"), ("galt", "out_lambda"),
    ])
    def test_null_for_an_option_without_a_default_is_its_default(self, tmp_path, wide, command, key) -> None:
        report = tmp_path / "r.jsonl"
        args = [*_base_args(command, tmp_path, wide), "--report", str(report),
                "--config", _write_config(tmp_path, {key: None})]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        default = CliRunner().invoke(main, [*_base_args(command, tmp_path, wide), "--report", str(report)])
        assert default.exit_code == 0, default.output
        first, second = [r["config"] for r in _records(report) if "config" in r]
        assert first == second

    @pytest.mark.parametrize("command, flags, want", [
        ("quantize", ["--group", "0"], "flag: --group: 0 is not in the range x>=1."),
        ("dfq", ["--group", "-2"], "flag: --group: -2 is not in the range x>=1."),
        ("search", ["--group", "0"], "flag: --group: 0 is not in the range x>=1."),
        ("rotate", ["--group", "0"], "flag: --group: 0 is not in the range x>=1."),
        ("galt", ["--epochs", "-1"], "flag: --epochs: -1 is not in the range x>=0."),
        ("emu-check", ["--samples", "0"], "flag: --samples: 0 is not in the range x>=1."),
    ])
    def test_out_of_range_flag_is_one_json_problem(self, tmp_path, wide, command, flags, want) -> None:
        report = tmp_path / "r.jsonl"
        args = [*_base_args(command, tmp_path, wide), *flags, "--report", str(report)]
        assert _problems(CliRunner().invoke(main, args)) == [want]
        assert not report.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("command, flag, key", [
        ("quantize", "--format", "format_name"),
        ("galt", "--format", "format_name"),
        ("dfq", "--neg-format", "neg_format"),
        ("dfq", "--pos-format", "pos_format"),
        ("quantize", "--granularity", "granularity"),
        ("dfq", "--granularity", "granularity"),
        ("search", "--granularity", "granularity"),
        ("galt", "--granularity", "granularity"),
    ])
    def test_name_outside_the_choices_is_one_json_problem(self, tmp_path, wide, source, command,
                                                          flag, key) -> None:
        report = tmp_path / "r.jsonl"
        extra = [flag, "bogus"] if source == "flag" else ["--config", _write_config(tmp_path, {key: "bogus"})]
        before = sorted(tmp_path.iterdir())
        (problem,) = _problems(CliRunner().invoke(
            main, [*_base_args(command, tmp_path, wide), *extra, "--report", str(report)]))
        where = f"flag: {flag}" if source == "flag" else f"config: {key}"
        assert problem.startswith(f"{where}: 'bogus' is not one of ")
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", COMMANDS)
    def test_non_number_flag_is_one_json_problem(self, tmp_path, wide, command) -> None:
        flag = "--seed" if command == "emu-check" else "--group"
        args = [*_base_args(command, tmp_path, wide), flag, "x", "--report", str(tmp_path / "r.jsonl")]
        assert _problems(CliRunner().invoke(main, args)) == [f"flag: {flag}: 'x' is not a valid integer range."]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_record_config_keys_are_the_option_names(self, tmp_path, wide, command) -> None:
        report = tmp_path / "r.jsonl"
        args = [*_base_args(command, tmp_path, wide), "--report", str(report)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        names = {p.name for p in main.commands[command].params} - {"report_path", "config_path"}
        record = _records(report)[-1]
        assert record["command"] == command
        assert set(record["config"]) == names

    # The options of each command in --help order, with their defaults.
    HELP = {
        "quantize": [("--input", None), ("--format", "E2M1"), ("--granularity", "per_tensor"),
                     ("--group", 128), ("--out-prefix", None)],
        "dfq": [("--input", None), ("--neg-format", "E1M2"), ("--pos-format", "E2M1"),
                ("--granularity", "per_tensor"), ("--group", 128), ("--out-prefix", None)],
        "search": [("--input", None), ("--granularity", "per_tensor"), ("--group", 128)],
        "rotate": [("--input", None), ("--output", None), ("--group", 128)],
        "galt": [("--weight", None), ("--calib", None), ("--dim", 256),
                 ("--out-features", 256), ("--schedule", "1,4,9,16,25,36,64,100,169,256"),
                 ("--seed", 0), ("--outlier-channels", 4), ("--outlier-magnitude", 50.0),
                 ("--format", "E2M1"), ("--granularity", "per_group"), ("--group", 128),
                 ("--epochs", 50), ("--lr", 0.01), ("--out-lambda", None)],
        "emu-check": [("--samples", 1_000_000), ("--seed", 0)],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_the_options_and_defaults(self, command) -> None:
        # A row shows its option's default (show_default) unless that is None or
        # False, and no help string repeats it.  Rows wrap onto deeper-indented lines.
        result = CliRunner().invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        options = result.stdout.split("Options:\n")[1]
        rows = [" ".join(row.split()) for row in re.split(r"\n(?=  --)", options)]
        want = [*self.HELP[command], ("--report", None), ("--config", None)]
        assert [row.split()[0].rstrip(",") for row in rows] == [flag for flag, _ in want] + ["--help"]
        params = main.commands[command].params
        assert [(p.opts[0], p.to_info_dict()["default"]) for p in params] == want
        for (flag, default), p, row in zip(want, params, rows):
            assert ("[default: " in row) == (default is not None and default is not False), row
            assert f"[{default}]" not in (p.help or ""), p.help


@pytest.fixture
def codes_file(tmp_path):
    path = tmp_path / "codes.fpqt"
    write_tensor(path, np.arange(16, dtype=np.uint8).reshape(2, 8), kind="code4")
    return str(path)


class TestInputKinds:
    """Every command that reads values rejects a file of FP codes."""

    @pytest.mark.parametrize("command", [
        ["quantize", "--input", "{codes}"],
        ["dfq", "--input", "{codes}"],
        ["search", "--input", "{codes}"],
        ["rotate", "--input", "{codes}", "--output", "{tmp}/rot.fpqt"],
        ["galt", "--calib", "{codes}", "--weight", "{codes}", "--group", "8"],
    ])
    def test_code_file_is_a_json_error(self, tmp_path, codes_file, command) -> None:
        args = [a.format(codes=codes_file, tmp=tmp_path) for a in command]
        if command[0] == "galt":
            args += ["--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt")]
        report = tmp_path / "r.jsonl"
        problems = _problems(CliRunner().invoke(main, [*args, "--report", str(report)]))
        assert set(problems) == {f"input: {codes_file}: expected a float tensor, got code4"}
        assert not report.exists()

    def test_shape_numpy_cannot_hold_names_the_input(self, tmp_path) -> None:
        path = tmp_path / "deep.fpqt"
        path.write_bytes(b"FPQT" + struct.pack("<HBB70Q", 1, 1, 70, *[1] * 70) + bytes(8))
        (problem,) = _problems(CliRunner().invoke(main, ["quantize", "--input", str(path)]))
        assert problem.startswith(f"input: {path}: unsupported shape: ")
        assert problem.endswith("(at byte offset 8)")

    def test_rotate_scalar_is_a_json_error(self, tmp_path) -> None:
        path = tmp_path / "scalar.fpqt"
        write_tensor(path, np.float64(1.5))
        result = CliRunner().invoke(
            main, ["rotate", "--input", str(path), "--output", str(tmp_path / "rot.fpqt")]
        )
        (problem,) = _problems(result)
        assert problem.startswith(f"input: {path}: ")
        assert not (tmp_path / "rot.fpqt").exists()

    @pytest.mark.parametrize("command", ["quantize", "dfq", "search"])
    def test_per_group_scalar_is_a_json_error(self, tmp_path, command) -> None:
        path, report = tmp_path / "scalar.fpqt", tmp_path / "r.jsonl"
        write_tensor(path, np.float64(2.0))
        result = CliRunner().invoke(main, [
            command, "--input", str(path), "--granularity", "per_group", "--group", "4",
            "--report", str(report),
        ])
        assert _problems(result) == [
            f"{command}: per_group granularity needs a tensor with at least one axis, got 0-D"
        ]
        assert not report.exists()

    def test_galt_scalar_calibration_is_a_json_error(self, tmp_path) -> None:
        scalar, step, weight = tmp_path / "scalar.fpqt", tmp_path / "step.fpqt", tmp_path / "w.fpqt"
        write_tensor(scalar, np.float64(1.5))
        write_tensor(step, np.ones((4, 8)))
        write_tensor(weight, np.ones((2, 8)))
        report = tmp_path / "r.jsonl"
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(scalar), "--calib", str(step), "--weight", str(weight),
            "--group", "8", "--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt"),
            "--report", str(report),
        ])
        (problem,) = _problems(result)
        assert problem.startswith(f"input: {scalar}: ")
        assert not report.exists() and not (tmp_path / "lam.fpqt").exists()

    @pytest.mark.parametrize("shape", [(16,), (2, 4, 16)], ids=["1d", "3d"])
    def test_galt_calibration_that_is_not_2d_is_a_json_error(self, tmp_path, shape) -> None:
        bad, weight = tmp_path / "bad.fpqt", tmp_path / "w.fpqt"
        write_tensor(bad, np.ones(shape))
        write_tensor(weight, np.ones((2, 16)))
        report = tmp_path / "r.jsonl"
        result = CliRunner().invoke(main, [
            "galt", "--calib", str(bad), "--weight", str(weight), "--group", "8", "--epochs", "1",
            "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(report),
        ])
        assert _problems(result) == [
            f"input: {bad}: a calibration step must be 2-D (tokens, channels), got shape {shape}"
        ]
        assert not report.exists() and not (tmp_path / "lam.fpqt").exists()


class TestGaltCalibRecord:
    """With calibration files the record shows the schedule and dim that ran,
    and the synthetic settings, which never take effect, are not read."""

    def _run(self, tmp_path, *flags):
        report = tmp_path / "r.jsonl"
        report.unlink(missing_ok=True)
        result = CliRunner().invoke(main, [
            "galt", *flags, "--epochs", "2", "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        return _records(report)[-1]

    def test_record_replays_the_run(self, tmp_path) -> None:
        rng = np.random.default_rng(3)
        calib = [tmp_path / "c0.fpqt", tmp_path / "c1.fpqt"]
        write_tensor(calib[0], rng.standard_normal((1, 2)))
        write_tensor(calib[1], rng.standard_normal((2, 2)))
        weight = tmp_path / "w.fpqt"
        write_tensor(weight, rng.standard_normal((4, 2)))
        lam = tmp_path / "lam.fpqt"
        record = self._run(tmp_path, "--calib", str(calib[0]), "--calib", str(calib[1]),
                           "--weight", str(weight), "--group", "2", "--out-lambda", str(lam))
        assert (record["config"]["schedule"], record["config"]["dim"]) == ([1, 2], 2)
        first = read_tensor(lam).data
        lam.unlink()
        replay = self._run(tmp_path, "--config", _write_config(tmp_path, record["config"]))
        assert replay["config"] == record["config"]
        assert replay["metrics"] == record["metrics"]
        np.testing.assert_array_equal(read_tensor(lam).data, first)

    def _files(self, tmp_path):
        """Two calibration steps and a weight, as --calib/--weight flags."""
        rng = np.random.default_rng(4)
        paths = [tmp_path / "c0.fpqt", tmp_path / "c1.fpqt", tmp_path / "w.fpqt"]
        for path, shape in zip(paths, [(1, 4), (3, 4), (6, 4)]):
            write_tensor(path, rng.standard_normal(shape))
        return ["--calib", str(paths[0]), "--calib", str(paths[1]), "--weight", str(paths[2]),
                "--group", "4", "--out-lambda", str(tmp_path / "lam.fpqt")]

    @pytest.mark.parametrize("source, dropped", [
        ("calib", {"seed", "out_features", "outlier_channels", "outlier_magnitude"}),
        ("synth", set()),
    ])
    def test_record_keys_are_the_settings_that_took_effect(self, tmp_path, source, dropped) -> None:
        files = self._files(tmp_path)
        synth = ["--dim", "4", "--schedule", "1,3", "--out-features", "6"]
        flags = {"calib": files, "synth": synth + files[6:]}[source]
        record = self._run(tmp_path, *flags)
        names = {p.name for p in main.commands["galt"].params} - {"report_path", "config_path"}
        assert set(record["config"]) == names - dropped

    def test_weight_without_calib_is_the_one_problem(self, tmp_path) -> None:
        # A weight file is never fitted against synthetic calibration.
        report = tmp_path / "r.jsonl"
        args = ["galt", "--dim", "4", "--out-features", "6", *self._files(tmp_path)[4:], "--report", str(report)]
        assert _problems(CliRunner().invoke(main, args)) == ["calib: required with --weight"]
        assert not report.exists() and not (tmp_path / "lam.fpqt").exists()

    def test_calib_run_ignores_a_malformed_schedule(self, tmp_path) -> None:
        flags = self._files(tmp_path)
        record = self._run(tmp_path, *flags, "--schedule", "x,y", "--outlier-magnitude", "nan")
        assert record["config"]["schedule"] == [1, 3]
        result = CliRunner().invoke(main, ["galt", "--schedule", "x,y", "--epochs", "1",
                                           "--out-lambda", str(tmp_path / "lam.fpqt")])
        assert _problems(result) == ["schedule: expected comma-separated integers, got 'x,y'"]
