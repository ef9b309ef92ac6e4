"""CLI tests: the dfq code planes, write and search failures, and the environment."""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner

from fpq import hwemu
from fpq.cli import main
from fpq.formats import E2M1, E2M3, E3M0
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
        # click.Path would take a number as a file descriptor.
        (["quantize"], {"out_codes": 7}, "out_codes"),
        (["quantize"], {"out_codes": ["a"]}, "out_codes"),
        (["dfq"], {"out_prefix": 7}, "out_prefix"),
        (["galt", "--synth"], {"out_lambda": 7}, "out_lambda"),
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

    @pytest.mark.parametrize("raw", ["x", "-1"])
    def test_bad_fpq_seed_is_a_json_error(self, raw) -> None:
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10"], env={"FPQ_SEED": raw})
        (problem,) = _problems(result)
        assert problem.startswith("env: FPQ_SEED: ")

    def test_negative_seed_flag_is_a_usage_error(self) -> None:
        # A usage error, reported as the same JSON problem a config value gets.
        result = CliRunner().invoke(main, ["emu-check", "--samples", "10", "--seed", "-1"])
        assert _problems(result) == ["flag: --seed: -1 is not in the range x>=0."]

    @pytest.mark.parametrize("command, doc, want", [
        (["galt", "--synth"], {"epochs": 2.9}, "config: epochs: expected an integer, got 2.9"),
        (["galt", "--synth"], {"lr": True}, "config: lr: expected a number, got true"),
        (["emu-check"], {"samples": True}, "config: samples: expected an integer, got true"),
        (["galt", "--synth"], {"epochs": [1]}, "config: epochs: expected an integer, got [1]"),
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
            "galt", "--synth", "--dim", "8", "--group", "8", "--out-features", "4", "--schedule", "1,4",
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
            "galt", "--synth", "--out-features", "4", "--config", str(config),
            "--out-lambda", str(tmp_path / "lam.fpqt"), "--report", str(report),
        ])
        assert result.exit_code == 0, result.output
        record = _records(report)[-1]
        assert record["config"]["schedule"] == [1, 4]
        assert record["config"]["epochs"] == 1
        assert record["metrics"]["epochs"] == 1


class TestGaltInputs:
    """Bad numbers for ``galt --synth`` end in exit 2, never a traceback."""

    def _invoke(self, tmp_path, flags):
        return CliRunner().invoke(main, [
            "galt", "--synth", "--dim", "16", "--group", "16", "--out-features", "8",
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
        assert (metrics["quantizer_parity"], metrics["mul_tables"]) == ("pass", "pass")
        assert metrics["mul_exact"] == {"E1M2xE2M1": "256/256", "E2M1xE2M1": "256/256", "E3M0xE2M1": "256/256"}
        # Three grids and nine DFQ pairs, every one exact.
        assert len(metrics["mismatches"]) == 12 and set(metrics["mismatches"].values()) == {0}
        assert metrics["scale_mismatches"] == [] and metrics["samples"] == 20000
        assert (metrics["addr_frac_bits"]["E2M1"], metrics["addr_frac_bits"]["E3M0/E2M1"]) == (2, 3)

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
            mul, p2i = luts.multiplier(E3M0, E2M1)
            mul = mul.copy()
            mul[0x17] ^= 1  # 0.25 * 6 = 1.5 in E4M3 becomes 1.625
            return hwemu.LutTables(luts.address, {**luts.product, (E3M0, E2M1): (mul, p2i)})

        monkeypatch.setattr(hwemu, "build_tables", flipped)
        result = CliRunner().invoke(main, ["emu-check", "--samples", "2000"])
        assert result.exit_code == 1
        metrics = json.loads(result.stdout)["metrics"]
        assert metrics["mul_tables"] == "fail" and metrics["mul_exact"]["E3M0xE2M1"] == "255/256"
        assert metrics["quantizer_parity"] == "pass"


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
        "galt": ["galt", "--synth", "--dim", "16", "--group", "16", "--out-features", "8",
                 "--schedule", "1,4", "--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt")],
        "emu-check": ["emu-check", "--samples", "2000"],
    }[command]


COMMANDS = ("quantize", "dfq", "search", "rotate", "galt", "emu-check")


class TestPrecedence:
    """option default < --config < flag < FPQ_SEED, seen in the record."""

    # command: (config key, flag, default, config value, flag value)
    CASES = {
        "quantize": ("format_name", "--format", "E2M1", "E3M0", "E1M2"),
        "dfq": ("pos_format", "--pos-format", "E2M1", "E3M0", "E1M2"),
        "search": ("granularity", "--granularity", "per_tensor", "per_token", "per_channel"),
        "rotate": ("group_size", "--group", 128, 64, 32),
        "galt": ("seed", "--seed", 0, 3, 5),
        "emu-check": ("seed", "--seed", 0, 3, 5),
    }

    def _config(self, tmp_path, wide, command, extra, env=None) -> dict:
        report = tmp_path / "r.jsonl"
        report.unlink(missing_ok=True)
        result = CliRunner().invoke(
            main, [*_base_args(command, tmp_path, wide), *extra, "--report", str(report)], env=env
        )
        assert result.exit_code == 0, result.output
        return _records(report)[-1]["config"]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_layers_in_order(self, tmp_path, wide, command) -> None:
        key, flag, default, from_config, from_flag = self.CASES[command]
        config = ["--config", _write_config(tmp_path, {key: from_config})]
        seedless = {"FPQ_SEED": ""}
        assert self._config(tmp_path, wide, command, [], seedless)[key] == default
        assert self._config(tmp_path, wide, command, config, seedless)[key] == from_config
        both = [*config, flag, str(from_flag)]
        assert self._config(tmp_path, wide, command, both, seedless)[key] == from_flag
        seeded = self._config(tmp_path, wide, command, both, {"FPQ_SEED": "7"})
        if key == "seed":
            assert seeded[key] == 7
        else:
            assert seeded[key] == from_flag and "seed" not in seeded

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
    @pytest.mark.parametrize("key", ["bogus", "report_path", "config_path"])
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
        ("quantize", "layer"), ("quantize", "out_codes"), ("dfq", "out_prefix"), ("galt", "out_lambda"),
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
                     ("--group", 128), ("--pad-partial", False), ("--layer", None),
                     ("--out-codes", None), ("--out-scales", None)],
        "dfq": [("--input", None), ("--neg-format", "E1M2"), ("--pos-format", "E2M1"),
                ("--search", False), ("--granularity", "per_tensor"), ("--group", 128),
                ("--layer", None), ("--out-prefix", None)],
        "search": [("--input", None), ("--granularity", "per_tensor"), ("--group", 128)],
        "rotate": [("--input", None), ("--output", None), ("--group", 128)],
        "galt": [("--weight", None), ("--calib", None), ("--synth", False), ("--dim", 256),
                 ("--out-features", 256), ("--schedule", "1,4,9,16,25,36,64,100,169,256"),
                 ("--seed", 0), ("--outlier-channels", 4), ("--outlier-magnitude", 50.0),
                 ("--format", "E2M1"), ("--granularity", "per_group"), ("--group", 128),
                 ("--epochs", 50), ("--lr", 0.01), ("--layer", None), ("--out-lambda", None)],
        "emu-check": [("--samples", 1_000_000), ("--seed", 0)],
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_the_options_and_defaults(self, command) -> None:
        result = CliRunner().invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        listed = [line.split()[0].rstrip(",") for line in result.stdout.splitlines()
                  if line.startswith("  --")]
        want = [*self.HELP[command], ("--report", None), ("--config", None)]
        assert listed == [flag for flag, _ in want] + ["--help"]
        params = main.commands[command].params
        assert [(p.opts[0], p.to_info_dict()["default"]) for p in params] == want


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
        ["galt", "--synth", "--dim", "8", "--group", "8", "--weight", "{codes}"],
    ])
    def test_code_file_is_a_json_error(self, tmp_path, codes_file, command) -> None:
        args = [a.format(codes=codes_file, tmp=tmp_path) for a in command]
        if command[0] == "galt":
            args += ["--epochs", "1", "--out-lambda", str(tmp_path / "lam.fpqt")]
        report = tmp_path / "r.jsonl"
        problems = _problems(CliRunner().invoke(main, [*args, "--report", str(report)]))
        assert set(problems) == {f"input: {codes_file}: expected a float tensor, got code4"}
        assert not report.exists()

    def test_rotate_scalar_is_a_json_error(self, tmp_path) -> None:
        path = tmp_path / "scalar.fpqt"
        write_tensor(path, np.float64(1.5))
        result = CliRunner().invoke(
            main, ["rotate", "--input", str(path), "--output", str(tmp_path / "rot.fpqt")]
        )
        (problem,) = _problems(result)
        assert problem.startswith(f"input: {path}: ")
        assert not (tmp_path / "rot.fpqt").exists()

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


class TestGaltCalibRecord:
    """With calibration files the record shows the schedule and dim that ran."""

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
