"""Command-line surface: quantize/rotate/smooth tensors in FPQT files.

Every command resolves its configuration from built-in defaults, then an
optional JSON --config file (unknown keys rejected), then explicit
command-line flags, then the FPQ_SEED environment override; config and
environment values go through the option's click type.  Each run
appends one JSON record per result to the report stream (file via
--report, stdout otherwise) echoing the fully resolved config, so a run
can be replayed exactly.  Validation problems are collected and reported
together as machine-readable JSON on stderr with exit code 2, and so is
an output file that cannot be written.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import formats, galt, hadamard, hwemu, tensorfile
from .quantize import (
    Granularity,
    dequantize,
    dfq_quantize,
    dfq_search_format,
    quant_mse,
    quantize,
)

_GRANULARITIES = ("per_tensor", "per_channel", "per_token", "per_group")


def _fail(problems: list[str]) -> None:
    payload = {"error": "invalid configuration", "problems": problems}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(2)


def _resolve_config(ctx: click.Context, defaults: dict, config_path: str | None):
    """defaults < config file < explicit flags < environment overrides."""
    problems: list[str] = []
    resolved = dict(defaults)
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text())
        except OSError as exc:
            problems.append(f"config: cannot read {config_path}: {exc}")
            doc = {}
        except json.JSONDecodeError as exc:
            problems.append(f"config: invalid JSON in {config_path}: {exc}")
            doc = {}
        if not isinstance(doc, dict):
            problems.append("config: top level must be a JSON object")
            doc = {}
        unknown = sorted(set(doc) - set(defaults))
        for key in unknown:
            problems.append(f"config: unknown key {key!r}")
        for key in sorted(set(doc) & set(defaults)):
            _cast(ctx, key, doc[key], resolved, problems, f"config: {key}")
    for key in defaults:
        if ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE:
            resolved[key] = ctx.params[key]

    if "seed" in resolved and os.environ.get("FPQ_SEED"):
        _cast(ctx, "seed", os.environ["FPQ_SEED"], resolved, problems, "env: FPQ_SEED")
    return resolved, problems


def _cast(ctx: click.Context, key: str, raw, resolved: dict, problems: list[str], where: str):
    """Store ``raw`` converted by the type of the command's ``key`` option."""
    param = next(p for p in ctx.command.params if p.name == key)
    try:
        resolved[key] = param.type_cast_value(ctx, raw)
    except click.BadParameter as exc:
        problems.append(f"{where}: {exc.message}")


def _parse_format(name, problems: list[str]):
    try:
        return formats.get_format(str(name))
    except ValueError as exc:
        problems.append(f"format: {exc}")
        return None


def _parse_granularity(cfg: dict, problems: list[str]):
    kind = cfg["granularity"]
    if kind not in _GRANULARITIES:
        problems.append(
            f"granularity: unknown kind {kind!r}; one of {', '.join(_GRANULARITIES)}"
        )
        return None
    group = cfg.get("group_size", 128)
    if not isinstance(group, int) or group < 1:
        problems.append(f"group_size: must be a positive integer, got {group!r}")
        return None
    if kind == "per_group":
        return Granularity.per_group(group, cfg.get("pad_partial", False))
    return Granularity(kind)


def _parse_schedule(raw, problems: list[str]):
    # A config list arrives as its string form, "[1, 4, 9]".
    items = [s for s in str(raw).strip("[]").replace(" ", "").split(",") if s]
    try:
        counts = tuple(int(v) for v in items)
    except (TypeError, ValueError):
        problems.append(f"schedule: expected comma-separated integers, got {raw!r}")
        return None
    if not counts or any(c < 1 for c in counts):
        problems.append(f"schedule: token counts must be positive, got {raw!r}")
        return None
    if any(b <= a for a, b in zip(counts, counts[1:])):
        problems.append(f"schedule: token counts must strictly increase, got {counts}")
        return None
    return counts


def _read(path, problems: list[str]):
    try:
        return tensorfile.read_tensor(path).data
    except (OSError, tensorfile.TensorFileError) as exc:
        problems.append(f"input: {path}: {exc}")
        return None


def _write(path, array, kind: str) -> None:
    try:
        tensorfile.write_tensor(path, array, kind=kind)
    except (OSError, ValueError) as exc:
        _fail([f"output: {path}: {exc}"])


def _search(tensors, gran):
    try:
        return dfq_search_format(tensors, gran)
    except ValueError as exc:
        _fail([f"search: {exc}"])


def _emit(report_path, record: dict) -> None:
    line = json.dumps(record, sort_keys=True)
    if report_path:
        with open(report_path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
    else:
        click.echo(line)


def _record(command: str, config: dict, metrics: dict, started: float) -> dict:
    return {
        "command": command,
        "config": {k: v for k, v in sorted(config.items())},
        "metrics": metrics,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def _codes_kind(fmt: formats.FpFormat) -> str:
    return "code4" if fmt.width <= 4 else "code8"


@click.group()
def main() -> None:
    """Low-bit floating-point quantization toolkit."""


@main.command("quantize")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--format", "format_name", default="E2M1", help="grid format [E2M1]")
@click.option("--granularity", default="per_tensor", help="per_tensor|per_channel|per_token|per_group [per_tensor]")
@click.option("--group", "group_size", default=128, help="per_group size [128]")
@click.option("--pad-partial", "pad_partial", is_flag=True, default=False)
@click.option("--layer", "layer", default=None, help="layer label in the report [input stem]")
@click.option("--out-codes", "out_codes", default=None, type=click.Path())
@click.option("--out-scales", "out_scales", default=None, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.pass_context
def cli_quantize(ctx, **_kw) -> None:
    """Quantize one tensor file; write codes + scales and an MSE record."""
    started = time.perf_counter()
    defaults = {
        "input_path": ctx.params["input_path"],
        "format_name": "E2M1",
        "granularity": "per_tensor",
        "group_size": 128,
        "pad_partial": False,
        "layer": None,
        "out_codes": None,
        "out_scales": None,
    }
    cfg, problems = _resolve_config(ctx, defaults, ctx.params["config_path"])
    fmt = _parse_format(cfg["format_name"], problems)
    cfg["granularity"] = str(cfg["granularity"])
    gran = _parse_granularity(
        {"granularity": cfg["granularity"], "group_size": cfg["group_size"],
         "pad_partial": cfg["pad_partial"]},
        problems,
    )
    x = _read(cfg["input_path"], problems)
    if problems:
        _fail(problems)

    layer = cfg["layer"] or Path(cfg["input_path"]).stem
    try:
        q = quantize(x, fmt, gran)
    except ValueError as exc:
        _fail([f"quantize: {exc}"])
    mse = quant_mse(x, dequantize(q))

    out_codes = cfg["out_codes"] or str(Path(cfg["input_path"]).with_suffix(".codes.fpqt"))
    out_scales = cfg["out_scales"] or str(Path(cfg["input_path"]).with_suffix(".scales.fpqt"))
    _write(out_codes, q.codes, _codes_kind(fmt))
    _write(out_scales, np.asarray(q.scales, dtype=np.float64), "f64")
    cfg.update(out_codes=out_codes, out_scales=out_scales, layer=layer)
    _emit(
        ctx.params["report_path"],
        _record(
            "quantize",
            cfg,
            {"layer": layer, "format": fmt.name, "granularity": gran.kind, "mse": mse},
            started,
        ),
    )


@main.command("dfq")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--neg-format", "neg_format", default="E1M2", help="negative-branch grid [E1M2]")
@click.option("--pos-format", "pos_format", default="E2M1", help="positive-branch grid [E2M1]")
@click.option("--search", "search", is_flag=True, default=False, help="search grids on the input first")
@click.option("--granularity", default="per_tensor", help="unit layout [per_tensor]")
@click.option("--group", "group_size", default=128, help="per_group size [128]")
@click.option("--layer", "layer", default=None)
@click.option("--out-prefix", "out_prefix", default=None, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.pass_context
def cli_dfq(ctx, **_kw) -> None:
    """Dual-format quantization of one tensor file (two code planes)."""
    started = time.perf_counter()
    defaults = {
        "input_path": ctx.params["input_path"],
        "neg_format": "E1M2",
        "pos_format": "E2M1",
        "search": False,
        "granularity": "per_tensor",
        "group_size": 128,
        "layer": None,
        "out_prefix": None,
    }
    cfg, problems = _resolve_config(ctx, defaults, ctx.params["config_path"])
    gran = _parse_granularity(
        {"granularity": cfg["granularity"], "group_size": cfg["group_size"]}, problems
    )
    x = _read(cfg["input_path"], problems)
    neg_fmt = _parse_format(cfg["neg_format"], problems)
    pos_fmt = _parse_format(cfg["pos_format"], problems)
    if problems:
        _fail(problems)

    if cfg["search"]:
        neg_fmt, pos_fmt = _search([x], gran)
        cfg["neg_format"], cfg["pos_format"] = neg_fmt.name, pos_fmt.name
    layer = cfg["layer"] or Path(cfg["input_path"]).stem
    try:
        r = dfq_quantize(x, neg_fmt, pos_fmt, gran)
    except ValueError as exc:
        _fail([f"dfq: {exc}"])
    mse = quant_mse(x, dequantize(r))

    prefix = cfg["out_prefix"] or str(Path(cfg["input_path"]).with_suffix(""))
    paths = {
        "neg_codes": f"{prefix}.neg_codes.fpqt",
        "pos_codes": f"{prefix}.pos_codes.fpqt",
        "neg_scales": f"{prefix}.neg_scales.fpqt",
        "pos_scales": f"{prefix}.pos_scales.fpqt",
    }
    _write(paths["neg_codes"], r.neg_codes, _codes_kind(neg_fmt))
    _write(paths["pos_codes"], r.pos_codes, _codes_kind(pos_fmt))
    _write(paths["neg_scales"], np.asarray(r.s_neg, dtype=np.float64), "f64")
    _write(paths["pos_scales"], np.asarray(r.s_pos, dtype=np.float64), "f64")
    cfg["out_prefix"] = prefix
    cfg["layer"] = layer
    _emit(
        ctx.params["report_path"],
        _record(
            "dfq",
            cfg,
            {
                "layer": layer,
                "neg_format": neg_fmt.name,
                "pos_format": pos_fmt.name,
                "granularity": gran.kind,
                "mse": mse,
                "outputs": paths,
            },
            started,
        ),
    )


@main.command("search")
@click.option("--input", "input_paths", required=True, multiple=True, type=click.Path())
@click.option("--granularity", default="per_tensor")
@click.option("--group", "group_size", default=128)
@click.option("--report", "report_path", default=None, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.pass_context
def cli_search(ctx, **_kw) -> None:
    """Search the best dual-format grid pair over calibration tensors."""
    started = time.perf_counter()
    defaults = {
        "input_paths": list(ctx.params["input_paths"]),
        "granularity": "per_tensor",
        "group_size": 128,
    }
    cfg, problems = _resolve_config(ctx, defaults, ctx.params["config_path"])
    gran = _parse_granularity(
        {"granularity": cfg["granularity"], "group_size": cfg["group_size"]}, problems
    )
    tensors = [_read(p, problems) for p in cfg["input_paths"]]
    if problems:
        _fail(problems)
    neg_fmt, pos_fmt = _search(tensors, gran)
    _emit(
        ctx.params["report_path"],
        _record(
            "search",
            cfg,
            {"neg_format": neg_fmt.name, "pos_format": pos_fmt.name,
             "num_tensors": len(tensors)},
            started,
        ),
    )


@main.command("rotate")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--group", "group_size", default=128, help="rotation block size [128]")
@click.option("--report", "report_path", default=None, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.pass_context
def cli_rotate(ctx, **_kw) -> None:
    """Group-wise Hadamard rotation of a tensor file (orthonormal blocks)."""
    started = time.perf_counter()
    defaults = {
        "input_path": ctx.params["input_path"],
        "output_path": ctx.params["output_path"],
        "group_size": 128,
    }
    cfg, problems = _resolve_config(ctx, defaults, ctx.params["config_path"])
    loaded = None
    try:
        loaded = tensorfile.read_tensor(cfg["input_path"])
    except (OSError, tensorfile.TensorFileError) as exc:
        problems.append(f"input: {cfg['input_path']}: {exc}")
    if loaded is not None and loaded.kind not in ("f32", "f64"):
        problems.append(f"input: rotate expects a float tensor, got {loaded.kind}")
    if problems:
        _fail(problems)
    x = loaded.data
    try:
        cfgh = hadamard.HadamardConfig(dim=x.shape[-1], group_size=cfg["group_size"])
    except ValueError as exc:
        _fail([f"rotate: {exc}"])
    out = hadamard.apply_ght(x, cfgh)
    _write(cfg["output_path"], out.astype(x.dtype), loaded.kind)
    _emit(
        ctx.params["report_path"],
        _record(
            "rotate",
            cfg,
            {"shape": list(x.shape), "group_size": cfg["group_size"],
             "blocks": cfgh.num_blocks},
            started,
        ),
    )


@main.command("galt")
@click.option("--weight", "weight_path", default=None, type=click.Path())
@click.option("--calib", "calib_paths", multiple=True, type=click.Path(),
              help="per-step activation files, coarse to fine")
@click.option("--synth", "synth", is_flag=True, default=False,
              help="use the seeded synthetic calibration instead of files")
@click.option("--dim", "dim", default=256, help="channel count for --synth [256]")
@click.option("--out-features", "out_features", default=256, help="synthetic weight rows [256]")
@click.option("--schedule", "schedule", default="1,4,9,16,25,36,64,100,169,256",
              help="per-step token counts")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0), help="synthetic data seed [0]")
@click.option("--outlier-channels", "outlier_channels", default=4)
@click.option("--outlier-magnitude", "outlier_magnitude", default=50.0)
@click.option("--format", "format_name", default="E2M1")
@click.option("--granularity", default="per_group")
@click.option("--group", "group_size", default=128)
@click.option("--epochs", "epochs", default=50, help="optimization epochs [50]")
@click.option("--lr", "lr", default=0.01, help="learning rate [0.01]")
@click.option("--layer", "layer", default=None)
@click.option("--out-lambda", "out_lambda", default=None, type=click.Path())
@click.option("--report", "report_path", default=None, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.pass_context
def cli_galt(ctx, **_kw) -> None:
    """Fit the per-channel smoothing vector; write it and the loss history."""
    started = time.perf_counter()
    defaults = {
        "weight_path": ctx.params["weight_path"],
        "calib_paths": list(ctx.params["calib_paths"]),
        "synth": False,
        "dim": 256,
        "out_features": 256,
        "schedule": "1,4,9,16,25,36,64,100,169,256",
        "seed": 0,
        "outlier_channels": 4,
        "outlier_magnitude": 50.0,
        "format_name": "E2M1",
        "granularity": "per_group",
        "group_size": 128,
        "epochs": 50,
        "lr": 0.01,
        "layer": None,
        "out_lambda": None,
    }
    cfg, problems = _resolve_config(ctx, defaults, ctx.params["config_path"])
    fmt = _parse_format(cfg["format_name"], problems)
    gran = _parse_granularity(
        {"granularity": cfg["granularity"], "group_size": cfg["group_size"]}, problems
    )
    schedule = _parse_schedule(cfg["schedule"], problems)
    if not cfg["synth"] and not cfg["calib_paths"]:
        problems.append("calib: provide --calib files or --synth")
    if not cfg["synth"] and not cfg["weight_path"]:
        problems.append("weight: required unless --synth generates one")
    if problems:
        _fail(problems)

    if cfg["synth"]:
        calib = galt.synth_calibration(
            seed=cfg["seed"],
            schedule=schedule,
            dim=cfg["dim"],
            outliers=galt.OutlierSpec(
                count=cfg["outlier_channels"], magnitude=cfg["outlier_magnitude"]
            ),
        )
        if cfg["weight_path"]:
            w = _read(cfg["weight_path"], problems)
        else:
            rng = np.random.default_rng(cfg["seed"] + 1)
            w = rng.standard_normal((cfg["out_features"], cfg["dim"])) * 0.5
    else:
        steps = [_read(p, problems) for p in cfg["calib_paths"]]
        w = _read(cfg["weight_path"], problems)
        if problems:
            _fail(problems)
        try:
            calib = galt.CalibrationSet(
                [np.asarray(s, dtype=np.float64) for s in steps],
                tuple(s.shape[0] for s in steps),
                steps[0].shape[-1],
            )
        except ValueError as exc:
            _fail([f"calib: {exc}"])
    if problems:
        _fail(problems)

    try:
        hcfg = hadamard.HadamardConfig(dim=calib.dim, group_size=cfg["group_size"])
        problem = galt.GaltProblem(calib, w, hcfg, fmt, gran)
    except ValueError as exc:
        _fail([f"galt: {exc}"])
    best_lam, history = galt.optimize_galt(problem, epochs=cfg["epochs"], lr=cfg["lr"])

    layer = cfg["layer"] or (Path(cfg["weight_path"]).stem if cfg["weight_path"] else "synthetic")
    out_lambda = cfg["out_lambda"] or f"{layer}.lambda.fpqt"
    _write(out_lambda, best_lam, "f64")
    cfg.update(out_lambda=out_lambda, layer=layer, schedule=list(schedule))
    for epoch, loss in enumerate(history):
        _emit(ctx.params["report_path"], {"layer": layer, "epoch": epoch, "loss": loss})
    _emit(
        ctx.params["report_path"],
        _record(
            "galt",
            cfg,
            {
                "layer": layer,
                "baseline_loss": history[0],
                "best_loss": min(history),
                "improvement": history[0] / min(history) if min(history) > 0 else float("inf"),
                "epochs": cfg["epochs"],
            },
            started,
        ),
    )


@main.command("emu-check")
@click.option("--samples", "samples", default=1_000_000, help="parity sample count [1000000]")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0))
@click.option("--report", "report_path", default=None, type=click.Path())
@click.option("--config", "config_path", default=None, type=click.Path())
@click.pass_context
def cli_emu_check(ctx, **_kw) -> None:
    """Exhaustive multiplier and quantizer-parity suites for the LUT path."""
    started = time.perf_counter()
    defaults = {"samples": 1_000_000, "seed": 0}
    cfg, problems = _resolve_config(ctx, defaults, ctx.params["config_path"])
    if not isinstance(cfg["samples"], int) or cfg["samples"] < 1:
        problems.append(f"samples: must be a positive integer, got {cfg['samples']!r}")
    if problems:
        _fail(problems)
    luts = hwemu.build_tables()
    metrics = dict(hwemu.verify_mul_tables(luts))
    metrics.update(hwemu.verify_quantizer_parity(cfg["samples"], cfg["seed"], luts))
    _emit(ctx.params["report_path"], _record("emu-check", cfg, metrics, started))
    ok = (
        metrics["mul_lut_exact"] == "256/256"
        and metrics["dfq_mul_exact"] == "256/256"
        and metrics["quantizer_parity"] == "pass"
    )
    if not ok:
        sys.exit(1)


@main.command("report")
@click.option("--input", "input_path", required=True, type=click.Path())
def cli_report(input_path: str) -> None:
    """Summarize a line-delimited report file."""
    problems: list[str] = []
    records = []
    try:
        lines = Path(input_path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        _fail([f"input: {exc}"])
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {i + 1}: invalid JSON: {exc}")
            continue
        if isinstance(rec, dict):
            records.append(rec)
        else:
            problems.append(f"line {i + 1}: expected a JSON object, got {type(rec).__name__}")
    if problems:
        _fail(problems)
    by_command: dict[str, int] = {}
    for rec in records:
        cmd = rec.setdefault("command", "history")
        by_command[cmd] = by_command.get(cmd, 0) + 1
    click.echo(f"{len(records)} records in {input_path}")
    for cmd, count in sorted(by_command.items()):
        click.echo(f"  {cmd}: {count}")
    for rec in records:
        if "metrics" in rec:
            click.echo(json.dumps({"command": rec["command"], "metrics": rec["metrics"]}, sort_keys=True))


if __name__ == "__main__":
    main()
