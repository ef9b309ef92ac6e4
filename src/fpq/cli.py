"""Command-line surface: quantize/rotate/smooth tensors in FPQT files.

Each command's click options are the one table of its settings: apart
from the shared --report and --config, their names are the config keys
and the keys of the record's config.  Every command resolves its
configuration from the option defaults, then an optional JSON --config
file (unknown keys rejected), then explicit command-line flags, then the
FPQ_SEED environment override; config and environment values go through
the option's click type.  Each run appends one JSON record per result to
the report stream (file via --report, stdout otherwise) echoing the fully
resolved config, so a run can be replayed exactly.  Validation problems
are collected and reported together as machine-readable JSON on stderr
with exit code 2, and so is an output file that cannot be written.
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
    _KINDS,
    Granularity,
    dequantize,
    dfq_quantize,
    dfq_search_format,
    quant_mse,
    quantize,
)

# The options every command shares; they are not config keys.
_SHARED = ("report_path", "config_path")


def _fail(problems: list[str]) -> None:
    payload = {"error": "invalid configuration", "problems": problems}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(2)


def _resolve_config(ctx: click.Context):
    """option defaults < config file < explicit flags < environment overrides.

    Also starts the clock that ``_report`` reads.
    """
    ctx.meta["fpq.started"] = time.perf_counter()
    problems: list[str] = []
    resolved = {k: v for k, v in ctx.params.items() if k not in _SHARED}
    keys = set(resolved)
    config_path = ctx.params["config_path"]
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
        for key in sorted(set(doc) - keys):
            problems.append(f"config: unknown key {key!r}")
        for key in sorted(set(doc) & keys):
            _cast(ctx, key, doc[key], resolved, problems, f"config: {key}")
    for key in keys:
        if ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE:
            resolved[key] = ctx.params[key]

    if "seed" in resolved and os.environ.get("FPQ_SEED"):
        _cast(ctx, "seed", os.environ["FPQ_SEED"], resolved, problems, "env: FPQ_SEED")
    return resolved, problems


def _cast(ctx: click.Context, key: str, raw, resolved: dict, problems: list[str], where: str):
    """Store ``raw`` converted by the type of the command's ``key`` option."""
    param = next(p for p in ctx.command.params if p.name == key)
    if raw is None and param.default is not None:
        problems.append(f"{where}: expected a value, got null")
        return
    # click.Path would pass a number on to os.stat as a file descriptor.
    paths = raw if param.multiple and isinstance(raw, list) else [raw]
    if isinstance(param.type, click.Path) and raw is not None:
        if not all(isinstance(v, str) for v in paths):
            problems.append(f"{where}: expected a path string, got {raw!r}")
            return
    # click's INT and FLOAT would take true as 1 and truncate 2.9 to 2.
    integer = isinstance(param.type, click.types.IntParamType)
    fractional = integer and isinstance(raw, float) and not raw.is_integer()
    if (integer or isinstance(param.type, click.types.FloatParamType)) and (
            isinstance(raw, (bool, list, dict)) or fractional):
        kind = "an integer" if integer else "a number"
        problems.append(f"{where}: expected {kind}, got {json.dumps(raw)}")
        return
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
    if kind not in _KINDS:
        problems.append(f"granularity: unknown kind {kind!r}; one of {', '.join(_KINDS)}")
        return None
    if kind == "per_group":
        return Granularity.per_group(cfg["group_size"], cfg.get("pad_partial", False))
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
    """The float tensor in ``path``; on failure None, with the problem added."""
    try:
        t = tensorfile.read_tensor(path)
    except (OSError, tensorfile.TensorFileError) as exc:
        problems.append(f"input: {path}: {exc}")
        return None
    if t.kind not in ("f32", "f64"):
        problems.append(f"input: {path}: expected a float tensor, got {t.kind}")
        return None
    return t


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


def _report(ctx: click.Context, cfg: dict, metrics: dict) -> None:
    """Emit the command's record: its resolved config, metrics and wall time."""
    _emit(ctx.params["report_path"], {
        "command": ctx.info_name,
        "config": dict(sorted(cfg.items())),
        "metrics": metrics,
        "wall_time_s": round(time.perf_counter() - ctx.meta["fpq.started"], 6),
    })


def _codes_kind(fmt: formats.FpFormat) -> str:
    return "code4" if fmt.width <= 4 else "code8"


@click.group()
def main() -> None:
    """Low-bit floating-point quantization toolkit."""


class _Command(click.Command):
    """A command whose bad flag values are JSON problems, as bad config values are."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.BadParameter as exc:
            if isinstance(exc, click.MissingParameter):
                raise
            _fail([f"flag: {exc.param.opts[0]}: {exc.message}"])


def _command(name: str):
    """Register a ``main`` command whose callback takes the click context;
    --report and --config follow the command's own options."""

    def register(f):
        cmd = main.command(name, cls=_Command)(click.pass_context(f))
        cmd.params += [
            click.Option(["--report", "report_path"], type=click.Path()),
            click.Option(["--config", "config_path"], type=click.Path()),
        ]
        return cmd

    return register


@_command("quantize")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--format", "format_name", default="E2M1", help="grid format [E2M1]")
@click.option("--granularity", default="per_tensor", help="per_tensor|per_channel|per_token|per_group [per_tensor]")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="per_group size [128]")
@click.option("--pad-partial", "pad_partial", is_flag=True, default=False)
@click.option("--layer", "layer", default=None, help="layer label in the report [input stem]")
@click.option("--out-codes", "out_codes", default=None, type=click.Path())
@click.option("--out-scales", "out_scales", default=None, type=click.Path())
def cli_quantize(ctx, **_kw) -> None:
    """Quantize one tensor file; write codes + scales and an MSE record."""
    cfg, problems = _resolve_config(ctx)
    fmt = _parse_format(cfg["format_name"], problems)
    gran = _parse_granularity(cfg, problems)
    t = _read(cfg["input_path"], problems)
    if problems:
        _fail(problems)

    x = t.data
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
    _report(ctx, cfg, {"layer": layer, "format": fmt.name, "granularity": gran.kind, "mse": mse})


@_command("dfq")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--neg-format", "neg_format", default="E1M2", help="negative-branch grid [E1M2]")
@click.option("--pos-format", "pos_format", default="E2M1", help="positive-branch grid [E2M1]")
@click.option("--search", "search", is_flag=True, default=False, help="search grids on the input first")
@click.option("--granularity", default="per_tensor", help="unit layout [per_tensor]")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="per_group size [128]")
@click.option("--layer", "layer", default=None)
@click.option("--out-prefix", "out_prefix", default=None, type=click.Path())
def cli_dfq(ctx, **_kw) -> None:
    """Dual-format quantization of one tensor file (two code planes)."""
    cfg, problems = _resolve_config(ctx)
    gran = _parse_granularity(cfg, problems)
    t = _read(cfg["input_path"], problems)
    neg_fmt = _parse_format(cfg["neg_format"], problems)
    pos_fmt = _parse_format(cfg["pos_format"], problems)
    if problems:
        _fail(problems)

    x = t.data
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
    cfg.update(out_prefix=prefix, layer=layer)
    _report(ctx, cfg, {
        "layer": layer,
        "neg_format": neg_fmt.name,
        "pos_format": pos_fmt.name,
        "granularity": gran.kind,
        "mse": mse,
        "outputs": paths,
    })


@_command("search")
@click.option("--input", "input_paths", required=True, multiple=True, type=click.Path())
@click.option("--granularity", default="per_tensor")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1))
def cli_search(ctx, **_kw) -> None:
    """Search the best dual-format grid pair over calibration tensors."""
    cfg, problems = _resolve_config(ctx)
    gran = _parse_granularity(cfg, problems)
    tensors = [_read(p, problems) for p in cfg["input_paths"]]
    if problems:
        _fail(problems)
    neg_fmt, pos_fmt = _search([t.data for t in tensors], gran)
    _report(ctx, cfg, {"neg_format": neg_fmt.name, "pos_format": pos_fmt.name,
                       "num_tensors": len(tensors)})


@_command("rotate")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="rotation block size [128]")
def cli_rotate(ctx, **_kw) -> None:
    """Group-wise Hadamard rotation of a tensor file (orthonormal blocks)."""
    cfg, problems = _resolve_config(ctx)
    t = _read(cfg["input_path"], problems)
    if problems:
        _fail(problems)
    x = t.data
    if x.ndim == 0:
        _fail([f"input: {cfg['input_path']}: rotate needs a channel axis, got a 0-d tensor"])
    try:
        cfgh = hadamard.HadamardConfig(dim=x.shape[-1], group_size=cfg["group_size"])
    except ValueError as exc:
        _fail([f"rotate: {exc}"])
    out = hadamard.apply_ght(x, cfgh)
    _write(cfg["output_path"], out.astype(x.dtype), t.kind)
    _report(ctx, cfg, {"shape": list(x.shape), "group_size": cfg["group_size"],
                       "blocks": cfgh.num_blocks})


@_command("galt")
@click.option("--weight", "weight_path", default=None, type=click.Path())
@click.option("--calib", "calib_paths", multiple=True, type=click.Path(),
              help="per-step activation files, coarse to fine")
@click.option("--synth", "synth", is_flag=True, default=False,
              help="use the seeded synthetic calibration instead of files")
@click.option("--dim", "dim", default=256, type=click.IntRange(min=1), help="channel count for --synth [256]")
@click.option("--out-features", "out_features", default=256, type=click.IntRange(min=1),
              help="synthetic weight rows [256]")
@click.option("--schedule", "schedule", default="1,4,9,16,25,36,64,100,169,256",
              help="per-step token counts")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0), help="synthetic data seed [0]")
@click.option("--outlier-channels", "outlier_channels", default=4, type=click.IntRange(min=0))
@click.option("--outlier-magnitude", "outlier_magnitude", default=50.0)
@click.option("--format", "format_name", default="E2M1")
@click.option("--granularity", default="per_group")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1))
@click.option("--epochs", "epochs", default=50, type=click.IntRange(min=0), help="optimization epochs [50]")
@click.option("--lr", "lr", default=0.01, help="learning rate [0.01]")
@click.option("--layer", "layer", default=None)
@click.option("--out-lambda", "out_lambda", default=None, type=click.Path())
def cli_galt(ctx, **_kw) -> None:
    """Fit the per-channel smoothing vector; write it and the loss history."""
    cfg, problems = _resolve_config(ctx)
    fmt = _parse_format(cfg["format_name"], problems)
    gran = _parse_granularity(cfg, problems)
    schedule = _parse_schedule(cfg["schedule"], problems)
    if not cfg["synth"] and not cfg["calib_paths"]:
        problems.append("calib: provide --calib files or --synth")
    if not cfg["synth"] and not cfg["weight_path"]:
        problems.append("weight: required unless --synth generates one")
    if cfg["synth"] and cfg["outlier_channels"] > cfg["dim"]:
        problems.append(f"outlier_channels: {cfg['outlier_channels']} exceeds dim {cfg['dim']}")
    if not np.isfinite(cfg["outlier_magnitude"]):
        problems.append(f"outlier_magnitude: must be finite, got {cfg['outlier_magnitude']}")
    if problems:
        _fail(problems)

    # Overflow raises in the synthetic build and the fit, never reaching lambda.
    source = f"outlier_magnitude: {cfg['outlier_magnitude']:g}" if cfg["synth"] else "galt: input"
    overflow = f"{source} overflows float64 in the GALT fit"
    if cfg["synth"]:
        try:
            with np.errstate(over="raise", invalid="raise"):
                calib = galt.synth_calibration(
                    seed=cfg["seed"],
                    schedule=schedule,
                    dim=cfg["dim"],
                    outliers=galt.OutlierSpec(
                        count=cfg["outlier_channels"], magnitude=cfg["outlier_magnitude"]
                    ),
                )
        except FloatingPointError:
            _fail([overflow])
        except ValueError as exc:
            _fail([f"galt: {exc}"])
    else:
        steps = [_read(p, problems) for p in cfg["calib_paths"]]
    weight = _read(cfg["weight_path"], problems) if cfg["weight_path"] else None
    if problems:
        _fail(problems)
    if not cfg["synth"]:
        steps = [np.asarray(s.data, dtype=np.float64) for s in steps]
        if any(s.ndim == 0 for s in steps):
            _fail([f"input: {p}: a calibration step needs a token axis, got a 0-d tensor"
                   for p, s in zip(cfg["calib_paths"], steps) if s.ndim == 0])
        try:
            calib = galt.CalibrationSet(steps, tuple(s.shape[0] for s in steps), steps[0].shape[-1])
        except ValueError as exc:
            _fail([f"calib: {exc}"])
    if weight is None:
        rng = np.random.default_rng(cfg["seed"] + 1)
        w = rng.standard_normal((cfg["out_features"], cfg["dim"])) * 0.5
    else:
        w = weight.data

    try:
        with np.errstate(over="raise", invalid="raise"):
            hcfg = hadamard.HadamardConfig(dim=calib.dim, group_size=cfg["group_size"])
            problem = galt.GaltProblem(calib, w, hcfg, fmt, gran)
            best_lam, history = galt.optimize_galt(problem, epochs=cfg["epochs"], lr=cfg["lr"])
    except FloatingPointError:
        _fail([overflow])
    except ValueError as exc:
        _fail([f"galt: {exc}"])

    layer = cfg["layer"] or (Path(cfg["weight_path"]).stem if cfg["weight_path"] else "synthetic")
    out_lambda = cfg["out_lambda"] or f"{layer}.lambda.fpqt"
    _write(out_lambda, best_lam, "f64")
    # The schedule and dim that ran: calibration files set their own.
    cfg.update(out_lambda=out_lambda, layer=layer,
               schedule=list(calib.step_token_counts), dim=calib.dim)
    for epoch, loss in enumerate(history):
        _emit(ctx.params["report_path"], {"layer": layer, "epoch": epoch, "loss": loss})
    _report(ctx, cfg, {
        "layer": layer,
        "baseline_loss": history[0],
        "best_loss": min(history),
        "improvement": history[0] / min(history) if min(history) > 0 else float("inf"),
        "epochs": cfg["epochs"],
    })


@_command("emu-check")
@click.option("--samples", "samples", default=1_000_000, type=click.IntRange(min=1),
              help="parity sample count [1000000]")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0))
def cli_emu_check(ctx, **_kw) -> None:
    """Exhaustive multiplier and quantizer-parity suites for the LUT path,
    on every DFQ candidate grid and grid pair."""
    cfg, problems = _resolve_config(ctx)
    if problems:
        _fail(problems)
    luts = hwemu.build_tables()
    metrics = hwemu.verify_mul_tables(luts)
    metrics.update(hwemu.verify_quantizer_parity(cfg["samples"], cfg["seed"], luts))
    _report(ctx, cfg, metrics)
    if metrics["mul_tables"] != "pass" or metrics["quantizer_parity"] != "pass":
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
