"""Command-line surface: quantize/rotate/smooth tensors in FPQT files.

Each command's click options are the one table of its settings: apart
from the shared --report and --config, their names are the config keys
and the keys of the record's config.  Every command resolves its
configuration from the option defaults, then an optional JSON --config
file (unknown keys rejected), then explicit command-line flags; config
values go through the option's click type, so a format or granularity
name outside its choices is rejected as it is on the command line.  Each
run appends one JSON record per result to the report stream (file via
--report, stdout otherwise) echoing the fully resolved config, so a run
can be replayed exactly.  Validation problems are collected and reported
together as machine-readable JSON on stderr with exit code 2, and so are
usage errors and unwritable output files.  One error frame around each
command turns a ValueError from its operation into the one problem
"<command>: <message>".
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
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
# The names a format or a granularity option takes, checked by click.
_FORMAT = click.Choice(sorted(formats.FORMATS))
_GRANULARITY = click.Choice(_KINDS)


def _fail(problems: list[str]) -> None:
    payload = {"error": "invalid configuration", "problems": problems}
    click.echo(json.dumps(payload, sort_keys=True), err=True)
    sys.exit(2)


def _resolve_config(ctx: click.Context):
    """option defaults < config file < explicit flags.

    Also starts the clock that ``_report`` reads.
    """
    ctx.meta["fpq.started"] = time.perf_counter()
    problems: list[str] = []
    resolved = {k: v for k, v in ctx.params.items() if k not in _SHARED}
    keys = set(resolved)
    config_path = ctx.params["config_path"]
    if config_path:
        try:
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
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
            _cast(ctx, key, doc[key], resolved, problems)
    for key in keys:
        if ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE:
            resolved[key] = ctx.params[key]
    return resolved, problems


def _cast(ctx: click.Context, key: str, raw, resolved: dict, problems: list[str]):
    """Store the config value ``raw`` converted by the type of the command's
    ``key`` option."""
    where = f"config: {key}"
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


def _emit(report_path, record: dict) -> None:
    line = json.dumps(record, sort_keys=True, allow_nan=False)
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


def _record_mse(x, q) -> float | None:
    """MSE of ``dequantize(q)`` against ``x``, or None where strict JSON cannot hold it."""
    mse = quant_mse(x, dequantize(q))
    return mse if np.isfinite(mse) else None


def _codes_kind(fmt: formats.FpFormat) -> str:
    return "code4" if fmt.width <= 4 else "code8"


def _usage(exc: click.UsageError) -> None:
    """A command-line usage error as one problem; a bad flag value names its flag."""
    if isinstance(exc, click.BadParameter) and not isinstance(exc, click.MissingParameter):
        _fail([f"flag: {exc.param.opts[0]}: {exc.message}"])
    _fail([f"usage: {exc.format_message()}"])


class _Group(click.Group):
    """``fpq``: a usage error in a command line is one JSON problem, as a bad
    config value is; ``fpq`` alone still prints the help."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        if not args:
            return super().parse_args(ctx, args)
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _usage(exc)

    def invoke(self, ctx: click.Context):
        try:  # resolves the command and parses its arguments, then runs it
            return super().invoke(ctx)
        except click.UsageError as exc:
            _usage(exc)


@click.group(cls=_Group)
def main() -> None:
    """Low-bit floating-point quantization toolkit."""


def _command(name: str):
    """Register a ``main`` command whose body takes the click context, the
    resolved config and its problems so far; --report and --config follow
    the command's own options.  A ValueError from the body is one problem."""

    def register(body):
        @click.pass_context
        @functools.wraps(body)
        def run(ctx: click.Context, **_params) -> None:
            cfg, problems = _resolve_config(ctx)
            try:
                body(ctx, cfg, problems)
            except ValueError as exc:
                _fail([f"{name}: {exc}"])

        cmd = main.command(name)(run)
        cmd.params += [
            click.Option(["--report", "report_path"], type=click.Path()),
            click.Option(["--config", "config_path"], type=click.Path()),
        ]
        return cmd

    return register


@_command("quantize")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--format", "format_name", default="E2M1", type=_FORMAT, help="grid format [E2M1]")
@click.option("--granularity", default="per_tensor", type=_GRANULARITY, help="unit layout [per_tensor]")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="per_group size [128]")
@click.option("--pad-partial", "pad_partial", is_flag=True, default=False,
              help="zero-pad a partial final group")
@click.option("--layer", "layer", default=None, help="layer label in the report [input stem]")
@click.option("--out-codes", "out_codes", default=None, type=click.Path())
@click.option("--out-scales", "out_scales", default=None, type=click.Path())
def cli_quantize(ctx, cfg, problems) -> None:
    """Quantize one tensor file; write codes + scales and an MSE record."""
    fmt = formats.get_format(cfg["format_name"])
    gran = Granularity(cfg["granularity"], cfg["group_size"], cfg["pad_partial"])
    t = _read(cfg["input_path"], problems)
    if problems:
        _fail(problems)

    x = t.data
    layer = cfg["layer"] or Path(cfg["input_path"]).stem
    q = quantize(x, fmt, gran)

    out_codes = cfg["out_codes"] or str(Path(cfg["input_path"]).with_suffix(".codes.fpqt"))
    out_scales = cfg["out_scales"] or str(Path(cfg["input_path"]).with_suffix(".scales.fpqt"))
    _write(out_codes, q.codes, _codes_kind(fmt))
    _write(out_scales, q.scales, "f64")
    cfg.update(out_codes=out_codes, out_scales=out_scales, layer=layer)
    _report(ctx, cfg, {"layer": layer, "format": fmt.name, "granularity": gran.kind, "mse": _record_mse(x, q)})


@_command("dfq")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--neg-format", "neg_format", default="E1M2", type=_FORMAT, help="negative-branch grid [E1M2]")
@click.option("--pos-format", "pos_format", default="E2M1", type=_FORMAT, help="positive-branch grid [E2M1]")
@click.option("--search", "search", is_flag=True, default=False, help="search grids on the input first")
@click.option("--granularity", default="per_tensor", type=_GRANULARITY, help="unit layout [per_tensor]")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="per_group size [128]")
@click.option("--layer", "layer", default=None)
@click.option("--out-prefix", "out_prefix", default=None, type=click.Path())
def cli_dfq(ctx, cfg, problems) -> None:
    """Dual-format quantization of one tensor file (two code planes)."""
    gran = Granularity(cfg["granularity"], cfg["group_size"])
    t = _read(cfg["input_path"], problems)
    neg_fmt = formats.get_format(cfg["neg_format"])
    pos_fmt = formats.get_format(cfg["pos_format"])
    if problems:
        _fail(problems)

    x = t.data
    if cfg["search"]:
        neg_fmt, pos_fmt = dfq_search_format([x], gran)
        cfg["neg_format"], cfg["pos_format"] = neg_fmt.name, pos_fmt.name
    layer = cfg["layer"] or Path(cfg["input_path"]).stem
    r = dfq_quantize(x, neg_fmt, pos_fmt, gran)

    prefix = cfg["out_prefix"] or str(Path(cfg["input_path"]).with_suffix(""))
    paths = {}
    for side, (codes, fmt, scales) in zip(("neg", "pos"), r.planes):
        codes_path, scales_path = f"{prefix}.{side}_codes.fpqt", f"{prefix}.{side}_scales.fpqt"
        _write(codes_path, codes, _codes_kind(fmt))
        _write(scales_path, scales, "f64")
        paths.update({f"{side}_codes": codes_path, f"{side}_scales": scales_path})
    cfg.update(out_prefix=prefix, layer=layer)
    _report(ctx, cfg, {
        "layer": layer,
        "neg_format": neg_fmt.name,
        "pos_format": pos_fmt.name,
        "granularity": gran.kind,
        "mse": _record_mse(x, r),
        "outputs": paths,
    })


@_command("search")
@click.option("--input", "input_paths", required=True, multiple=True, type=click.Path())
@click.option("--granularity", default="per_tensor", type=_GRANULARITY)
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1))
def cli_search(ctx, cfg, problems) -> None:
    """Search the best dual-format grid pair over calibration tensors."""
    gran = Granularity(cfg["granularity"], cfg["group_size"])
    tensors = [_read(p, problems) for p in cfg["input_paths"]]
    if problems:
        _fail(problems)
    neg_fmt, pos_fmt = dfq_search_format([t.data for t in tensors], gran)
    _report(ctx, cfg, {"neg_format": neg_fmt.name, "pos_format": pos_fmt.name,
                       "num_tensors": len(tensors)})


@_command("rotate")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="rotation block size [128]")
def cli_rotate(ctx, cfg, problems) -> None:
    """Group-wise Hadamard rotation of a tensor file (orthonormal blocks)."""
    t = _read(cfg["input_path"], problems)
    if problems:
        _fail(problems)
    x = t.data
    if x.ndim == 0:
        _fail([f"input: {cfg['input_path']}: rotate needs a channel axis, got a 0-d tensor"])
    cfgh = hadamard.HadamardConfig(dim=x.shape[-1], group_size=cfg["group_size"])
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
@click.option("--schedule", "schedule", default=",".join(map(str, galt.DESK_SCHEDULE)),
              help="per-step token counts")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0), help="synthetic data seed [0]")
@click.option("--outlier-channels", "outlier_channels", default=4, type=click.IntRange(min=0))
@click.option("--outlier-magnitude", "outlier_magnitude", default=50.0)
@click.option("--format", "format_name", default="E2M1", type=_FORMAT)
@click.option("--granularity", default="per_group", type=_GRANULARITY)
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1))
@click.option("--epochs", "epochs", default=50, type=click.IntRange(min=0), help="optimization epochs [50]")
@click.option("--lr", "lr", default=0.01, help="learning rate [0.01]")
@click.option("--layer", "layer", default=None)
@click.option("--out-lambda", "out_lambda", default=None, type=click.Path())
def cli_galt(ctx, cfg, problems) -> None:
    """Fit the per-channel smoothing vector; write it and the loss history."""
    fmt = formats.get_format(cfg["format_name"])
    gran = Granularity(cfg["granularity"], cfg["group_size"])
    if cfg["synth"] == bool(cfg["calib_paths"]):
        problems.append("calib: give either --calib files or --synth, not both")
    if not cfg["synth"] and not cfg["weight_path"]:
        problems.append("weight: required unless --synth generates one")
    # The synthetic settings are parsed, checked and recorded only where
    # they take effect: calibration files set the data, a weight file its rows.
    if cfg["synth"]:
        schedule = _parse_schedule(cfg["schedule"], problems)
        if cfg["outlier_channels"] > cfg["dim"]:
            problems.append(f"outlier_channels: {cfg['outlier_channels']} exceeds dim {cfg['dim']}")
        if not np.isfinite(cfg["outlier_magnitude"]):
            problems.append(f"outlier_magnitude: must be finite, got {cfg['outlier_magnitude']}")
    else:
        for key in ("seed", "outlier_channels", "outlier_magnitude"):
            del cfg[key]
    if cfg["weight_path"]:
        del cfg["out_features"]
    steps = [_read(p, problems) for p in cfg["calib_paths"]]
    weight = _read(cfg["weight_path"], problems) if cfg["weight_path"] else None
    problems += [f"input: {p}: a calibration step must be 2-D (tokens, channels), got shape {t.data.shape}"
                 for p, t in zip(cfg["calib_paths"], steps) if t is not None and t.data.ndim != 2]
    if problems:
        _fail(problems)

    # Overflow raises in the synthetic build and the fit, never reaching lambda.
    source = f"outlier_magnitude: {cfg['outlier_magnitude']:g}" if cfg["synth"] else "galt: input"
    try:
        with np.errstate(over="raise", invalid="raise"):
            if cfg["synth"]:
                outliers = galt.OutlierSpec(count=cfg["outlier_channels"], magnitude=cfg["outlier_magnitude"])
                calib = galt.synth_calibration(seed=cfg["seed"], schedule=schedule, dim=cfg["dim"],
                                               outliers=outliers)
            else:
                calib = galt.CalibrationSet([np.asarray(t.data, dtype=np.float64) for t in steps])
            if weight is None:
                rng = np.random.default_rng(cfg["seed"] + 1)
                w = rng.standard_normal((cfg["out_features"], cfg["dim"])) * 0.5
            else:
                w = weight.data
            hcfg = hadamard.HadamardConfig(dim=calib.dim, group_size=cfg["group_size"])
            problem = galt.GaltProblem(calib, w, hcfg, fmt, gran)
            best_lam, history = galt.optimize_galt(problem, epochs=cfg["epochs"], lr=cfg["lr"])
    except FloatingPointError:
        _fail([f"{source} overflows float64 in the GALT fit"])

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
        "improvement": history[0] / min(history) if min(history) > 0 else None,
        "epochs": cfg["epochs"],
    })


@_command("emu-check")
@click.option("--samples", "samples", default=1_000_000, type=click.IntRange(min=1),
              help="parity sample count [1000000]")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0))
def cli_emu_check(ctx, cfg, problems) -> None:
    """Exhaustive multiplier and quantizer-parity suites for the LUT path,
    on every DFQ candidate grid and grid pair and the FP6 grids, and the
    emulated GEMM against the multiplier-table walk."""
    if problems:
        _fail(problems)
    luts = hwemu.build_tables()
    metrics = hwemu.verify_mul_tables(luts)
    metrics.update(hwemu.verify_quantizer_parity(cfg["samples"], cfg["seed"], luts))
    metrics.update(hwemu.verify_gemm_rows(luts, cfg["seed"]))
    _report(ctx, cfg, metrics)
    if "fail" in metrics.values():
        sys.exit(1)


@main.command("report")
@click.option("--input", "input_path", required=True, type=click.Path())
def cli_report(input_path: str) -> None:
    """Summarize a line-delimited report file."""
    problems: list[str] = []
    records = []
    try:
        data = Path(input_path).read_bytes()
        lines = data.decode("utf-8").splitlines()
    except OSError as exc:
        _fail([f"input: {exc}"])
    except UnicodeDecodeError as exc:
        bad_line = data.count(b"\n", 0, exc.start) + 1
        _fail([f"line {bad_line}: not UTF-8: {exc}"])
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            problems.append(f"line {i + 1}: invalid JSON: {exc}")
            continue
        if not isinstance(rec, dict):
            problems.append(f"line {i + 1}: expected a JSON object, got {type(rec).__name__}")
        elif not isinstance(rec.setdefault("command", "history"), str):
            problems.append(f"line {i + 1}: command must be a string, got {json.dumps(rec['command'])}")
        else:
            records.append(rec)
    if problems:
        _fail(problems)
    by_command = Counter(rec["command"] for rec in records)
    click.echo(f"{len(records)} records in {input_path}")
    for cmd, count in sorted(by_command.items()):
        click.echo(f"  {cmd}: {count}")
    for rec in records:
        if "metrics" in rec:
            click.echo(json.dumps({"command": rec["command"], "metrics": rec["metrics"]}, sort_keys=True))


if __name__ == "__main__":
    main()
