"""Command-line surface: quantize/rotate/smooth tensors in FPQT files.

Each command's click options are the one table of its settings: apart
from the shared --report and --config, their names are the config keys
and the keys of the record's config.  Every command resolves its
configuration from the option defaults, then an optional JSON --config
file (unknown keys rejected), then explicit command-line flags; config
values go through the option's click type, so a format or granularity
name outside its choices is rejected as it is on the command line.  Each
run appends one JSON record, with the keys command, config, metrics and
wall_time_s, to the report stream (file via --report, stdout otherwise)
echoing the fully resolved config, which replays the run alone as --config;
the JSON readers (--config, ``fpq report``) reject NaN and Infinity.  With
neither --calib nor --weight, ``fpq galt`` fits on seeded synthetic data.
Validation problems are collected and reported together as
machine-readable JSON on stderr with exit code 2, and so are usage
errors, an empty path value ("<key>: empty path", before any read), a
report that cannot be appended to or that is an input or the config,
and output paths that cannot be written or that name the report
or an earlier output (no two writes share a file).  A file command checks
all its writes and reads all its inputs before it fails, so a failing
command writes nothing; every input must be finite, and a problem with one
names its file.  One error frame around each command turns a ValueError
from its operation into the one problem "<command>: <message>".
"""

from __future__ import annotations

import functools
import json
import os
import stat
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
            doc = json.loads(Path(config_path).read_text(encoding="utf-8"), parse_constant=_not_json)
        except (OSError, UnicodeDecodeError) as exc:
            problems.append(f"config: cannot read {config_path}: {exc}")
            doc = {}
        except ValueError as exc:
            problems.append(f"config: invalid JSON in {config_path}: {exc}")
            doc = {}
        if not isinstance(doc, dict):
            problems.append("config: top level must be a JSON object")
            doc = {}
        for key in sorted(set(doc) - keys):
            problems.append(f"config: unknown key {key!r}")
        for key in sorted(set(doc) & keys):
            _cast(ctx, key, doc[key], resolved, problems)
    # A rename replaces an entry, even a symlink: the report is appended to and keyed by its resolved one.
    report_path = ctx.params["report_path"]
    real = Path(os.path.realpath(report_path)) if report_path else None
    why, key, report_id = _unwritable(real, append=True, shown=Path(report_path)) if real else (None,) * 3
    problems += [f"report: cannot append to {report_path}: {why}"] if why else []
    ctx.meta["fpq.report"] = real, key, report_id
    for key in keys:
        if ctx.get_parameter_source(key) == ParameterSource.COMMANDLINE:
            resolved[key] = ctx.params[key]
    stop = _empty_paths(ctx.command.params, {**ctx.params, **resolved})
    if missing := next((p for p in ctx.command.params if p.required and resolved[p.name] in (None, ())), None):
        stop.append(f"usage: Missing option {missing.opts[0]!r}.")  # click's own words
    if stop:
        _fail([*problems, *stop])
    return resolved, problems


def _empty_paths(params, values: dict) -> list[str]:
    """The problem ``<key>: empty path`` for each click.Path option whose value is or holds ''."""
    return [f"{p.name}: empty path" for p in params if isinstance(p.type, click.Path)
            and "" in (values[p.name] if p.multiple else [values[p.name]])]


class _Required(click.Option):
    """A [required] option that a --config file may give: ``_resolve_config`` checks it after the merge."""
    def value_is_missing(self, value) -> bool:
        return False


def _not_json(constant: str):
    """``parse_constant`` for both readers: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{constant} is not a JSON value")


def _unwritable(path: Path, append: bool = False, shown: Path | None = None) -> tuple:
    """Why ``path`` (named as ``shown``) cannot be written (``append``: appended to), checked without
    creating it, or None; its key, one per entry: its directory's (st_dev, st_ino) and its name; and its
    file's (st_dev, st_ino), None without a file.  An output is a temp file renamed over it."""
    st = _stat(path)
    if st and stat.S_ISDIR(st.st_mode):
        return "it is a directory", None, None
    try:  # the trailing separator makes a parent that is not a directory fail too
        parent = os.stat(os.path.join(path.parent, ""))
    except (OSError, ValueError):
        return f"no directory {(shown or path).parent}", None, None
    why = None if os.access(path if append and st else path.parent, os.W_OK) else "permission denied"
    return why, (parent.st_dev, parent.st_ino, path.name), st and (st.st_dev, st.st_ino)


def _stat(path) -> os.stat_result | None:
    """The stat of the file ``path`` reaches, or None where there is none."""
    try:
        return os.stat(path)
    except (OSError, ValueError):
        return None


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


def _read(path, what: str, problems: list[str]):
    """The float tensor in ``path``; on failure None, with the problem added,
    also for a value that is not finite, where ``what`` names the tensor."""
    try:
        t = tensorfile.read_tensor(path)
    except (OSError, tensorfile.TensorFileError) as exc:
        problems.append(f"input: {path}: {exc}")
        return None
    if t.kind not in ("f32", "f64"):
        problems.append(f"input: {path}: expected a float tensor, got {t.kind}")
        return None
    if not np.isfinite(t.data).all():
        problems.append(f"input: {path}: {what} is not finite")
    return t


def _load(ctx: click.Context, outputs, inputs, problems: list[str]) -> list:
    """The tensors of the ``(path, what)`` ``inputs``, read by ``_read``, after every output
    path is checked: it must be writable and neither the report nor an earlier output (by
    ``_unwritable``'s key), and neither an input nor the config may be the report's file.
    With any problem, these or earlier ones, the command fails here with all of them."""
    _, report, report_id = ctx.meta["fpq.report"]
    seen = {report: "the report"}
    for p in outputs:
        why, key, _ = _unwritable(Path(p))
        if why := why or (f"same file as {seen[key]}" if key in seen else None):
            problems.append(f"output: {p}: {why}")
        seen.setdefault(key, p)
    reads = [ctx.params["config_path"], *(p for p, _ in inputs)]
    problems += [f"report: {ctx.params['report_path']}: same file as {p}" for p in reads
                 if report_id and p and (st := _stat(p)) and (st.st_dev, st.st_ino) == report_id]
    tensors = [_read(path, what, problems) for path, what in inputs]
    if problems:
        _fail(problems)
    return tensors


def _write(path, array, kind: str) -> None:
    try:
        tensorfile.write_tensor(path, array, kind=kind)
    except (OSError, ValueError) as exc:  # an OSError's message names write_tensor's temp file
        _fail([f"output: {path}: {getattr(exc, 'strerror', None) or exc}"])


def _report(ctx: click.Context, cfg: dict, metrics: dict) -> None:
    """Append the command's one record: its resolved config, metrics and wall time."""
    line = json.dumps({
        "command": ctx.info_name,
        "config": dict(sorted(cfg.items())),
        "metrics": metrics,
        "wall_time_s": round(time.perf_counter() - ctx.meta["fpq.started"], 6),
    }, sort_keys=True, allow_nan=False)
    if report_path := ctx.meta["fpq.report"][0]:
        with open(report_path, "a", encoding="utf-8") as f:
            f.write(line + "\n")
    else:
        click.echo(line)


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


@click.group(cls=_Group, context_settings={"show_default": True})
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


def _quantize_file(ctx: click.Context, cfg: dict, problems: list[str], outputs, run) -> None:
    """The body of ``quantize`` and ``dfq``: read the input, take the result and
    the command's own metrics from ``run(x, granularity)``, write each plane's
    codes and scales to the next two ``outputs`` and record the run with the
    MSE of the result, null where strict JSON cannot hold it."""
    gran = Granularity(cfg["granularity"], cfg["group_size"])
    (t,) = _load(ctx, outputs, [(cfg["input_path"], "the input")], problems)
    r, metrics = run(t.data, gran)
    paths = iter(outputs)
    for codes, fmt, scales in r.planes:
        _write(next(paths), codes, "code4" if fmt.width <= 4 else "code8")
        _write(next(paths), scales, "f64")
    cfg["layer"] = cfg["layer"] or Path(cfg["input_path"]).stem
    mse = quant_mse(t.data, dequantize(r))
    _report(ctx, cfg, {"layer": cfg["layer"], "granularity": gran.kind,
                       "mse": mse if np.isfinite(mse) else None, **metrics})


@_command("quantize")
@click.option("--input", "input_path", cls=_Required, required=True, type=click.Path())
@click.option("--format", "format_name", default="E2M1", type=_FORMAT, help="grid format")
@click.option("--granularity", default="per_tensor", type=_GRANULARITY, help="unit layout")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="per_group size; must divide the last axis")
@click.option("--layer", "layer", default=None, help="layer label in the report [input stem]")
@click.option("--out-codes", "out_codes", default=None, type=click.Path())
@click.option("--out-scales", "out_scales", default=None, type=click.Path())
def cli_quantize(ctx, cfg, problems) -> None:
    """Quantize one tensor file; write codes + scales and an MSE record."""
    fmt = formats.get_format(cfg["format_name"])
    cfg["out_codes"] = cfg["out_codes"] or str(Path(cfg["input_path"]).with_suffix(".codes.fpqt"))
    cfg["out_scales"] = cfg["out_scales"] or str(Path(cfg["input_path"]).with_suffix(".scales.fpqt"))
    _quantize_file(ctx, cfg, problems, [cfg["out_codes"], cfg["out_scales"]],
                   lambda x, gran: (quantize(x, fmt, gran), {"format": fmt.name}))


@_command("dfq")
@click.option("--input", "input_path", cls=_Required, required=True, type=click.Path())
@click.option("--neg-format", "neg_format", default="E1M2", type=_FORMAT, help="negative-branch grid")
@click.option("--pos-format", "pos_format", default="E2M1", type=_FORMAT, help="positive-branch grid")
@click.option("--granularity", default="per_tensor", type=_GRANULARITY, help="unit layout")
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1),
              help="per_group size; must divide the last axis")
@click.option("--layer", "layer", default=None)
@click.option("--out-prefix", "out_prefix", default=None, type=click.Path())
def cli_dfq(ctx, cfg, problems) -> None:
    """Dual-format quantization of one tensor file (two code planes)."""
    prefix = cfg["out_prefix"] = cfg["out_prefix"] or str(Path(cfg["input_path"]).with_suffix(""))
    paths = {f"{s}_{p}": f"{prefix}.{s}_{p}.fpqt" for s in ("neg", "pos") for p in ("codes", "scales")}

    def run(x, gran):
        r = dfq_quantize(x, formats.get_format(cfg["neg_format"]), formats.get_format(cfg["pos_format"]), gran)
        return r, {"neg_format": cfg["neg_format"], "pos_format": cfg["pos_format"], "outputs": paths}

    _quantize_file(ctx, cfg, problems, list(paths.values()), run)


@_command("search")
@click.option("--input", "input_paths", cls=_Required, required=True, multiple=True, type=click.Path())
@click.option("--granularity", default="per_tensor", type=_GRANULARITY)
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1))
def cli_search(ctx, cfg, problems) -> None:
    """Search the best dual-format grid pair over calibration tensors."""
    gran = Granularity(cfg["granularity"], cfg["group_size"])
    tensors = _load(ctx, [], [(p, f"calibration tensor {i}") for i, p in enumerate(cfg["input_paths"])],
                    problems)
    neg_fmt, pos_fmt = dfq_search_format([t.data for t in tensors], gran)
    _report(ctx, cfg, {"neg_format": neg_fmt.name, "pos_format": pos_fmt.name,
                       "num_tensors": len(tensors)})


@_command("rotate")
@click.option("--input", "input_path", cls=_Required, required=True, type=click.Path())
@click.option("--output", "output_path", cls=_Required, required=True, type=click.Path())
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1), help="rotation block size")
def cli_rotate(ctx, cfg, problems) -> None:
    """Group-wise Hadamard rotation of a tensor file (orthonormal blocks)."""
    (t,) = _load(ctx, [cfg["output_path"]], [(cfg["input_path"], "the input")], problems)
    x = t.data
    if x.ndim == 0:
        _fail([f"input: {cfg['input_path']}: rotate needs a channel axis, got a 0-d tensor"])
    cfgh = hadamard.HadamardConfig(dim=x.shape[-1], group_size=cfg["group_size"])
    with np.errstate(over="ignore", invalid="ignore"):
        out = hadamard.apply_ght(x, cfgh)  # in the file's float kind
    if not np.isfinite(out).all():
        _fail([f"input: {cfg['input_path']}: the rotation overflows {t.kind}"])
    _write(cfg["output_path"], out, t.kind)
    _report(ctx, cfg, {"shape": list(x.shape), "group_size": cfg["group_size"],
                       "blocks": cfgh.num_blocks})


@_command("galt")
@click.option("--weight", "weight_path", default=None, type=click.Path(),
              help="weight file (out, channels), with --calib [seeded synthetic]")
@click.option("--calib", "calib_paths", multiple=True, type=click.Path(),
              help="per-step activation files, coarse to fine, with --weight [seeded synthetic]")
@click.option("--dim", "dim", default=256, type=click.IntRange(min=1), help="synthetic channel count")
@click.option("--out-features", "out_features", default=256, type=click.IntRange(min=1),
              help="synthetic weight rows")
@click.option("--schedule", "schedule", default=",".join(map(str, galt.DESK_SCHEDULE)),
              help="per-step token counts")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0), help="synthetic data seed")
@click.option("--outlier-channels", "outlier_channels", default=4, type=click.IntRange(min=0))
@click.option("--outlier-magnitude", "outlier_magnitude", default=50.0)
@click.option("--format", "format_name", default="E2M1", type=_FORMAT)
@click.option("--granularity", default="per_group", type=_GRANULARITY)
@click.option("--group", "group_size", default=128, type=click.IntRange(min=1))
@click.option("--epochs", "epochs", default=50, type=click.IntRange(min=0), help="optimization epochs")
@click.option("--lr", "lr", default=0.01, help="learning rate")
@click.option("--layer", "layer", default=None)
@click.option("--out-lambda", "out_lambda", default=None, type=click.Path())
def cli_galt(ctx, cfg, problems) -> None:
    """Fit the per-channel smoothing vector; write it and record the loss history."""
    fmt = formats.get_format(cfg["format_name"])
    gran = Granularity(cfg["granularity"], cfg["group_size"])
    synth = not (cfg["calib_paths"] or cfg["weight_path"])
    if not synth and not (cfg["calib_paths"] and cfg["weight_path"]):
        problems.append("weight: required with --calib files" if cfg["calib_paths"]
                        else "calib: required with --weight")
    # The synthetic settings are parsed, checked and recorded only where
    # they take effect: files set the data and the weight.
    if synth:
        schedule = _parse_schedule(cfg["schedule"], problems)
        if cfg["outlier_channels"] > cfg["dim"]:
            problems.append(f"outlier_channels: {cfg['outlier_channels']} exceeds dim {cfg['dim']}")
        if not np.isfinite(cfg["outlier_magnitude"]):
            problems.append(f"outlier_magnitude: must be finite, got {cfg['outlier_magnitude']}")
    else:
        for key in ("seed", "out_features", "outlier_channels", "outlier_magnitude"):
            del cfg[key]
    layer = cfg["layer"] or (Path(cfg["weight_path"]).stem if cfg["weight_path"] else "synthetic")
    out_lambda = cfg["out_lambda"] or f"{layer}.lambda.fpqt"
    inputs = [(p, f"calibration step {i}") for i, p in enumerate(cfg["calib_paths"])]
    inputs += [(cfg["weight_path"], "the weight")] if cfg["weight_path"] else []
    # Files come as --calib and --weight together, so the weight is the last input, or nothing is read.
    *steps, weight = _load(ctx, [out_lambda], inputs, problems) or [None]
    if bad := [f"input: {p}: a calibration step must be 2-D (tokens, channels), got shape {t.data.shape}"
               for p, t in zip(cfg["calib_paths"], steps) if t.data.ndim != 2]:
        _fail(bad)

    def fit(epochs: int, lr: float):
        """The calibration and its fit's (lambda, history), or None where float64 overflows."""
        try:
            with np.errstate(over="raise", invalid="raise"):
                if synth:
                    calib = galt.synth_calibration(cfg["seed"], schedule, dim=cfg["dim"],
                                                   outlier_channels=cfg["outlier_channels"],
                                                   outlier_magnitude=cfg["outlier_magnitude"])
                    rng = np.random.default_rng(cfg["seed"] + 1)
                    w = rng.standard_normal((cfg["out_features"], cfg["dim"])) * 0.5
                else:
                    calib = galt.CalibrationSet([np.asarray(t.data, dtype=np.float64) for t in steps])
                    w = weight.data
                hcfg = hadamard.HadamardConfig(dim=calib.dim, group_size=cfg["group_size"])
                problem = galt.GaltProblem(calib, w, hcfg, fmt, gran)
                return calib, galt.optimize_galt(problem, epochs=epochs, lr=lr)
        except FloatingPointError:
            return None

    if not (run := fit(cfg["epochs"], cfg["lr"])):
        # At lr 1e-300 lambda stays 1: an overflow there too is the data's, else the step size's.
        data = f"outlier_magnitude: {cfg['outlier_magnitude']:g}" if synth else "galt: input"
        source = f"lr: {cfg['lr']:g}" if fit(1, 1e-300) else data
        _fail([f"{source} overflows float64 in the GALT fit"])
    calib, (best_lam, history) = run

    _write(out_lambda, best_lam, "f64")
    # The schedule and dim that ran: calibration files set their own.
    cfg.update(out_lambda=out_lambda, layer=layer,
               schedule=list(calib.step_token_counts), dim=calib.dim)
    _report(ctx, cfg, {
        "layer": layer,
        "baseline_loss": history[0],
        "best_loss": min(history),
        "improvement": history[0] / min(history) if min(history) > 0 else None,
        "epochs": cfg["epochs"],
        "history": history,
    })


@_command("emu-check")
@click.option("--samples", "samples", default=1_000_000, type=click.IntRange(min=1), help="parity sample count")
@click.option("--seed", "seed", default=0, type=click.IntRange(min=0))
def cli_emu_check(ctx, cfg, problems) -> None:
    """Exhaustive multiplier and quantizer-parity suites for the LUT path,
    on every DFQ candidate grid and grid pair and the FP6 grids, and the
    emulated GEMM against the multiplier-table walk."""
    _load(ctx, [], [], problems)
    luts = hwemu.build_tables()
    metrics = hwemu.verify_mul_tables(luts)
    metrics.update(hwemu.verify_quantizer_parity(cfg["samples"], cfg["seed"], luts))
    metrics.update(hwemu.verify_gemm_rows(luts, cfg["seed"]))
    _report(ctx, cfg, metrics)
    if "fail" in metrics.values():
        sys.exit(1)


@main.command("report")
@click.option("--input", "input_path", required=True, type=click.Path())
@click.pass_context
def cli_report(ctx: click.Context, input_path: str) -> None:
    """Summarize a line-delimited report file."""
    problems = _empty_paths(ctx.command.params, ctx.params)
    if problems:
        _fail(problems)
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
            rec = json.loads(line, parse_constant=_not_json)
        except ValueError as exc:
            problems.append(f"line {i + 1}: invalid JSON: {exc}")
            continue
        if not isinstance(rec, dict):
            problems.append(f"line {i + 1}: expected a JSON object, got {type(rec).__name__}")
        elif "command" not in rec:
            problems.append(f"line {i + 1}: no command")
        elif not isinstance(rec["command"], str):
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
