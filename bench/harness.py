"""Benchmark harness: runs one workload's set-ups and passes, times them
against the reference kernel, counts failures and derives the metrics.

Import it only after ``run.limit_blas_threads``: it loads numpy.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from reference import Reference, normalized
from tracer import LayerTotals, Tracer, descendants_named, totals

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
# Stop starting passes after this long so a run ends well inside 180 s.
DEADLINE_S = 150.0
# Layers that run only while setting up; their per-layer numbers are per set-up.
SETUP_LAYERS = frozenset({
    "hwemu.build_tables", "synth.gelu_activations", "synth.gaussian_channel_weights",
    "galt.synth_calibration",
})


class Recorder:
    """Counts attempted and failed operations and checks, and keeps the
    latency of each top-level command."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: list[float] = []

    @contextmanager
    def command(self, span=None):
        """One command: timed into the latency samples; ``span`` names a
        benchmark-side span around it (the CLI layer)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tracer.span(span) if span else nullcontext():
                yield
        except Exception:
            self.failed += 1
            raise
        self.latencies.append(time.perf_counter() - t0)

    def io(self, fn, *args, **kwargs):
        """An operation counted for errors but not sampled as a command."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def fresh_import():
    """Import fpq anew (its dependencies stay loaded)."""
    for name in [n for n in sys.modules if n == "fpq" or n.startswith("fpq.")]:
        del sys.modules[name]
    fpq = importlib.import_module("fpq")
    importlib.import_module("fpq.cli")
    importlib.import_module("fpq.synth")
    return fpq


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, str):
            h.update(item.encode())
        else:
            arr = np.ascontiguousarray(item)
            h.update(f"{arr.dtype.str}{arr.shape}".encode())
            h.update(arr.tobytes())
    return h.hexdigest()


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, queried from the library."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
    }


@dataclass
class Passes:
    """Measured passes: each pass's time, the reference-kernel time taken
    right before it, and the latencies of its commands."""

    times: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)
    commands: list[list[float]] = field(default_factory=list)

    def normalized_times(self) -> list[float]:
        return normalized(self.times, self.refs)

    def normalized_commands(self) -> list[float]:
        scaled = normalized([1.0] * len(self.refs), self.refs)
        return [t * f for lats, f in zip(self.commands, scaled) for t in lats]


class Run:
    """One benchmark run: the workload, its tracer, counters and digest."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.reference = Reference(workdir / "reference")
        self.tracer = Tracer()
        self.rec = Recorder(self.tracer)
        self.first_digest: str | None = None
        self.quality = None
        self.started = time.perf_counter()

    def setup(self, k: int, traced: bool = False):
        """Import fpq afresh and build the workload's inputs; with
        ``traced`` the build runs under the tracer as pass "setup"."""
        fpq = fresh_import()
        if not traced:
            return self.workload.setup(fpq, self.seed, self.workdir / f"setup{k}")
        self.tracer.install()
        self.tracer.pass_id = "setup"
        try:
            return self.workload.setup(fpq, self.seed, self.workdir / f"setup{k}")
        finally:
            self.tracer.pass_id = None
            self.tracer.restore()

    def one_pass(self, state, pass_id=None):
        """Run one pass and require its outputs to be bit-identical to the
        first pass's; returns the pass duration and its outputs."""
        self.tracer.pass_id = pass_id
        t0 = time.perf_counter()
        try:
            out = self.workload.run_pass(state, self.rec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.rec.check("pass ran to completion", False)
            out = None
        finally:
            dt = time.perf_counter() - t0
            self.tracer.pass_id = None
        if out is not None:
            d = digest(self.workload.digest(out))
            self.first_digest = self.first_digest or d
            self.rec.check("outputs bit-identical to the first pass", d == self.first_digest)
        return dt, out

    def check(self, state, out) -> None:
        """Check one pass's outputs against reference computations.

        Every other pass is covered by the digest comparison."""
        if out is None:
            return
        try:
            self.quality = self.workload.check(state, out, self.rec)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.rec.check("checks ran to completion", False)

    def warm_up(self, state) -> None:
        self.check(state, self.one_pass(state)[1])

    def measure(self, state, seconds: float, traced: bool) -> Passes:
        """Passes until their summed time reaches ``seconds``, each after a
        run of the reference kernel; the last pass is checked in full."""
        passes = Passes()
        out = None
        while not passes.times or (sum(passes.times) < seconds
                                   and time.perf_counter() - self.started < DEADLINE_S):
            out = None  # drop the last pass's outputs: the peak holds one pass's working set
            passes.refs.append(self.reference.seconds())
            first = len(self.rec.latencies)
            dt, out = self.one_pass(state, len(passes.times) if traced else None)
            passes.times.append(dt)
            passes.commands.append(self.rec.latencies[first:])
        self.check(state, out)
        return passes


def end_to_end(run: Run, setups: Passes, passes: Passes) -> tuple[dict, dict]:
    """The end-to-end metrics, times in seconds at the reference kernel's
    nominal speed, and the same times as measured."""
    def p90(values):
        return statistics.quantiles(values, n=10, method="inclusive")[8]

    cmds = passes.normalized_commands()
    raw_cmds = [t for lats in passes.commands for t in lats]
    values = {
        "setup_s": statistics.median(setups.normalized_times()),
        "wall_s": statistics.median(passes.normalized_times()),
        "cmd_p50_ms": statistics.median(cmds) * 1e3,
        "cmd_p90_ms": p90(cmds) * 1e3,
        "out_rel_mse": run.quality.out_rel_mse,
        "quant_gain": run.quality.gain,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw = {
        "setup_s": statistics.median(setups.times),
        "wall_s": statistics.median(passes.times),
        "cmd_p50_ms": statistics.median(raw_cmds) * 1e3,
        "cmd_p90_ms": p90(raw_cmds) * 1e3,
        "reference_s": statistics.median(passes.refs),
    }
    return values, raw


def per_layer(run: Run, names, untraced: Passes, traced: Passes) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced passes (and, for
    set-up layers, of the traced set-up); also returns the full table."""
    spans = run.tracer.spans
    n = len(traced.times)

    def is_pass(pass_id) -> bool:
        return isinstance(pass_id, int)

    in_pass = totals(spans, is_pass)
    in_setup = totals(spans, lambda p: p == "setup")
    traced_wall = sum(traced.times)

    def stat(fn: str, what: str) -> float:
        t, per = (in_setup, 1) if fn in SETUP_LAYERS else (in_pass, n)
        t = t.get(fn, LayerTotals())
        if what == "calls":
            return t.calls / per
        if what == "self_s":
            return t.self_s / per
        if what == "melem":
            return t.elems / per / 1e6
        if what == "mb":
            return t.nbytes / per / 1e6
        if what == "ns_per_elem":
            return t.incl_s / t.elems * 1e9 if t.elems else 0.0
        if what == "gmac_per_s":
            return t.units / t.incl_s / 1e9 if t.incl_s else 0.0
        if what == "nearest_per_search":
            nearest = descendants_named(spans, fn, "formats.nearest_codes", is_pass)
            return nearest / t.units if t.units else 0.0
        raise KeyError(f"unknown per-layer stat {what!r} for {fn}")

    def metric(name: str) -> float:
        if name == "trace.overhead_frac":
            return (statistics.median(traced.normalized_times())
                    / statistics.median(untraced.normalized_times()) - 1.0)
        if name == "galt.steps":
            return stat("galt.adamw_step", "calls")
        if name == "galt.improved_epoch_frac":
            return run.quality.improved_epoch_frac
        parts = name.split(".")
        if len(parts) == 2 and parts[1] == "self_frac":
            own = sum(t.self_s for k, t in in_pass.items() if k.split(".")[0] == parts[0])
            return own / traced_wall
        return stat(".".join(parts[:2]), parts[2])

    table = {
        name: {"calls_per_pass": t.calls / n, "self_s_per_pass": t.self_s / n,
               "self_share": t.self_s / traced_wall}
        for name, t in sorted(in_pass.items(), key=lambda kv: -kv[1].self_s)
    }
    return {name: metric(name) for name in names}, table


def run_workload(workload, args, spec, workdir: Path) -> tuple[dict, dict]:
    run = Run(workload, args.seed, workdir)
    run.reference.seconds()
    detail: dict = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "shapes": workload.shapes(),
                    # Peak memory before fpq is imported: its dependencies
                    # plus the reference kernel, the floor under peak_rss_mb.
                    "rss_floor_mb": peak_rss_mb()}
    if args.trace:
        state = run.setup(0, traced=True)
        run.warm_up(state)
        untraced = run.measure(state, args.seconds / 2, traced=False)
        run.tracer.install()
        try:
            traced = run.measure(state, args.seconds / 2, traced=True)
        finally:
            run.tracer.restore()
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values, table = per_layer(run, names, untraced, traced) if run.quality else ({}, {})
        detail.update(passes={"untraced": len(untraced.times), "traced": len(traced.times)},
                      layers=table)
        spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        run.tracer.dump(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    else:
        setups = Passes()
        for k in range(SETUP_REPEATS):
            setups.refs.append(run.reference.seconds())
            t0 = time.perf_counter()
            state = run.setup(k)
            setups.times.append(time.perf_counter() - t0)
        run.warm_up(state)
        passes = run.measure(state, args.seconds, traced=False)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values, raw = end_to_end(run, setups, passes) if run.quality else ({}, {})
        detail.update(passes=len(passes.times), cmd_samples=sum(map(len, passes.commands)),
                      setup_samples=len(setups.times), measured=raw,
                      pass_times=passes.times, reference_times=passes.refs)
    detail.update(digest=run.first_digest, failures=run.rec.failures[:20])
    correct = run.rec.failed == 0 and run.quality is not None
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()} if values else {}
    result = {"correct": correct, "attempted": max(run.rec.attempted, 1),
              "failed": run.rec.failed if correct else max(run.rec.failed, 1),
              "metrics": metrics}
    return result, detail


