"""The three closed-loop fpq workloads: set-up, one pass, and output checks.

Every workload runs a fixed, seeded input set pass after pass from one
caller.  ``setup`` builds the inputs (and for ``cli_files`` writes them);
``run_pass`` makes the calls whose time is measured, grouped into commands
(an odd number per pass, so the latency percentiles fall inside one kind
of command rather than between two); ``digest`` lists the output values
that must repeat bit for bit on every pass; ``check`` verifies a pass's
outputs against reference computations, outside the timed region, and
returns the quality numbers.

All calls into fpq go through attributes of the package or its modules at
call time, so the tracer's rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np


@dataclass
class Quality:
    """Per-pass quality numbers and the values that identify the outputs."""

    err: float = 0.0  # sum of squared output errors
    ref: float = 0.0  # sum of squared reference outputs
    gains: list[float] = field(default_factory=list)
    improved_epoch_frac: float = 0.0

    @property
    def out_rel_mse(self) -> float:
        return self.err / self.ref

    @property
    def gain(self) -> float:
        return math.exp(sum(math.log(g) for g in self.gains) / len(self.gains))


def rel_err(a, ref) -> float:
    """Frobenius norm of the difference relative to the reference."""
    return float(np.linalg.norm(np.asarray(a) - ref) / np.linalg.norm(ref))


def planes_disjoint(r) -> bool:
    """At most one DFQ code plane holds a nonzero code per element."""
    return not np.any((r.neg_codes != 0) & (r.pos_codes != 0))


def same_dfq(a, b) -> bool:
    """Bit-identical planes and scales."""
    return all(
        np.array_equal(np.asarray(getattr(a, k)), np.asarray(getattr(b, k)))
        for k in ("neg_codes", "pos_codes", "s_neg", "s_pos")
    )


def galt_not_worse(lam, history) -> bool:
    """The best epoch loss is no worse than the baseline, and when no epoch
    improved on it the initial (all-ones) lambda comes back."""
    best = min(history)
    if best > history[0]:
        return False
    return best < history[0] or bool(np.all(lam == 1.0))


def improved_epoch_frac(history) -> float:
    """Share of epochs whose loss beat every earlier entry, baseline included."""
    wins = sum(history[i] < min(history[:i]) for i in range(1, len(history)))
    return wins / max(len(history) - 1, 1)


class GaltFit:
    """General-layer recipe on a seeded VAR-style block: GHT, GALT, E2M1
    per-group quantization of the fused weight, emulated GEMM of the whole
    calibration set.  No file IO and no DFQ search.

    Sized at dim 128 (qkv 3d, proj d, fc1 4d) with 64-wide groups: at dim
    256 a pass took about 4 s, too few passes per run for a steady median
    on this noisy 2-core box."""

    name = "galt_fit"
    dim = 128
    layers = (("qkv", 384), ("proj", 128), ("fc1", 512))
    epochs = 2
    group = 64

    def shapes(self) -> dict:
        return {
            "dim": self.dim,
            "weights": {name: [rows, self.dim] for name, rows in self.layers},
            "schedule": "galt.DESK_SCHEDULE",
            "emulated_tokens": "all calibration steps stacked",
            "epochs": self.epochs,
            "format": "E2M1 per_group",
            "group": self.group,
        }

    def setup(self, fpq, seed: int, workdir: Path):
        st = SimpleNamespace(fpq=fpq)
        st.luts = fpq.build_tables()
        st.calib = fpq.synth_calibration(seed, fpq.galt.DESK_SCHEDULE, dim=self.dim)
        st.weights = [
            (name, fpq.synth.gaussian_channel_weights(seed * 1000 + i + 1, rows, self.dim))
            for i, (name, rows) in enumerate(self.layers)
        ]
        st.cfg = fpq.HadamardConfig(self.dim, self.group)
        st.g = fpq.Granularity.per_group(self.group)
        st.x = np.concatenate(st.calib.per_step)
        return st

    def run_pass(self, st, rec):
        fpq = st.fpq
        x = st.x
        out = []
        for name, w in st.weights:
            with rec.command():
                problem = fpq.GaltProblem(st.calib, w, st.cfg, fpq.E2M1, st.g)
                lam, history = fpq.optimize_galt(problem, epochs=self.epochs)
                w_fused = fpq.fuse_lambda_weight(w, lam, st.cfg)
                wq = fpq.quantize(w_fused, fpq.E2M1, st.g)
                a = fpq.apply_ght(x * lam, st.cfg)
                aq = fpq.quantize(a, fpq.E2M1, st.g)
                y = fpq.emu_gemm(aq, wq, st.luts)
            out.append(SimpleNamespace(name=name, w=w, lam=lam, history=history,
                                       w_fused=w_fused, a=a, wq=wq, aq=aq, y=y))
        return out

    def check(self, st, out, rec) -> Quality:
        fpq = st.fpq
        x = st.x
        q = Quality()
        for o in out:
            ref = x @ o.w.T
            rec.check(f"{o.name}: fused rotation preserves X W^T",
                      rel_err(o.a @ o.w_fused.T, ref) <= 1e-10)
            exact = fpq.dequantize(o.aq) @ fpq.dequantize(o.wq).T
            rec.check(f"{o.name}: emu_gemm equals the dequantized product",
                      rel_err(o.y, exact) <= 1e-12)
            rec.check(f"{o.name}: GALT best loss no worse than baseline",
                      galt_not_worse(o.lam, o.history))
            q.err += float(np.sum((o.y - ref) ** 2))
            q.ref += float(np.sum(ref**2))
            q.gains.append(o.history[0] / min(o.history))
        q.improved_epoch_frac = float(np.mean([improved_epoch_frac(o.history) for o in out]))
        return q

    def digest(self, out) -> list:
        return [v for o in out
                for v in (o.wq.codes, o.wq.scales, o.aq.codes, o.aq.scales, o.lam,
                          np.asarray(o.history))]


class DfqEmu:
    """fc2 path on GeLU activations: 3x3 DFQ format search at per_token and
    per_group, DFQ of the activation, E2M1 weight, DFQ emulated GEMM, then
    the per-tensor LUT quantizers.  No rotation and no GALT."""

    name = "dfq_emu"
    group = 128

    def __init__(self, calib_tensors=2, calib_rows=128, tokens=1024, dim=1024,
                 out_features=1024):
        self.calib_tensors, self.calib_rows = calib_tensors, calib_rows
        self.tokens, self.dim, self.out_features = tokens, dim, out_features

    def shapes(self) -> dict:
        return {
            "calibration": [[self.calib_rows, self.dim]] * self.calib_tensors,
            "search_granularities": ["per_token", f"per_group {self.group}"],
            "activation": [self.tokens, self.dim],
            "weight": [self.out_features, self.dim],
            "dfq": "E1M2/E2M1 per_token",
            "weight_format": "E2M1 per_channel",
        }

    def setup(self, fpq, seed: int, workdir: Path):
        st = SimpleNamespace(fpq=fpq)
        st.luts = fpq.build_tables()
        gelu = fpq.synth.gelu_activations
        st.calib = [gelu(seed * 1000 + i, (self.calib_rows, self.dim))
                    for i in range(self.calib_tensors)]
        st.act = gelu(seed * 1000 + 500, (self.tokens, self.dim))
        st.weight = fpq.synth.gaussian_channel_weights(
            seed * 1000 + 501, self.out_features, self.dim)
        return st

    def run_pass(self, st, rec):
        fpq = st.fpq
        G = fpq.Granularity
        o = SimpleNamespace()
        with rec.command():
            o.pick_token = fpq.dfq_search_format(st.calib, G.per_token())
        with rec.command():
            o.pick_group = fpq.dfq_search_format(st.calib, G.per_group(self.group))
        with rec.command():  # fc2 forward through the DFQ datapath
            o.r = fpq.dfq_quantize(st.act, fpq.E1M2, fpq.E2M1, G.per_token())
            o.wq = fpq.quantize(st.weight, fpq.E2M1, G.per_channel())
            o.y = fpq.emu_gemm(o.r, o.wq, st.luts)
        with rec.command():
            o.r_lut = fpq.dfq_lut_quantize(st.act, st.luts)
        with rec.command():
            o.w_scale = fpq.compute_scale(st.weight, fpq.E2M1)
            o.w_lut = fpq.lut_quantize(st.weight, o.w_scale, st.luts)
        return o

    def check(self, st, o, rec) -> Quality:
        fpq = st.fpq
        G = fpq.Granularity
        rec.check("DFQ planes disjoint (per_token)", planes_disjoint(o.r))
        rec.check("DFQ planes disjoint (LUT path)", planes_disjoint(o.r_lut))
        ref_dfq = fpq.dfq_quantize(st.act, fpq.E1M2, fpq.E2M1, G.per_tensor())
        rec.check("dfq_lut_quantize bit-identical to dfq_quantize", same_dfq(o.r_lut, ref_dfq))
        ref_w = fpq.quantize(st.weight, fpq.E2M1, G.per_tensor())
        rec.check("lut_quantize bit-identical to quantize",
                  np.array_equal(o.w_lut, ref_w.codes) and o.w_scale == float(ref_w.scales))
        exact = fpq.dequantize(o.r) @ fpq.dequantize(o.wq).T
        rec.check("DFQ emu_gemm equals the dequantized product", rel_err(o.y, exact) <= 1e-12)
        ref = st.act @ st.weight.T
        single = fpq.dequantize(fpq.quantize(st.act, fpq.E2M1, G.per_token()))
        return Quality(
            err=float(np.sum((o.y - ref) ** 2)),
            ref=float(np.sum(ref**2)),
            gains=[fpq.quant_mse(st.act, single) / fpq.quant_mse(st.act, fpq.dequantize(o.r))],
        )

    def digest(self, o) -> list:
        return [
            "/".join(f.name for f in o.pick_token), "/".join(f.name for f in o.pick_group),
            o.r.neg_codes, o.r.pos_codes, o.r.s_neg, o.r.s_pos, o.wq.codes, o.wq.scales,
            o.r_lut.neg_codes, o.r_lut.pos_codes, o.w_lut,
        ]


class CliFiles:
    """Per-layer FPQT files through the CLI, invoked in-process: rotate,
    quantize per_group and dfq per_token for each file, report over the
    stream, then every written file read back."""

    name = "cli_files"
    group = 128

    def __init__(self, files_per_kind=32, rows=64, cols=256):
        self.files_per_kind, self.rows, self.cols = files_per_kind, rows, cols

    def shapes(self) -> dict:
        return {
            "weight_files": [self.files_per_kind, "f32", [self.rows, self.cols]],
            "gelu_files": [self.files_per_kind, "f64", [self.rows, self.cols]],
            "commands_per_file": ["rotate", "quantize per_group", "dfq per_token"],
            "group": self.group,
        }

    def setup(self, fpq, seed: int, workdir: Path):
        st = SimpleNamespace(fpq=fpq, dir=workdir, inputs=[])
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for i in range(self.files_per_kind):
            w = fpq.synth.gaussian_channel_weights(seed * 1000 + i, self.rows, self.cols)
            a = fpq.synth.gelu_activations(seed * 1000 + 500 + i, (self.rows, self.cols))
            for stem, arr in ((f"w{i:03d}", w.astype(np.float32)), (f"a{i:03d}", a)):
                path = workdir / f"{stem}.fpqt"
                fpq.tensorfile.write_tensor(path, arr)
                st.inputs.append((path, arr))
        # Unused by the CLI, but every workload's set-up builds the tables
        # so that setup_s covers the same steps in all three.
        st.luts = fpq.build_tables()
        return st

    @staticmethod
    def outputs(path: Path) -> dict[str, Path]:
        """Every file the three per-file commands write for one input."""
        stem = path.with_suffix("")
        names = {"rot": ".rot.fpqt", "codes": ".rot.codes.fpqt", "scales": ".rot.scales.fpqt",
                 "neg_codes": ".neg_codes.fpqt", "pos_codes": ".pos_codes.fpqt",
                 "s_neg": ".neg_scales.fpqt", "s_pos": ".pos_scales.fpqt"}
        return {k: Path(f"{stem}{suffix}") for k, suffix in names.items()}

    def _cli(self, st, rec, *argv) -> str:
        """One in-process CLI invocation; a nonzero exit fails the operation."""
        args = [str(a) for a in argv]
        captured = io.StringIO()
        with rec.command(span=f"cli.{args[0]}"), contextlib.redirect_stdout(captured):
            try:
                st.fpq.cli.main.main(args, standalone_mode=False)
            except SystemExit as exc:
                if exc.code:
                    raise RuntimeError(f"fpq {' '.join(args)} exited with {exc.code}") from exc
        return captured.getvalue()

    def run_pass(self, st, rec):
        report = st.dir / "report.jsonl"
        report.unlink(missing_ok=True)
        for path, _ in st.inputs:
            out = self.outputs(path)
            self._cli(st, rec, "rotate", "--input", path, "--output", out["rot"],
                      "--group", self.group, "--report", report)
            self._cli(st, rec, "quantize", "--input", out["rot"], "--granularity", "per_group",
                      "--group", self.group, "--report", report)
            self._cli(st, rec, "dfq", "--input", path, "--granularity", "per_token",
                      "--neg-format", "E1M2", "--pos-format", "E2M1", "--report", report)
        summary = self._cli(st, rec, "report", "--input", report)
        read = st.fpq.tensorfile.read_tensor
        back = [{k: rec.io(read, p) for k, p in self.outputs(path).items()}
                for path, _ in st.inputs]
        return SimpleNamespace(summary=summary, back=back, report=report)

    def check(self, st, o, rec) -> Quality:
        fpq = st.fpq
        G = fpq.Granularity
        n = len(st.inputs)
        records = [json.loads(line) for line in o.report.read_text().splitlines() if line.strip()]
        counts = {c: sum(r.get("command") == c for r in records)
                  for c in ("rotate", "quantize", "dfq")}
        rec.check("report stream holds one record per command",
                  len(records) == 3 * n and all(v == n for v in counts.values()))
        rec.check("report command counts every record",
                  o.summary.splitlines()[:1] == [f"{3 * n} records in {o.report}"])
        dfq_mse = {r["metrics"]["layer"]: r["metrics"]["mse"]
                   for r in records if r.get("command") == "dfq"}
        cfg = fpq.HadamardConfig(self.cols, self.group)
        g = G.per_group(self.group)
        q = Quality()
        for (path, x), back in zip(st.inputs, o.back):
            name = path.stem
            float_kind = "f32" if x.dtype == np.float32 else "f64"
            rot = fpq.apply_ght(x, cfg).astype(x.dtype)
            ref_q = fpq.quantize(rot, fpq.E2M1, g)
            ref_d = fpq.dfq_quantize(x, fpq.E1M2, fpq.E2M1, G.per_token())
            expect = {
                "rot": (float_kind, rot),
                "codes": ("code4", ref_q.codes), "scales": ("f64", ref_q.scales),
                "neg_codes": ("code4", ref_d.neg_codes), "pos_codes": ("code4", ref_d.pos_codes),
                "s_neg": ("f64", ref_d.s_neg), "s_pos": ("f64", ref_d.s_pos),
            }
            for key, (kind, want) in expect.items():
                got = back[key]
                rec.check(f"{name} {key}: read back with the written kind, shape and values",
                          got.kind == kind and got.data.shape == want.shape
                          and np.array_equal(got.data, want))
            got_q = fpq.QuantizedTensor(back["codes"].data, back["scales"].data, fpq.E2M1, g,
                                        rot.shape)
            got_d = fpq.DfqResult(back["neg_codes"].data, back["pos_codes"].data,
                                  back["s_neg"].data, back["s_pos"].data, fpq.E1M2, fpq.E2M1,
                                  G.per_token(), x.shape)
            rec.check(f"{name}: DFQ planes disjoint", planes_disjoint(got_d))
            x_hat = fpq.dequantize(got_d)
            mse = fpq.quant_mse(x, x_hat)
            rec.check(f"{name}: dfq record reports the file's MSE",
                      math.isclose(dfq_mse.get(name, math.nan), mse, rel_tol=1e-12))
            rot64 = rot.astype(np.float64)
            q.err += float(np.sum((rot64 - fpq.dequantize(got_q)) ** 2) + np.sum((x - x_hat) ** 2))
            q.ref += float(np.sum(rot64**2) + np.sum(x.astype(np.float64) ** 2))
            if float_kind == "f64":
                single = fpq.dequantize(fpq.quantize(x, fpq.E2M1, G.per_token()))
                q.gains.append(fpq.quant_mse(x, single) / mse)
        return q

    def digest(self, o) -> list:
        return [t.data for back in o.back for t in back.values()]


WORKLOADS = {w.name: w for w in (GaltFit, DfqEmu, CliFiles)}
