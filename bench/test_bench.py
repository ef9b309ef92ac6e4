"""Tests of the benchmark's own machinery: tracer arithmetic and output checks.

Run from the repository root:  python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import fpq  # noqa: E402
import fpq.cli  # noqa: E402,F401
import fpq.synth  # noqa: E402,F401
from harness import Recorder  # noqa: E402
from tracer import Span, Tracer, descendants_named, self_times, totals  # noqa: E402
from workloads import CliFiles, DfqEmu, galt_not_worse, improved_epoch_frac  # noqa: E402


def _span(name, start, end, parent, pass_id=0):
    return Span(name, start, end, parent, pass_id)


class TestSelfTime:
    def test_nested_fakes(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("a", 1.0, 4.0, 0),
            _span("a.leaf", 2.0, 3.0, 1),
            _span("b", 5.0, 7.0, 0),
        ]
        assert self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            _span("root", 0.0, 10.0, -1),
            _span("x", 1.0, 4.0, 0),
            _span("y", 3.0, 5.0, 0),  # overlaps x: union [1, 5]
            _span("z", 9.0, 12.0, 0),  # clipped to [9, 10]
        ]
        assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)

    def test_totals_filter_by_pass_and_sum_per_name(self):
        spans = [
            _span("f", 0.0, 2.0, -1, pass_id="setup"),
            _span("f", 2.0, 5.0, -1, pass_id=0),
            _span("g", 3.0, 4.0, 1, pass_id=0),
            _span("f", 5.0, 6.0, -1, pass_id=1),
        ]
        t = totals(spans, lambda p: isinstance(p, int))
        assert t["f"].calls == 2
        assert t["f"].self_s == pytest.approx(2.0 + 1.0)
        assert t["f"].incl_s == pytest.approx(3.0 + 1.0)
        assert t["g"].self_s == pytest.approx(1.0)
        assert descendants_named(spans, "f", "g", lambda p: p == 0) == 1

    def test_fake_clock_spans_nest(self):
        ticks = iter([0.0, 1.0, 3.0, 4.0])
        tracer = Tracer(clock=lambda: next(ticks))
        tracer.pass_id = 7
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.spans
        assert (outer.start, outer.end, outer.parent) == (0.0, 4.0, -1)
        assert (inner.start, inner.end, inner.parent, inner.pass_id) == (1.0, 3.0, 0, 7)
        assert self_times(tracer.spans) == pytest.approx([2.0, 2.0])

    def test_no_spans_without_pass_id(self):
        tracer = Tracer()
        with tracer.span("ignored"):
            pass
        assert tracer.spans == []


class TestInstall:
    def test_rebinds_name_imports_and_restores(self):
        qmod = sys.modules["fpq.quantize"]
        originals = (qmod.quantize, fpq.quantize, fpq.galt.quantize, fpq.formats.nearest_codes)
        tracer = Tracer()
        tracer.install()
        try:
            assert qmod.quantize is not originals[0]
            assert fpq.quantize is qmod.quantize
            assert fpq.galt.quantize is qmod.quantize
            tracer.pass_id = 0
            fpq.quantize(np.linspace(-1.0, 1.0, 8).reshape(2, 4), fpq.E2M1)
            tracer.pass_id = None
        finally:
            tracer.restore()
        assert (qmod.quantize, fpq.quantize, fpq.galt.quantize,
                fpq.formats.nearest_codes) == originals
        names = [s.name for s in tracer.spans]
        assert names[0] == "quantize.quantize"
        leaf = tracer.spans[names.index("formats.nearest_codes")]
        assert tracer.spans[leaf.parent].name == "quantize.quantize"
        assert leaf.elems == 8


class TestChecks:
    def test_galt_guard(self):
        assert galt_not_worse(np.array([1.5, 0.5]), [3.0, 2.0, 2.5])
        assert galt_not_worse(np.ones(2), [3.0, 3.5])
        assert not galt_not_worse(np.array([1.5, 0.5]), [3.0, 3.5])
        assert improved_epoch_frac([3.0, 2.0, 2.5, 1.0]) == pytest.approx(2 / 3)

    def test_dfq_emu_checks_pass_then_trip_on_corrupted_plane(self, tmp_path):
        wl = DfqEmu(calib_tensors=1, calib_rows=4, tokens=8, dim=128, out_features=8)
        st = wl.setup(fpq, 3, tmp_path)
        rec = Recorder(Tracer())
        out = wl.run_pass(st, rec)
        wl.check(st, out, rec)
        assert rec.failed == 0 and rec.attempted > 0

        idx = np.flatnonzero(out.r_lut.neg_codes)[0]
        out.r_lut.pos_codes.flat[idx] = 1
        wl.check(st, out, rec)
        assert "DFQ planes disjoint (LUT path)" in rec.failures
        assert "dfq_lut_quantize bit-identical to dfq_quantize" in rec.failures

    def test_cli_files_checks_trip_on_corrupted_file(self, tmp_path):
        wl = CliFiles(files_per_kind=1, rows=4, cols=128)
        st = wl.setup(fpq, 5, tmp_path / "files")
        rec = Recorder(Tracer())
        out = wl.run_pass(st, rec)
        quality = wl.check(st, out, rec)
        assert rec.failed == 0, rec.failures
        assert len(rec.latencies) == 3 * 2 + 1
        assert 0 < quality.out_rel_mse < 1

        path = st.inputs[1][0]  # the GeLU activation file
        pos = wl.outputs(path)["pos_codes"]
        data = fpq.tensorfile.read_tensor(pos).data.copy()
        data.flat[np.flatnonzero(data == 0)[0]] = 3
        fpq.tensorfile.write_tensor(pos, data, kind="code4")
        out.back[1]["pos_codes"] = fpq.tensorfile.read_tensor(pos)
        wl.check(st, out, rec)
        assert any(f.startswith("a000 pos_codes") for f in rec.failures)
