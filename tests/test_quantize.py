"""Quantizer tests: scales, granularities, baselines, DFQ, and the search."""

from __future__ import annotations

import itertools
import math
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpq import formats
from fpq.formats import (
    E1M2,
    E2M1,
    E3M0,
    FORMATS,
    decode_bits,
    grid_values,
    max_value,
    nearest_codes,
)
from fpq.hwemu import dfq_lut_quantize, lut_quantize
from fpq.quantize import (
    DFQ_CANDIDATE_FORMATS,
    DfqResult,
    Granularity,
    IntFormat,
    QuantizedTensor,
    _dfq_search_totals,
    _part_sums,
    _fake_quantize,
    _unit_scales,
    afpq_quantize,
    compute_scale,
    dequantize,
    dfq_quantize,
    dfq_search_format,
    quant_mse,
    quantize,
    rtn_int_quantize,
)
from fpq.synth import gaussian_channel_weights, gelu_activations

PT = Granularity.per_tensor()
_SHIPPED = sorted(FORMATS.values(), key=lambda f: f.name)


def _unit_reduce(x: np.ndarray, g: Granularity, fn) -> np.ndarray:
    """``Granularity.reduce`` as a free function on ``g``'s kind: the oracle
    the method replaced."""
    if g.kind == "per_tensor":
        return fn(x)
    if g.kind in ("per_channel", "per_token"):
        return fn(x, axis=1)
    gs = g.group_size
    return fn(x.reshape(*x.shape[:-1], x.shape[-1] // gs, gs), axis=-1)


def _per_element_scales(scales: np.ndarray, g: Granularity):
    """Per-unit scales expanded to broadcast against the tensor they scale:
    the full-size form of ``Granularity.row_scales``, as an oracle."""
    if g.kind == "per_tensor":
        return scales
    if g.kind in ("per_channel", "per_token"):
        return scales[:, None]
    return np.repeat(scales, g.group_size, axis=-1)


class TestComputeScale:
    def test_grid_peak_gives_unit_scale(self) -> None:
        assert compute_scale([0, 3, 6], E2M1) == 1.0

    def test_scale_from_negative_peak(self) -> None:
        assert compute_scale([-12, 3], E2M1) == 2.0

    def test_all_zero_convention(self) -> None:
        assert compute_scale([0.0, 0.0], E2M1) == 1.0

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="finite"):
            compute_scale([1.0, float("nan")], E2M1)

    def test_underflowing_scale_is_one(self) -> None:
        assert compute_scale([5e-324, -5e-324], E2M1) == 1.0


# Units whose absmax / max_value underflows to 0: the scale falls back to 1.
TINY = np.array([[5e-324, -5e-324, 1e-323, 0.0], [1.5, -2.0, 5e-324, 0.0]])


class TestTinyUnits:
    def test_unit_scales_unchanged_where_positive(self) -> None:
        rng = np.random.default_rng(4)
        absmax = np.concatenate([[0.0, 5e-324, 1e-323, 3e-323, 1e-310], rng.uniform(0, 1e3, 100)])
        for peak in (3.5, 6.0, 16.0, 7.0):
            plain = np.where(absmax > 0, absmax / peak, 1.0)  # all-zero units at 1 only
            got = _unit_scales(absmax, peak)
            kept = plain > 0
            assert got[kept].view(np.uint64).tolist() == plain[kept].view(np.uint64).tolist()
            assert np.any(~kept) and np.all(got[~kept] == 1.0)

    @pytest.mark.parametrize("g, x, scales", [
        (PT, TINY[:1], 1.0),
        (Granularity.per_token(), TINY, [1.0, 2.0 / 6]),
        (Granularity.per_group(2), TINY, [[1.0, 1.0], [2.0 / 6, 1.0]]),
    ], ids=["per_tensor", "per_token", "per_group2"])
    def test_quantize_and_fake_quantize(self, g: Granularity, x, scales) -> None:
        q = quantize(x, E2M1, g)
        assert q.scales.tolist() == scales
        want = dequantize(q)
        np.testing.assert_array_equal(want[np.abs(x) < 1e-300], 0.0)
        assert _fake_quantize(x, E2M1, g).view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_dfq_quantize(self) -> None:
        r = dfq_quantize(TINY, E1M2, E2M1, Granularity.per_token())
        assert r.s_neg.tolist() == [1.0, 2.0 / 3.5]
        assert r.s_pos.tolist() == [1.0, 1.5 / 6]
        assert not r.neg_codes[0].any() and not r.pos_codes[0].any()

    @pytest.mark.parametrize("g", [PT, Granularity.per_token(), Granularity.per_group(2)],
                             ids=lambda g: f"{g.kind}{g.group_size}")
    def test_search(self, g: Granularity) -> None:
        tensors = [TINY, TINY[:1] * 0.5]
        want_pick, want_totals = _search_oracle(tensors, g)
        assert dfq_search_format(tensors, g) == want_pick
        assert _dfq_search_totals(tensors, g).tolist() == want_totals.tolist()


class TestQuantize:
    def test_grid_aligned_roundtrip(self) -> None:
        x = np.array([0.0, 3.0, 6.0])
        q = quantize(x, E2M1, PT)
        assert float(q.scales) == 1.0
        np.testing.assert_array_equal(dequantize(q), x)

    def test_rounding_with_unit_scale(self) -> None:
        q = quantize(np.array([0.0, 5.1, 6.0]), E2M1, PT)
        np.testing.assert_array_equal(dequantize(q), [0.0, 6.0, 6.0])

    def test_all_zero_tensor(self) -> None:
        q = quantize(np.zeros((4, 4)), E2M1, PT)
        assert float(q.scales) == 1.0
        assert not q.codes.any()

    def test_empty_and_non_finite_rejected(self) -> None:
        with pytest.raises(ValueError, match="nonempty"):
            quantize(np.zeros((0,)), E2M1, PT)
        with pytest.raises(ValueError, match="finite"):
            quantize(np.array([np.inf]), E2M1, PT)

    def test_per_channel_scales_shape(self) -> None:
        x = np.random.default_rng(0).standard_normal((5, 64))
        q = quantize(x, E2M1, Granularity.per_channel())
        assert q.scales.shape == (5,)
        np.testing.assert_allclose(q.scales, np.abs(x).max(axis=1) / 6.0)

    def test_per_channel_needs_2d(self) -> None:
        with pytest.raises(ValueError, match="2-D"):
            quantize(np.ones(8), E2M1, Granularity.per_channel())

    @pytest.mark.parametrize("op", [
        lambda x, g: quantize(x, E2M1, g), lambda x, g: _fake_quantize(x, E2M1, g),
        lambda x, g: dfq_quantize(x, E1M2, E2M1, g), lambda x, g: dfq_search_format([x], g),
    ], ids=["quantize", "fake", "dfq", "search"])
    def test_per_group_needs_an_axis(self, op) -> None:
        with pytest.raises(ValueError, match="^per_group granularity needs a tensor with at least one axis"):
            op(np.float64(2.0), Granularity.per_group(4))

    def test_per_group_scales_shape(self) -> None:
        x = np.random.default_rng(1).standard_normal((3, 256))
        q = quantize(x, E2M1, Granularity.per_group(128))
        assert q.scales.shape == (3, 2)

    def test_per_group_indivisible_rejected(self) -> None:
        with pytest.raises(ValueError, match="not divisible"):
            quantize(np.ones((2, 100)), E2M1, Granularity.per_group(64))

    @pytest.mark.parametrize(
        "gran",
        [PT, Granularity.per_channel(), Granularity.per_token(), Granularity.per_group(32)],
        ids=lambda g: g.kind,
    )
    def test_error_bound_per_unit(self, gran: Granularity) -> None:
        x = np.random.default_rng(3).standard_normal((8, 64)) * 2.5
        q = quantize(x, E2M1, gran)
        err = np.abs(x - dequantize(q))
        half_gap = np.diff(grid_values(E2M1)).max() / 2
        if gran.kind == "per_tensor":
            bound = float(q.scales) * half_gap
        elif gran.kind in ("per_channel", "per_token"):
            bound = (q.scales * half_gap)[:, None]
        else:
            bound = np.repeat(q.scales * half_gap, 32, axis=-1)
        assert np.all(err <= bound + 1e-12)

    def test_deq_values_on_scaled_grid(self) -> None:
        x = np.random.default_rng(4).standard_normal(500)
        q = quantize(x, E2M1, PT)
        lattice = float(q.scales) * grid_values(E2M1)
        assert all(any(math.isclose(v, p, abs_tol=1e-12) for p in lattice) for v in dequantize(q))


def _bits(a) -> tuple:
    """Shape and bytes of ``a``: equal only for bit-identical arrays."""
    a = np.asarray(a)
    return a.shape, a.dtype, a.tobytes()


class TestPerGroupAnyRank:
    """A per_group unit is a row of the (-1, group) view for any rank: 1-D
    and 3-D inputs quantize like their (-1, n) matrix, bit for bit, with
    scales of shape ``x.shape[:-1] + (n // g,)``."""

    @pytest.mark.parametrize("gs", [4, 8])
    @settings(max_examples=30)
    @given(data=st.data())
    def test_matches_the_matrix(self, gs: int, data) -> None:
        g = Granularity.per_group(gs)
        fmt, neg_fmt = (data.draw(st.sampled_from(_SHIPPED)) for _ in range(2))
        lead = data.draw(st.sampled_from([(), (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))]))
        n = data.draw(st.integers(1, 4)) * gs
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        x = data.draw(arrays(np.float64, (*lead, n), elements=values))
        m = x.reshape(-1, n)
        q, qm = quantize(x, fmt, g), quantize(m, fmt, g)
        assert q.scales.shape == (*lead, n // gs)
        assert _bits(q.codes) == _bits(qm.codes.reshape(x.shape))
        assert _bits(q.scales) == _bits(qm.scales.reshape(q.scales.shape))
        assert _bits(dequantize(q)) == _bits(dequantize(qm).reshape(x.shape))
        assert _bits(_fake_quantize(x, fmt, g)) == _bits(_fake_quantize(m, fmt, g).reshape(x.shape))
        r, rm = dfq_quantize(x, neg_fmt, fmt, g), dfq_quantize(m, neg_fmt, fmt, g)
        for (codes, _, scales), (codes_m, _, scales_m) in zip(r.planes, rm.planes):
            assert scales.shape == (*lead, n // gs)
            assert _bits(codes) == _bits(codes_m.reshape(x.shape))
            assert _bits(scales) == _bits(scales_m.reshape(scales.shape))
        assert _bits(dequantize(r)) == _bits(dequantize(rm).reshape(x.shape))

    def test_slice_scales_are_one_column(self) -> None:
        # No per-element expansion: a slice of rows of the (-1, group) view
        # takes its unit scales as a column, which broadcasts over the group.
        g = Granularity.per_group(4)
        x = np.arange(2 * 3 * 8, dtype=np.float64).reshape(2, 3, 8)
        scales = _unit_scales(g.reduce(np.abs(x), np.max), 6.0)
        assert g.rows(x).shape == (12, 4) and scales.shape == (2, 3, 2)
        assert _bits(g.row_scales(scales)(slice(5, 9))) == _bits(scales.reshape(-1, 1)[5:9])

    @pytest.mark.parametrize("shape", [(12,), (2, 3, 12)], ids=["1d", "3d"])
    @pytest.mark.parametrize("op", [
        lambda x, g: quantize(x, E2M1, g), lambda x, g: _fake_quantize(x, E2M1, g),
        lambda x, g: dfq_quantize(x, E1M2, E2M1, g), lambda x, g: rtn_int_quantize(x, 4, g),
    ], ids=["quantize", "fake", "dfq", "rtn_int"])
    def test_errors_keep_their_messages(self, shape, op) -> None:
        with pytest.raises(ValueError, match=r"^last axis \(12\) is not divisible by group size 8$"):
            op(np.ones(shape), Granularity.per_group(8))
        with pytest.raises(ValueError, match="^per_group granularity needs a tensor with at least one "
                                             "axis, got 0-D$"):
            op(np.float64(1.0), Granularity.per_group(8))


class TestRtnBaseline:
    def test_int_range_exact(self) -> None:
        x = np.arange(-7, 8, dtype=float)
        q = rtn_int_quantize(x, 4, PT)
        assert float(q.scales) == 1.0
        np.testing.assert_array_equal(dequantize(q), x)

    def test_single_value_uses_full_range(self) -> None:
        q = rtn_int_quantize(np.array([0.5]), 4, PT)
        assert q.codes[0] == 7
        np.testing.assert_allclose(float(q.scales), 0.5 / 7)

    def test_round_half_even(self) -> None:
        q = rtn_int_quantize(np.array([2.5, 3.5, 7.0]), 4, PT)
        np.testing.assert_array_equal(q.codes, [2, 4, 7])

    def test_code_space_vs_fp4_levels(self) -> None:
        # 16 INT4 bit patterns against 15 distinct FP4 values.
        assert 2**4 == 16
        assert len(grid_values(E2M1)) == 15
        assert isinstance(rtn_int_quantize(np.ones(1), 4, PT).format, IntFormat)

    def test_rejects_unsupported_width(self) -> None:
        with pytest.raises(ValueError, match="4, 6, 8"):
            rtn_int_quantize(np.ones(4), 5, PT)

    def test_fp4_beats_int4_on_gaussian(self) -> None:
        x = np.random.default_rng(5).standard_normal(4096)
        mse_fp = quant_mse(x, dequantize(quantize(x, E2M1, PT)))
        mse_int = quant_mse(x, dequantize(rtn_int_quantize(x, 4, PT)))
        assert mse_fp < mse_int


class TestAfpq:
    def test_symmetric_input_equals_standard(self) -> None:
        x = np.random.default_rng(6).standard_normal(512)
        x = np.concatenate([x, -x])  # exactly symmetric
        r = afpq_quantize(x, E2M1, PT)
        assert float(r.s_neg) == float(r.s_pos)
        np.testing.assert_allclose(dequantize(r), dequantize(quantize(x, E2M1, PT)))

    def test_all_non_positive_input(self) -> None:
        x = -np.abs(np.random.default_rng(7).standard_normal(256))
        r = afpq_quantize(x, E2M1, PT)
        assert not r.pos_codes.any()
        assert float(r.s_pos) == 1.0

    def test_beats_standard_on_gelu_shape(self) -> None:
        x = gelu_activations(8, (128, 128))
        mse_afpq = quant_mse(x, dequantize(afpq_quantize(x, E2M1, PT)))
        mse_std = quant_mse(x, dequantize(quantize(x, E2M1, PT)))
        assert mse_afpq < mse_std


class TestDfq:
    def test_negative_branch_scale(self) -> None:
        x = np.array([-0.17, -0.1, 0.3, 10.0])
        r = dfq_quantize(x, E1M2, E2M1, PT)
        assert float(r.s_neg) == pytest.approx(0.17 / max_value(E1M2))
        assert float(r.s_pos) == pytest.approx(10.0 / max_value(E2M1))

    def test_all_zero(self) -> None:
        r = dfq_quantize(np.zeros(16), E1M2, E2M1, PT)
        assert not r.neg_codes.any() and not r.pos_codes.any()
        assert float(r.s_neg) == 1.0 and float(r.s_pos) == 1.0

    def test_sign_split(self) -> None:
        from fpq.formats import decode_bits

        x = np.random.default_rng(9).standard_normal(2048)
        r = dfq_quantize(x, E1M2, E2M1, PT)
        neg_vals = decode_bits(E1M2, r.neg_codes)
        pos_vals = decode_bits(E2M1, r.pos_codes)
        # Positive elements never populate the negative plane and vice versa.
        assert not neg_vals[x > 0].any()
        assert not pos_vals[x <= 0].any()
        # At most one plane nonzero per element.
        assert not ((neg_vals != 0) & (pos_vals != 0)).any()
        assert np.all(neg_vals <= 0) and np.all(pos_vals >= 0)

    def test_dequant_identity(self) -> None:
        from fpq.formats import decode_bits

        x = gelu_activations(10, (64, 64))
        r = dfq_quantize(x, E1M2, E2M1, PT)
        manual = decode_bits(E1M2, r.neg_codes) * float(r.s_neg) + decode_bits(
            E2M1, r.pos_codes
        ) * float(r.s_pos)
        np.testing.assert_array_equal(dequantize(r), manual)

    def test_zero_routed_to_negative_branch(self) -> None:
        x = np.array([0.0, -1.0, 2.0])
        r = dfq_quantize(x, E1M2, E2M1, PT)
        assert r.pos_codes[0] == 0 and r.neg_codes[0] == 0

    def test_per_group_granularity(self) -> None:
        x = gelu_activations(11, (4, 256))
        r = dfq_quantize(x, E1M2, E2M1, Granularity.per_group(128))
        assert r.s_neg.shape == (4, 2) and r.s_pos.shape == (4, 2)
        assert quant_mse(x, dequantize(r)) < quant_mse(x, dequantize(quantize(x, E2M1, Granularity.per_group(128))))


class TestFormatSearch:
    def test_gelu_distribution_picks_mixed_pair(self) -> None:
        calib = [gelu_activations(100 + i, (128, 256)) for i in range(4)]
        neg_fmt, pos_fmt = dfq_search_format(calib)
        assert (neg_fmt.name, pos_fmt.name) == ("E1M2", "E2M1")

    def test_symmetric_gaussian_picks_equal_pair(self) -> None:
        rng = np.random.default_rng(12)
        calib = [rng.standard_normal(4096) for _ in range(3)]
        neg_fmt, pos_fmt = dfq_search_format(calib)
        assert neg_fmt == pos_fmt

    def test_single_tensor_argmin_and_optimality(self) -> None:
        x = gelu_activations(13, (64, 64))
        chosen = dfq_search_format([x])
        # Independently re-evaluate all nine pairs.
        table = {
            (nf.name, pf.name): quant_mse(x, dequantize(dfq_quantize(x, nf, pf, PT)))
            for nf in DFQ_CANDIDATE_FORMATS
            for pf in DFQ_CANDIDATE_FORMATS
        }
        best_key = min(table, key=table.get)
        assert (chosen[0].name, chosen[1].name) == best_key
        assert all(table[(chosen[0].name, chosen[1].name)] <= v for v in table.values())

    def test_empty_calibration_rejected(self) -> None:
        with pytest.raises(ValueError, match="nonempty"):
            dfq_search_format([])

    def test_non_finite_tensor_rejected(self) -> None:
        with pytest.raises(ValueError, match="dfq_search_format requires finite input"):
            dfq_search_format([np.ones((2, 4)), np.array([[1.0, np.nan]])])

    def test_empty_tensor_rejected(self) -> None:
        with pytest.raises(ValueError, match="dfq_search_format requires a nonempty tensor"):
            dfq_search_format([np.ones(4), np.array([])])


class TestQuantMse:
    def test_identical_is_zero(self) -> None:
        x = np.ones((3, 3))
        assert quant_mse(x, x) == 0.0

    def test_hand_value(self) -> None:
        assert quant_mse([1.0, 1.0], [0.0, 2.0]) == 1.0

    def test_against_independent_summation(self) -> None:
        rng = np.random.default_rng(14)
        a = rng.standard_normal(1000)
        b = rng.standard_normal(1000)
        slow = math.fsum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / len(a)
        assert quant_mse(a, b) == pytest.approx(slow, rel=1e-12)

    def test_shape_mismatch(self) -> None:
        with pytest.raises(ValueError, match="shape mismatch"):
            quant_mse(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("block", [1, 5, 16, 40])
    def test_sums_across_slice_tails(self, block: int) -> None:
        # 3 * block + 2 elements: whole slices and a short tail (for block > 2).
        rng = np.random.default_rng(block)
        a, b = rng.standard_normal((2, 3 * block + 2))
        err, mask = rng.uniform(0, 3, a.size), a <= 0
        with mock.patch.object(formats, "_BLOCK", block):
            mse, sums = quant_mse(a, b), _part_sums(err, mask)
            empty = quant_mse(np.empty((0, 3)), np.empty((0, 3)))
        slow = math.fsum((float(x) - float(y)) ** 2 for x, y in zip(a, b)) / a.size
        assert mse == pytest.approx(slow, rel=1e-12)
        assert sums == pytest.approx((err.sum(where=mask), err.sum(where=~mask)), rel=1e-13)
        assert math.isnan(empty)


_GRANULARITIES = [
    Granularity.per_tensor(),
    Granularity.per_channel(),
    Granularity.per_token(),
    Granularity.per_group(4),
    Granularity.per_group(8),
]


def _draw_cols(data, g: Granularity) -> int:
    """Columns of a drawn 2-D input at ``g``: 1 to 4 whole groups at per_group."""
    if g.kind == "per_group":
        return data.draw(st.integers(1, 4)) * g.group_size
    return data.draw(st.integers(1, 12))


class TestFakeQuantize:
    """The code-free path GALT uses must equal dequantize(quantize(...)), and
    dequantize's loop over the planes must equal the per-type expressions
    it replaced, for FP, INT and DFQ results."""

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @given(data=st.data())
    def test_bit_identical_to_round_trip(self, g: Granularity, data) -> None:
        fmt, neg_fmt = (data.draw(st.sampled_from(_SHIPPED)) for _ in range(2))
        cols = _draw_cols(data, g)
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), cols), elements=values))
        q = quantize(x, fmt, g)
        got = _fake_quantize(x, fmt, g)
        want = dequantize(q)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

        def expand(scales):
            return _per_element_scales(scales, g)

        iq = rtn_int_quantize(x, data.draw(st.sampled_from([4, 6, 8])), g)
        r = dfq_quantize(x, neg_fmt, fmt, g)
        # Any codes of the grid, as read back from a file, not only those a quantizer emits.
        codes = data.draw(arrays(np.uint8, x.shape, elements=st.integers(0, fmt.code_count - 1)))
        hand = QuantizedTensor(codes, q.scales, fmt, g, x.shape)
        old = [
            (q, decode_bits(fmt, q.codes) * expand(q.scales)),
            (hand, decode_bits(fmt, codes) * expand(q.scales)),
            (iq, iq.codes.astype(np.float64) * expand(iq.scales)),
            (r, decode_bits(neg_fmt, r.neg_codes) * expand(r.s_neg)
             + decode_bits(fmt, r.pos_codes) * expand(r.s_pos)),
        ]
        for result, expr in old:
            assert dequantize(result).view(np.uint64).tolist() == expr.view(np.uint64).tolist()

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="finite"):
            _fake_quantize(np.array([[1.0, np.inf]]), E2M1, PT)

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    def test_rejects_empty(self, g: Granularity) -> None:
        with pytest.raises(ValueError, match="^quantize requires a nonempty tensor$"):
            _fake_quantize(np.zeros((0, 8)), E2M1, g)


def _dfq_oracle(x, neg_fmt, pos_fmt, g: Granularity):
    """The two-plane DFQ: zero-filled parts <= 0 and > 0, each scaled by its
    own unit absmax and rounded on its own grid."""
    arr = np.asarray(x, dtype=np.float64)
    planes = []
    for fmt, part in ((neg_fmt, np.where(arr <= 0, arr, 0.0)), (pos_fmt, np.where(arr > 0, arr, 0.0))):
        scales = _unit_scales(_unit_reduce(np.abs(part), g, np.max), max_value(fmt))
        planes.append((nearest_codes(fmt, part / _per_element_scales(scales, g)), scales))
    (neg_codes, s_neg), (pos_codes, s_pos) = planes
    return neg_codes, pos_codes, s_neg, s_pos


class TestDfqOneRounding:
    """One rounding per element in the pair table must give the two-plane
    oracle's codes and scales bit for bit, for every pair of shipped grids."""

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @settings(max_examples=25)
    @given(data=st.data())
    def test_matches_two_plane_oracle(self, g: Granularity, data) -> None:
        cols = _draw_cols(data, g)
        tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), cols),
                             elements=st.one_of(tiny, st.floats(-1e6, 1e6))))
        for row, sign in zip(x, data.draw(st.lists(st.sampled_from("+-~"), min_size=len(x), max_size=len(x)))):
            if sign == "+":
                row[:] = np.abs(row) + 5e-324  # all positive
            elif sign == "-":
                row[:] = -np.abs(row)  # all non-positive
        for neg_fmt, pos_fmt in itertools.product(_SHIPPED, repeat=2):
            r = afpq_quantize(x, neg_fmt, g) if neg_fmt == pos_fmt else dfq_quantize(x, neg_fmt, pos_fmt, g)
            neg_codes, pos_codes, s_neg, s_pos = _dfq_oracle(x, neg_fmt, pos_fmt, g)
            assert r.neg_codes.dtype == neg_codes.dtype and r.pos_codes.dtype == pos_codes.dtype
            assert r.neg_codes.tolist() == neg_codes.tolist()
            assert r.pos_codes.tolist() == pos_codes.tolist()
            assert np.asarray(r.s_neg).view(np.uint64).tolist() == s_neg.view(np.uint64).tolist()
            assert np.asarray(r.s_pos).view(np.uint64).tolist() == s_pos.view(np.uint64).tolist()


class TestDfqPlanes:
    """Both DFQ quantizers run ``quantize``'s one DFQ driver: its sign split,
    its scales and its plane split."""

    @given(x=arrays(np.float64, st.integers(1, 40), elements=st.floats(-1e6, 1e6)))
    def test_matches_where_split(self, x) -> None:
        # The mask cuts one code array: neg holds the codes of the elements
        # <= 0 and pos the rest, each a fresh uint8 array.
        for r in (dfq_quantize(x, E1M2, E2M1), dfq_lut_quantize(x)):
            codes = r.neg_codes | r.pos_codes
            for plane in (r.neg_codes, r.pos_codes):
                assert plane.dtype == np.uint8 and plane.flags.owndata
            assert r.neg_codes.tolist() == np.where(x <= 0, codes, 0).tolist()
            assert r.pos_codes.tolist() == np.where(x <= 0, 0, codes).tolist()

    def test_both_quantizers_take_the_drivers_scales(self, monkeypatch) -> None:
        # One ulp more on s_neg in the shared scale step shows in both results.
        x = gelu_activations(5, (16, 64))
        want = np.nextafter(dfq_quantize(x, E1M2, E2M1).s_neg, np.inf)
        module = sys.modules["fpq.quantize"]
        scales = module._dfq_scales

        def nudged(*args):
            s_neg, s_pos, scale = scales(*args)
            return np.nextafter(s_neg, np.inf), s_pos, scale

        monkeypatch.setattr(module, "_dfq_scales", nudged)
        for r in (dfq_quantize(x, E1M2, E2M1, PT), dfq_lut_quantize(x)):
            assert r.s_neg == want

    @pytest.mark.parametrize("quantizer", [lambda x: dfq_quantize(x, E1M2, E2M1), dfq_lut_quantize],
                             ids=["reference", "lut"])
    @pytest.mark.parametrize("value", [-1.5, 0.0, 2.0])
    def test_scalar_input_gives_0d_planes(self, quantizer, value: float) -> None:
        r = quantizer(np.float64(value))
        for plane in (r.neg_codes, r.pos_codes):
            assert isinstance(plane, np.ndarray) and plane.shape == () and plane.dtype == np.uint8
        assert (r.neg_codes != 0, r.pos_codes != 0) == (value < 0, value > 0)


def _search_oracle(tensors, g: Granularity):
    """The exhaustive search: nine full dual quantizations per tensor, scanned
    with strict ``<`` in (negative, positive) order.  Each pair's squared
    error is summed over the part <= 0 and over the rest by ``_part_sums``,
    the reduction ``_dfq_search_totals`` makes.  Returns the pick and the
    3x3 table of summed MSEs."""
    best, best_mse = None, np.inf
    totals = np.zeros((3, 3))
    for i, neg_fmt in enumerate(DFQ_CANDIDATE_FORMATS):
        for j, pos_fmt in enumerate(DFQ_CANDIDATE_FORMATS):
            total = 0.0
            for t in tensors:
                err = (t - dequantize(dfq_quantize(t, neg_fmt, pos_fmt, g))) ** 2
                total += sum(_part_sums(err, t <= 0)) / err.size
            totals[i, j] = total
            if total < best_mse:
                best_mse, best = total, (neg_fmt, pos_fmt)
    return best, totals


def _masked_sum_totals(tensors, g: Granularity) -> np.ndarray:
    """The search totals with numpy's masked sums: each grid's squared error
    at its part's scale, ``err.sum(where=t <= 0)`` and over the rest."""
    totals = np.zeros((3, 3))
    for t in tensors:
        neg, pos = [], []
        for fmt in DFQ_CANDIDATE_FORMATS:
            with np.errstate(over="ignore"):
                err = (t - dequantize(afpq_quantize(t, fmt, g))) ** 2
            neg.append(err.sum(where=t <= 0))
            pos.append(err.sum(where=t > 0))
        totals += np.add.outer(neg, pos) / t.size
    return totals


def _mean_where_totals(tensors, g: Granularity) -> np.ndarray:
    """The search totals as nine-pair means: each pair's MSE as one
    ``np.mean`` over the whole tensor, not as two part sums."""
    return np.array([[sum(quant_mse(t, dequantize(dfq_quantize(t, neg, pos, g))) for t in tensors)
                      for pos in DFQ_CANDIDATE_FORMATS] for neg in DFQ_CANDIDATE_FORMATS])


class TestSeparableSearch:
    """The per-plane search must reproduce the exhaustive loop bit for bit."""

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @given(data=st.data())
    def test_matches_exhaustive_loop(self, g: Granularity, data) -> None:
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        tensors = []
        for _ in range(data.draw(st.integers(1, 3))):
            cols = _draw_cols(data, g)
            shape = (data.draw(st.integers(1, 5)), cols)
            tensors.append(data.draw(arrays(np.float64, shape, elements=values)))
        want_pick, want_totals = _search_oracle(tensors, g)
        assert dfq_search_format(tensors, g) == want_pick
        got_totals = _dfq_search_totals(tensors, g)
        assert got_totals.view(np.uint64).tolist() == want_totals.view(np.uint64).tolist()

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @pytest.mark.parametrize("sign", ["positive", "non_positive", "zero"])
    def test_tied_plane_picks_e1m2_first(self, g: Granularity, sign: str) -> None:
        rng = np.random.default_rng(21)
        tensors = [rng.uniform(0.1, 5.0, (3, 16)) for _ in range(2)]
        if sign == "non_positive":
            tensors = [np.where(t < 1.0, 0.0, -t) for t in tensors]
        elif sign == "zero":
            tensors = [np.zeros_like(t) for t in tensors]
        pick = dfq_search_format(tensors, g)
        assert pick == _search_oracle(tensors, g)[0]
        tied = {"positive": pick[:1], "non_positive": pick[1:], "zero": pick}[sign]
        assert all(f == E1M2 for f in tied)

    @pytest.mark.parametrize("g", [PT, Granularity.per_token(), Granularity.per_group(128)],
                             ids=lambda g: f"{g.kind}{g.group_size}")
    @pytest.mark.parametrize("kind", ["gelu", "channel_scaled_gaussian"])
    def test_picks_equal_the_whole_tensor_means(self, g: Granularity, kind: str) -> None:
        # Summing each part once moves the totals by rounding only: the
        # picks stay those of one mean per pair over the whole tensor.
        for seed in range(10):
            if kind == "gelu":
                tensors = [gelu_activations(100 * seed + i, (32, 256)) for i in range(2)]
            else:
                tensors = [gaussian_channel_weights(100 * seed + i, 256, 32).T for i in range(2)]
            totals = _dfq_search_totals(tensors, g)
            pick = dfq_search_format(tensors, g)
            for oracle in (_mean_where_totals, _masked_sum_totals):
                want = oracle(tensors, g)
                np.testing.assert_allclose(totals, want, rtol=1e-13, atol=0)
                i, j = np.unravel_index(np.argmin(want), want.shape)
                assert pick == (DFQ_CANDIDATE_FORMATS[i], DFQ_CANDIDATE_FORMATS[j])

    @pytest.mark.parametrize("block", [1, 5, 16, 40, formats._BLOCK])
    def test_empty_part_sums_to_zero(self, block: int) -> None:
        err = np.random.default_rng(22).uniform(0, 3, (3, 17))
        with mock.patch.object(formats, "_BLOCK", block):
            for mask, part in ((np.zeros(err.shape, bool), 0), (np.ones(err.shape, bool), 1)):
                sums = _part_sums(err, mask)
                assert sums[part] == 0.0 and not np.signbit(sums[part])
                assert sums[1 - part] == pytest.approx(err.sum(), rel=1e-15)

    @pytest.mark.parametrize("g", [PT, Granularity.per_token(), Granularity.per_group(2)],
                             ids=lambda g: f"{g.kind}{g.group_size}")
    def test_overflowing_errors_give_the_masked_sums(self, g: Granularity) -> None:
        # +-2.5e199 is on the E2M1 and E3M0 grids at its part's scale but not
        # on E1M2's, whose rounding error squares past float64's max: the
        # grids mix inf and finite part sums, and 0 * inf must leave no NaN.
        tensors = [np.array([[1e200, 2.5e199, -1.0, -0.3], [-1e200, -2.5e199, 0.7, 0.2]]),
                   np.array([[0.5, -0.25, 3.0, -4.0], [1.0, 2.0, -0.1, -7.5]])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            totals = _dfq_search_totals(tensors, g)
            pick = dfq_search_format(tensors, g)
        want = _masked_sum_totals(tensors, g)
        assert not np.isnan(totals).any()
        assert np.isinf(want).any() and np.isfinite(want).any()
        np.testing.assert_array_equal(totals, want)
        i, j = np.unravel_index(np.argmin(want), want.shape)
        assert pick == (DFQ_CANDIDATE_FORMATS[i], DFQ_CANDIDATE_FORMATS[j])


class TestMultiBlock:
    """Inputs that span several slices of the rounding kernel give the same
    codes, scales, values and search totals as the whole-tensor oracles."""

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @settings(max_examples=40)
    @given(data=st.data())
    def test_small_slices(self, g: Granularity, data) -> None:
        fmt, neg_fmt = (data.draw(st.sampled_from(_SHIPPED)) for _ in range(2))
        cols = _draw_cols(data, g)
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        x = data.draw(arrays(np.float64, (data.draw(st.integers(2, 9)), cols), elements=values))
        with mock.patch.object(formats, "_BLOCK", data.draw(st.sampled_from([1, 5, 16, 40]))):
            got = _fake_quantize(x, fmt, g)
            r = dfq_quantize(x, neg_fmt, fmt, g)
            totals = _dfq_search_totals([x, x[::-1] * 0.5], g)
            want_totals = _search_oracle([x, x[::-1] * 0.5], g)[1]
        assert got.view(np.uint64).tolist() == dequantize(quantize(x, fmt, g)).view(np.uint64).tolist()
        neg_codes, pos_codes, s_neg, s_pos = _dfq_oracle(x, neg_fmt, fmt, g)
        assert (r.neg_codes.tolist(), r.pos_codes.tolist()) == (neg_codes.tolist(), pos_codes.tolist())
        assert (r.s_neg.tolist(), r.s_pos.tolist()) == (s_neg.tolist(), s_pos.tolist())
        assert totals.view(np.uint64).tolist() == want_totals.view(np.uint64).tolist()

    @pytest.mark.parametrize("g", [*_GRANULARITIES[:3], Granularity.per_group(128),
                                   Granularity.per_group(96)],
                             ids=lambda g: f"{g.kind}{g.group_size}")
    def test_real_slices(self, g: Granularity) -> None:
        x = gelu_activations(31, (150, 960)) if g.group_size == 96 else gelu_activations(31, (150, 1024))
        want = dequantize(quantize(x, E2M1, g))
        assert _fake_quantize(x, E2M1, g).view(np.uint64).tolist() == want.view(np.uint64).tolist()
        r = dfq_quantize(x, E1M2, E2M1, g)
        neg_codes, pos_codes, s_neg, s_pos = _dfq_oracle(x, E1M2, E2M1, g)
        assert np.array_equal(r.neg_codes, neg_codes) and np.array_equal(r.pos_codes, pos_codes)
        assert np.array_equal(r.s_neg, s_neg) and np.array_equal(r.s_pos, s_pos)
        tensors = [x[:70], x[70:]]
        totals = _dfq_search_totals(tensors, g)
        assert totals.view(np.uint64).tolist() == _search_oracle(tensors, g)[1].view(np.uint64).tolist()


def _dequantize_oracle(q) -> np.ndarray:
    """The whole-array ``dequantize``: each plane's decoded codes times its
    expanded unit scales, the planes summed in order."""
    out = None
    for codes, fmt, scales in q.planes:
        vals = codes.astype(np.float64) if isinstance(fmt, IntFormat) else decode_bits(fmt, codes)
        part = vals * _per_element_scales(scales, q.granularity)
        out = part if out is None else out + part
    return out


class TestSlicedDequantize:
    """``dequantize`` walks the rows in kernel slices; every slice size gives
    the bytes of the whole-array formula, for every plane kind."""

    @pytest.mark.parametrize("g", [*_GRANULARITIES, None],
                             ids=lambda g: f"{g.kind}{g.group_size}" if g else "zero_d")
    @settings(max_examples=40)
    @given(data=st.data())
    def test_bit_identical_to_whole_array(self, g: Granularity | None, data) -> None:
        fmt, neg_fmt = (data.draw(st.sampled_from(_SHIPPED)) for _ in range(2))
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        if g is None:
            g, x = PT, np.float64(data.draw(values))
        else:
            cols = _draw_cols(data, g)
            x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 9)), cols), elements=values))
        q, r = quantize(x, fmt, g), dfq_quantize(x, neg_fmt, fmt, g)

        def any_codes(f):  # as read back from a file, not only what a quantizer emits
            return data.draw(arrays(np.uint8, np.shape(x), elements=st.integers(0, f.code_count - 1)))

        results = [q, r, rtn_int_quantize(x, data.draw(st.sampled_from([4, 6, 8])), g),
                   QuantizedTensor(any_codes(fmt), q.scales, fmt, g, q.shape),
                   DfqResult(any_codes(neg_fmt), any_codes(fmt), r.s_neg, r.s_pos, neg_fmt, fmt, g, r.shape)]
        with mock.patch.object(formats, "_BLOCK", data.draw(st.sampled_from([1, 5, 16, 40]))):
            got = [dequantize(result) for result in results]
        for result, values in zip(results, got):
            want = np.asarray(_dequantize_oracle(result))
            assert values.shape == want.shape == np.shape(x)
            assert values.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("dtype, bad", [(np.uint8, 16), (np.int16, 16), (np.int16, -1)])
    def test_out_of_range_code_raises(self, dtype, bad: int) -> None:
        g = Granularity.per_group(4)
        q = quantize(np.ones((3, 8)), E2M1, g)
        codes = q.codes.astype(dtype)
        codes[-1, -1] = bad
        with pytest.raises(ValueError, match="^bit pattern out of range for E2M1$"):
            dequantize(QuantizedTensor(codes, q.scales, E2M1, g, q.shape))
        with pytest.raises(ValueError, match="^bit pattern out of range for E2M1$"):
            dequantize(DfqResult(q.codes, codes, q.scales, q.scales, E1M2, E2M1, g, q.shape))


def _full_size_quantize(x, fmt, g: Granularity):
    """``quantize``'s codes and scales from one full-size quotient by the
    expanded unit scales, rounded by ``nearest_codes`` without a scale."""
    arr = np.asarray(x, dtype=np.float64)
    scales = _unit_scales(_unit_reduce(np.abs(arr), g, np.max), max_value(fmt))
    return nearest_codes(fmt, arr / _per_element_scales(scales, g)), scales


def _full_size_rtn_int(x, bits: int, g: Granularity):
    """``rtn_int_quantize``'s codes and scales: the full-size quotient rounded
    half to even, clipped to +-qmax and cast to int8."""
    arr, qmax = np.asarray(x, dtype=np.float64), (1 << (bits - 1)) - 1
    scales = _unit_scales(_unit_reduce(np.abs(arr), g, np.max), float(qmax))
    codes = np.clip(np.round(arr / _per_element_scales(scales, g)), -qmax, qmax).astype(np.int8)
    return codes, scales


class TestOneScalePath:
    """``quantize`` and ``rtn_int_quantize`` divide each kernel slice by its
    rows' unit scales; every slice size gives the codes, scales, dtypes and
    shapes of the full-size quotient."""

    @pytest.mark.parametrize("g", [*_GRANULARITIES, None],
                             ids=lambda g: f"{g.kind}{g.group_size}" if g else "zero_d")
    @settings(max_examples=40)
    @given(data=st.data())
    def test_bit_identical_to_full_size_quotient(self, g: Granularity | None, data) -> None:
        fmt, bits = data.draw(st.sampled_from(_SHIPPED)), data.draw(st.sampled_from([4, 6, 8]))
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e13, 1e13), st.floats(-1e-13, 1e-13))
        if g is None:
            g, shape = PT, ()
        elif g.kind in ("per_channel", "per_token"):
            shape = (data.draw(st.integers(1, 9)), data.draw(st.integers(1, 12)))
        else:
            cols = data.draw(st.integers(1, 4)) * g.group_size
            shape = (*data.draw(st.lists(st.integers(1, 4), max_size=2)), cols)
        x = data.draw(arrays(np.float64, shape, elements=values))
        with mock.patch.object(formats, "_BLOCK", data.draw(st.sampled_from([1, 5, 16, 40]))):
            q, iq = quantize(x, fmt, g), rtn_int_quantize(x, bits, g)
        for got, (codes, scales) in ((q, _full_size_quantize(x, fmt, g)), (iq, _full_size_rtn_int(x, bits, g))):
            assert got.codes.dtype == codes.dtype and got.codes.shape == codes.shape == shape
            assert got.codes.tobytes() == codes.tobytes()
            assert (np.shape(got.scales), np.asarray(got.scales).tobytes()) == (np.shape(scales), scales.tobytes())


@pytest.mark.parametrize("g", [Granularity.per_channel(), Granularity.per_group(128)],
                         ids=["per_channel", "per_group128"])
@pytest.mark.parametrize("run", [lambda x, g: quantize(x, E2M1, g), lambda x, g: rtn_int_quantize(x, 4, g)],
                         ids=["quantize", "rtn_int_quantize"])
def test_quantize_makes_no_full_size_quotient(run, g: Granularity) -> None:
    """Beyond its codes and scales, quantizing 1024 x 1024 holds at most one
    input-sized float64 array, the |x| of the unit absmax, plus 1 MiB: the
    quotient and the expanded scales exist one slice at a time."""
    x = gelu_activations(7, (1024, 1024))
    run(x[:2], g)  # builds the cached table
    tracemalloc.start()
    try:
        q = run(x, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - (q.codes.nbytes + q.scales.nbytes) <= x.nbytes + 2**20


@pytest.mark.parametrize("g", [PT, Granularity.per_token(), Granularity.per_group(128)],
                         ids=["per_tensor", "per_token", "per_group128"])
def test_search_makes_no_full_size_float_mask(g: Granularity) -> None:
    """Beyond its inputs, the search over two 128 x 1024 tensors holds one
    input-sized float64 array, the squared error of one grid, plus at most
    2 MiB: the split's bool mask and the slice buffers (1.1-1.7 MiB).  A
    float mask of a part, or a second grid's error alive beside the first,
    would add 1 MiB more."""
    tensors = [gelu_activations(8 + i, (128, 1024)) for i in range(2)]
    _dfq_search_totals([tensors[0][:2]], g)  # builds the cached tables
    tracemalloc.start()
    try:
        _dfq_search_totals(tensors, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= tensors[0].nbytes + 2 * 2**20


@pytest.mark.parametrize("g", [Granularity.per_token(), Granularity.per_group(128)],
                         ids=["per_token", "per_group128"])
def test_dequantize_makes_no_full_size_temporaries(g: Granularity) -> None:
    """The 8 MiB output of a 1024 x 1024 DFQ result is the only full-size
    array: decoded codes and expanded scales exist one slice at a time."""
    r = dfq_quantize(gelu_activations(6, (1024, 1024)), E1M2, E2M1, g)
    tracemalloc.start()
    try:
        out = dequantize(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2 * 2**20
    assert out.view(np.uint64).tolist() == _dequantize_oracle(r).view(np.uint64).tolist()


@pytest.mark.parametrize("g", [Granularity.per_token(), Granularity.per_group(128)],
                         ids=["per_token", "per_group128"])
def test_dfq_quantize_makes_no_full_size_temporaries(g: Granularity) -> None:
    """1024 x 1024 float64 is 8 MiB: a full-size scale, quotient or key array
    would more than double the 2 MiB of code planes the result holds."""
    x = gelu_activations(5, (1024, 1024))
    dfq_quantize(x[:2], E1M2, E2M1, g)  # builds the cached pair table
    tracemalloc.start()
    try:
        r = dfq_quantize(x, E1M2, E2M1, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = sum(a.nbytes for a in (r.neg_codes, r.pos_codes, r.s_neg, r.s_pos))
    assert peak - outputs < 6 * 2**20


_CHECKED = {
    "quantize": lambda x: quantize(x, E2M1),
    "_fake_quantize": lambda x: _fake_quantize(x, E2M1, PT),
    "rtn_int_quantize": lambda x: rtn_int_quantize(x, 4),
    "afpq_quantize": lambda x: afpq_quantize(x, E2M1),
    "dfq_quantize": lambda x: dfq_quantize(x, E1M2, E2M1),
    "dfq_search_format": lambda x: dfq_search_format([x]),
    "compute_scale": lambda x: compute_scale(x, E2M1),
    "lut_quantize": lambda x: lut_quantize(x, 1.0),
    "dfq_lut_quantize": lambda x: dfq_lut_quantize(x),
    "nearest_codes": lambda x: nearest_codes(E2M1, x),
}


def _bad_in_last_unit(g: Granularity):
    """``_fake_quantize`` at ``g`` of a 2 x 16 tensor whose only non-finite
    element is its last, in the last unit."""
    def run(x):
        t = np.ones((2, 16))
        t[-1, -1] = x[1]
        return _fake_quantize(t, E2M1, g)
    return run


_CHECKED.update({f"_fake_quantize/{g.kind}{g.group_size}": _bad_in_last_unit(g) for g in _GRANULARITIES})
# The op each function names in its error.
_NAMED = {"_fake_quantize": "quantize", "afpq_quantize": "dfq_quantize"}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", list(_CHECKED))
def test_non_finite_input_raises_once_checked(name, bad) -> None:
    op = _NAMED.get(name.split("/")[0], name)
    with pytest.raises(ValueError, match=f"^{op} requires finite input$"):
        _CHECKED[name](np.array([1.0, bad, -2.0]))
