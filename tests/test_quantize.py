"""Quantizer tests: scales, granularities, baselines, DFQ, and the search."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpq.formats import E1M2, E2M1, E3M0, FORMATS, grid_values, max_value
from fpq.quantize import (
    DFQ_CANDIDATE_FORMATS,
    Granularity,
    IntFormat,
    _dfq_search_totals,
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
from fpq.synth import gelu_activations

PT = Granularity.per_tensor()


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

    def test_per_group_scales_shape(self) -> None:
        x = np.random.default_rng(1).standard_normal((3, 256))
        q = quantize(x, E2M1, Granularity.per_group(128))
        assert q.scales.shape == (3, 2)

    def test_per_group_indivisible_rejected(self) -> None:
        with pytest.raises(ValueError, match="not divisible"):
            quantize(np.ones((2, 100)), E2M1, Granularity.per_group(64))

    def test_per_group_padding_mode(self) -> None:
        x = np.random.default_rng(2).standard_normal((2, 100))
        q = quantize(x, E2M1, Granularity.per_group(64, pad_partial=True))
        assert q.scales.shape == (2, 2)
        # Padding zeros never reach the unit absmax.
        np.testing.assert_allclose(q.scales[:, 1], np.abs(x[:, 64:]).max(axis=1) / 6.0)
        assert dequantize(q).shape == x.shape

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


_GRANULARITIES = [
    Granularity.per_tensor(),
    Granularity.per_channel(),
    Granularity.per_token(),
    Granularity.per_group(4),
    Granularity.per_group(8, pad_partial=True),
]


class TestFakeQuantize:
    """The code-free path GALT uses must equal dequantize(quantize(...))."""

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @given(data=st.data())
    def test_bit_identical_to_round_trip(self, g: Granularity, data) -> None:
        fmt = data.draw(st.sampled_from(sorted(FORMATS.values(), key=lambda f: f.name)))
        cols = data.draw(st.integers(1, 4)) * 4 if g.kind == "per_group" else data.draw(st.integers(1, 12))
        if g.pad_partial:
            cols += data.draw(st.integers(0, 7))
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        x = data.draw(arrays(np.float64, (data.draw(st.integers(1, 5)), cols), elements=values))
        got = _fake_quantize(x, fmt, g)
        want = dequantize(quantize(x, fmt, g))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="finite"):
            _fake_quantize(np.array([[1.0, np.inf]]), E2M1, PT)


def _search_oracle(tensors, g: Granularity):
    """The exhaustive search: nine full dual quantizations per tensor, scanned
    with strict ``<`` in (negative, positive) order.  Returns the pick and the
    3x3 table of summed MSEs."""
    best, best_mse = None, np.inf
    totals = np.zeros((3, 3))
    for i, neg_fmt in enumerate(DFQ_CANDIDATE_FORMATS):
        for j, pos_fmt in enumerate(DFQ_CANDIDATE_FORMATS):
            total = 0.0
            for t in tensors:
                total += quant_mse(t, dequantize(dfq_quantize(t, neg_fmt, pos_fmt, g)))
            totals[i, j] = total
            if total < best_mse:
                best_mse, best = total, (neg_fmt, pos_fmt)
    return best, totals


class TestSeparableSearch:
    """The per-plane search must reproduce the exhaustive loop bit for bit."""

    @pytest.mark.parametrize("g", _GRANULARITIES, ids=lambda g: f"{g.kind}{g.group_size}")
    @given(data=st.data())
    def test_matches_exhaustive_loop(self, g: Granularity, data) -> None:
        values = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 1e6))
        tensors = []
        for _ in range(data.draw(st.integers(1, 3))):
            cols = data.draw(st.integers(1, 4)) * 4 if g.kind == "per_group" else data.draw(st.integers(1, 12))
            if g.pad_partial:
                cols += data.draw(st.integers(0, 7))
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
