"""Datapath-emulation tests: table exactness, parity, integer accumulation."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpq import hwemu
from fpq.formats import (
    E1M2,
    E2M1,
    E3M4,
    E4M3,
    _rounding_tables,
    decode_bits,
    encode,
    grid_values,
    nearest_codes,
    round_to_grid,
)
from fpq.hwemu import (
    build_address_lut,
    build_mul_lut,
    build_tables,
    dfq_lut_quantize,
    emu_dot,
    emu_gemm,
    lut_quantize,
    rescale,
    verify_mul_tables,
    verify_quantizer_parity,
)
from fpq.quantize import (
    Granularity,
    compute_scale,
    dequantize,
    dfq_quantize,
    quantize,
)
from fpq.synth import gelu_activations

LUTS = build_tables()
PT = Granularity.per_tensor()
ADDRESSES = range(-64, 64)  # the 7-bit signed bus
TABLE_PAIRS = [(E2M1, E2M1), (E1M2, E2M1)]


def _bucket(addr: int) -> tuple[float, float]:
    """Quotients of one address: the point f/4 for even 2f, the open quarter
    above it for odd 2f + 1, as (lowest, highest) float64."""
    edge = (addr >> 1) / 4
    if addr % 2 == 0:
        return edge, edge
    return float(np.nextafter(edge, np.inf)), float(np.nextafter(edge + 0.25, -np.inf))


def _address(q: float) -> int:
    """The address the hardware forms: q saturates to [-8, 8 - 1/8], then
    2 * floor(4q) plus the sticky bit."""
    q4 = 4 * min(max(q, -8.0), 7.875)
    return 2 * math.floor(q4) + (q4 != math.floor(q4))


def _reference_code(neg, pos, q: float) -> int:
    """Threshold-search rounding on the grid the sign of q selects."""
    thresholds, codes = _rounding_tables(neg if np.signbit(q) else pos)
    return int(codes[np.searchsorted(thresholds, q, side="right")])


class TestQuantLut:
    def test_grid_max_address(self) -> None:
        lut = build_address_lut(E2M1, E2M1)
        assert len(lut) == 128
        assert lut[48] == 0b0111  # q = +6.0
        assert lut[0] == 0b0000  # zero
        assert lut[-48] == encode(E2M1, -6.0).bits

    def test_live_addresses_match_reference_rounding(self) -> None:
        lut = build_address_lut(E2M1, E2M1)
        for addr in ADDRESSES:
            for q in _bucket(addr):
                assert decode_bits(E2M1, int(lut[addr])) == round_to_grid(E2M1, q)

    def test_dead_addresses_saturate(self) -> None:
        # Addresses past the grid's ends, q beyond +-6, hold the saturation codes.
        lut = build_address_lut(E2M1, E2M1)
        assert all(lut[a] == 0b0111 for a in range(49, 64))
        assert all(lut[a] == 0b1111 for a in range(-64, -48))


class TestAddressTables:
    @pytest.mark.parametrize("neg, pos", TABLE_PAIRS, ids=lambda f: f.name)
    def test_every_bucket_matches_reference(self, neg, pos) -> None:
        lut = build_address_lut(neg, pos)
        rng = np.random.default_rng(0)
        for addr in ADDRESSES:
            lo, hi = _bucket(addr)
            inside = [lo, hi, *rng.uniform(lo, hi, 8)]
            if addr == 63:
                inside += [8.0, 1e300, np.finfo(np.float64).max]
            if addr == -64:
                inside += [-8.5, -1e300, -np.finfo(np.float64).max]
            for q in inside:
                assert _address(q) == addr
                assert lut[addr] == _reference_code(neg, pos, q), (addr, q)

    @pytest.mark.parametrize("neg, pos", TABLE_PAIRS, ids=lambda f: f.name)
    def test_one_fractional_bit_puts_midpoints_inside_buckets(self, neg, pos) -> None:
        with pytest.raises(RuntimeError, match="inside an address bucket at 1 fractional bits"):
            build_address_lut(neg, pos, frac_bits=1)

    def test_tables_record_their_width(self) -> None:
        assert LUTS.addr_frac_bits == 2
        for lut in (LUTS.quant_lut, LUTS.dfq_lut):
            assert len(lut) == 128 and lut.dtype == np.uint8 and not lut.flags.writeable

    def test_quantizers_form_the_address(self) -> None:
        # Through a table that echoes its index, the quantizer returns the
        # address itself, modulo the bus width.
        echo = replace(LUTS, quant_lut=np.arange(128, dtype=np.uint8))
        rng = np.random.default_rng(1)
        q = np.concatenate([rng.uniform(-9, 9, 2000), np.arange(-36, 36) / 4, [-0.0, 5e-324, -5e-324]])
        got = lut_quantize(q, 1.0, echo)
        assert got.tolist() == [_address(float(v)) % 128 for v in q]


class TestLutQuantize:
    def test_grid_aligned_codes_identical(self) -> None:
        from fpq.formats import grid_values

        rng = np.random.default_rng(0)
        grid = grid_values(E2M1)
        for scale in rng.uniform(0.05, 20.0, 8):
            x = grid * scale
            ref = quantize(x, E2M1, PT)
            assert float(ref.scales) == pytest.approx(scale)
            np.testing.assert_array_equal(
                lut_quantize(x, float(ref.scales), LUTS), ref.codes
            )

    def test_zero_tensor(self) -> None:
        assert not lut_quantize(np.zeros(64), 1.0, LUTS).any()

    def test_parity_on_random_gaussian(self) -> None:
        x = np.random.default_rng(1).standard_normal(10_000)
        ref = quantize(x, E2M1, PT)
        np.testing.assert_array_equal(
            lut_quantize(x, float(ref.scales), LUTS), ref.codes
        )

    def test_underflowing_unit_scale(self) -> None:
        x = np.array([5e-324, -1e-323, 0.0])
        scale = compute_scale(x, E2M1)
        assert scale == 1.0
        ref = quantize(x, E2M1, PT)
        np.testing.assert_array_equal(lut_quantize(x, scale, LUTS), ref.codes)
        assert not ref.codes.any()

    def test_rejects_bad_scale(self) -> None:
        with pytest.raises(ValueError, match="positive"):
            lut_quantize(np.ones(4), 0.0, LUTS)
        with pytest.raises(ValueError, match="positive"):
            lut_quantize(np.ones(4), -1.0, LUTS)

    @pytest.mark.parametrize("scale", [1e-300, 1e-310, 5e-324])
    def test_tiny_caller_scale_saturates(self, scale) -> None:
        # The quotients overflow float64; they saturate, with no warning.
        x = np.array([1e300, -1e300, 7.0, -7.0, 0.0, -0.0])
        assert lut_quantize(x, scale, LUTS).tolist() == [7, 15, 7, 15, 0, 0]

    @pytest.mark.parametrize("x", [2.2, -1.3, -0.0], ids=str)
    def test_zero_d_input_matches_reference(self, x) -> None:
        ref = quantize(x, E2M1, PT)
        got, want = dfq_lut_quantize(x, LUTS), dfq_quantize(x, E1M2, E2M1, PT)
        pairs = [(lut_quantize(x, float(ref.scales), LUTS), ref.codes),
                 (got.neg_codes, want.neg_codes), (got.pos_codes, want.pos_codes)]
        for a, b in pairs:
            a, b = np.asarray(a), np.asarray(b)
            assert (a.shape, a.dtype, a.tolist()) == (b.shape, b.dtype, b.tolist())

    def test_returns_fresh_writable_codes(self) -> None:
        codes = lut_quantize(np.linspace(-1, 1, 9), 1.0, LUTS)
        assert codes.dtype == np.uint8 and codes.flags.writeable
        r = dfq_lut_quantize(np.linspace(-1, 1, 9), LUTS)
        assert r.neg_codes.flags.writeable and r.pos_codes.flags.writeable
        assert not np.shares_memory(r.neg_codes, r.pos_codes)


def _five_bit_codes(x, scale: float) -> np.ndarray:
    """The rounded 5-bit address clip(round(2q), +-12) read through a table
    of the grid value nearest each doubled address."""
    doubled = np.clip(np.round(2 * (x / scale)), -12, 12)
    return nearest_codes(E2M1, doubled / 2)


def test_five_bit_rounded_address_misses_codes() -> None:
    x = np.random.default_rng(0).standard_normal(1_000_000)
    ref = quantize(x, E2M1, PT)
    scale = float(ref.scales)
    rate = np.mean(_five_bit_codes(x, scale) != ref.codes)
    assert 0.020 <= rate <= 0.026
    assert np.array_equal(lut_quantize(x, scale, LUTS), ref.codes)


_SPECIALS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1.7e308, -1.7e308]


@st.composite
def _lut_inputs(draw) -> np.ndarray:
    """Tensors whose quotients hit grid points, midpoints and their float
    neighbours exactly, or arbitrary floats with zeros, subnormals and
    near-maximum values; optionally all positive or all non-positive."""
    if draw(st.booleans()):
        s = draw(st.sampled_from([1.0, 0.375, 2.0**-30, 5 * 2.0**60, 2.0**-1060]))
        neg_q = np.concatenate([grid_values(E1M2), grid_values(E2M1)])
        neg_q = neg_q[neg_q <= 0]
        pos_q = grid_values(E2M1)[7:]
        mids = [(g[:-1] + g[1:]) / 2 for g in (neg_q, pos_q)]
        qs = draw(st.lists(st.sampled_from(np.concatenate([neg_q, pos_q, *mids]).tolist()), max_size=16))
        # Anchors give the scales s exactly: neg absmax 3.5 s, pos absmax 6 s.
        x = np.array([*qs, -3.5, 6.0]) * s
        x = np.concatenate([x, np.nextafter(x, np.inf), np.nextafter(x, -np.inf)])
    else:
        values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_SPECIALS))
        x = np.array(draw(st.lists(values, min_size=1, max_size=32)))
    keep = draw(st.sampled_from(["all", "positive", "nonpositive"]))
    if keep == "positive":
        x = x[x > 0] if np.any(x > 0) else np.array([1.0])
    elif keep == "nonpositive":
        x = x[x <= 0] if np.any(x <= 0) else np.array([-0.0])
    return x


class TestAgainstReference:
    @given(x=_lut_inputs())
    def test_lut_quantize_matches_quantize(self, x) -> None:
        ref = quantize(x, E2M1, PT)
        scale = compute_scale(x, E2M1)
        assert np.float64(scale).view(np.uint64) == ref.scales.view(np.uint64)
        got = lut_quantize(x, scale, LUTS)
        assert got.dtype == ref.codes.dtype and got.tolist() == ref.codes.tolist()

    @given(x=_lut_inputs())
    def test_dfq_lut_quantize_matches_dfq_quantize(self, x) -> None:
        ref = dfq_quantize(x, E1M2, E2M1, PT)
        got = dfq_lut_quantize(x, LUTS)
        for a, b in ((got.neg_codes, ref.neg_codes), (got.pos_codes, ref.pos_codes)):
            assert a.dtype == b.dtype and a.tolist() == b.tolist()
        for a, b in ((got.s_neg, ref.s_neg), (got.s_pos, ref.s_pos)):
            assert np.asarray(a).view(np.uint64) == np.asarray(b).view(np.uint64)


class TestDfqLuts:
    def test_reference_entries(self) -> None:
        lut = build_address_lut(E1M2, E2M1)
        assert lut[48] == 0b0111  # q = +6.0 in E2M1
        assert lut[-28] == 0b1111  # q = -3.5 in E1M2
        assert lut[0] == 0

    def test_branch_domains_match_reference(self) -> None:
        lut = build_address_lut(E1M2, E2M1)
        for addr in ADDRESSES:
            fmt = E1M2 if addr < 0 else E2M1
            for q in _bucket(addr):
                assert decode_bits(fmt, int(lut[addr])) == round_to_grid(fmt, q)

    def test_dfq_lut_quantize_bit_exact(self) -> None:
        x = gelu_activations(2, (128, 128))
        ref = dfq_quantize(x, E1M2, E2M1, PT)
        lut = dfq_lut_quantize(x, LUTS)
        np.testing.assert_array_equal(lut.neg_codes, ref.neg_codes)
        np.testing.assert_array_equal(lut.pos_codes, ref.pos_codes)
        assert float(lut.s_neg) == float(ref.s_neg)
        assert float(lut.s_pos) == float(ref.s_pos)

    @pytest.mark.parametrize("x", [
        np.array([-1.7e308, -0.6e308, -1.0, 0.0, 2.0, 1.7e308]),  # doubling would overflow
        np.array([-5e-324, -0.0, 1e-310, 5e-324]),
    ], ids=["near_max", "subnormal"])
    def test_dfq_lut_quantize_extreme_values(self, x) -> None:
        ref = dfq_quantize(x, E1M2, E2M1, PT)
        lut = dfq_lut_quantize(x, LUTS)
        assert lut.neg_codes.tolist() == ref.neg_codes.tolist()
        assert lut.pos_codes.tolist() == ref.pos_codes.tolist()
        assert (float(lut.s_neg), float(lut.s_pos)) == (float(ref.s_neg), float(ref.s_pos))

    def test_all_positive_input(self) -> None:
        x = np.abs(np.random.default_rng(3).standard_normal(256)) + 0.1
        r = dfq_lut_quantize(x, LUTS)
        assert not r.neg_codes.any()

    def test_single_zero_routes_negative(self) -> None:
        r = dfq_lut_quantize(np.array([0.0]), LUTS)
        assert r.neg_codes[0] == 0 and r.pos_codes[0] == 0


class TestMulTables:
    def test_spot_products(self) -> None:
        c = encode(E2M1, 1.5).bits
        addr = (c << 4) | c
        assert decode_bits(E4M3, int(LUTS.mul_lut[addr])) == 2.25
        assert LUTS.prod_to_int[LUTS.mul_lut[addr]] == 9
        c6 = encode(E2M1, 6.0).bits
        assert decode_bits(E4M3, int(LUTS.mul_lut[(c6 << 4) | c6])) == 36.0
        assert LUTS.prod_to_int[LUTS.mul_lut[(c6 << 4) | c6]] == 144

    def test_zero_times_anything(self) -> None:
        for b in range(16):
            assert LUTS.mul_lut[(0 << 4) | b] == 0
            assert LUTS.prod_to_int[LUTS.mul_lut[(b << 4) | 0]] == 0

    def test_exhaustive_e2m1_pairs_exact(self) -> None:
        for a in range(16):
            va = Fraction(decode_bits(E2M1, a))
            for b in range(16):
                p = va * Fraction(decode_bits(E2M1, b))
                code = int(LUTS.mul_lut[(a << 4) | b])
                assert Fraction(decode_bits(E4M3, code)) == p
                assert LUTS.prod_to_int[code] == p * 4

    def test_exhaustive_dfq_pairs_exact(self) -> None:
        for a in range(16):
            va = Fraction(decode_bits(E1M2, a))
            for b in range(16):
                p = va * Fraction(decode_bits(E2M1, b))
                code = int(LUTS.dfq_mul_lut[(a << 4) | b])
                assert Fraction(decode_bits(E3M4, code)) == p
                assert LUTS.dfq_prod_to_int[code] == p * 4

    def test_e4m3_would_reject_mixed_products(self) -> None:
        with pytest.raises(ValueError, match="not on the E4M3 grid"):
            build_mul_lut(E1M2, E2M1, E4M3)

    def test_verify_helper(self) -> None:
        report = verify_mul_tables(LUTS)
        assert report == {"mul_lut_exact": "256/256", "dfq_mul_exact": "256/256"}


class TestEmuDot:
    def test_empty(self) -> None:
        assert emu_dot([], [], LUTS) == 0

    def test_single_pair(self) -> None:
        c = encode(E2M1, 1.5).bits
        assert emu_dot([c], [c], LUTS) == 9

    def test_random_vectors_exact_rational(self) -> None:
        rng = np.random.default_rng(4)
        a = rng.integers(0, 16, 128).astype(np.uint8)
        b = rng.integers(0, 16, 128).astype(np.uint8)
        got = emu_dot(a, b, LUTS)
        want = sum(
            Fraction(decode_bits(E2M1, int(x))) * Fraction(decode_bits(E2M1, int(y)))
            for x, y in zip(a, b)
        )
        assert got == want * 4

    def test_dfq_variant(self) -> None:
        rng = np.random.default_rng(5)
        a = rng.integers(0, 16, 64).astype(np.uint8)
        b = rng.integers(0, 16, 64).astype(np.uint8)
        want = sum(
            Fraction(decode_bits(E1M2, int(x))) * Fraction(decode_bits(E2M1, int(y)))
            for x, y in zip(a, b)
        )
        assert emu_dot(a, b, LUTS, variant="dfq") == want * 4

    def test_accumulator_headroom(self) -> None:
        full = np.full(128, encode(E2M1, 6.0).bits, dtype=np.uint8)
        acc = emu_dot(full, full, LUTS)
        assert abs(acc) == 144 * 128
        assert abs(acc) < 2**31

    def test_length_mismatch(self) -> None:
        with pytest.raises(ValueError, match="length mismatch"):
            emu_dot([1, 2], [1], LUTS)

    def test_unknown_variant(self) -> None:
        with pytest.raises(ValueError, match="variant"):
            emu_dot([1], [1], LUTS, variant="nope")

    @pytest.mark.parametrize("variant", ["e2m1", "dfq"])
    @pytest.mark.parametrize("a, b", [
        ([2], [16]),  # (2 << 4) | 16 would alias the pair (3, 0)
        ([-1], [3]),  # would read like code 15
        ([1.7], [2]),  # would truncate to 1
        ([16], [0]),  # would index past the table
        (np.array([1, 2], dtype=np.uint8), [1, 300]),
        ([True], [1]),
    ], ids=["alias", "negative", "fraction", "past_table", "wide", "bool"])
    def test_rejects_bad_codes(self, a, b, variant) -> None:
        with pytest.raises(ValueError, match="integers in 0..15"):
            emu_dot(a, b, LUTS, variant=variant)


class TestRescale:
    def test_zero(self) -> None:
        assert rescale(0, 1.0, 1.0) == 0.0

    def test_grid_max(self) -> None:
        assert rescale(144, 1.0, 1.0) == 36.0

    def test_matches_dequant_dot(self) -> None:
        rng = np.random.default_rng(6)
        x = rng.standard_normal(128)
        w = rng.standard_normal(128)
        xq = quantize(x, E2M1, PT)
        wq = quantize(w, E2M1, PT)
        acc = emu_dot(xq.codes, wq.codes, LUTS)
        want = float(dequantize(xq) @ dequantize(wq))
        got = rescale(acc, float(xq.scales), float(wq.scales))
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def _gemm_planes_oracle(code_planes, w_codes, w_scales_2d, groups) -> np.ndarray:
    """``hwemu._gemm_planes`` with a float64 copy of every accumulator and
    a fresh rows x out array for every rescale."""
    w_tab = hwemu._doubled_values(E2M1)
    peak = max(np.abs(hwemu._doubled_values(f)).max() for _, f, _ in code_planes) * np.abs(w_tab).max()
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    w_vals = w_tab.astype(dtype)[w_codes]
    out = np.zeros((code_planes[0][0].shape[0], w_codes.shape[0]))
    for gi, (c0, c1) in enumerate(groups):
        wj = w_vals[:, c0:c1]
        sw = w_scales_2d[:, gi]
        for codes, fmt, sx in code_planes:
            xa = hwemu._doubled_values(fmt).astype(dtype)[codes[:, c0:c1]]
            acc = (xa @ wj.T).astype(np.float64, copy=False)
            out += acc * (sx[:, gi][:, None] * sw[None, :]) * 0.25
    return out


def _gemm_case(name: str):
    """(activation, weight) quantized for one ``emu_gemm`` layout."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal((9, 256)) * rng.uniform(0.1, 10, 256)
    w = rng.standard_normal((11, 256))
    gx, gw = {
        "per_tensor": (PT, PT),
        "per_token": (Granularity.per_token(), Granularity.per_channel()),
        "per_channel": (Granularity.per_channel(), PT),
        "one_group": (Granularity.per_group(256), Granularity.per_group(256)),
        "many_groups": (Granularity.per_group(32), Granularity.per_group(32)),
        "dfq_per_token": (Granularity.per_token(), Granularity.per_channel()),
        "dfq_groups": (Granularity.per_group(64), Granularity.per_group(64)),
        "float64_accumulator": (Granularity.per_token(), Granularity.per_channel()),
    }[name]
    if name == "float64_accumulator":  # one 2^17-wide group: partial sums pass 2^24
        x = w = np.where(np.arange(2**17) % 3, 6.0, 0.5)[None, :]
    if name.startswith("dfq"):
        return dfq_quantize(gelu_activations(32, (9, 256)), E1M2, E2M1, gx), quantize(w, E2M1, gw)
    return quantize(x, E2M1, gx), quantize(w, E2M1, gw)


class TestEmuGemm:
    @pytest.mark.parametrize("case", ["per_tensor", "per_token", "per_channel", "one_group",
                                      "many_groups", "dfq_per_token", "dfq_groups",
                                      "float64_accumulator"])
    def test_bytes_match_the_float64_copy_oracle(self, case: str, monkeypatch) -> None:
        xq, wq = _gemm_case(case)
        got = emu_gemm(xq, wq, LUTS)
        monkeypatch.setattr(hwemu, "_gemm_planes", _gemm_planes_oracle)
        want = emu_gemm(xq, wq, LUTS)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_exact_on_grid_aligned_unit_scales(self) -> None:
        from fpq.formats import grid_values

        rng = np.random.default_rng(7)
        grid = grid_values(E2M1)
        x = rng.choice(grid, size=(4, 128))
        w = rng.choice(grid, size=(8, 128))
        # Force the peaks so scales are exactly 1.
        x[:, 0] = 6.0
        w[:, 0] = 6.0
        out = emu_gemm(quantize(x, E2M1, PT), quantize(w, E2M1, PT), LUTS)
        np.testing.assert_array_equal(out, x @ w.T)

    def test_matches_dequant_matmul_per_group(self) -> None:
        rng = np.random.default_rng(8)
        x = rng.standard_normal((64, 1920))
        w = rng.standard_normal((512, 1920))
        g = Granularity.per_group(128)
        xq = quantize(x, E2M1, g)
        wq = quantize(w, E2M1, g)
        out = emu_gemm(xq, wq, LUTS)
        want = dequantize(xq) @ dequantize(wq).T
        assert np.abs(out - want).max() <= 1e-6 * np.abs(want).max()

    def test_dfq_path_matches_dequant_matmul(self) -> None:
        g = Granularity.per_group(128)
        x = gelu_activations(9, (32, 512))
        w = np.random.default_rng(10).standard_normal((64, 512))
        dq = dfq_quantize(x, E1M2, E2M1, g)
        wq = quantize(w, E2M1, g)
        out = emu_gemm(dq, wq, LUTS)
        want = dequantize(dq) @ dequantize(wq).T
        assert np.abs(out - want).max() <= 1e-6 * np.abs(want).max()

    def test_matches_literal_lut_dot_path(self) -> None:
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 256))
        w = rng.standard_normal((5, 256))
        g = Granularity.per_group(128)
        xq = quantize(x, E2M1, g)
        wq = quantize(w, E2M1, g)
        out = emu_gemm(xq, wq, LUTS)
        for t in range(3):
            for o in range(5):
                acc = 0.0
                for gi in range(2):
                    sl = slice(gi * 128, (gi + 1) * 128)
                    dot = emu_dot(xq.codes[t, sl], wq.codes[o, sl], LUTS)
                    acc += rescale(dot, xq.scales[t, gi], wq.scales[o, gi])
                assert out[t, o] == pytest.approx(acc, rel=1e-12)

    def test_dfq_literal_path(self) -> None:
        x = gelu_activations(12, (2, 256))
        w = np.random.default_rng(13).standard_normal((3, 256))
        dq = dfq_quantize(x, E1M2, E2M1, PT)
        wq = quantize(w, E2M1, PT)
        out = emu_gemm(dq, wq, LUTS)
        for t in range(2):
            for o in range(3):
                neg = emu_dot(dq.neg_codes[t], wq.codes[o], LUTS, variant="dfq")
                pos = emu_dot(dq.pos_codes[t], wq.codes[o], LUTS)
                acc = rescale(neg, float(dq.s_neg), float(wq.scales)) + rescale(
                    pos, float(dq.s_pos), float(wq.scales)
                )
                assert out[t, o] == pytest.approx(acc, rel=1e-12)

    def test_float64_fallback_beyond_float32_bound(self) -> None:
        # One 2^17-wide group: 144 * width passes 2^24, so the float32 path
        # would round the odd sum 144 * (2^17 - 1) + 1.
        n = 2**17
        x = np.full((1, n), 6.0)
        x[0, 0] = 0.5
        xq = quantize(x, E2M1, Granularity.per_token())
        wq = quantize(x, E2M1, Granularity.per_channel())
        acc = emu_dot(xq.codes[0], wq.codes[0], LUTS)
        assert acc == 144 * (n - 1) + 1 and acc > 2**24 and acc % 2
        out = emu_gemm(xq, wq, LUTS)
        assert out[0, 0] == rescale(acc, float(xq.scales[0]), float(wq.scales[0]))

    def test_group_misalignment_rejected(self) -> None:
        x = np.random.default_rng(14).standard_normal((4, 256))
        w = np.random.default_rng(15).standard_normal((4, 256))
        xq = quantize(x, E2M1, Granularity.per_group(128))
        wq = quantize(w, E2M1, Granularity.per_group(64))
        with pytest.raises(ValueError, match="do not match"):
            emu_gemm(xq, wq, LUTS)

    def test_weight_format_enforced(self) -> None:
        x = quantize(np.ones((2, 128)), E2M1, PT)
        w_bad = quantize(np.ones((2, 128)), E1M2, PT)
        with pytest.raises(ValueError, match="E2M1"):
            emu_gemm(x, w_bad, LUTS)


class TestParitySuite:
    def test_verify_quantizer_parity(self) -> None:
        report = verify_quantizer_parity(50_000, seed=1, luts=LUTS)
        assert report["quantizer_parity"] == "pass"
        assert report["addr_frac_bits"] == 2
        assert report["e2m1_mismatches"] == report["dfq_mismatches"] == 0

    # q in (0.25, 0.5) for the E2M1 table; in (-0.5, -0.25) for the DFQ
    # table, whose positive part the parity data keeps above q = 1.
    @pytest.mark.parametrize("field, addr", [("quant_lut", 3), ("dfq_lut", -3)])
    def test_flipped_table_entry_is_counted(self, field, addr) -> None:
        lut = getattr(LUTS, field).copy()
        lut[addr] ^= 1
        report = verify_quantizer_parity(50_000, seed=1, luts=replace(LUTS, **{field: lut}))
        assert report["quantizer_parity"] == "fail"
        key = "e2m1_mismatches" if field == "quant_lut" else "dfq_mismatches"
        assert report[key] > 0

    def test_dfq_scales_compared_exactly(self, monkeypatch) -> None:
        def nudged(x, luts=None):
            r = dfq_lut_quantize(x, luts)
            r.s_neg = np.nextafter(r.s_neg, np.inf)
            return r

        monkeypatch.setattr(hwemu, "dfq_lut_quantize", nudged)
        report = verify_quantizer_parity(1_000, seed=2, luts=LUTS)
        assert report["dfq_bit_identical"] is False
        assert report["quantizer_parity"] == "fail"
