"""Datapath-emulation tests: table exactness, parity, integer accumulation."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from fpq import hwemu
from fpq.formats import E1M2, E2M1, E3M4, E4M3, decode_bits, encode
from fpq.hwemu import (
    build_dfq_luts,
    build_mul_lut,
    build_quant_lut,
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


class TestQuantLut:
    def test_grid_max_address(self) -> None:
        lut = build_quant_lut()
        assert lut[24] == 0b0111  # +6.0
        assert lut[12] == 0b0000  # zero
        assert lut[0] == encode(E2M1, -6.0).bits

    def test_live_addresses_match_reference_rounding(self) -> None:
        from fpq.formats import round_to_grid

        lut = build_quant_lut()
        for addr in range(25):
            v = (addr - 12) / 2.0
            assert decode_bits(E2M1, int(lut[addr])) == round_to_grid(E2M1, v)

    def test_dead_addresses_saturate(self) -> None:
        lut = build_quant_lut()
        assert all(lut[a] == 0b0111 for a in range(25, 32))


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


class TestDfqLuts:
    def test_reference_entries(self) -> None:
        neg, pos = build_dfq_luts()
        assert pos[12] == 0b0111  # +6.0 in E2M1
        assert neg[7] == 0b1111  # -3.5 in E1M2
        assert neg[0] == 0 and pos[0] == 0

    def test_branch_domains_match_reference(self) -> None:
        from fpq.formats import round_to_grid

        neg, pos = build_dfq_luts()
        for addr in range(8):
            assert decode_bits(E1M2, int(neg[addr])) == -addr / 2.0
        for addr in range(13):
            assert decode_bits(E2M1, int(pos[addr])) == round_to_grid(E2M1, addr / 2.0)

    def test_dfq_lut_quantize_bit_exact(self) -> None:
        x = gelu_activations(2, (128, 128))
        ref = dfq_quantize(x, E1M2, E2M1, PT)
        lut = dfq_lut_quantize(x, LUTS)
        np.testing.assert_array_equal(lut.neg_codes, ref.neg_codes)
        np.testing.assert_array_equal(lut.pos_codes, ref.pos_codes)
        assert float(lut.s_neg) == float(ref.s_neg)
        assert float(lut.s_pos) == float(ref.s_pos)

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


class TestEmuGemm:
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

    def test_dfq_scales_compared_exactly(self, monkeypatch) -> None:
        def nudged(x, luts=None):
            r = dfq_lut_quantize(x, luts)
            r.s_neg = np.nextafter(r.s_neg, np.inf)
            return r

        monkeypatch.setattr(hwemu, "dfq_lut_quantize", nudged)
        report = verify_quantizer_parity(1_000, seed=2, luts=LUTS)
        assert report["dfq_bit_identical"] is False
        assert report["quantizer_parity"] == "fail"
