"""Datapath-emulation tests: table exactness, parity, integer accumulation."""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpq import hwemu
from fpq.formats import (
    E1M2,
    E2M1,
    E2M3,
    E3M0,
    E3M2,
    E3M4,
    E4M3,
    _rounding_tables,
    decode_bits,
    encode,
    grid_values,
    max_value,
    nearest_codes,
    round_to_grid,
)
from fpq.hwemu import (
    LutTables,
    build_address_lut,
    build_mul_lut,
    build_tables,
    dfq_lut_quantize,
    emu_dot,
    emu_gemm,
    lut_quantize,
    verify_mul_tables,
    verify_quantizer_parity,
)
from fpq.quantize import (
    DFQ_CANDIDATE_FORMATS,
    Granularity,
    compute_scale,
    dequantize,
    dfq_quantize,
    quantize,
    rtn_int_quantize,
)
from fpq.synth import gelu_activations

LUTS = build_tables()
PT = Granularity.per_tensor()
ADDRESSES = range(-64, 64)  # the 7-bit signed bus
TABLE_PAIRS = [(E2M1, E2M1), (E1M2, E2M1)]
# Every (negative, positive) grid pair the DFQ search can pick.
SEARCH_PAIRS = list(product(DFQ_CANDIDATE_FORMATS, repeat=2))


def _pair_id(pair) -> str:
    return "/".join(f.name for f in pair)


# The tables as the datapath built them when it was wired for E2M1 and
# E1M2/E2M1 alone: address tables, product codes (E4M3, E3M4) and the
# sha256 of the product-to-integer tables.
PARENT_ADDRESS = {
    (E2M1, E2M1): bytes.fromhex(
        "000000010101020202020203030304040404040404050505050505050606060606060606060606060607070707070707"
        "070707070707070707070707070707070f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0e0e0e0e0e0e0e0e"
        "0e0e0e0e0e0d0d0d0d0d0d0d0c0c0c0c0c0c0c0b0b0b0a0a0a0a0a0909090000"),
    (E1M2, E2M1): bytes.fromhex(
        "000000010101020202020203030304040404040404050505050505050606060606060606060606060607070707070707"
        "070707070707070707070707070707070f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f"
        "0f0f0f0f0f0f0e0e0e0e0e0d0d0d0c0c0c0c0c0b0b0b0a0a0a0a0a0909090000"),
}
PARENT_PRODUCT = {
    (E2M1, E2M1): (bytes.fromhex(
        "0000000000000000000000000000000000283034383c404400a8b0b4b8bcc0c40030383c4044484c00b0b8bcc0c4c8cc"
        "00343c4144494c5100b4bcc1c4c9ccd100384044484c505400b8c0c4c8ccd0d4003c44494c51545900bcc4c9ccd1d4d9"
        "0040484c5054585c00c0c8ccd0d4d8dc00444c5154595c6100c4ccd1d4d9dce100000000000000000000000000000000"
        "00a8b0b4b8bcc0c400283034383c404400b0b8bcc0c4c8cc0030383c4044484c00b4bcc1c4c9ccd100343c4144494c51"
        "00b8c0c4c8ccd0d400384044484c505400bcc4c9ccd1d4d9003c44494c51545900c0c8ccd0d4d8dc0040484c5054585c"
        "00c4ccd1d4d9dce100444c5154595c61"),
        "e8d61e475e462f20c5d7c7055a2e4fae845c9b298f6505192c90feee587274fe"),
    (E1M2, E2M1): (bytes.fromhex(
        "0000000000000000000000000000000000102028303840480090a0a8b0b8c0c8002030384048505800a0b0b8c0c8d0d8"
        "002838424852586200a8b8c2c8d2d8e2003040485058606800b0c0c8d0d8e0e80034444e545e646e00b4c4ced4dee4ee"
        "003848525862687200b8c8d2d8e2e8f2003c4c555c656c7500bcccd5dce5ecf500000000000000000000000000000000"
        "0090a0a8b0b8c0c8001020283038404800a0b0b8c0c8d0d8002030384048505800a8b8c2c8d2d8e20028384248525862"
        "00b0c0c8d0d8e0e8003040485058606800b4c4ced4dee4ee0034444e545e646e00b8c8d2d8e2e8f20038485258626872"
        "00bcccd5dce5ecf5003c4c555c656c75"),
        "c4ff5a8f7d0b4708dd0a81e5557095f2cdfaca8d4106fc7ff1565fa1ce9c069c"),
}


def _bucket(addr: int) -> tuple[float, float]:
    """Quotients of one address: the point f/4 for even 2f, the open quarter
    above it for odd 2f + 1, as (lowest, highest) float64."""
    edge = (addr >> 1) / 4
    if addr % 2 == 0:
        return edge, edge
    return float(np.nextafter(edge, np.inf)), float(np.nextafter(edge + 0.25, -np.inf))


def _address(q: float, frac_bits: int = 2, top: int = 8) -> int:
    """The address the hardware forms: q saturates to [-top, top - 2^-(F+1)],
    then 2 * floor(2^F q) plus the sticky bit, F = frac_bits."""
    qf = 2**frac_bits * min(max(q, -top), top - 2.0 ** -(frac_bits + 1))
    return 2 * math.floor(qf) + (qf != math.floor(qf))


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
        # Fractional bits and entry count derive from the pair: 2^(I + F + 2)
        # entries for a bus of I integer bits and F fractional bits.
        widths = {E1M2: 2, E2M1: 2, E3M0: 3, E2M3: 4, E3M2: 5}
        for neg, pos in [*SEARCH_PAIRS, (E2M3, E2M3), (E3M2, E3M2)]:
            lut = LUTS.quantizer(neg, pos)
            f = max(widths[neg], widths[pos])
            assert hwemu._frac_bits(neg, pos) == f
            int_bits = int(max(max_value(neg), max_value(pos))).bit_length()
            assert len(lut) == 2 ** (int_bits + f + 2) and lut.dtype == np.uint8 and not lut.flags.writeable
        assert [len(LUTS.quantizer(f, f)) for f in (E2M1, E3M0, E2M3, E3M2)] == [128, 1024, 512, 4096]
        assert [hwemu._int_scale(f) for f in (E1M2, E2M1, E3M0)] == [2, 2, 4]

    def test_tables_equal_the_parent_bytes(self) -> None:
        fresh = build_tables()
        assert set(fresh.address) == set(PARENT_ADDRESS) and set(fresh.product) == set(PARENT_PRODUCT)
        for pair, want in PARENT_ADDRESS.items():
            assert fresh.address[pair].tobytes() == want
        for pair, (mul, p2i_sha) in PARENT_PRODUCT.items():
            got_mul, got_p2i = fresh.product[pair]
            assert got_mul.dtype == np.uint8 and got_mul.tobytes() == mul
            assert got_p2i.dtype == np.int32 and hashlib.sha256(got_p2i.tobytes()).hexdigest() == p2i_sha

    def test_quantizers_form_the_address(self) -> None:
        # Through a table that echoes its index, the quantizer returns the
        # address itself, modulo the bus width.
        echo = LutTables({(E2M1, E2M1): np.arange(128, dtype=np.uint8)})
        rng = np.random.default_rng(1)
        q = np.concatenate([rng.uniform(-9, 9, 2000), np.arange(-36, 36) / 4, [-0.0, 5e-324, -5e-324]])
        got = lut_quantize(q, 1.0, echo)
        assert got.tolist() == [_address(float(v)) % 128 for v in q]

    def test_wide_tables_form_int16_addresses(self) -> None:
        # E3M0 needs 3 fractional bits, and its maximum 16 five integer bits,
        # a bus of [-32, 32): 1024 entries, past what an int8 address reaches.
        echo = LutTables({(E3M0, E3M0): np.arange(1024, dtype=np.uint16)})
        rng = np.random.default_rng(2)
        q = np.concatenate([rng.uniform(-36, 36, 2000), np.arange(-264, 264) / 8, [-0.0, 5e-324, -5e-324]])
        got = lut_quantize(q, 1.0, echo, E3M0)
        assert got.tolist() == [_address(float(v), 3, 32) % 1024 for v in q]


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
def _lut_inputs(draw, neg=E1M2, pos=E2M1) -> np.ndarray:
    """Tensors whose quotients hit grid points of either grid, midpoints and
    their float neighbours exactly, or arbitrary floats with zeros,
    subnormals and near-maximum values; optionally all positive or all
    non-positive."""
    if draw(st.booleans()):
        s = draw(st.sampled_from([1.0, 0.375, 2.0**-30, 5 * 2.0**60, 2.0**-1060]))
        both = np.unique(np.concatenate([grid_values(neg), grid_values(pos)]))
        neg_q, pos_q = both[both <= 0], both[both >= 0]
        mids = [(g[:-1] + g[1:]) / 2 for g in (neg_q, pos_q)]
        qs = draw(st.lists(st.sampled_from(np.concatenate([neg_q, pos_q, *mids]).tolist()), max_size=16))
        # Anchors give the scales s exactly: the part absmaxes are the grid maxima times s.
        x = np.array([*qs, -max_value(neg), max_value(pos)]) * s
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

    @pytest.mark.parametrize("fmt", DFQ_CANDIDATE_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    def test_every_candidate_grid_matches_quantize(self, fmt, data) -> None:
        x = data.draw(_lut_inputs(fmt, fmt))
        ref = quantize(x, fmt, PT)
        got = lut_quantize(x, compute_scale(x, fmt), LUTS, fmt)
        assert got.dtype == ref.codes.dtype and got.tolist() == ref.codes.tolist()

    @pytest.mark.parametrize("neg, pos", SEARCH_PAIRS, ids=lambda f: f.name)
    @given(data=st.data())
    def test_every_search_pair_matches_dfq_quantize(self, neg, pos, data) -> None:
        x = data.draw(_lut_inputs(neg, pos))
        ref = dfq_quantize(x, neg, pos, PT)
        got = dfq_lut_quantize(x, LUTS, neg, pos)
        assert (got.neg_format, got.pos_format) == (neg, pos)
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


def _k(fmt) -> float:
    """The grid's integer scale: 1 / (its smallest positive value)."""
    grid = grid_values(fmt)
    return 1 / grid[grid > 0].min()


def _exhaustive_products(act, wt, product_format) -> None:
    """Every code pair of the (act, wt) multiplier gives the exact product in
    ``product_format`` and k_act * k_wt times it as an integer."""
    mul, p2i = LUTS.multiplier(act, wt)
    k = Fraction(_k(act) * _k(wt))
    for a in range(act.code_count):
        va = Fraction(decode_bits(act, a))
        for b in range(wt.code_count):
            p = va * Fraction(decode_bits(wt, b))
            code = int(mul[(a << wt.width) | b])
            assert Fraction(decode_bits(product_format, code)) == p
            assert p2i[code] == p * k


class TestMulTables:
    def test_spot_products(self) -> None:
        mul, p2i = LUTS.multiplier(E2M1, E2M1)
        c = encode(E2M1, 1.5).bits
        addr = (c << 4) | c
        assert decode_bits(E4M3, int(mul[addr])) == 2.25
        assert p2i[mul[addr]] == 9
        c6 = encode(E2M1, 6.0).bits
        assert decode_bits(E4M3, int(mul[(c6 << 4) | c6])) == 36.0
        assert p2i[mul[(c6 << 4) | c6]] == 144

    def test_zero_times_anything(self) -> None:
        mul, p2i = LUTS.multiplier(E2M1, E2M1)
        for b in range(16):
            assert mul[(0 << 4) | b] == 0
            assert p2i[mul[(b << 4) | 0]] == 0

    def test_exhaustive_e2m1_pairs_exact(self) -> None:
        _exhaustive_products(E2M1, E2M1, E4M3)

    def test_exhaustive_dfq_pairs_exact(self) -> None:
        _exhaustive_products(E1M2, E2M1, E3M4)

    @pytest.mark.parametrize("act, wt", [p for p in SEARCH_PAIRS if p != (E1M2, E1M2)], ids=lambda f: f.name)
    def test_exhaustive_search_grid_pairs_exact(self, act, wt) -> None:
        # E1M2 x E2M1 significand products need a fourth mantissa bit, which
        # E3M4 has.  E1M2 x E3M0 products reach 3.5 * 16 = 56, past E3M4's 31,
        # and, like the rest, need no more than E4M3's three mantissa bits.
        _exhaustive_products(act, wt, E3M4 if {act, wt} == {E1M2, E2M1} else E4M3)

    def test_e4m3_would_reject_mixed_products(self) -> None:
        with pytest.raises(ValueError, match="not on the E4M3 grid"):
            encode(E4M3, 3.5 * 6.0)
        mul, _ = build_mul_lut(E1M2, E2M1)
        a, b = encode(E1M2, 3.5).bits, encode(E2M1, 6.0).bits
        assert decode_bits(E3M4, int(mul[(a << 4) | b])) == 21.0

    @pytest.mark.parametrize("act, wt", [(E1M2, E1M2), (E2M3, E2M1)], ids=lambda f: f.name)
    def test_pair_no_product_format_holds(self, act, wt) -> None:
        # 1.75 * 1.75 = 2 * 1.53125 and the FP6 product 7.5 * 6 = 45 =
        # 2^5 * 1.40625 need five mantissa bits; E3M4 has four.
        with pytest.raises(ValueError, match=f"no product format holds every {act.name} x {wt.name} product"):
            build_mul_lut(act, wt)

    def test_verify_helper(self) -> None:
        report = verify_mul_tables(LUTS)
        assert report == {"mul_tables": "pass", "mul_exact": {
            "E1M2xE2M1": "256/256", "E2M1xE2M1": "256/256", "E3M0xE2M1": "256/256"}}

    def test_verify_counts_a_wrong_product(self) -> None:
        mul, p2i = LUTS.multiplier(E3M0, E2M1)
        mul = mul.copy()
        mul[(encode(E3M0, 16.0).bits << 4) | encode(E2M1, 6.0).bits] ^= 1
        report = verify_mul_tables(LutTables(product={(E3M0, E2M1): (mul, p2i)}))
        assert report["mul_tables"] == "fail" and report["mul_exact"]["E3M0xE2M1"] == "255/256"


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
        assert emu_dot(a, b, LUTS, E1M2, E2M1) == want * 4

    def test_e3m0_sum_is_eight_times_the_dot(self) -> None:
        # k = 4 for E3M0 and 2 for E2M1.
        rng = np.random.default_rng(6)
        a = rng.integers(0, 16, 64).astype(np.uint8)
        b = rng.integers(0, 16, 64).astype(np.uint8)
        want = sum(
            Fraction(decode_bits(E3M0, int(x))) * Fraction(decode_bits(E2M1, int(y)))
            for x, y in zip(a, b)
        )
        assert emu_dot(a, b, LUTS, E3M0, E2M1) == want * 8

    def test_accumulator_headroom(self) -> None:
        full = np.full(128, encode(E2M1, 6.0).bits, dtype=np.uint8)
        acc = emu_dot(full, full, LUTS)
        assert abs(acc) == 144 * 128
        assert abs(acc) < 2**31

    def test_length_mismatch(self) -> None:
        with pytest.raises(ValueError, match="length mismatch"):
            emu_dot([1, 2], [1], LUTS)

    def test_pair_without_product_format(self) -> None:
        with pytest.raises(ValueError, match="no product format holds every E1M2 x E1M2 product"):
            emu_dot([1], [1], LUTS, E1M2, E1M2)

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
        act = {"e2m1": E2M1, "dfq": E1M2}[variant]
        with pytest.raises(ValueError, match="integers in 0..15"):
            emu_dot(a, b, LUTS, act, E2M1)


def _k_values(fmt) -> np.ndarray:
    return _k(fmt) * decode_bits(fmt, np.arange(fmt.code_count))


def _gemm_planes_oracle(code_planes, w_codes, w_format, w_scales_2d, groups) -> np.ndarray:
    """``hwemu._gemm_planes`` with a float64 copy of every accumulator and
    a fresh rows x out array for every rescale."""
    w_tab = _k_values(w_format)
    peak = max(np.abs(_k_values(f)).max() for _, f, _ in code_planes) * np.abs(w_tab).max()
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    w_vals = w_tab.astype(dtype)[w_codes]
    out = np.zeros((code_planes[0][0].shape[0], w_codes.shape[0]))
    for gi, (c0, c1) in enumerate(groups):
        wj = w_vals[:, c0:c1]
        sw = w_scales_2d[:, gi]
        for codes, fmt, sx in code_planes:
            xa = _k_values(fmt).astype(dtype)[codes[:, c0:c1]]
            acc = (xa @ wj.T).astype(np.float64, copy=False)
            out += acc * (sx[:, gi][:, None] * sw[None, :]) * (1 / (_k(fmt) * _k(w_format)))
    return out


# sha256 of the ``emu_gemm`` output of each ``_gemm_case`` as the datapath
# gave it when it was wired for E2M1 and E1M2/E2M1 alone.
PARENT_GEMM = {
    "per_tensor": "60545f7a0c6681bf6acbab1ed143106ad0f5e9951f5b3779103dec61541fa71e",
    "per_token": "5fb36433e56dcf820b02d940d4f859ebb5e57c42d69c9eb966927aef2f2134d0",
    "per_channel": "d6727c7121326bb53e39b4764fc3c70ce1f5262b1f5acac6c30528dd34a4d42a",
    "one_group": "5fb36433e56dcf820b02d940d4f859ebb5e57c42d69c9eb966927aef2f2134d0",
    "many_groups": "7fb011bc6b8c850edb87f96a44a50f1778572682f32dba2b9f3637a5ae1c2876",
    "dfq_per_token": "fb8315296bf9b1b27f1a961ceff04a1d6f9b864b63dd0435bc2807f5c32279c0",
    "dfq_groups": "2cc9875b7ad2ac1107c1e26e8bfaef66e061627b55fd806c51eb4fac78a579d6",
    "float64_accumulator": "63a33b99258db9ab339880642be17c6ea5389c1e58010f65f79abd4cfd06a9f9",
}


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
        assert hashlib.sha256(got.tobytes()).hexdigest() == PARENT_GEMM[case]
        monkeypatch.setattr(hwemu, "_gemm_planes", _gemm_planes_oracle)
        want = emu_gemm(xq, wq, LUTS)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("neg, pos", SEARCH_PAIRS, ids=lambda f: f.name)
    @pytest.mark.parametrize("gx, gw", [
        (PT, PT),
        (Granularity.per_token(), Granularity.per_channel()),
        (Granularity.per_group(64), Granularity.per_group(64)),
    ], ids=["per_tensor", "per_token", "per_group"])
    def test_every_search_pair_matches_dequant_matmul(self, neg, pos, gx, gw, monkeypatch) -> None:
        x = gelu_activations(40, (9, 256)) * np.random.default_rng(41).uniform(0.1, 10, 256)
        w = np.random.default_rng(42).standard_normal((11, 256))
        dq, wq = dfq_quantize(x, neg, pos, gx), quantize(w, E2M1, gw)
        out = emu_gemm(dq, wq, LUTS)
        want = dequantize(dq) @ dequantize(wq).T
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()
        monkeypatch.setattr(hwemu, "_gemm_planes", _gemm_planes_oracle)
        assert out.view(np.uint64).tolist() == emu_gemm(dq, wq, LUTS).view(np.uint64).tolist()

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
                    acc += dot * xq.scales[t, gi] * wq.scales[o, gi] * 0.25
                assert out[t, o] == pytest.approx(acc, rel=1e-12)

    def test_dfq_literal_path(self) -> None:
        x = gelu_activations(12, (2, 256))
        w = np.random.default_rng(13).standard_normal((3, 256))
        dq = dfq_quantize(x, E1M2, E2M1, PT)
        wq = quantize(w, E2M1, PT)
        out = emu_gemm(dq, wq, LUTS)
        for t in range(2):
            for o in range(3):
                neg = emu_dot(dq.neg_codes[t], wq.codes[o], LUTS, E1M2, E2M1)
                pos = emu_dot(dq.pos_codes[t], wq.codes[o], LUTS)
                sw = float(wq.scales)
                acc = neg * float(dq.s_neg) * sw * 0.25 + pos * float(dq.s_pos) * sw * 0.25
                assert out[t, o] == pytest.approx(acc, rel=1e-12)

    def test_e3m0_rows_match_the_table_walk(self) -> None:
        # The E3M0 plane accumulates 8x its products and the E2M1 plane 4x;
        # each rescale is exact, so the walk reproduces the GEMM bit for bit.
        x = gelu_activations(15, (3, 256))
        w = np.random.default_rng(16).standard_normal((4, 256))
        dq = dfq_quantize(x, E3M0, E2M1, Granularity.per_token())
        wq = quantize(w, E2M1, Granularity.per_channel())
        out = emu_gemm(dq, wq, LUTS)
        assert np.any(dq.neg_codes) and np.any(dq.pos_codes)
        for t in range(3):
            for o in range(4):
                neg = emu_dot(dq.neg_codes[t], wq.codes[o], LUTS, E3M0, E2M1)
                pos = emu_dot(dq.pos_codes[t], wq.codes[o], LUTS, E2M1, E2M1)
                sn, sp, sw = dq.s_neg[t], dq.s_pos[t], wq.scales[o]
                assert out[t, o] == 0.0 + neg * (sn * sw) * 0.125 + pos * (sp * sw) * 0.25

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
        assert out[0, 0] == acc * float(xq.scales[0]) * float(wq.scales[0]) * 0.25

    def test_group_misalignment_rejected(self) -> None:
        x = np.random.default_rng(14).standard_normal((4, 256))
        w = np.random.default_rng(15).standard_normal((4, 256))
        xq = quantize(x, E2M1, Granularity.per_group(128))
        wq = quantize(w, E2M1, Granularity.per_group(64))
        with pytest.raises(ValueError, match="do not match"):
            emu_gemm(xq, wq, LUTS)

    def test_weight_format_enforced(self) -> None:
        x = quantize(np.ones((2, 128)), E2M1, PT)
        with pytest.raises(ValueError, match="micro-float codes"):
            emu_gemm(x, rtn_int_quantize(np.ones((2, 128)), 4), LUTS)
        with pytest.raises(ValueError, match="no product format holds every E2M1 x E2M3 product"):
            emu_gemm(x, quantize(np.ones((2, 128)), E2M3, PT), LUTS)
        with pytest.raises(ValueError, match="no product format holds every E1M2 x E1M2 product"):
            emu_gemm(dfq_quantize(np.ones((2, 128)), E1M2, E2M1), quantize(np.ones((2, 128)), E1M2, PT))


class TestParitySuite:
    def test_verify_quantizer_parity(self) -> None:
        report = verify_quantizer_parity(50_000, seed=1, luts=LUTS)
        assert report["quantizer_parity"] == "pass"
        keys = [f.name for f in DFQ_CANDIDATE_FORMATS] + [_pair_id(p) for p in SEARCH_PAIRS]
        assert list(report["mismatches"]) == list(report["addr_frac_bits"]) == keys
        assert set(report["mismatches"].values()) == {0} and report["scale_mismatches"] == []
        assert report["addr_frac_bits"]["E2M1"] == report["addr_frac_bits"]["E1M2/E2M1"] == 2
        assert report["addr_frac_bits"]["E3M0"] == report["addr_frac_bits"]["E1M2/E3M0"] == 3

    # q in (0.25, 0.5) for the E2M1 table; in (-0.5, -0.25) for the DFQ
    # table, whose positive part the parity data keeps above q = 1.
    @pytest.mark.parametrize("field, addr", [("quant_lut", 3), ("dfq_lut", -3)])
    def test_flipped_table_entry_is_counted(self, field, addr) -> None:
        pair = {"quant_lut": (E2M1, E2M1), "dfq_lut": (E1M2, E2M1)}[field]
        lut = LUTS.quantizer(*pair).copy()
        lut[addr] ^= 1
        report = verify_quantizer_parity(50_000, seed=1, luts=LutTables({pair: lut}))
        assert report["quantizer_parity"] == "fail"
        key = "E2M1" if field == "quant_lut" else "E1M2/E2M1"
        assert report["mismatches"][key] > 0

    def test_dfq_scales_compared_exactly(self, monkeypatch) -> None:
        def nudged(x, luts=None, *formats):
            r = dfq_lut_quantize(x, luts, *formats)
            r.s_neg = np.nextafter(r.s_neg, np.inf)
            return r

        monkeypatch.setattr(hwemu, "dfq_lut_quantize", nudged)
        report = verify_quantizer_parity(1_000, seed=2, luts=LUTS)
        assert report["scale_mismatches"] == [_pair_id(p) for p in SEARCH_PAIRS]
        assert report["quantizer_parity"] == "fail"
