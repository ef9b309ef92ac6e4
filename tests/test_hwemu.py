"""Datapath-emulation tests: table exactness, parity, integer accumulation."""

from __future__ import annotations

import hashlib
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpq import formats, hwemu
from fpq.formats import (
    E1M2,
    E2M1,
    E2M3,
    E3M0,
    E3M2,
    E4M3,
    _rounding_tables,
    decode_bits,
    grid_values,
    max_value,
    nearest_codes,
)
from fpq.hwemu import (
    LutTables,
    _build_address_lut,
    _build_mul_lut,
    build_tables,
    dfq_lut_quantize,
    emu_dot,
    emu_gemm,
    lut_quantize,
    verify_gemm_rows,
    verify_mul_tables,
    verify_quantizer_parity,
)
from fpq.quantize import (
    DFQ_CANDIDATE_FORMATS,
    DfqResult,
    Granularity,
    compute_scale,
    dequantize,
    dfq_quantize,
    quantize,
    rtn_int_quantize,
)
from fpq.synth import gaussian_channel_weights, gelu_activations

LUTS = build_tables()
PT = Granularity.per_tensor()
ADDRESSES = range(-64, 64)  # the 7-bit signed bus
TABLE_PAIRS = [(E2M1, E2M1), (E1M2, E2M1)]
# Every (negative, positive) grid pair the DFQ search can pick.
SEARCH_PAIRS = list(product(DFQ_CANDIDATE_FORMATS, repeat=2))
# max |k_act * k_wt * a * b| of each multiplier the emulator runs: the FP4
# pairs, E1M2 x E1M2, and the FP6 pairs, none of which an 8-bit product
# code holds.
MUL_PEAKS = {
    (E2M1, E2M1): 144, (E1M2, E2M1): 84, (E3M0, E2M1): 768, (E1M2, E1M2): 49,
    (E2M3, E2M1): 720, (E3M2, E2M1): 5376, (E2M3, E2M3): 3600, (E3M2, E3M2): 200704,
}


def _pair_id(pair) -> str:
    return "/".join(f.name for f in pair)


# The tables as the datapath built them when it was wired for E2M1 and
# E1M2/E2M1 alone: the address tables, and the sha256 of the int16 integer
# products of three multipliers (then a product-code table and a
# product-to-integer table, prod_to_int[mul_lut]).
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
    (E2M1, E2M1): "d5fb0071f293602a07bf925534af70bd3dfce9e4b0909d71b02b08989899d004",
    (E1M2, E2M1): "c305e3f313389ca6405665216335af62cbb236314aa747c51f6d5ad0506d09dc",
    (E3M0, E2M1): "6d264547c0dbd5b8bb897f24f75f0dc607de729b1ca5dfd0956757ec10270d05",
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
        lut = _build_address_lut(E2M1, E2M1)
        assert len(lut) == 128
        assert lut[48] == 0b0111  # q = +6.0
        assert lut[0] == 0b0000  # zero
        assert lut[-48] == nearest_codes(E2M1, -6.0) == 0b1111

    def test_live_addresses_match_reference_rounding(self) -> None:
        lut = _build_address_lut(E2M1, E2M1)
        for addr in ADDRESSES:
            for q in _bucket(addr):
                assert decode_bits(E2M1, int(lut[addr])) == decode_bits(E2M1, nearest_codes(E2M1, q))

    def test_dead_addresses_saturate(self) -> None:
        # Addresses past the grid's ends, q beyond +-6, hold the saturation codes.
        lut = _build_address_lut(E2M1, E2M1)
        assert all(lut[a] == 0b0111 for a in range(49, 64))
        assert all(lut[a] == 0b1111 for a in range(-64, -48))


class TestAddressTables:
    @pytest.mark.parametrize("neg, pos", TABLE_PAIRS, ids=lambda f: f.name)
    def test_every_bucket_matches_reference(self, neg, pos) -> None:
        lut = _build_address_lut(neg, pos)
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
            _build_address_lut(neg, pos, frac_bits=1)

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
        assert set(fresh.address) == set(fresh.product) == set(TABLE_PAIRS)
        for pair, want in PARENT_ADDRESS.items():
            assert fresh.address[pair].tobytes() == want
        for pair, sha in PARENT_PRODUCT.items():
            mul = fresh.multiplier(*pair)
            assert mul.dtype == np.int16 and hashlib.sha256(mul.tobytes()).hexdigest() == sha

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


def _old_address_codes(lut: np.ndarray, frac_bits: int, q: np.ndarray) -> np.ndarray:
    """The address as formed before the one-cast form: floor(2^F q) cast to
    int64, a sticky compare, a shift, an add and the bus mask."""
    top = len(lut) >> (frac_bits + 2)
    v = np.clip(q, -top, top - 2.0 ** -(frac_bits + 1)) * (1 << frac_bits)
    f = np.floor(v).astype(np.int64)
    return lut[((f << 1) + (v != f)) & (len(lut) - 1)]


class TestOneCastAddress:
    """floor(v) + ceil(v) is the address 2 floor(v) + sticky: the codes equal
    those of the old formula at bucket edges, their neighbours, saturation
    and huge quotients, for every slice size."""

    @pytest.mark.parametrize("neg, pos", [*SEARCH_PAIRS, (E2M3, E2M3), (E3M2, E3M2)], ids=lambda f: f.name)
    @settings(max_examples=60)
    @given(data=st.data())
    def test_equals_the_old_formula(self, neg, pos, data) -> None:
        lut, frac_bits = LUTS.quantizer(neg, pos), hwemu._frac_bits(neg, pos)
        top = len(lut) >> (frac_bits + 2)
        edges = st.integers(-(top << frac_bits) - 3, (top << frac_bits) + 3).map(lambda k: k / 2**frac_bits)
        near = st.tuples(edges, st.sampled_from([-np.inf, 0.0, np.inf])).map(
            lambda e: float(np.nextafter(*e)) if e[1] else e[0])
        ends = st.sampled_from([-top, top, top - 2.0 ** -(frac_bits + 1), -0.0, 5e-324, -5e-324])
        q = np.array(data.draw(st.lists(st.one_of(near, ends, st.floats(-1e300, 1e300)), min_size=1, max_size=50)))
        with mock.patch.object(formats, "_BLOCK", data.draw(st.sampled_from([1, 5, 16, 40]))):
            got = hwemu._lut_codes(LUTS, neg, pos, q, lambda rows: 1.0)
        want = _old_address_codes(lut, frac_bits, q)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


class TestDfqLuts:
    def test_reference_entries(self) -> None:
        lut = _build_address_lut(E1M2, E2M1)
        assert lut[48] == 0b0111  # q = +6.0 in E2M1
        assert lut[-28] == 0b1111  # q = -3.5 in E1M2
        assert lut[0] == 0

    def test_branch_domains_match_reference(self) -> None:
        lut = _build_address_lut(E1M2, E2M1)
        for addr in ADDRESSES:
            fmt = E1M2 if addr < 0 else E2M1
            for q in _bucket(addr):
                assert decode_bits(fmt, int(lut[addr])) == decode_bits(fmt, nearest_codes(fmt, q))

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


def _exhaustive_products(act, wt) -> None:
    """Every code pair of the (act, wt) multiplier holds k_act * k_wt times
    the exact product of the decoded operands."""
    mul = LUTS.multiplier(act, wt)
    assert len(mul) == act.code_count * wt.code_count and not mul.flags.writeable
    k = Fraction(_k(act) * _k(wt))
    for a in range(act.code_count):
        va = Fraction(decode_bits(act, a))
        for b in range(wt.code_count):
            assert int(mul[(a << wt.width) | b]) == va * Fraction(decode_bits(wt, b)) * k


class TestMulTables:
    def test_spot_products(self) -> None:
        mul = LUTS.multiplier(E2M1, E2M1)
        c = int(nearest_codes(E2M1, 1.5))
        assert mul[(c << 4) | c] == 9  # 2.25 * 4
        c6 = int(nearest_codes(E2M1, 6.0))
        assert mul[(c6 << 4) | c6] == 144

    def test_zero_times_anything(self) -> None:
        mul = LUTS.multiplier(E2M1, E2M1)
        for b in range(16):
            assert mul[(0 << 4) | b] == 0
            assert mul[(b << 4) | 0] == 0

    def test_exhaustive_e2m1_pairs_exact(self) -> None:
        _exhaustive_products(E2M1, E2M1)

    def test_exhaustive_dfq_pairs_exact(self) -> None:
        _exhaustive_products(E1M2, E2M1)

    @pytest.mark.parametrize("act, wt", SEARCH_PAIRS, ids=lambda f: f.name)
    def test_exhaustive_search_grid_pairs_exact(self, act, wt) -> None:
        _exhaustive_products(act, wt)

    @pytest.mark.parametrize("act, wt", MUL_PEAKS, ids=lambda f: f.name)
    def test_exhaustive_emulated_pairs_exact(self, act, wt) -> None:
        # int16 holds every peak but E3M2 x E3M2's 448 * 448 = 200704.
        _exhaustive_products(act, wt)
        mul = LUTS.multiplier(act, wt)
        assert np.abs(mul).max() == MUL_PEAKS[act, wt]
        assert mul.dtype == (np.int32 if (act, wt) == (E3M2, E3M2) else np.int16)

    def test_e4m3_would_reject_mixed_products(self) -> None:
        assert 3.5 * 6.0 not in grid_values(E4M3)
        mul = _build_mul_lut(E1M2, E2M1)
        a, b = int(nearest_codes(E1M2, 3.5)), int(nearest_codes(E2M1, 6.0))
        assert mul[(a << 4) | b] == 21 * 4

    @pytest.mark.parametrize("act, wt, x, y", [(E1M2, E1M2, 3.5, 3.5), (E2M3, E2M1, 7.5, 6.0)],
                             ids=["E1M2-E1M2", "E2M3-E2M1"])
    def test_pair_past_the_8bit_product_codes_builds_exact(self, act, wt, x, y) -> None:
        # 3.5 * 3.5 = 2^3 * 1.53125 and the FP6 product 7.5 * 6 = 45 =
        # 2^5 * 1.40625 need five mantissa bits, one more than E3M4 has.
        mul = _build_mul_lut(act, wt)
        assert mul[(int(nearest_codes(act, x)) << wt.width) | int(nearest_codes(wt, y))] == x * y * _k(act) * _k(wt)
        assert mul.tobytes() == LUTS.multiplier(act, wt).tobytes()
        _exhaustive_products(act, wt)

    def test_verify_helper(self) -> None:
        report = verify_mul_tables(LUTS)
        assert report == {"mul_tables": "pass", "mul_exact": {
            "E1M2xE2M1": "256/256", "E2M1xE2M1": "256/256", "E3M0xE2M1": "256/256",
            "E2M3xE2M3": "4096/4096", "E2M3xE3M2": "4096/4096",
            "E3M2xE2M3": "4096/4096", "E3M2xE3M2": "4096/4096"}}

    def test_verify_gemm_rows(self) -> None:
        assert verify_gemm_rows(LUTS, seed=3) == {"gemm_rows": "pass"}
        mul = LUTS.multiplier(E2M1, E2M1) + 1  # every table walk sums one per element more
        luts = LutTables(LUTS.address, {**LUTS.product, (E2M1, E2M1): mul})
        assert verify_gemm_rows(luts, seed=3) == {"gemm_rows": "fail"}

    @pytest.mark.parametrize("bumped", [0, 1], ids=["dfq_rare_plane", "single_plane"])
    def test_verify_gemm_rows_checks_the_sparse_products(self, bumped: int, monkeypatch) -> None:
        # Two samples take the CSR product: the pos plane of the per_token
        # DFQ sample, then the sparse E2M1 plane.  One count too many in
        # either accumulator fails the check.
        product, calls = hwemu._sparse_product, _spy_sparse(monkeypatch)
        assert verify_gemm_rows(LUTS, seed=3) == {"gemm_rows": "pass"}
        assert len(calls) == 2 and 0 < np.count_nonzero(calls[1][0]) <= calls[1][0].size / 32
        seen = []

        def off_by_one(*args):
            acc = product(*args)
            if len(seen) == bumped:
                acc += 1
            seen.append(acc)
            return acc

        monkeypatch.setattr(hwemu, "_sparse_product", off_by_one)
        assert verify_gemm_rows(LUTS, seed=3) == {"gemm_rows": "fail"}
        assert len(seen) == bumped + 1

    @pytest.mark.parametrize("seed", [0, 3])
    def test_verify_gemm_rows_catches_a_row_pointer_slip(self, seed: int, monkeypatch) -> None:
        # Row pointers one element early move a row's last nonzero code into
        # the next row; each sparse sample has a row that ends in one.
        def slipped(vals, codes, w_t):
            from scipy.sparse import csr_matrix
            rows, cols = codes.shape
            flat = np.flatnonzero(codes)
            indptr = np.searchsorted(flat, np.arange(rows + 1) * cols - 1)
            return csr_matrix((vals.take(codes.flat[flat]), flat % cols, indptr), shape=codes.shape) @ w_t

        assert verify_gemm_rows(LUTS, seed=seed) == {"gemm_rows": "pass"}
        monkeypatch.setattr(hwemu, "_sparse_product", slipped)
        assert verify_gemm_rows(LUTS, seed=seed) == {"gemm_rows": "fail"}

    def test_verify_counts_a_wrong_product(self) -> None:
        mul = LUTS.multiplier(E3M0, E2M1).copy()
        mul[(int(nearest_codes(E3M0, 16.0)) << 4) | int(nearest_codes(E2M1, 6.0))] ^= 1
        report = verify_mul_tables(LutTables(product={(E3M0, E2M1): mul}))
        assert report["mul_tables"] == "fail" and report["mul_exact"]["E3M0xE2M1"] == "255/256"

    def test_verify_checks_the_decoded_products(self, monkeypatch) -> None:
        # The expected entries come from decode_bits, not from the build's
        # own k-scaled values: a build from doubled values keeps only the
        # 60 entries with a zero operand (two zero codes of 16 each side).
        monkeypatch.setattr(hwemu, "_int_values", lambda fmt: 2 * _k_values(fmt))
        report = verify_mul_tables(LutTables())
        assert report["mul_tables"] == "fail" and report["mul_exact"]["E2M1xE2M1"] == "60/256"


class TestEmuDot:
    def test_empty(self) -> None:
        assert emu_dot([], [], LUTS) == 0

    def test_single_pair(self) -> None:
        c = int(nearest_codes(E2M1, 1.5))
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
        full = np.full(128, nearest_codes(E2M1, 6.0), dtype=np.uint8)
        acc = emu_dot(full, full, LUTS)
        assert abs(acc) == 144 * 128
        assert abs(acc) < 2**31

    def test_length_mismatch(self) -> None:
        with pytest.raises(ValueError, match="length mismatch"):
            emu_dot([1, 2], [1], LUTS)

    @pytest.mark.parametrize("act, wt", [(E1M2, E1M2), (E2M3, E2M1), (E3M2, E3M2)], ids=lambda f: f.name)
    def test_pairs_past_the_8bit_product_codes(self, act, wt) -> None:
        rng = np.random.default_rng(18)
        a = rng.integers(0, act.code_count, 128).astype(np.uint8)
        b = rng.integers(0, wt.code_count, 128).astype(np.uint8)
        want = sum(Fraction(decode_bits(act, int(x))) * Fraction(decode_bits(wt, int(y))) for x, y in zip(a, b))
        assert emu_dot(a, b, LUTS, act, wt) == want * Fraction(_k(act) * _k(wt))

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


def _gemm_planes_oracle(code_planes, w_codes, w_format, w_scales, groups, peak) -> np.ndarray:
    """``hwemu._gemm_planes`` with a float64 copy of every accumulator and
    a fresh rows x out array for every rescale; the accumulator peak it is
    given must be the largest |k_act * a * k_wt * b|."""
    w_tab = _k_values(w_format)
    assert peak == max(np.abs(_k_values(f)).max() for _, f, _ in code_planes) * np.abs(w_tab).max()
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    w_vals = w_tab.astype(dtype)[w_codes]
    out = np.zeros((code_planes[0][0].shape[0], w_codes.shape[0]))
    for gi, (c0, c1) in enumerate(groups):
        wj = w_vals[:, c0:c1]
        sw = w_scales[:, gi]
        for codes, fmt, sx in code_planes:
            xa = _k_values(fmt).astype(dtype)[codes[:, c0:c1]]
            acc = (xa @ wj.T).astype(np.float64, copy=False)
            out += acc * (sx[:, gi][:, None] * sw[None, :]) * (1 / (_k(fmt) * _k(w_format)))
    return out


def _column_groups(n_cols: int, g: Granularity) -> list[tuple[int, int]]:
    """The (start, end) column groups the datapath once derived from ``g``'s
    kind: the oracle of ``emu_gemm``'s layout check."""
    if g.kind == "per_group":
        if n_cols % g.group_size:
            raise ValueError(f"columns ({n_cols}) not divisible by group size {g.group_size}")
        return [(i, i + g.group_size) for i in range(0, n_cols, g.group_size)]
    return [(0, n_cols)]


def _scales_2d(scales: np.ndarray, rows: int, n_groups: int, g: Granularity) -> np.ndarray:
    """Unit scales as a (rows, n_groups) matrix, derived from ``g``'s kind."""
    s = np.asarray(scales, dtype=np.float64)
    if g.kind == "per_tensor":
        return np.broadcast_to(s, (rows, n_groups))
    if g.kind in ("per_channel", "per_token"):
        return np.broadcast_to(s[:, None], (rows, n_groups))
    return s.reshape(rows, n_groups)


# (granularity, columns) of every layout the layout check sees: the last
# does not divide its width, and the 96-column ones mismatch the rest.
LAYOUTS = {
    "per_tensor": (PT, 128),
    "per_token": (Granularity.per_token(), 128),
    "per_channel": (Granularity.per_channel(), 128),
    "per_group32": (Granularity.per_group(32), 128),
    "per_group_full": (Granularity.per_group(128), 128),
    "per_group_pad": (Granularity.per_group(48, pad_partial=True), 128),
    "per_tensor_96": (PT, 96),
    "per_group32_96": (Granularity.per_group(32), 96),
}


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

    @pytest.mark.parametrize("wt", LAYOUTS)
    @pytest.mark.parametrize("act", LAYOUTS)
    def test_accepts_exactly_when_the_groups_agree(self, act: str, wt: str) -> None:
        (gx, nx), (gw, nw) = LAYOUTS[act], LAYOUTS[wt]
        rng = np.random.default_rng(17)
        xq = quantize(rng.standard_normal((3, nx)), E2M1, gx)
        wq = quantize(rng.standard_normal((4, nw)), E2M1, gw)
        try:
            groups = _column_groups(nx, gx)
            agree = groups == _column_groups(nw, gw)
        except ValueError:
            agree = False
        if not agree:
            with pytest.raises(ValueError, match="do not match|not divisible"):
                emu_gemm(xq, wq, LUTS)
            return
        out = emu_gemm(xq, wq, LUTS)
        # The kind-derived scale matrices give the same bytes.
        sx = _scales_2d(xq.scales, 3, len(groups), gx)
        sw = _scales_2d(wq.scales, 4, len(groups), gw)
        want = _gemm_planes_oracle([(xq.codes, E2M1, sx)], wq.codes, E2M1, sw, groups, 144)
        assert out.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_group_misalignment_rejected(self) -> None:
        x = np.random.default_rng(14).standard_normal((4, 256))
        w = np.random.default_rng(15).standard_normal((4, 256))
        xq = quantize(x, E2M1, Granularity.per_group(128))
        wq = quantize(w, E2M1, Granularity.per_group(64))
        with pytest.raises(ValueError, match="do not match"):
            emu_gemm(xq, wq, LUTS)

    @pytest.mark.parametrize("shape, g", [
        ((128,), PT),
        ((2, 3, 128), Granularity.per_group(128)),
    ], ids=["1d", "3d"])
    def test_activation_codes_must_be_2d(self, shape, g) -> None:
        x = gelu_activations(26, shape)
        wq = quantize(np.ones((4, 128)), E2M1, Granularity.per_group(128) if len(shape) == 3 else PT)
        for xq in (quantize(x, E2M1, g), dfq_quantize(x, E1M2, E2M1, g)):
            with pytest.raises(ValueError, match=rf"^activation codes must be 2-D, got shape {re.escape(str(shape))}$"):
                emu_gemm(xq, wq, LUTS)
        with pytest.raises(ValueError, match=r"^weight codes must be 2-D, got shape \(128,\)$"):
            emu_gemm(quantize(np.ones((4, 128)), E2M1, PT), quantize(np.ones(128), E2M1, PT), LUTS)

    def test_weight_format_enforced(self) -> None:
        x = quantize(np.ones((2, 128)), E2M1, PT)
        with pytest.raises(ValueError, match="micro-float codes"):
            emu_gemm(x, rtn_int_quantize(np.ones((2, 128)), 4), LUTS)

    @pytest.mark.parametrize("act, wt", [(E2M3, E2M1), (E3M2, E3M2)], ids=lambda f: f.name)
    def test_fp6_rows_match_the_table_walk(self, act, wt) -> None:
        rng = np.random.default_rng(19)
        g = Granularity.per_group(128)
        xq = quantize(rng.standard_normal((3, 256)) * rng.uniform(0.1, 10, 256), act, g)
        wq = quantize(rng.standard_normal((4, 256)), wt, g)
        out = emu_gemm(xq, wq, LUTS)
        for t in range(3):
            assert out[t].view(np.uint64).tolist() == _table_walk_row(xq, wq, t).view(np.uint64).tolist()

    def test_e3m2_pair_takes_the_float64_accumulator(self, monkeypatch) -> None:
        # 200704 * 128 passes 2^24: 127 products 28 * 28 and one of the
        # smallest subnormals, 1/16 * 1/16, sum to 256 * 127 * 784 + 1, an
        # odd integer past 2^24 that float32 would round.
        x = np.full((1, 128), 28.0)
        x[0, 0] = 1 / 16
        g = Granularity.per_group(128)
        xq, wq = quantize(x, E3M2, g), quantize(x, E3M2, g)
        acc = emu_dot(xq.codes[0], wq.codes[0], LUTS, E3M2, E3M2)
        assert acc == 200704 * 127 + 1 and acc > 2**24
        peaks = []

        def spy(*args):
            peaks.append(args[-1])
            return _gemm_planes(*args)

        _gemm_planes = hwemu._gemm_planes
        monkeypatch.setattr(hwemu, "_gemm_planes", spy)
        assert emu_gemm(xq, wq, LUTS)[0, 0] == acc / 256 and peaks == [200704]

    def test_fp6_dfq_planes_run(self) -> None:
        g = Granularity.per_group(128)
        x = gelu_activations(20, (3, 256))
        w = np.random.default_rng(21).standard_normal((4, 256))
        dq, wq = dfq_quantize(x, E2M3, E3M2, g), quantize(w, E3M2, g)
        assert np.any(dq.neg_codes) and np.any(dq.pos_codes)
        out = emu_gemm(dq, wq, LUTS)
        for t in range(3):
            assert out[t].view(np.uint64).tolist() == _table_walk_row(dq, wq, t).view(np.uint64).tolist()
        want = dequantize(dq) @ dequantize(wq).T
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def _rescale_case(name: str, rows: int = 13, out_features: int = 11):
    """(activation, weight) for one rescale layout: DFQ per_token planes with
    per_channel weights, E2M1 per_group 128, and E3M2 x E3M2 per_group 128,
    whose partial sums take the float64 accumulator."""
    rng = np.random.default_rng(23)
    x = gelu_activations(24, (rows, 256)) * rng.uniform(0.1, 10, 256)
    w = rng.standard_normal((out_features, 256))
    g = Granularity.per_group(128)
    if name == "dfq_per_token":
        return dfq_quantize(x, E1M2, E2M1, Granularity.per_token()), quantize(w, E2M1, Granularity.per_channel())
    fmt = {"e2m1_per_group128": E2M1, "e3m2_float64_accumulator": E3M2}[name]
    return quantize(x, fmt, g), quantize(w, fmt, g)


class TestBlockedRescale:
    """The rescale runs a slice of rows at a time; any slice size gives the
    bytes of the full-size rescale (``_gemm_planes_oracle``)."""

    @pytest.mark.parametrize("case", ["dfq_per_token", "e2m1_per_group128", "e3m2_float64_accumulator"])
    @pytest.mark.parametrize("block", [1, 7, 40, 2**15], ids=lambda b: f"block{b}")
    def test_bytes_match_the_full_size_rescale(self, case: str, block: int, monkeypatch) -> None:
        # 13 rows of 11 outputs: a 40-element slice holds 3 rows (13 is no
        # multiple), a 1- or 7-element one a single row wider than itself.
        xq, wq = _rescale_case(case)
        monkeypatch.setattr(formats, "_BLOCK", block)
        got = emu_gemm(xq, wq, LUTS)
        monkeypatch.setattr(hwemu, "_gemm_planes", _gemm_planes_oracle)
        want = emu_gemm(xq, wq, LUTS)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @settings(max_examples=30)
    @given(rows=st.integers(1, 20), out_features=st.integers(1, 20), block=st.integers(1, 64),
           case=st.sampled_from(["dfq_per_token", "e2m1_per_group128", "e3m2_float64_accumulator"]))
    def test_any_slice_size(self, rows: int, out_features: int, block: int, case: str) -> None:
        xq, wq = _rescale_case(case, rows, out_features)
        with mock.patch.object(formats, "_BLOCK", block):
            got = emu_gemm(xq, wq, LUTS)
        with mock.patch.object(hwemu, "_gemm_planes", _gemm_planes_oracle):
            want = emu_gemm(xq, wq, LUTS)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    def test_makes_no_second_rows_by_out_float64_array(self) -> None:
        # 1024 x 1024 float64 is 8 MiB: the float32 accumulator (4 MiB), the
        # weight values (1 MiB) and one group of activation values fit below
        # it; a rows x out float64 term buffer beside ``out`` would not.
        g = Granularity.per_group(128)
        rng = np.random.default_rng(25)
        xq, wq = (quantize(rng.standard_normal((1024, 256)), E2M1, g) for _ in range(2))
        tracemalloc.start()
        try:
            out = emu_gemm(xq, wq, LUTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes < out.nbytes


def _spy_sparse(monkeypatch) -> list:
    """Record the codes and the accumulator dtype of every
    ``_sparse_product`` call."""
    calls, product = [], hwemu._sparse_product

    def spy(vals, codes, w_t):
        acc = product(vals, codes, w_t)
        calls.append((codes, acc.dtype))
        return acc

    monkeypatch.setattr(hwemu, "_sparse_product", spy)
    return calls


def _with_positives(n_pos: int, rows: int = 32, cols: int = 64) -> np.ndarray:
    """Magnitudes in [0.5, 1], exactly ``n_pos`` of them positive: each
    quantizes to a nonzero code of its plane at any unit scale."""
    rng = np.random.default_rng(33)
    x = -rng.uniform(0.5, 1, rows * cols)
    x[rng.choice(x.size, n_pos, replace=False)] *= -1
    return x.reshape(rows, cols)


class TestMergedPlanes:
    """Each plane of an activation, DFQ or not, has its own product: a plane
    of a one-group activation with at most 1/32 nonzero codes a CSR product
    (``_sparse_product``), every other plane a dense matmul.  Every input
    gives the bytes of one dense matmul per plane (``_gemm_planes_oracle``)."""

    @staticmethod
    def _check(xq, wq, monkeypatch, sparse: list) -> list:
        """``sparse`` lists the code planes that must take the CSR product."""
        calls = _spy_sparse(monkeypatch)
        got = emu_gemm(xq, wq, LUTS)
        assert len(calls) == len(sparse) and all(c is p for (c, _), p in zip(calls, sparse))
        monkeypatch.setattr(hwemu, "_gemm_planes", _gemm_planes_oracle)
        want = emu_gemm(xq, wq, LUTS)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        return calls

    @pytest.mark.parametrize("sign", [1, -1], ids=["gelu", "negated_gelu"])
    @pytest.mark.parametrize("gx, gw", [
        (PT, PT),
        (Granularity.per_token(), Granularity.per_channel()),
        (Granularity.per_channel(), PT),
    ], ids=["per_tensor", "per_token", "per_channel"])
    def test_rare_plane_of_either_sign(self, sign, gx, gw, monkeypatch) -> None:
        # GeLU leaves about 2.4% of its values > 0: the rare plane is pos,
        # and neg once the input is negated.
        dq = dfq_quantize(sign * gelu_activations(34, (48, 512)), E1M2, E2M1, gx)
        wq = quantize(np.random.default_rng(35).standard_normal((24, 512)), E2M1, gw)
        rare = dq.pos_codes if sign == 1 else dq.neg_codes
        assert 0 < np.count_nonzero(rare) <= rare.size / 32
        self._check(dq, wq, monkeypatch, [rare])

    @pytest.mark.parametrize("case", ["all_nonpositive", "all_positive", "all_zero"])
    def test_empty_rare_plane(self, case: str, monkeypatch) -> None:
        # An all-zero input leaves both planes empty, and both sparse.
        x = np.abs(np.random.default_rng(36).standard_normal((9, 256)))
        x = {"all_nonpositive": -x, "all_positive": x + 0.1, "all_zero": 0 * x}[case]
        dq = dfq_quantize(x, E1M2, E2M1, Granularity.per_token())
        wq = quantize(np.random.default_rng(37).standard_normal((11, 256)), E2M1, Granularity.per_channel())
        empty = [codes for codes, _, _ in dq.planes if not codes.any()]
        assert len(empty) == (2 if case == "all_zero" else 1)
        self._check(dq, wq, monkeypatch, empty)

    @pytest.mark.parametrize("n_pos, taken", [(63, True), (64, True), (65, False)])
    def test_density_bound_is_one_in_32(self, n_pos: int, taken: bool, monkeypatch) -> None:
        dq = dfq_quantize(_with_positives(n_pos), E1M2, E2M1, Granularity.per_token())
        assert np.count_nonzero(dq.pos_codes) == n_pos and dq.pos_codes.size == 32 * 64
        wq = quantize(np.random.default_rng(38).standard_normal((5, 64)), E2M1, Granularity.per_channel())
        self._check(dq, wq, monkeypatch, [dq.pos_codes] if taken else [])

    def test_fp6_planes_take_float64(self, monkeypatch) -> None:
        # 448 * 448 * 256 passes 2^24: a float32 sum would change bytes.
        dq = dfq_quantize(gelu_activations(39, (32, 256)), E2M3, E3M2, Granularity.per_token())
        wq = quantize(np.random.default_rng(40).standard_normal((8, 256)), E3M2, Granularity.per_channel())
        calls = self._check(dq, wq, monkeypatch, [dq.pos_codes])
        assert calls[0][1] == np.float64

    def test_overlapping_planes_stay_exact_past_2_24(self, monkeypatch) -> None:
        # E2M1 planes and weights: each plane's sums stay within 144 * width
        # < 2^24, so its product runs in float32.  Here the positive plane
        # also holds -6 at every 32nd column, so the planes' total,
        # -144 * (width - 1) - 1 - 144 * width / 32, passes 2^24.
        width = 116480
        neg = np.full((1, width), nearest_codes(E2M1, -6.0), np.uint8)
        neg[0, 0] = nearest_codes(E2M1, -0.5)
        pos = np.zeros_like(neg)
        pos[0, 1::32] = neg[0, 1]
        w = np.full((1, width), 6.0)
        w[0, 0] = 0.5
        g, wq = Granularity.per_token(), quantize(w, E2M1, Granularity.per_channel())
        dq = DfqResult(neg, pos, np.ones(1), np.ones(1), E2M1, E2M1, g, neg.shape)
        self._check(dq, wq, monkeypatch, [pos])
        want = 0.0 + emu_dot(neg[0], wq.codes[0], LUTS) * 0.25 + emu_dot(pos[0], wq.codes[0], LUTS) * 0.25
        assert emu_gemm(dq, wq, LUTS)[0, 0] == want

    @pytest.mark.parametrize("block", [1, 7, 40], ids=lambda b: f"block{b}")
    def test_any_slice_size(self, block: int, monkeypatch) -> None:
        x = gelu_activations(41, (13, 512)) * np.random.default_rng(42).uniform(0.1, 10, 512)
        dq = dfq_quantize(x, E1M2, E2M1, Granularity.per_token())
        wq = quantize(np.random.default_rng(43).standard_normal((11, 512)), E2M1, Granularity.per_channel())
        monkeypatch.setattr(formats, "_BLOCK", block)
        self._check(dq, wq, monkeypatch, [dq.pos_codes])

    @pytest.mark.parametrize("gx, gw", [
        (PT, PT),
        (Granularity.per_token(), Granularity.per_channel()),
    ], ids=["per_tensor", "per_token"])
    @pytest.mark.parametrize("case", ["sparse", "all_zero"])
    def test_sparse_single_plane(self, case: str, gx, gw, monkeypatch) -> None:
        # |x| > 2.6 keeps about 0.9% of a Gaussian sample.
        x = np.random.default_rng(49).standard_normal((24, 512))
        xq = quantize(np.where(np.abs(x) > 2.6, x, 0) if case == "sparse" else 0 * x, E2M1, gx)
        assert np.count_nonzero(xq.codes) <= xq.codes.size / 32
        wq = quantize(np.random.default_rng(50).standard_normal((16, 512)), E2M1, gw)
        self._check(xq, wq, monkeypatch, [xq.codes])

    @pytest.mark.parametrize("case", ["per_group", "balanced", "one_plane"])
    def test_other_inputs_keep_one_matmul_per_plane(self, case: str, monkeypatch) -> None:
        # Per group, a CSR product would build a rows x out output for every
        # group, which costs more than the dense matmul it saves.
        x = {"balanced": np.random.default_rng(44).standard_normal((9, 256))}.get(case, gelu_activations(45, (9, 256)))
        g = Granularity.per_group(128) if case == "per_group" else Granularity.per_token()
        xq = quantize(x, E2M1, g) if case == "one_plane" else dfq_quantize(x, E1M2, E2M1, g)
        w = np.random.default_rng(46).standard_normal((11, 256))
        wq = quantize(w, E2M1, g if case == "per_group" else Granularity.per_channel())
        self._check(xq, wq, monkeypatch, [])

    def test_peak_memory_within_the_per_plane_bound(self, monkeypatch) -> None:
        # The dense per-plane loop peaked 12.33 MiB beyond its 8 MiB output
        # at this shape (tracemalloc); ``out`` waits for the first product's
        # gathers to go, and each product goes before the next.
        dq = dfq_quantize(gelu_activations(47, (1024, 1024)), E1M2, E2M1, Granularity.per_token())
        wq = quantize(gaussian_channel_weights(48, 1024, 1024), E2M1, Granularity.per_channel())
        calls = _spy_sparse(monkeypatch)
        emu_gemm(dq, wq, LUTS)  # scipy.sparse loads outside the trace
        calls.clear()
        tracemalloc.start()
        try:
            out = emu_gemm(dq, wq, LUTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 1 and peak - out.nbytes <= 12.33 * 2**20


def _table_walk_row(xq, wq, t: int) -> np.ndarray:
    """Row ``t`` of ``emu_gemm``'s output from ``emu_dot`` over each per_group
    unit pair of each plane, rescaled in the GEMM's order; each dot is
    checked against the ``Fraction`` sum of its products."""
    width = wq.granularity.group_size
    n_groups = wq.codes.shape[1] // width
    sw = np.reshape(wq.scales, (-1, n_groups))
    row = np.zeros(wq.codes.shape[0])
    for o, w_codes in enumerate(wq.codes):
        for gi, c in enumerate(range(0, wq.codes.shape[1], width)):
            for codes, fmt, sx in xq.planes:
                a, b = codes[t, c:c + width], w_codes[c:c + width]
                k = _k(fmt) * _k(wq.format)
                dot = emu_dot(a, b, LUTS, fmt, wq.format)
                assert dot == k * sum(Fraction(decode_bits(fmt, int(p))) * Fraction(decode_bits(wq.format, int(q)))
                                      for p, q in zip(a, b))
                row[o] += dot * (np.reshape(sx, (-1, n_groups))[t, gi] * sw[o, gi]) * (1 / k)
    return row


class TestParitySuite:
    def test_verify_quantizer_parity(self) -> None:
        report = verify_quantizer_parity(50_000, seed=1, luts=LUTS)
        assert report["quantizer_parity"] == "pass"
        keys = [f.name for f in (*DFQ_CANDIDATE_FORMATS, E2M3, E3M2)] + [_pair_id(p) for p in SEARCH_PAIRS]
        assert list(report["mismatches"]) == list(report["addr_frac_bits"]) == keys
        assert set(report["mismatches"].values()) == {0} and report["scale_mismatches"] == []
        assert report["addr_frac_bits"]["E2M1"] == report["addr_frac_bits"]["E1M2/E2M1"] == 2
        assert report["addr_frac_bits"]["E3M0"] == report["addr_frac_bits"]["E1M2/E3M0"] == 3
        assert (report["addr_frac_bits"]["E2M3"], report["addr_frac_bits"]["E3M2"]) == (4, 5)

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
