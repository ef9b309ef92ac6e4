"""Codec tests: reference grids, roundtrips, and rounding properties."""

from __future__ import annotations

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpq import formats
from fpq.formats import (
    E1M2,
    E2M1,
    E2M3,
    E3M0,
    E3M2,
    E3M4,
    E4M3,
    FORMATS,
    FpFormat,
    _bucket_codes,
    _decode_table,
    _nearest,
    _round,
    _rounding_tables,
    _slices,
    _value_table,
    decode_bits,
    get_format,
    grid_values,
    max_value,
    nearest_codes,
)

# Reference FP4 value grids, one row per format (goldens).
TABLE_FP4 = {
    "E1M2": [-3.5, -3, -2.5, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 2.5, 3, 3.5],
    "E2M1": [-6, -4, -3, -2, -1.5, -1, -0.5, 0, 0.5, 1, 1.5, 2, 3, 4, 6],
    "E3M0": [-16, -8, -4, -2, -1, -0.5, -0.25, 0, 0.25, 0.5, 1, 2, 4, 8, 16],
}

ALL_FORMATS = sorted(FORMATS.values(), key=lambda f: f.name)


def _nearest_by_scan(fmt: FpFormat, x: float) -> float:
    """Independent nearest-grid oracle with the even-magnitude-code tie rule."""
    grid = grid_values(fmt)
    d = np.abs(grid - np.clip(x, grid[0], grid[-1]))
    candidates = grid[d == d.min()]
    if len(candidates) == 1:
        return float(candidates[0])
    # Tie: the winner is the value whose magnitude index is even.
    mags = grid[grid >= 0]
    for v in candidates:
        idx = int(np.searchsorted(mags, abs(v)))
        if idx % 2 == 0:
            return float(v)
    raise AssertionError("no even-code candidate at a tie")


class TestGrids:
    @pytest.mark.parametrize("name", sorted(TABLE_FP4))
    def test_fp4_reference_values(self, name: str) -> None:
        got = grid_values(get_format(name))
        assert got.tolist() == pytest.approx(TABLE_FP4[name])
        assert len(got) == 15

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_grid_size_and_order(self, fmt: FpFormat) -> None:
        g = grid_values(fmt)
        assert len(g) == fmt.code_count - 1  # two zero codes collapse
        assert np.all(np.diff(g) > 0)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_grid_symmetry(self, fmt: FpFormat) -> None:
        g = grid_values(fmt)
        np.testing.assert_array_equal(g, -g[::-1])

    def test_max_values(self) -> None:
        assert max_value(E2M1) == 6.0
        assert max_value(E3M2) == 28.0
        assert max_value(E1M2) == 3.5
        assert max_value(E3M0) == 16.0
        assert max_value(E2M3) == 7.5

    def test_unknown_format(self) -> None:
        with pytest.raises(ValueError, match="unknown format"):
            get_format("E9M9")

    def test_registry_names(self) -> None:
        for name in ("E1M2", "E2M1", "E3M0", "E2M3", "E3M2", "E4M3"):
            assert get_format(name).name == name


def _codes_of(fmt: FpFormat, values) -> list[int]:
    """Canonical codes of on-grid values, by their place in ``grid_values``:
    the code list of the threshold search in ``_rounding_tables``."""
    return _rounding_tables(fmt)[1][np.searchsorted(grid_values(fmt), values)].tolist()


class TestDecodeEncode:
    def test_decode_examples(self) -> None:
        assert decode_bits(E2M1, 0b0111) == 6.0
        assert decode_bits(E2M1, 0b1000) == 0.0  # negative-zero pattern
        assert decode_bits(E3M2, 0b000000) == 0.0  # subnormal zero

    def test_encode_examples(self) -> None:
        assert nearest_codes(E2M1, 6.0) == 0b0111
        assert nearest_codes(E2M1, 0.0) == nearest_codes(E2M1, -0.0) == 0b0000
        assert nearest_codes(E3M0, 0.25) == 0b0001
        assert nearest_codes(E2M1, -6.0) == 0b1111

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_roundtrip_every_code(self, fmt: FpFormat) -> None:
        bits = np.arange(fmt.code_count)
        neg_zero = 1 << (fmt.width - 1)
        back = nearest_codes(fmt, decode_bits(fmt, bits))
        assert back.tolist() == np.where(bits == neg_zero, 0, bits).tolist()
        assert back.tolist() == _codes_of(fmt, decode_bits(fmt, bits))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_decode_monotone_in_magnitude_bits(self, fmt: FpFormat) -> None:
        mag_codes = np.arange(1 << (fmt.exp_bits + fmt.man_bits))
        vals = decode_bits(fmt, mag_codes)
        assert np.all(np.diff(vals) > 0)

    def test_decode_bits_range_check(self) -> None:
        with pytest.raises(ValueError, match="out of range"):
            decode_bits(E2M1, 16)


class TestRoundToGrid:
    """Rounding through the array API: ``decode_bits`` of ``nearest_codes``."""

    def test_examples(self) -> None:
        assert decode_bits(E2M1, nearest_codes(E2M1, 5.1)) == 6.0
        assert decode_bits(E2M1, nearest_codes(E2M1, 5.0)) == 4.0  # tie; code of 4 has even LSB
        assert decode_bits(E2M1, nearest_codes(E2M1, 100.0)) == 6.0  # saturation
        assert decode_bits(E2M1, nearest_codes(E2M1, -100.0)) == -6.0

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="finite"):
            nearest_codes(E2M1, float("inf"))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_all_midpoint_ties(self, fmt: FpFormat) -> None:
        g = grid_values(fmt)
        mids = (g[:-1] + g[1:]) / 2
        got = decode_bits(fmt, nearest_codes(fmt, mids))
        assert got.tolist() == [_nearest_by_scan(fmt, float(m)) for m in mids]

    @pytest.mark.parametrize("fmt", [E1M2, E2M1, E3M0, E2M3], ids=lambda f: f.name)
    def test_nearest_against_scan_oracle(self, fmt: FpFormat) -> None:
        rng = np.random.default_rng(42)
        xs = rng.uniform(-1.5 * max_value(fmt), 1.5 * max_value(fmt), 500)
        got = decode_bits(fmt, nearest_codes(fmt, xs))
        assert got.tolist() == [_nearest_by_scan(fmt, float(x)) for x in xs]

    def test_nearest_property(self) -> None:
        rng = np.random.default_rng(7)
        xs = rng.uniform(-6, 6, 1000)
        grid = grid_values(E2M1)
        r = decode_bits(E2M1, nearest_codes(E2M1, xs))
        for x, v in zip(xs, r):
            assert abs(x - v) <= np.abs(x - grid).min() + 1e-15

    def test_idempotent(self) -> None:
        rng = np.random.default_rng(3)
        xs = rng.uniform(-10, 10, 1000)
        codes = nearest_codes(E2M1, xs)
        np.testing.assert_array_equal(nearest_codes(E2M1, decode_bits(E2M1, codes)), codes)

    def test_odd_symmetry(self) -> None:
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.uniform(-8, 8, 1000), (grid_values(E2M1)[:-1] + grid_values(E2M1)[1:]) / 2])
        np.testing.assert_array_equal(decode_bits(E2M1, nearest_codes(E2M1, -xs)),
                                      -decode_bits(E2M1, nearest_codes(E2M1, xs)))

    def test_scalar_and_array_agree(self) -> None:
        xs = np.linspace(-7, 7, 113)
        codes = nearest_codes(E2M1, xs)
        for x, c in zip(xs, codes):
            assert nearest_codes(E2M1, float(x)) == c

    def test_nearest_codes_matches_round(self) -> None:
        rng = np.random.default_rng(11)
        xs = rng.uniform(-8, 8, 2000)
        codes = nearest_codes(E2M1, xs)
        np.testing.assert_array_equal(decode_bits(E2M1, codes), _round(E2M1, xs))
        assert codes.dtype == np.uint8
        assert 0b1000 not in codes  # canonical zero only


def _rounding_inputs(fmt: FpFormat) -> st.SearchStrategy[float]:
    """Exact midpoints and their float neighbours, signed zeros,
    subnormals, values past +-max, and arbitrary finite floats."""
    g = grid_values(fmt)
    mids = st.sampled_from(((g[:-1] + g[1:]) / 2).tolist())
    beside_mid = st.builds(
        lambda m, up: float(np.nextafter(m, np.inf if up else -np.inf)), mids, st.booleans()
    )
    tiny = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310])
    top = float(g[-1])
    beyond = st.builds(
        lambda v, neg: -v if neg else v,
        st.floats(np.nextafter(top, np.inf), 1e300),
        st.booleans(),
    )
    return st.one_of(
        mids,
        beside_mid,
        tiny,
        beyond,
        st.floats(-2 * top, 2 * top),
        st.floats(allow_nan=False, allow_infinity=False),
    )


class TestRoundingProperties:
    """The bucket-table kernel against the independent scan oracle."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    def test_matches_scan_oracle(self, fmt: FpFormat, data) -> None:
        xs = np.array(data.draw(st.lists(_rounding_inputs(fmt), min_size=1, max_size=20)))
        want = np.array([_nearest_by_scan(fmt, x) for x in xs])
        codes = nearest_codes(fmt, xs)
        got = decode_bits(fmt, codes)
        np.testing.assert_array_equal(got, want)
        assert not np.any(np.signbit(got) & (got == 0))  # zero is always +0
        assert codes.dtype == np.uint8
        assert codes.tolist() == _codes_of(fmt, want)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    def test_scalar_matches_array(self, fmt: FpFormat, data) -> None:
        x = data.draw(_rounding_inputs(fmt))
        code = nearest_codes(fmt, x)
        assert np.ndim(code) == 0 and code == nearest_codes(fmt, np.array([x]))[0]
        assert decode_bits(fmt, code) == _nearest_by_scan(fmt, x)

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="nearest_codes requires finite"):
            nearest_codes(E2M1, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_raw_bit_patterns_match_scan_oracle(self, fmt: FpFormat, bits) -> None:
        xs = np.array(bits, dtype=np.uint64).view(np.float64)
        xs = xs[np.isfinite(xs)]
        want = [_nearest_by_scan(fmt, x) for x in xs]
        codes = nearest_codes(fmt, xs)
        assert decode_bits(fmt, codes).tolist() == want
        assert codes.tolist() == _codes_of(fmt, want)

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    def test_value_lookup_is_the_decoded_code_lookup(self, fmt: FpFormat, data) -> None:
        finite_bits = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)
        near_grid = _rounding_inputs(fmt).map(lambda v: int(np.float64(v).view(np.uint64)))
        bits = data.draw(st.lists(st.one_of(finite_bits, near_grid), min_size=1, max_size=20))
        xs = np.array(bits, dtype=np.uint64).view(np.float64)
        want = _decode_table(fmt).take(_nearest(fmt, fmt, xs))
        assert _round(fmt, xs).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _bucket_probes(man_bits: int) -> np.ndarray:
    """Every finite float64 bucket's lower edge, the floats on either side of
    it, and its top float (buckets as in ``formats._bucket_codes`` at k =
    ``man_bits``)."""
    s = 51 - man_bits
    edge = np.arange(1 << (64 - s), dtype=np.uint64) << s
    probes = np.concatenate([edge, edge - 1, edge + 1, edge | ((1 << s) - 1)]).view(np.float64)
    return probes[np.isfinite(probes)]


class TestBucketTable:
    """The bit-addressed table against the threshold search it is built from."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_every_bucket_matches_threshold_search(self, fmt: FpFormat) -> None:
        xs = _bucket_probes(fmt.man_bits)
        thresholds, codes = _rounding_tables(fmt)
        want = codes[np.searchsorted(thresholds, xs, side="right")]
        np.testing.assert_array_equal(nearest_codes(fmt, xs), want)
        table = _bucket_codes(fmt, fmt)
        assert table.dtype == np.uint8 and len(table) == 1 << (14 + fmt.man_bits)
        assert not table.flags.writeable

    @pytest.mark.parametrize("neg, pos", list(itertools.product(ALL_FORMATS, repeat=2)),
                             ids=lambda f: f.name)
    def test_pair_table_halves_match_threshold_search(self, neg: FpFormat, pos: FpFormat) -> None:
        k = max(neg.man_bits, pos.man_bits)
        xs = _bucket_probes(k)
        for fmt, half in ((neg, np.signbit(xs)), (pos, ~np.signbit(xs))):
            thresholds, codes = _rounding_tables(fmt)
            want = codes[np.searchsorted(thresholds, xs[half], side="right")]
            np.testing.assert_array_equal(_nearest(neg, pos, xs[half]), want)
        table = _bucket_codes(neg, pos)
        assert len(table) == 1 << (14 + k) and not table.flags.writeable

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_round_is_decoded_codes(self, fmt: FpFormat) -> None:
        xs = np.concatenate([_bucket_probes(fmt.man_bits)[::7], grid_values(fmt)])
        np.testing.assert_array_equal(_round(fmt, xs), decode_bits(fmt, nearest_codes(fmt, xs)))

    @pytest.mark.parametrize("fmt", [E2M1, E3M4], ids=lambda f: f.name)
    def test_layouts(self, fmt: FpFormat) -> None:
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, (6, 10)) * max_value(fmt)
        want = np.array([[_nearest_by_scan(fmt, v) for v in row] for row in x])
        for view, ref in ((x.astype(">f8"), want), (x[::2, 1::3], want[::2, 1::3]), (x.T, want.T)):
            np.testing.assert_array_equal(decode_bits(fmt, nearest_codes(fmt, view)), ref)
        zero_d = np.asarray(x[1, 2])
        assert decode_bits(fmt, int(nearest_codes(fmt, zero_d))) == want[1, 2]
        assert np.ndim(nearest_codes(fmt, zero_d)) == 0

    def test_build_rejects_thresholds_inside_a_bucket(self) -> None:
        # Grid values near 2^-1070 sit among float64 subnormals, whose buckets
        # are too coarse to hold the midpoints.
        tiny = FpFormat("E2M3_tiny", 2, 3, 1070)
        with pytest.raises(RuntimeError, match="inside a float64 bucket"):
            _bucket_codes(tiny, tiny)


def _whole_key(x, k: int) -> np.ndarray:
    """The 3-op key over a whole array at once: the oracle for the slices."""
    b = np.asarray(x, dtype=np.float64).view(np.uint64)
    s = np.uint64(51 - k)
    return ((b >> s) + ((b + np.uint64((1 << (51 - k)) - 1)) >> s)).view(np.int64)


def _five_op_key(x, k: int) -> np.ndarray:
    """The earlier key: bucket i << 1, or-ed with 1 on the bucket's lower edge."""
    b = np.asarray(x, dtype=np.float64).view(np.uint64)
    s = 51 - k
    return (((b >> s) << 1) | ((b << (64 - s)) == 0)).view(np.int64)


_PAIRS = list(itertools.product([E1M2, E2M1, E3M0], repeat=2))
_FINITE_BITS = st.integers(0, 2**64 - 1).filter(lambda b: (b >> 52) & 0x7FF != 0x7FF)


def _block_lengths(block: int) -> st.SearchStrategy[int]:
    """1, block - 1, block, block + 1 and k * block + r."""
    edges = st.sampled_from(sorted({1, max(block - 1, 1), block, block + 1}))
    many = st.builds(lambda k, r: k * block + r, st.integers(2, 4), st.integers(0, block - 1))
    return st.one_of(edges, many)


def _layouts(x: np.ndarray) -> list[np.ndarray]:
    """x as float64 and big-endian, a strided and a transposed view of it."""
    x2 = x.reshape(1, -1) if len(x) % 2 else x.reshape(2, -1)
    return [x, x.astype(">f8"), np.repeat(x, 2)[::2], x2.T]


class TestSlices:
    """The one slice walk: whole rows, about ``_BLOCK`` elements a slice and
    at least one row, a short tail, and one scratch buffer per dtype."""

    @pytest.mark.parametrize("shape, step", [
        ((0, 4), 4),  # no rows, no slices
        ((8, 4), 4),  # a row count that is a multiple of the step
        ((10, 4), 4),  # a tail slice of 2 rows
        ((3, 40), 1),  # a row wider than _BLOCK is a slice alone
        ((37,), 16),  # 1-D: one element a row, with a tail of 5
    ], ids=str)
    def test_rows_and_scratch(self, shape, step) -> None:
        with mock.patch.object(formats, "_BLOCK", 16):
            walk = list(_slices(shape, np.float64, np.int64))
        n = shape[0]
        assert [rows for rows, *_ in walk] == [slice(r0, r0 + step) for r0 in range(0, n, step)]
        for rows, *scratch in walk:
            assert [(b.shape, b.dtype) for b in scratch] == [
                ((len(range(n)[rows]), *shape[1:]), np.dtype(t)) for t in (np.float64, np.int64)]
        for i in (1, 2):  # every slice's scratch is a view of the dtype's one buffer
            bases = {id(part[i].base) for part in walk}
            assert len(bases) == min(len(walk), 1)
            assert all(part[i].base.shape == (min(step, n), *shape[1:]) for part in walk)
        if walk:
            assert walk[0][1].base is not walk[0][2].base


class TestBlockedKernel:
    """The slice-by-slice kernel against the whole-array expressions of the
    same lookup, across slice boundaries and memory layouts."""

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_three_op_key_is_the_five_op_key_with_its_low_bit_flipped(self, bits) -> None:
        xs = np.array(bits, dtype=np.uint64).view(np.float64)
        xs = xs[np.isfinite(xs)]
        for k in range(5):
            assert (_whole_key(xs, k) == _five_op_key(xs, k) ^ 1).all()

    @given(data=st.data())
    def test_flat_slices_match_whole_array(self, data) -> None:
        block = data.draw(st.sampled_from([1, 3, 8]))
        n = data.draw(_block_lengths(block))
        fmt = data.draw(st.sampled_from(ALL_FORMATS))
        neg, pos = data.draw(st.sampled_from(_PAIRS))
        values = st.one_of(_rounding_inputs(fmt), _FINITE_BITS.map(lambda b: float(np.uint64(b).view(np.float64))))
        x = data.draw(arrays(np.float64, n, elements=values))
        k = max(neg.man_bits, pos.man_bits)
        with mock.patch.object(formats, "_BLOCK", block):
            for view in _layouts(x):
                native = np.asarray(view, dtype=np.float64)  # the kernel reads native bits
                codes, vals = _nearest(neg, pos, native), _round(fmt, native)
                assert codes.shape == vals.shape == view.shape
                assert codes.tolist() == _bucket_codes(neg, pos).take(_whole_key(view, k)).tolist()
                want = _value_table(fmt).take(_whole_key(view, fmt.man_bits))
                assert vals.view(np.uint64).tolist() == want.view(np.uint64).tolist()
                want_codes = _bucket_codes(fmt, fmt).take(_whole_key(view, fmt.man_bits))
                assert nearest_codes(fmt, view).tolist() == want_codes.tolist()
            zero_d = np.asarray(x[0])
            assert _nearest(neg, pos, zero_d).shape == _round(fmt, zero_d).shape == ()

    @given(data=st.data())
    def test_scaled_row_slices_match_whole_array(self, data) -> None:
        block = data.draw(st.sampled_from([1, 3, 8, 20]))
        rows, cols = data.draw(_block_lengths(block)), data.draw(st.integers(1, 6))
        fmt = data.draw(st.sampled_from(ALL_FORMATS))
        neg, pos = data.draw(st.sampled_from(_PAIRS))
        x = data.draw(arrays(np.float64, (rows, cols), elements=st.floats(-1e6, 1e6)))
        s = data.draw(arrays(np.float64, (rows, 1), elements=st.floats(1e-3, 1e3)))
        for scale in (s, s.repeat(cols, axis=1)):  # per-row and per-element scales
            with mock.patch.object(formats, "_BLOCK", block):
                codes = _nearest(neg, pos, x, lambda r: scale[r])
                vals = _round(fmt, x, lambda r: scale[r])
            k = max(neg.man_bits, pos.man_bits)
            assert codes.tolist() == _bucket_codes(neg, pos).take(_whole_key(x / scale, k)).tolist()
            want = _value_table(fmt).take(_whole_key(x / scale, fmt.man_bits)) * scale
            assert vals.view(np.uint64).tolist() == want.view(np.uint64).tolist()

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2 * formats._BLOCK + 5], ids=lambda o: f"block{o:+d}")
    def test_real_block_size(self, offset: int) -> None:
        x = np.random.default_rng(offset + 7).standard_normal(formats._BLOCK + offset) * 4
        assert nearest_codes(E2M1, x).tolist() == _bucket_codes(E2M1, E2M1).take(_whole_key(x, 1)).tolist()
        cols = 300  # rows per slice do not divide the row count
        x2 = x[: len(x) // cols * cols].reshape(-1, cols)
        s = np.abs(x2).max(axis=1, keepdims=True) / 6
        want = _value_table(E2M1).take(_whole_key(x2 / s, 1)) * s
        got = _round(E2M1, x2, lambda r: s[r])
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


class TestProductFormats:
    """The product formats must hold every pairwise grid product exactly."""

    def test_e4m3_holds_all_e2m1_products(self) -> None:
        g = grid_values(E2M1)
        table = set(grid_values(E4M3).tolist())
        for a in g:
            for b in g:
                assert a * b in table

    def test_e3m4_holds_all_mixed_products(self) -> None:
        table = set(grid_values(E3M4).tolist())
        for a in grid_values(E1M2):
            for b in grid_values(E2M1):
                assert a * b in table

    def test_e4m3_cannot_hold_mixed_products(self) -> None:
        # 3.5 * 6 = 21 = 2^4 * 1.3125 needs four mantissa bits.
        assert 21.0 not in set(grid_values(E4M3).tolist())
        assert decode_bits(E4M3, nearest_codes(E4M3, 21.0)) == 20.0
