"""Codec tests: reference grids, roundtrips, and rounding properties."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fpq.formats import (
    E1M2,
    E2M1,
    E2M3,
    E3M0,
    E3M2,
    E3M4,
    E4M3,
    FORMATS,
    FpCode,
    FpFormat,
    _bucket_codes,
    _rounding_tables,
    decode,
    decode_bits,
    encode,
    get_format,
    grid_values,
    max_value,
    nearest_codes,
    round_to_grid,
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


class TestDecodeEncode:
    def test_decode_examples(self) -> None:
        assert decode(FpCode(0b0111, E2M1)) == 6.0
        assert decode(FpCode(0b1000, E2M1)) == 0.0  # negative-zero pattern
        assert decode(FpCode(0b000000, E3M2)) == 0.0  # subnormal zero

    def test_encode_examples(self) -> None:
        assert encode(E2M1, 6.0).bits == 0b0111
        assert encode(E2M1, 0.0).bits == 0b0000
        assert encode(E3M0, 0.25).bits == 0b0001

    def test_encode_rejects_off_grid(self) -> None:
        with pytest.raises(ValueError, match="not on the E2M1 grid"):
            encode(E2M1, 5.0)
        with pytest.raises(ValueError, match="non-finite"):
            encode(E2M1, float("nan"))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_roundtrip_every_code(self, fmt: FpFormat) -> None:
        neg_zero = 1 << (fmt.width - 1)
        for bits in range(fmt.code_count):
            value = decode(FpCode(bits, fmt))
            back = encode(fmt, value)
            canonical = 0 if bits == neg_zero else bits
            assert back.bits == canonical

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_decode_monotone_in_magnitude_bits(self, fmt: FpFormat) -> None:
        mag_codes = np.arange(1 << (fmt.exp_bits + fmt.man_bits))
        vals = decode_bits(fmt, mag_codes)
        assert np.all(np.diff(vals) > 0)

    def test_decode_bits_range_check(self) -> None:
        with pytest.raises(ValueError, match="out of range"):
            decode_bits(E2M1, 16)

    def test_code_out_of_range(self) -> None:
        with pytest.raises(ValueError, match="out of range"):
            FpCode(0b10000, E2M1)


class TestRoundToGrid:
    def test_examples(self) -> None:
        assert round_to_grid(E2M1, 5.1) == 6.0
        assert round_to_grid(E2M1, 5.0) == 4.0  # tie; code of 4 has even LSB
        assert round_to_grid(E2M1, 100.0) == 6.0  # saturation
        assert round_to_grid(E2M1, -100.0) == -6.0

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="finite"):
            round_to_grid(E2M1, float("inf"))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_all_midpoint_ties(self, fmt: FpFormat) -> None:
        g = grid_values(fmt)
        mids = (g[:-1] + g[1:]) / 2
        for m in mids:
            assert round_to_grid(fmt, float(m)) == _nearest_by_scan(fmt, float(m))

    @pytest.mark.parametrize("fmt", [E1M2, E2M1, E3M0, E2M3], ids=lambda f: f.name)
    def test_nearest_against_scan_oracle(self, fmt: FpFormat) -> None:
        rng = np.random.default_rng(42)
        xs = rng.uniform(-1.5 * max_value(fmt), 1.5 * max_value(fmt), 500)
        for x in xs:
            assert round_to_grid(fmt, float(x)) == _nearest_by_scan(fmt, float(x))

    def test_nearest_property(self) -> None:
        rng = np.random.default_rng(7)
        xs = rng.uniform(-6, 6, 1000)
        grid = grid_values(E2M1)
        r = round_to_grid(E2M1, xs)
        for x, v in zip(xs, r):
            assert abs(x - v) <= np.abs(x - grid).min() + 1e-15

    def test_idempotent(self) -> None:
        rng = np.random.default_rng(3)
        xs = rng.uniform(-10, 10, 1000)
        once = round_to_grid(E2M1, xs)
        np.testing.assert_array_equal(round_to_grid(E2M1, once), once)

    def test_odd_symmetry(self) -> None:
        rng = np.random.default_rng(5)
        xs = np.concatenate([rng.uniform(-8, 8, 1000), (grid_values(E2M1)[:-1] + grid_values(E2M1)[1:]) / 2])
        np.testing.assert_array_equal(round_to_grid(E2M1, -xs), -round_to_grid(E2M1, xs))

    def test_scalar_and_array_agree(self) -> None:
        xs = np.linspace(-7, 7, 113)
        arr = round_to_grid(E2M1, xs)
        for x, v in zip(xs, arr):
            assert round_to_grid(E2M1, float(x)) == v

    def test_nearest_codes_matches_round(self) -> None:
        rng = np.random.default_rng(11)
        xs = rng.uniform(-8, 8, 2000)
        codes = nearest_codes(E2M1, xs)
        np.testing.assert_array_equal(decode_bits(E2M1, codes), round_to_grid(E2M1, xs))
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
        got = round_to_grid(fmt, xs)
        np.testing.assert_array_equal(got, want)
        assert not np.any(np.signbit(got) & (got == 0))  # zero is always +0
        codes = nearest_codes(fmt, xs)
        assert codes.dtype == np.uint8
        assert codes.tolist() == [encode(fmt, v).bits for v in want]

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(data=st.data())
    def test_scalar_matches_array(self, fmt: FpFormat, data) -> None:
        x = data.draw(_rounding_inputs(fmt))
        assert round_to_grid(fmt, x) == round_to_grid(fmt, np.array([x]))[0]
        assert nearest_codes(fmt, x) == nearest_codes(fmt, np.array([x]))[0]

    def test_rejects_non_finite(self) -> None:
        with pytest.raises(ValueError, match="nearest_codes requires finite"):
            nearest_codes(E2M1, np.array([1.0, np.nan]))

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20))
    def test_raw_bit_patterns_match_scan_oracle(self, fmt: FpFormat, bits) -> None:
        xs = np.array(bits, dtype=np.uint64).view(np.float64)
        xs = xs[np.isfinite(xs)]
        want = [_nearest_by_scan(fmt, x) for x in xs]
        assert round_to_grid(fmt, xs).tolist() == want
        assert nearest_codes(fmt, xs).tolist() == [encode(fmt, v).bits for v in want]


def _bucket_probes(fmt: FpFormat) -> np.ndarray:
    """Every finite float64 bucket's lower edge, the floats on either side of
    it, and its top float (buckets as in ``formats._bucket_codes``)."""
    s = 51 - fmt.man_bits
    edge = np.arange(1 << (64 - s), dtype=np.uint64) << s
    probes = np.concatenate([edge, edge - 1, edge + 1, edge | ((1 << s) - 1)]).view(np.float64)
    return probes[np.isfinite(probes)]


class TestBucketTable:
    """The bit-addressed table against the threshold search it is built from."""

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_every_bucket_matches_threshold_search(self, fmt: FpFormat) -> None:
        xs = _bucket_probes(fmt)
        thresholds, codes = _rounding_tables(fmt)
        want = codes[np.searchsorted(thresholds, xs, side="right")]
        np.testing.assert_array_equal(nearest_codes(fmt, xs), want)
        table = _bucket_codes(fmt)
        assert table.dtype == np.uint8 and len(table) == 1 << (14 + fmt.man_bits)
        assert not table.flags.writeable

    @pytest.mark.parametrize("fmt", ALL_FORMATS, ids=lambda f: f.name)
    def test_round_is_decoded_codes(self, fmt: FpFormat) -> None:
        xs = np.concatenate([_bucket_probes(fmt)[::7], grid_values(fmt)])
        np.testing.assert_array_equal(round_to_grid(fmt, xs), decode_bits(fmt, nearest_codes(fmt, xs)))

    @pytest.mark.parametrize("fmt", [E2M1, E3M4], ids=lambda f: f.name)
    def test_layouts(self, fmt: FpFormat) -> None:
        rng = np.random.default_rng(9)
        x = rng.uniform(-2, 2, (6, 10)) * max_value(fmt)
        want = np.array([[_nearest_by_scan(fmt, v) for v in row] for row in x])
        for view, ref in ((x.astype(">f8"), want), (x[::2, 1::3], want[::2, 1::3]), (x.T, want.T)):
            np.testing.assert_array_equal(round_to_grid(fmt, view), ref)
            np.testing.assert_array_equal(decode_bits(fmt, nearest_codes(fmt, view)), ref)
        zero_d = np.asarray(x[1, 2])
        assert round_to_grid(fmt, zero_d) == want[1, 2]
        assert decode_bits(fmt, int(nearest_codes(fmt, zero_d))) == want[1, 2]
        assert np.ndim(nearest_codes(fmt, zero_d)) == 0

    def test_build_rejects_thresholds_inside_a_bucket(self) -> None:
        # Grid values near 2^-1070 sit among float64 subnormals, whose buckets
        # are too coarse to hold the midpoints.
        with pytest.raises(RuntimeError, match="inside a float64 bucket"):
            _bucket_codes(FpFormat("E2M3_tiny", 2, 3, 1070))


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
        with pytest.raises(ValueError, match="not on the E4M3 grid"):
            encode(E4M3, 21.0)
