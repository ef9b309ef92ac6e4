"""Sub-byte floating-point codecs.

Encode/decode and grid enumeration for EjMk micro-float formats (1 sign
bit, j exponent bits, k mantissa bits), following the OCP microscaling
encoding rule: normal values decode to (1 + M/2^k) * 2^(E-bias) and the
E == 0 field is subnormal, decoding to (M/2^k) * 2^(1-bias).  None of the
shipped formats reserve encodings for Inf or NaN, so every bit pattern
decodes to a finite real number.

The value grid is symmetric about zero and there are two zero encodings
(both sign values with E = M = 0); ``encode`` always emits the all-zeros
pattern so lookup tables never see the redundant code.

Rounding (``round_to_grid``, ``nearest_codes``) is one lookup, like a
hardware quantizer's LUT, addressed by the input's float64 sign, exponent
and top k + 1 mantissa bits plus one bit for "exactly on that bucket's
lower edge".  Every midpoint between grid neighbours has at most k + 1
significant bits, so it is such an edge.  Ties go to the even magnitude
code, the tie rule of the OCP microscaling formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "FpFormat",
    "FpCode",
    "FORMATS",
    "E1M2",
    "E2M1",
    "E3M0",
    "E2M3",
    "E3M2",
    "E3M4",
    "E4M3",
    "get_format",
    "grid_values",
    "max_value",
    "decode",
    "decode_bits",
    "encode",
    "nearest_codes",
    "round_to_grid",
    "code_dtype",
]


@dataclass(frozen=True)
class FpFormat:
    """An EjMk micro-float format descriptor."""

    name: str
    exp_bits: int
    man_bits: int
    bias: int

    def __post_init__(self) -> None:
        if self.exp_bits < 0 or self.man_bits < 0:
            raise ValueError(f"field widths must be non-negative: {self}")
        if self.exp_bits + self.man_bits == 0:
            raise ValueError("format needs at least one magnitude bit")

    @property
    def width(self) -> int:
        """Total code width in bits (sign + exponent + mantissa)."""
        return 1 + self.exp_bits + self.man_bits

    @property
    def code_count(self) -> int:
        return 1 << self.width


@dataclass(frozen=True)
class FpCode:
    """One encoded value: a bit pattern tied to its format."""

    bits: int
    format: FpFormat

    def __post_init__(self) -> None:
        if not 0 <= self.bits < self.format.code_count:
            raise ValueError(
                f"code {self.bits:#x} out of range for {self.format.name}"
            )


# Biases: E2M3, E3M2, and E4M3 follow the OCP MX definitions; E2M1 bias=1
# reproduces the reference FP4 grid, and E1M2 bias=0 / E3M0 bias=3 are the
# unique biases whose decoded grids match it as well.  E3M4 (bias 3) is the
# product format of the mixed-grid hardware path: four mantissa bits cover
# every E1M2 x E2M1 significand product exactly, which E4M3 cannot.
E1M2 = FpFormat("E1M2", 1, 2, 0)
E2M1 = FpFormat("E2M1", 2, 1, 1)
E3M0 = FpFormat("E3M0", 3, 0, 3)
E2M3 = FpFormat("E2M3", 2, 3, 1)
E3M2 = FpFormat("E3M2", 3, 2, 3)
E3M4 = FpFormat("E3M4", 3, 4, 3)
E4M3 = FpFormat("E4M3", 4, 3, 7)

FORMATS: dict[str, FpFormat] = {
    f.name: f for f in (E1M2, E2M1, E3M0, E2M3, E3M2, E3M4, E4M3)
}


def get_format(name: str) -> FpFormat:
    """Look up a shipped format by name, e.g. ``"E2M1"``."""
    try:
        return FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown format {name!r}; available: {sorted(FORMATS)}"
        ) from None


@lru_cache(maxsize=None)
def _magnitudes(fmt: FpFormat) -> np.ndarray:
    """Non-negative grid magnitudes, ascending.

    Index i equals the magnitude bits (E << k) | M of the code, so the
    position of a value in this table is also its code with sign 0.
    """
    k = fmt.man_bits
    idx = np.arange(1 << (fmt.exp_bits + k))
    exp = idx >> k
    mant = (idx & ((1 << k) - 1)) / (1 << k)
    vals = np.where(
        exp > 0,
        np.ldexp(1.0 + mant, exp - fmt.bias),
        np.ldexp(mant, 1 - fmt.bias),
    )
    vals.flags.writeable = False
    return vals


@lru_cache(maxsize=None)
def _decode_table(fmt: FpFormat) -> np.ndarray:
    """Decoded value for every bit pattern (negative zero decodes to +0)."""
    mags = _magnitudes(fmt)
    table = np.concatenate([mags, -mags])
    table[table == 0.0] = 0.0
    table.flags.writeable = False
    return table


def grid_values(fmt: FpFormat) -> np.ndarray:
    """All distinct decodable values, ascending (2**width - 1 of them)."""
    mags = _magnitudes(fmt)
    return np.concatenate([-mags[:0:-1], mags])


def max_value(fmt: FpFormat) -> float:
    """Largest representable magnitude of the format."""
    return float(_magnitudes(fmt)[-1])


def decode(code: FpCode) -> float:
    """Decode one code to its exact real value."""
    return float(_decode_table(code.format)[code.bits])


def decode_bits(fmt: FpFormat, bits):
    """Decode bit patterns (scalar or array) to values in ``fmt``."""
    table = _decode_table(fmt)
    arr = np.asarray(bits)
    if np.any(arr >= fmt.code_count) or np.any(arr < 0):
        raise ValueError(f"bit pattern out of range for {fmt.name}")
    out = table[arr]
    return float(out) if np.ndim(bits) == 0 else out


def encode(fmt: FpFormat, value: float) -> FpCode:
    """Encode a value that lies exactly on the grid of ``fmt``.

    Zero always encodes to the all-zeros pattern.  Off-grid values raise;
    callers that need rounding must go through ``round_to_grid`` first.
    """
    if not np.isfinite(value):
        raise ValueError(f"cannot encode non-finite value {value!r}")
    hits = np.flatnonzero(_magnitudes(fmt) == abs(value))
    if not hits.size:
        raise ValueError(f"{value!r} is not on the {fmt.name} grid")
    bits = int(hits[0])
    if value < 0 and bits > 0:
        bits |= 1 << (fmt.exp_bits + fmt.man_bits)
    return FpCode(bits, fmt)


def _rounding_tables(fmt: FpFormat) -> tuple[np.ndarray, np.ndarray]:
    """``(thresholds, codes)`` over the signed grid: the reference rounding
    that ``_bucket_codes`` evaluates once per bucket.

    ``codes`` are the canonical bit patterns of ``grid_values(fmt)``.
    Threshold i separates values i and i + 1: it is their midpoint, moved
    up one ulp when an exact tie belongs to value i, so ties go to the
    even magnitude code.  Counting from zero, the value with signed index
    j has magnitude code |j|, so neighbours have codes of opposite parity
    and the midpoints that move are those whose lower neighbour has an
    even signed index.  ``searchsorted(thresholds, x, side="right")`` is
    then the index of the value nearest x; inputs beyond the grid
    saturate to its ends.
    """
    mags = _magnitudes(fmt)
    n = len(mags)
    values = grid_values(fmt)
    sign = 1 << (fmt.exp_bits + fmt.man_bits)
    mag_codes = np.arange(n)
    codes = np.concatenate([mag_codes[:0:-1] | sign, mag_codes]).astype(code_dtype(fmt))
    thresholds = (values[:-1] + values[1:]) / 2
    lower = np.arange(len(thresholds)) - (n - 1)  # signed index of the value below
    even_below = lower % 2 == 0
    thresholds[even_below] = np.nextafter(thresholds[even_below], np.inf)
    return thresholds, codes


@lru_cache(maxsize=None)
def _bucket_codes(fmt: FpFormat) -> np.ndarray:
    """Read-only nearest code for every key that ``_nearest`` computes.

    Bucket i holds the float64 bit patterns i << s .. (i << s) + 2**s - 1
    with s = 51 - k; key 2i + 1 is its lower edge alone and key 2i the
    rest.  Each threshold is a midpoint, which is a bucket edge, or the
    float next to one, so it never parts two floats inside (edge, top]:
    the build checks that the float just above each finite bucket's edge
    rounds like its top.
    """
    thresholds, codes = _rounding_tables(fmt)
    s = 51 - fmt.man_bits
    edge = np.arange(1 << (64 - s), dtype=np.uint64) << s
    probes = np.stack([edge + 1, edge, edge | ((1 << s) - 1)]).view(np.float64)
    found = codes[np.searchsorted(thresholds, probes, side="right")]
    if np.any((found[0] != found[2]) & np.isfinite(probes[1])):
        raise RuntimeError(f"{fmt.name}: a rounding threshold falls inside a float64 bucket")
    table = found[:2].T.ravel()
    table.flags.writeable = False
    return table


def _nearest(fmt: FpFormat, x, op: str) -> np.ndarray:
    """Nearest code for each input, looked up by its float64 sign, exponent
    and top k + 1 mantissa bits, then 1 if the rest are zero."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{op} requires finite input")
    b = arr.view(np.uint64)
    s = 51 - fmt.man_bits
    key = b >> s
    key <<= 1
    key |= (b << (64 - s)) == 0
    return _bucket_codes(fmt).take(key.view(np.int64))


def round_to_grid(fmt: FpFormat, x):
    """Round scalars or arrays to the nearest grid value of ``fmt``.

    Saturates beyond +-max_value; exact ties resolve to the neighbor whose
    magnitude code is even, so the result is odd symmetric in the input.
    The result is the decoded ``nearest_codes`` (zero is always +0).
    """
    out = _decode_table(fmt).take(_nearest(fmt, x, "round_to_grid"))
    return float(out) if np.ndim(x) == 0 else out


def code_dtype(fmt: FpFormat) -> type:
    """Narrowest unsigned dtype that holds a code of ``fmt``."""
    if fmt.width <= 8:
        return np.uint8
    if fmt.width <= 16:
        return np.uint16
    return np.uint32


def nearest_codes(fmt: FpFormat, x) -> np.ndarray:
    """Bit patterns of the nearest grid values (canonical zero).

    Same rounding as ``round_to_grid`` but returning codes directly; this
    is the hot path used by the quantizers.
    """
    return _nearest(fmt, x, "nearest_codes")
