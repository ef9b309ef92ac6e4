"""Sub-byte floating-point codecs.

Grids, decoding and nearest-grid rounding for EjMk micro-float formats (1
sign bit, j exponent bits, k mantissa bits), following the OCP microscaling
encoding rule: normal values decode to (1 + M/2^k) * 2^(E-bias) and the
E == 0 field is subnormal, decoding to (M/2^k) * 2^(1-bias).  None of the
shipped formats reserve encodings for Inf or NaN, so every bit pattern
decodes to a finite real number.

The value grid is symmetric about zero and there are two zero encodings
(both sign values with E = M = 0); ``nearest_codes`` always emits the
all-zeros pattern, so ``decode_bits(fmt, nearest_codes(fmt, x))`` is x
rounded to the grid and lookup tables never see the redundant code.

Rounding is one lookup, like a hardware quantizer's LUT, keyed by three
integer ops on the float64 bits: 2i on the lower edge of bucket i (the
inputs that share sign, exponent and top k + 1 mantissa bits) and 2i + 1
inside it.  Every midpoint between grid neighbours has at most k + 1
significant bits, so it is such an edge.  Ties go to the even magnitude
code, the tie rule of the OCP microscaling formats.  The sign bit of the
key selects the grid: a pair table rounds the key half with it clear like
a positive format and the other half like a negative one, both at the
wider k; dual format quantization rounds through one.  The kernel
(``_lookup``) divides, keys and looks up one slice of about ``_BLOCK``
elements at a time in two reused scratch buffers, so its output is the
only full-size array it makes.  ``_slices`` is that walk, and every sliced
kernel of ``fpq`` runs on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

__all__ = [
    "FpFormat",
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
    "decode_bits",
    "nearest_codes",
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


# Biases: E2M3, E3M2, and E4M3 follow the OCP MX definitions; E2M1 bias=1
# reproduces the reference FP4 grid, and E1M2 bias=0 / E3M0 bias=3 are the
# unique biases whose decoded grids match it as well.
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


def _checked_table(fmt: FpFormat, bits: np.ndarray) -> np.ndarray:
    """``_decode_table(fmt)``, once every bit pattern in ``bits`` is in range."""
    if bits.size and (bits.max() >= fmt.code_count or (bits.dtype.kind != "u" and bits.min() < 0)):
        raise ValueError(f"bit pattern out of range for {fmt.name}")
    return _decode_table(fmt)


def decode_bits(fmt: FpFormat, bits):
    """Decode bit patterns (scalar or array) to values in ``fmt``."""
    arr = np.asarray(bits)
    out = _checked_table(fmt, arr)[arr]
    return float(out) if np.ndim(bits) == 0 else out


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
    codes = np.concatenate([mag_codes[:0:-1] | sign, mag_codes]).astype(np.min_scalar_type(fmt.code_count - 1))
    thresholds = (values[:-1] + values[1:]) / 2
    lower = np.arange(len(thresholds)) - (n - 1)  # signed index of the value below
    even_below = lower % 2 == 0
    thresholds[even_below] = np.nextafter(thresholds[even_below], np.inf)
    return thresholds, codes


@lru_cache(maxsize=None)
def _bucket_codes(neg: FpFormat, pos: FpFormat) -> np.ndarray:
    """Read-only nearest code for every key that ``_nearest`` computes: keys
    with the float64 sign bit set round like ``neg``, the rest like ``pos``.

    Bucket i holds the float64 bit patterns i << s .. (i << s) + 2**s - 1
    with s = 51 - k, k the wider mantissa of the two formats; key 2i is its
    lower edge alone and key 2i + 1 the rest.  Each threshold is a midpoint,
    which is a bucket edge, or the float next to one, so it never parts two
    floats inside (edge, top]: the build checks that the float just above
    each finite bucket's edge rounds like its top.
    """
    s = 51 - max(neg.man_bits, pos.man_bits)
    edge = np.arange(1 << (64 - s), dtype=np.uint64) << s
    probes = np.stack([edge, edge + 1, edge | ((1 << s) - 1)]).view(np.float64)
    half = len(edge) // 2
    halves = []
    for fmt, part in ((pos, probes[:, :half]), (neg, probes[:, half:])):
        thresholds, codes = _rounding_tables(fmt)
        halves.append(codes[np.searchsorted(thresholds, part, side="right")])
    found = np.concatenate(halves, axis=1)
    if np.any((found[1] != found[2]) & np.isfinite(probes[0])):
        raise RuntimeError(f"{neg.name}/{pos.name}: a rounding threshold falls inside a float64 bucket")
    table = found[:2].T.ravel()
    table.flags.writeable = False
    return table


def _finite(x, op: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{op} requires finite input")
    return arr


# Elements per ``_slices`` slice: the lookup kernel's quotient and key
# scratch (16 bytes an element) and the slice's input and output stay in L2.
_BLOCK = 1 << 15


def _slices(shape: tuple[int, ...], *dtypes) -> Iterator[tuple]:
    """``(rows, *scratch)`` for each slice of whole rows of ``shape`` (a 1-D
    shape has one element a row): about ``_BLOCK`` elements, at least one
    row.  Each dtype has one buffer, made as the walk starts and reused: its
    scratch is that buffer cut to the slice's rows."""
    step = max(1, _BLOCK // math.prod(shape[1:]))
    bufs = [np.empty((min(step, shape[0]), *shape[1:]), dtype) for dtype in dtypes]
    for r0 in range(0, shape[0], step):
        yield (slice(r0, r0 + step), *(b[: shape[0] - r0] for b in bufs))


def _lookup(table: np.ndarray, key, x: np.ndarray, scale=None, rescale: bool = False) -> np.ndarray:
    """``table`` at ``key(q, scratch, out)`` of each finite q = ``x / scale``,
    unchecked.  Without ``scale``, any float64 x, one element per row; else x
    is 2-D, ``scale(rows)`` divides a slice of its rows (and multiplies the
    values back with ``rescale``) and ``key`` may overwrite the quotient."""
    x2 = x.reshape(-1) if scale is None else x
    out = np.empty(x2.shape, table.dtype)
    for rows, qb, kb in _slices(x2.shape, np.float64, np.int64):
        xb = x2[rows]
        if scale is not None:
            sb = scale(rows)
            xb = np.divide(xb, sb, out=qb)
        key(xb, qb, kb)
        ob = table.take(kb, out=out[rows], mode="clip")
        if rescale:
            ob *= sb
    return out.reshape(x.shape)


def _bits_key(k: int, x: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """The table key at mantissa width k: (b >> s) + ((b + 2^s - 1) >> s)
    of the float64 bits b, s = 51 - k."""
    bits, tmp, out = x.view(np.uint64), scratch.view(np.uint64), out.view(np.uint64)
    np.right_shift(bits, 51 - k, out=out)
    np.add(bits, (1 << (51 - k)) - 1, out=tmp)
    np.right_shift(tmp, 51 - k, out=tmp)
    out += tmp


def _nearest(neg: FpFormat, pos: FpFormat, x, scale=None) -> np.ndarray:
    """Nearest code of each finite ``x / scale`` (see ``_lookup``): on the
    ``neg`` grid where its sign bit is set, on the ``pos`` grid elsewhere."""
    return _lookup(_bucket_codes(neg, pos), partial(_bits_key, max(neg.man_bits, pos.man_bits)), x, scale)


@lru_cache(maxsize=None)
def _value_table(fmt: FpFormat) -> np.ndarray:
    """Read-only float64 decoded value of every ``_bucket_codes(fmt, fmt)`` entry."""
    table = _decode_table(fmt).take(_bucket_codes(fmt, fmt))
    table.flags.writeable = False
    return table


def _round(fmt: FpFormat, x, scale=None) -> np.ndarray:
    """Nearest ``fmt`` grid value of each finite ``x / scale``, the decoded
    ``nearest_codes`` (zero is +0), times ``scale`` (see ``_lookup``)."""
    return _lookup(_value_table(fmt), partial(_bits_key, fmt.man_bits), x, scale, rescale=scale is not None)


def nearest_codes(fmt: FpFormat, x, scale=None) -> np.ndarray:
    """Bit patterns of the grid values nearest x (canonical zero, ties to
    the even magnitude code, saturating beyond +-max_value).  Without
    ``scale``, x is any finite scalar or array; with it, the codes are
    those of x / ``scale(rows)`` over slices of the 2-D rows view x
    (``Granularity.row_scales``), and the caller's unit absmax checks x finite."""
    if scale is None:
        x = _finite(x, "nearest_codes")
    return _nearest(fmt, fmt, x, scale)
