"""Bit-exact software model of a LUT-based micro-float multiply-accumulate
datapath, for every grid pair the DFQ format search can pick.

Widths derive from the formats.  A grid's integer scale k = 2^(bias +
man_bits - 1) inverts its smallest step, and its rounding midpoints are
multiples of 2^-F, F = bias + man_bits: k = 2, F = 2 for E2M1 and E1M2;
k = 4, F = 3 for E3M0.  A (neg, pos) quantizer saturates q = x / s to its
bus, truncates it to the pair's larger F, f = floor(2^F q) (two's
complement, so no separate sign), and adds a sticky bit for any lower bit
set: the signed address 2f + sticky is the point f / 2^F when even and the
open step above it when odd.  No bucket holds a threshold, so each entry is
the reference code, ties included; the build proves it.  Tables have 128
entries for E2M1 and E1M2/E2M1 and 1024 with E3M0.  With one bit fewer,
midpoints fall inside buckets: the 5-bit E2M1 address clip(round(2q), +-12)
gives the wrong code for 2.3% of Gaussian inputs (q in (2.5, 2.75) rounds
to 2.5, which ties to 2, while 3 is nearest).

An (act, wt) multiplier is a table addressed by (a << wt.width) | b that
holds the product's code in the first of E4M3 and E3M4 whose grid holds
every product; a second table converts it to the integer k_act * k_wt *
product.  Dot products accumulate in integers, and one multiply by
s_act * s_wt / (k_act * k_wt) gives the real result, the only rounding in
a GEMM.  Products are encoded strictly, so a pair no product format holds
(E1M2 x E1M2, or FP6 E2M3 x E2M1) fails at build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .formats import (
    E1M2,
    E2M1,
    E3M4,
    E4M3,
    FpFormat,
    _magnitudes,
    _nearest,
    code_dtype,
    decode_bits,
    max_value,
)
from .quantize import (
    DFQ_CANDIDATE_FORMATS,
    DfqResult,
    Granularity,
    QuantizedTensor,
    _dfq_planes,
    _dfq_scales,
    _dfq_split,
    _validate_input,
)

__all__ = [
    "LutTables",
    "build_address_lut",
    "build_mul_lut",
    "build_tables",
    "lut_quantize",
    "dfq_lut_quantize",
    "emu_dot",
    "emu_gemm",
    "verify_mul_tables",
    "verify_quantizer_parity",
]

# Product formats, tried in order.  E1M2 x E2M1 significand products need
# four mantissa bits (e.g. 3.5 * 6 = 21 = 2^4 * 1.3125), which E4M3 cannot
# hold, so that pair takes E3M4 (max 31 >= 21, subnormal step 2^-6).
_PRODUCT_FORMATS = (E4M3, E3M4)


def _frac_bits(*fmts: FpFormat) -> int:
    """Address fractional bits that put every midpoint of the grids on a bucket edge."""
    return max(f.bias + f.man_bits for f in fmts)


def _int_scale(fmt: FpFormat) -> int:
    """k = 1 / (smallest positive step of the grid): k times a grid value is an integer."""
    return 1 << (fmt.bias + fmt.man_bits - 1)


def _int_values(fmt: FpFormat) -> np.ndarray:
    """k times the decoded value of every code: exact small integers."""
    return _int_scale(fmt) * decode_bits(fmt, np.arange(fmt.code_count))


@dataclass(frozen=True, eq=False)
class LutTables:
    """Datapath tables by grid pair, each built on first use, all read-only.

    ``address[(neg, pos)]`` is a quantizer's address table and
    ``product[(act, wt)]`` a multiplier's ``(mul_lut, prod_to_int)``.
    """

    address: dict = field(default_factory=dict)
    product: dict = field(default_factory=dict)

    def quantizer(self, neg: FpFormat, pos: FpFormat) -> np.ndarray:
        if (neg, pos) not in self.address:
            self.address[neg, pos] = build_address_lut(neg, pos)
        return self.address[neg, pos]

    def multiplier(self, act: FpFormat, wt: FpFormat) -> tuple[np.ndarray, np.ndarray]:
        if (act, wt) not in self.product:
            self.product[act, wt] = build_mul_lut(act, wt)
        return self.product[act, wt]


def build_address_lut(neg_fmt: FpFormat, pos_fmt: FpFormat, frac_bits: int | None = None) -> np.ndarray:
    """Code for every signed address 2*floor(2^F q) + sticky, F = frac_bits
    (by default the pair's own width), on a bus whose integer bits put every
    grid value below its top; negative addresses index from the end, as
    their two's complement bits would.

    The reference rounding runs once over each bucket's edge, the float
    above it and the float below the next edge, on the ``neg_fmt`` grid
    where q < 0 and the ``pos_fmt`` grid elsewhere.  Rounding is monotone,
    so an odd bucket whose two ends agree is uniform; otherwise the build
    raises.  Quotients beyond the bus saturate into its end buckets, which
    round like the grid ends.
    """
    if frac_bits is None:
        frac_bits = _frac_bits(neg_fmt, pos_fmt)
    int_bits = int(max(max_value(neg_fmt), max_value(pos_fmt))).bit_length()
    step = 2.0**-frac_bits
    edge = np.arange(-(1 << (int_bits + frac_bits)), 1 << (int_bits + frac_bits)) * step
    probes = np.stack([edge, np.nextafter(edge, np.inf), np.nextafter(edge + step, -np.inf)])
    found = _nearest(neg_fmt, pos_fmt, probes)
    if np.any(found[1] != found[2]):
        raise RuntimeError(f"{neg_fmt.name}/{pos_fmt.name}: a rounding threshold falls inside "
                           f"an address bucket at {frac_bits} fractional bits")
    table = np.roll(found[:2].T.ravel(), len(edge))
    table.flags.writeable = False
    return table


def build_mul_lut(act_format: FpFormat, wt_format: FpFormat) -> tuple[np.ndarray, np.ndarray]:
    """(mul_lut, prod_to_int) for one activation/weight grid pair.

    mul_lut[(a << wt_format.width) | b] is the code of the exact product of
    the decoded operands in the first product format whose grid holds
    every product; a pair that none holds raises ValueError.  prod_to_int
    maps every product code to k_act * k_wt times its value as an integer.
    """
    products = np.multiply.outer(decode_bits(act_format, np.arange(act_format.code_count)),
                                 decode_bits(wt_format, np.arange(wt_format.code_count))).ravel()
    mags = np.abs(products)
    for fmt in _PRODUCT_FORMATS:
        grid = _magnitudes(fmt)
        idx = np.searchsorted(grid, mags).clip(max=len(grid) - 1)
        if np.array_equal(grid[idx], mags):
            break
    else:
        raise ValueError(f"no product format holds every {act_format.name} x {wt_format.name} product")
    mul = np.where(products < 0, idx | len(grid), idx).astype(code_dtype(fmt))
    k = _int_scale(act_format) * _int_scale(wt_format)
    prod_to_int = np.round(decode_bits(fmt, np.arange(fmt.code_count)) * k).astype(np.int32)
    for t in (mul, prod_to_int):
        t.flags.writeable = False
    return mul, prod_to_int


def build_tables() -> LutTables:
    """A table set with the E2M1 and E1M2/E2M1 quantizer tables and the
    E2M1 x E2M1 and E1M2 x E2M1 multipliers built up front; tables of other
    pairs build on first use."""
    luts = LutTables()
    for fmt in (E2M1, E1M2):
        luts.quantizer(fmt, E2M1)
        luts.multiplier(fmt, E2M1)
    return luts


# The table set of every call that passes no ``luts``.
_LUTS = LutTables()


def _lookup(lut: np.ndarray, q: np.ndarray, frac_bits: int) -> np.ndarray:
    """Codes of the quotients ``q`` (overwritten) from an address table: q
    saturates to the bus range, and the low bits of the signed address
    2*floor(2^F q) + sticky (int8 up to 256 entries, else int16) index the table."""
    top = len(lut) >> (frac_bits + 2)
    np.clip(q, -top, top - 2.0 ** -(frac_bits + 1), out=q)
    q *= 1 << frac_bits
    addr = np.floor(q, out=np.empty(q.shape, np.int8 if len(lut) <= 256 else np.int16), casting="unsafe")
    sticky = q != addr
    addr <<= 1
    addr += sticky
    addr &= len(lut) - 1
    return lut.take(addr)


def lut_quantize(x, scale: float, luts: LutTables | None = None, fmt: FpFormat = E2M1) -> np.ndarray:
    """``fmt`` codes of x / scale from the address table; bit-identical to
    ``quantize`` at per_tensor with its scale.  A quotient beyond the bus
    range, which only a caller's scale can give, saturates."""
    arr = _validate_input(x, "lut_quantize")
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    with np.errstate(over="ignore"):
        q = np.divide(arr, scale, out=np.empty_like(arr))  # an array even when 0-d
    return _lookup((luts or _LUTS).quantizer(fmt, fmt), q, _frac_bits(fmt))


def dfq_lut_quantize(
    x, luts: LutTables | None = None, neg_format: FpFormat = E1M2, pos_format: FpFormat = E2M1
) -> DfqResult:
    """Dual-format quantization through the address table (per-tensor).

    Mask and scales come from the reference quantizer's split.  Each element
    is divided by its part's scale and looked up once: a part <= 0 gives a
    negative address or 0, whose entries hold ``neg_format`` codes (0 for
    zero), and a part > 0 a positive one, holding ``pos_format`` codes.  The
    mask splits the codes into the planes, bit-identical to ``dfq_quantize``.
    """
    arr = _validate_input(x, "dfq_lut_quantize")
    g = Granularity.per_tensor()
    split = _dfq_split(arr, g)
    s_neg, s_pos, s = _dfq_scales(split, neg_format, pos_format, g)
    lut = (luts or _LUTS).quantizer(neg_format, pos_format)
    codes = _lookup(lut, np.divide(arr, s, out=s), _frac_bits(neg_format, pos_format))
    neg, pos = _dfq_planes(codes, split[0])
    return DfqResult(neg, pos, s_neg, s_pos, neg_format, pos_format, g, arr.shape)


def emu_dot(codes_a, codes_b, luts: LutTables | None = None,
            act_format: FpFormat = E2M1, wt_format: FpFormat = E2M1) -> int:
    """Integer dot product of activation and weight code vectors through
    the pair's multiplier.

    Returns sum_i prod_to_int[mul_lut[(a_i << wt_format.width) | b_i]],
    which is exactly k_act * k_wt times the real dot product of the decoded values.
    """
    a, b = np.asarray(codes_a), np.asarray(codes_b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    for c, fmt in ((a, act_format), (b, wt_format)):
        if c.size and not (np.issubdtype(c.dtype, np.integer) and c.min() >= 0 and c.max() < fmt.code_count):
            raise ValueError(f"codes must be integers in 0..{fmt.code_count - 1}")
    mul, p2i = (luts or _LUTS).multiplier(act_format, wt_format)
    if a.size == 0:
        return 0
    return int(p2i[mul[(a.astype(np.int64) << wt_format.width) | b]].astype(np.int64).sum())


def _column_groups(n_cols: int, g: Granularity) -> list[tuple[int, int]]:
    if g.kind == "per_group":
        if n_cols % g.group_size:
            raise ValueError(f"columns ({n_cols}) not divisible by group size {g.group_size}")
        return [(i, i + g.group_size) for i in range(0, n_cols, g.group_size)]
    return [(0, n_cols)]


def _scales_2d(scales: np.ndarray, rows: int, n_groups: int, g: Granularity) -> np.ndarray:
    """Normalize unit scales to a (rows, n_groups) matrix."""
    s = np.asarray(scales, dtype=np.float64)
    if g.kind == "per_tensor":
        return np.broadcast_to(s, (rows, n_groups))
    if g.kind in ("per_channel", "per_token"):
        return np.broadcast_to(s[:, None], (rows, n_groups))
    return s.reshape(rows, n_groups)


def _gemm_planes(code_planes: list[tuple[np.ndarray, FpFormat, np.ndarray]], w_codes: np.ndarray,
                 w_format: FpFormat, w_scales_2d: np.ndarray, groups: list[tuple[int, int]]) -> np.ndarray:
    """Group-by-group integer matmul of k-scaled values, rescaled per group.

    Partial sums are integers of at most max|a| * max|b| * group width;
    below 2^24 float32 holds them exactly in any BLAS summation order, else
    float64 does, so the matmul reproduces the lookup-table accumulation
    integer for integer (the exhaustive product tests pin the per-pair
    identity).  The rescale is float64, by s_act * s_wt and then the power
    of two 1 / (k_act * k_wt); groups accumulate in ascending order.  Every
    rescale reuses one rows x out buffer and reads acc with no float64 copy.
    """
    w_tab = _int_values(w_format)
    peak = max(np.abs(_int_values(f)).max() for _, f, _ in code_planes) * np.abs(w_tab).max()
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    w_vals = w_tab.astype(dtype)[w_codes]
    out = np.zeros((code_planes[0][0].shape[0], w_codes.shape[0]))
    term = np.empty_like(out)
    for gi, (c0, c1) in enumerate(groups):
        wj = w_vals[:, c0:c1]
        sw = w_scales_2d[:, gi]
        for codes, fmt, sx in code_planes:
            xa = _int_values(fmt).astype(dtype)[codes[:, c0:c1]]
            np.multiply.outer(sx[:, gi], sw, out=term)
            np.multiply(xa @ wj.T, term, out=term)
            term *= 1 / (_int_scale(fmt) * _int_scale(w_format))
            out += term
    return out


def emu_gemm(xq: QuantizedTensor | DfqResult, wq: QuantizedTensor,
             luts: LutTables | None = None) -> np.ndarray:
    """Emulated GEMM: per-group integer accumulation, then rescale.

    ``xq`` may be a plain quantized tensor or a dual-format result (negative
    and positive planes accumulate separately and combine through their
    own scales).  Each activation grid needs a multiplier with the weight
    grid, whose table build proves every product of the pair exact.
    Activation and weight group boundaries must agree.
    """
    if wq.codes.ndim != 2:
        raise ValueError("weight codes must be 2-D")
    if isinstance(xq, DfqResult):
        planes = [(xq.neg_codes, xq.neg_format, xq.s_neg), (xq.pos_codes, xq.pos_format, xq.s_pos)]
    else:
        planes = [(xq.codes, xq.format, xq.scales)]
    for _, fmt, _ in planes:
        if not (isinstance(fmt, FpFormat) and isinstance(wq.format, FpFormat)):
            raise ValueError("emulated GEMM needs micro-float codes on both sides")
        (luts or _LUTS).multiplier(fmt, wq.format)
    x_groups = _column_groups(xq.shape[-1], xq.granularity)
    w_groups = _column_groups(wq.codes.shape[1], wq.granularity)
    if x_groups != w_groups:
        raise ValueError(
            f"activation groups {x_groups[:2]}..x{len(x_groups)} do not match "
            f"weight groups {w_groups[:2]}..x{len(w_groups)}"
        )

    rows = planes[0][0].shape[0]
    n_groups = len(x_groups)
    sw = _scales_2d(wq.scales, wq.codes.shape[0], n_groups, wq.granularity)
    expanded = [(codes, fmt, _scales_2d(s, rows, n_groups, xq.granularity)) for codes, fmt, s in planes]
    return _gemm_planes(expanded, wq.codes, wq.format, sw, x_groups)


def verify_mul_tables(luts: LutTables | None = None) -> dict:
    """Exhaustively check the multiplier of every candidate activation grid
    with E2M1 weights: each entry must give k_act * k_wt times the exact product."""
    exact = {}
    for act in DFQ_CANDIDATE_FORMATS:
        mul, p2i = (luts or _LUTS).multiplier(act, E2M1)
        want = np.multiply.outer(_int_values(act), _int_values(E2M1)).ravel()
        exact[f"{act.name}x{E2M1.name}"] = f"{np.count_nonzero(p2i[mul] == want)}/{len(want)}"
    good = all(n == total for n, total in (v.split("/") for v in exact.values()))
    return {"mul_tables": "pass" if good else "fail", "mul_exact": exact}


def verify_quantizer_parity(
    n_samples: int = 1_000_000, seed: int = 0, luts: LutTables | None = None
) -> dict:
    """Compare the LUT quantizers against the reference quantizers on every
    candidate grid and every DFQ grid pair: code mismatches per grid
    ("E2M1") and per pair ("E1M2/E2M1"), and the pairs whose scales differ."""
    from .quantize import dfq_quantize, quantize

    pt = Granularity.per_tensor()
    x = np.random.default_rng(seed).standard_normal(n_samples)
    # Skewed data exercises both branches of the dual-format path.
    y = np.where(x > 1.2, x, -np.abs(x) * 0.05)
    frac_bits, mismatches, scale_mismatches = {}, {}, []
    for fmt in DFQ_CANDIDATE_FORMATS:
        ref = quantize(x, fmt, pt)
        got = lut_quantize(x, float(ref.scales), luts, fmt)
        frac_bits[fmt.name] = _frac_bits(fmt)
        mismatches[fmt.name] = int(np.count_nonzero(got != ref.codes))
    for neg, pos in product(DFQ_CANDIDATE_FORMATS, repeat=2):
        key = f"{neg.name}/{pos.name}"
        ref, got = dfq_quantize(y, neg, pos, pt), dfq_lut_quantize(y, luts, neg, pos)
        frac_bits[key] = _frac_bits(neg, pos)
        bad = (got.neg_codes != ref.neg_codes) | (got.pos_codes != ref.pos_codes)
        mismatches[key] = int(np.count_nonzero(bad))
        if not (np.array_equal(ref.s_neg, got.s_neg) and np.array_equal(ref.s_pos, got.s_pos)):
            scale_mismatches.append(key)
    good = not any(mismatches.values()) and not scale_mismatches
    return {
        "quantizer_parity": "pass" if good else "fail",
        "samples": n_samples,
        "addr_frac_bits": frac_bits,
        "mismatches": mismatches,
        "scale_mismatches": scale_mismatches,
    }
