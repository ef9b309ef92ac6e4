"""Bit-exact software model of a LUT-based FP4 multiply-accumulate datapath.

A quantizer saturates the scaled input q = x / s to its bus range,
truncates it to two fractional bits, f = floor(4q) (two's complement, so
no separate sign), and adds a sticky bit for any lower bit set: the 7-bit
signed address 2f + sticky is the point q = f/4 when even and the open
quarter above it when odd.  Every midpoint of the E2M1 and E1M2 grids is a
multiple of 1/4, so no bucket holds a rounding threshold and each table
entry is the reference code, ties included.  At one fractional bit the
midpoints 0.25, 0.75, ... fall inside buckets; the 5-bit rounded address
clip(round(2q), +-12) gives the wrong code for 2.3% of Gaussian inputs
(q in (2.5, 2.75) rounds to 2.5, which ties to 2, while 3 is nearest).

Multipliers are 256-entry tables addressed by a concatenated code pair,
returning an 8-bit FP product code that a second table converts to the
exact integer 4x(product).  Dot products therefore accumulate in pure
integer arithmetic, and a final multiply by s_act * s_wt / 4 produces the
real result; the only rounding in a whole GEMM is that last rescale.

Every pairwise grid product is exactly representable in the chosen
product formats, which makes the lookup path equal, integer for integer,
to direct arithmetic on the decoded values.  Table construction goes
through the strict encoder, so any representability gap would fail at
build time rather than corrupt results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .formats import (
    E1M2,
    E2M1,
    E3M4,
    E4M3,
    FpFormat,
    _nearest,
    decode_bits,
    encode,
    max_value,
)
from .quantize import (
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
    "ACT_FORMAT",
    "DFQ_NEG_FORMAT",
    "DFQ_POS_FORMAT",
    "PRODUCT_FORMAT",
    "DFQ_PRODUCT_FORMAT",
    "ADDR_FRAC_BITS",
    "build_address_lut",
    "build_mul_lut",
    "build_tables",
    "lut_quantize",
    "dfq_lut_quantize",
    "emu_dot",
    "rescale",
    "emu_gemm",
    "verify_mul_tables",
    "verify_quantizer_parity",
]

ACT_FORMAT = E2M1
DFQ_NEG_FORMAT = E1M2
DFQ_POS_FORMAT = E2M1
PRODUCT_FORMAT = E4M3
# E1M2 x E2M1 significand products need four mantissa bits (e.g. 3.5 * 6 =
# 21 = 2^4 * 1.3125), which E4M3 cannot hold, so the mixed-grid table uses
# E3M4 (max 31 >= 21, subnormal step 2^-6 <= 1/4).
DFQ_PRODUCT_FORMAT = E3M4
ADDR_FRAC_BITS = 2


@dataclass(frozen=True)
class LutTables:
    """All datapath tables, immutable after construction."""

    quant_lut: np.ndarray  # (128,) E2M1 codes by address 2*floor(4q) + sticky
    dfq_lut: np.ndarray  # (128,) E1M2 codes at negative addresses, E2M1 at the rest
    mul_lut: np.ndarray  # (256,) E4M3 product codes, address = (a << 4) | b
    prod_to_int: np.ndarray  # (256,) int32: 4 * decoded E4M3 value
    dfq_mul_lut: np.ndarray  # (256,) E3M4 codes for E1M2 x E2M1 pairs
    dfq_prod_to_int: np.ndarray  # (256,) int32: 4 * decoded E3M4 value
    addr_frac_bits: int  # fractional bits of the truncated quotient


def build_address_lut(neg_fmt: FpFormat, pos_fmt: FpFormat, frac_bits: int = ADDR_FRAC_BITS) -> np.ndarray:
    """Code for every signed address 2*floor(2^F q) + sticky, F = frac_bits,
    on a bus whose integer bits put every grid value below its top; negative
    addresses index from the end, as their two's complement bits would.

    The reference rounding runs once over each bucket's edge, the float
    above it and the float below the next edge, on the ``neg_fmt`` grid
    where q < 0 and the ``pos_fmt`` grid elsewhere.  Rounding is monotone,
    so an odd bucket whose two ends agree is uniform; otherwise the build
    raises.  Quotients beyond the bus saturate into its end buckets, which
    round like the grid ends.
    """
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


def build_mul_lut(
    act_format: FpFormat = ACT_FORMAT,
    wt_format: FpFormat = ACT_FORMAT,
    product_format: FpFormat = PRODUCT_FORMAT,
) -> tuple[np.ndarray, np.ndarray]:
    """(mul_lut, prod_to_int) for one activation/weight format pair.

    mul_lut[(a << 4) | b] is the product-format code of the exact product
    of the decoded operands; the strict encoder guarantees at build time
    that every product is representable.  prod_to_int maps every product
    code to 4x its value as an integer (all grid products are multiples
    of 1/4).
    """
    mul = np.zeros(256, dtype=np.uint8)
    for a in range(16):
        va = decode_bits(act_format, a)
        for b in range(16):
            p = va * decode_bits(wt_format, b)
            mul[(a << 4) | b] = encode(product_format, p).bits
    values = decode_bits(product_format, np.arange(256))
    prod_to_int = np.round(values * 4).astype(np.int32)
    return mul, prod_to_int


def build_tables() -> LutTables:
    """Construct the full table set for both GEMM variants."""
    quant_lut = build_address_lut(ACT_FORMAT, ACT_FORMAT)
    dfq_lut = build_address_lut(DFQ_NEG_FORMAT, DFQ_POS_FORMAT)
    mul_lut, prod_to_int = build_mul_lut()
    dfq_mul, dfq_p2i = build_mul_lut(DFQ_NEG_FORMAT, ACT_FORMAT, DFQ_PRODUCT_FORMAT)
    for t in (mul_lut, prod_to_int, dfq_mul, dfq_p2i):
        t.flags.writeable = False
    return LutTables(quant_lut, dfq_lut, mul_lut, prod_to_int, dfq_mul, dfq_p2i, ADDR_FRAC_BITS)


def _lookup(lut: np.ndarray, q: np.ndarray, frac_bits: int) -> np.ndarray:
    """Codes of the quotients ``q`` (overwritten) from an address table: q
    saturates to the bus range, and the low bits of the int8 address
    2*floor(2^F q) + sticky, read unsigned, index the table."""
    top = len(lut) >> (frac_bits + 2)
    np.clip(q, -top, top - 2.0 ** -(frac_bits + 1), out=q)
    q *= 1 << frac_bits
    addr = np.floor(q, out=np.empty(q.shape, np.int8), casting="unsafe")
    sticky = q != addr
    addr <<= 1
    addr += sticky
    addr &= len(lut) - 1
    return lut.take(addr.view(np.uint8))


def lut_quantize(x, scale: float, luts: LutTables | None = None) -> np.ndarray:
    """E2M1 codes of x / scale from the address table; bit-identical to
    ``quantize`` at per_tensor with its scale.  A quotient beyond the bus
    range, which only a caller's scale can give, saturates."""
    arr = _validate_input(x, "lut_quantize")
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if luts is None:
        luts = build_tables()
    with np.errstate(over="ignore"):
        q = np.divide(arr, scale, out=np.empty_like(arr))  # an array even when 0-d
    return _lookup(luts.quant_lut, q, luts.addr_frac_bits)


def dfq_lut_quantize(x, luts: LutTables | None = None) -> DfqResult:
    """Dual-format quantization through the address table (per-tensor).

    Mask and scales come from the reference quantizer's split.  Each element
    is divided by its part's scale and looked up once: a part <= 0 gives a
    negative address or 0, whose entries hold E1M2 codes (0 for zero), and a
    part > 0 a positive one, holding E2M1 codes.  The mask splits the codes
    into the planes, bit-identical to ``dfq_quantize``.
    """
    arr = _validate_input(x, "dfq_lut_quantize")
    if luts is None:
        luts = build_tables()
    g = Granularity.per_tensor()
    split = _dfq_split(arr, g)
    s_neg, s_pos, s = _dfq_scales(split, DFQ_NEG_FORMAT, DFQ_POS_FORMAT, g)
    codes = _lookup(luts.dfq_lut, np.divide(arr, s, out=s), luts.addr_frac_bits)
    neg, pos = _dfq_planes(codes, split[0])
    return DfqResult(neg, pos, s_neg, s_pos, DFQ_NEG_FORMAT, DFQ_POS_FORMAT, g, arr.shape)


def emu_dot(codes_a, codes_b, luts: LutTables, variant: str = "e2m1") -> int:
    """Integer dot product of two code vectors through the tables.

    Returns sum_i prod_to_int[mul_lut[(a_i << 4) | b_i]], which is exactly
    4x the real dot product of the decoded values.
    """
    a, b = np.asarray(codes_a), np.asarray(codes_b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    for c in (a, b):
        if c.size and not (np.issubdtype(c.dtype, np.integer) and c.min() >= 0 and c.max() <= 15):
            raise ValueError("codes must be integers in 0..15")
    if variant == "e2m1":
        mul, p2i = luts.mul_lut, luts.prod_to_int
    elif variant == "dfq":
        mul, p2i = luts.dfq_mul_lut, luts.dfq_prod_to_int
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if a.size == 0:
        return 0
    return int(p2i[mul[(a << 4) | b]].astype(np.int64).sum())


def rescale(acc, s_act, s_wt):
    """Undo the 2-bit fixed-point shift and apply both scales."""
    return acc * s_act * s_wt * 0.25


def _doubled_values(fmt: FpFormat) -> np.ndarray:
    """Decoded values times two: exact small integers for the 4-bit grids."""
    return 2.0 * decode_bits(fmt, np.arange(16))


def _column_groups(n_cols: int, g: Granularity) -> list[tuple[int, int]]:
    if g.kind == "per_group":
        if n_cols % g.group_size:
            raise ValueError(
                f"columns ({n_cols}) not divisible by group size {g.group_size}"
            )
        gs = g.group_size
        return [(i, i + gs) for i in range(0, n_cols, gs)]
    return [(0, n_cols)]


def _scales_2d(scales: np.ndarray, rows: int, n_groups: int, g: Granularity) -> np.ndarray:
    """Normalize unit scales to a (rows, n_groups) matrix."""
    s = np.asarray(scales, dtype=np.float64)
    if g.kind == "per_tensor":
        return np.broadcast_to(s, (rows, n_groups))
    if g.kind in ("per_channel", "per_token"):
        return np.broadcast_to(s[:, None], (rows, n_groups))
    return s.reshape(rows, n_groups)


def _gemm_planes(
    code_planes: list[tuple[np.ndarray, FpFormat, np.ndarray]],
    w_codes: np.ndarray,
    w_scales_2d: np.ndarray,
    groups: list[tuple[int, int]],
) -> np.ndarray:
    """Group-by-group integer matmul of doubled values, rescaled per group.

    Partial sums are integers of at most max|a| * max|b| * group width;
    below 2^24 float32 holds them exactly in any BLAS summation order, else
    float64 does, so the matmul reproduces the lookup-table accumulation
    integer for integer (the exhaustive product tests pin the per-pair
    identity).  The rescale is float64; groups accumulate in ascending order.
    Every rescale reuses one rows x out buffer and reads acc with no float64 copy.
    """
    w_tab = _doubled_values(ACT_FORMAT)
    peak = max(np.abs(_doubled_values(f)).max() for _, f, _ in code_planes) * np.abs(w_tab).max()
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    w_vals = w_tab.astype(dtype)[w_codes]
    out = np.zeros((code_planes[0][0].shape[0], w_codes.shape[0]))
    term = np.empty_like(out)
    for gi, (c0, c1) in enumerate(groups):
        wj = w_vals[:, c0:c1]
        sw = w_scales_2d[:, gi]
        for codes, fmt, sx in code_planes:
            xa = _doubled_values(fmt).astype(dtype)[codes[:, c0:c1]]
            np.multiply.outer(sx[:, gi], sw, out=term)
            np.multiply(xa @ wj.T, term, out=term)
            term *= 0.25
            out += term
    return out


def emu_gemm(xq: QuantizedTensor | DfqResult, wq: QuantizedTensor, luts: LutTables) -> np.ndarray:
    """Emulated GEMM: per-group integer accumulation, then rescale.

    ``xq`` may be a plain E2M1 tensor or a dual-format result (negative
    and positive planes accumulate separately and combine through their
    own scales).  Activation and weight group boundaries must agree.
    """
    if not isinstance(wq.format, FpFormat) or wq.format != ACT_FORMAT:
        raise ValueError("emulated GEMM weights must be E2M1")
    if wq.codes.ndim != 2:
        raise ValueError("weight codes must be 2-D")
    n_cols = wq.codes.shape[1]
    w_groups = _column_groups(n_cols, wq.granularity)

    if isinstance(xq, DfqResult):
        if xq.neg_format != DFQ_NEG_FORMAT or xq.pos_format != DFQ_POS_FORMAT:
            raise ValueError("dual-format GEMM expects E1M2 negative / E2M1 positive codes")
        x_groups = _column_groups(xq.shape[-1], xq.granularity)
        planes = [
            (xq.neg_codes, xq.neg_format, xq.s_neg),
            (xq.pos_codes, xq.pos_format, xq.s_pos),
        ]
    else:
        if xq.format != ACT_FORMAT:
            raise ValueError("emulated GEMM activations must be E2M1")
        x_groups = _column_groups(xq.shape[-1], xq.granularity)
        planes = [(xq.codes, xq.format, xq.scales)]
    if x_groups != w_groups:
        raise ValueError(
            f"activation groups {x_groups[:2]}..x{len(x_groups)} do not match "
            f"weight groups {w_groups[:2]}..x{len(w_groups)}"
        )

    rows = planes[0][0].shape[0]
    n_groups = len(x_groups)
    sw = _scales_2d(wq.scales, wq.codes.shape[0], n_groups, wq.granularity)
    expanded = [
        (codes, fmt, _scales_2d(s, rows, n_groups, xq.granularity))
        for codes, fmt, s in planes
    ]
    return _gemm_planes(expanded, wq.codes, sw, x_groups)


def verify_mul_tables(luts: LutTables | None = None) -> dict:
    """Exhaustively check both 256-entry product paths against arithmetic."""
    if luts is None:
        luts = build_tables()
    report = {}
    for key, (mul, p2i, af, wf) in {
        "mul_lut_exact": (luts.mul_lut, luts.prod_to_int, ACT_FORMAT, ACT_FORMAT),
        "dfq_mul_exact": (luts.dfq_mul_lut, luts.dfq_prod_to_int, DFQ_NEG_FORMAT, ACT_FORMAT),
    }.items():
        pf = PRODUCT_FORMAT if key == "mul_lut_exact" else DFQ_PRODUCT_FORMAT
        good = 0
        for a in range(16):
            va = decode_bits(af, a)
            for b in range(16):
                p = va * decode_bits(wf, b)
                code = mul[(a << 4) | b]
                if decode_bits(pf, int(code)) == p and int(p2i[code]) == round(p * 4) == p * 4:
                    good += 1
        report[key] = f"{good}/256"
    return report


def verify_quantizer_parity(
    n_samples: int = 1_000_000, seed: int = 0, luts: LutTables | None = None
) -> dict:
    """Compare both LUT quantizers against the reference quantizers."""
    from .quantize import dfq_quantize, quantize

    if luts is None:
        luts = build_tables()
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples)
    ref = quantize(x, ACT_FORMAT, Granularity.per_tensor())
    e2m1_bad = int(np.count_nonzero(lut_quantize(x, float(ref.scales), luts) != ref.codes))

    # Skewed data exercises both branches of the dual-format path.
    y = np.where(x > 1.2, x, -np.abs(x) * 0.05)
    ref_dfq = dfq_quantize(y, DFQ_NEG_FORMAT, DFQ_POS_FORMAT, Granularity.per_tensor())
    lut_dfq = dfq_lut_quantize(y, luts)
    dfq_bad = int(np.count_nonzero(
        (lut_dfq.neg_codes != ref_dfq.neg_codes) | (lut_dfq.pos_codes != ref_dfq.pos_codes)
    ))
    dfq_ok = bool(
        dfq_bad == 0
        and np.array_equal(ref_dfq.s_neg, lut_dfq.s_neg)
        and np.array_equal(ref_dfq.s_pos, lut_dfq.s_pos)
    )
    return {
        "quantizer_parity": "pass" if (e2m1_bad == 0 and dfq_ok) else "fail",
        "addr_frac_bits": luts.addr_frac_bits,
        "e2m1_samples": n_samples,
        "e2m1_mismatches": e2m1_bad,
        "e2m1_bit_identical": e2m1_bad == 0,
        "dfq_mismatches": dfq_bad,
        "dfq_bit_identical": dfq_ok,
    }
