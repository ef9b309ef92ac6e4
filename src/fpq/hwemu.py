"""Bit-exact software model of a LUT-based FP4 multiply-accumulate datapath.

Quantizers are 32/16-entry code lookup tables addressed by doubled grid
values offset into a non-negative range; multipliers are 256-entry tables
addressed by a concatenated code pair, returning an 8-bit FP product code
that a second table converts to the exact integer 4x(product).  Dot
products therefore accumulate in pure integer arithmetic, and a final
multiply by s_act * s_wt / 4 produces the real result; the only rounding
in a whole GEMM is that last rescale.

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
    decode_bits,
    encode,
    max_value,
    nearest_codes,
    round_to_grid,
)
from .quantize import (
    DfqResult,
    Granularity,
    QuantizedTensor,
    _dfq_split,
    _unit_scales,
    _validate_input,
)

__all__ = [
    "LutTables",
    "ACT_FORMAT",
    "DFQ_NEG_FORMAT",
    "DFQ_POS_FORMAT",
    "PRODUCT_FORMAT",
    "DFQ_PRODUCT_FORMAT",
    "build_quant_lut",
    "build_dfq_luts",
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

# Doubling the E2M1 grid makes every value an integer; +12 shifts the
# doubled range [-12, 12] to non-negative addresses 0..24 in a 5-bit space.
_QUANT_LUT_OFFSET = 12
_QUANT_LUT_LIVE = 25


@dataclass(frozen=True)
class LutTables:
    """All datapath tables, immutable after construction."""

    quant_lut: np.ndarray  # (32,) E2M1 codes, address = 2*value + 12
    dfq_lut_neg: np.ndarray  # (16,) E1M2 codes, address = 2*|value|
    dfq_lut_pos: np.ndarray  # (16,) E2M1 codes, address = 2*value
    mul_lut: np.ndarray  # (256,) E4M3 product codes, address = (a << 4) | b
    prod_to_int: np.ndarray  # (256,) int32: 4 * decoded E4M3 value
    dfq_mul_lut: np.ndarray  # (256,) E3M4 codes for E1M2 x E2M1 pairs
    dfq_prod_to_int: np.ndarray  # (256,) int32: 4 * decoded E3M4 value


def build_quant_lut() -> np.ndarray:
    """32-entry address-to-code table for the E2M1 quantizer.

    Live addresses 0..24 map their representative value (address - 12) / 2
    to the code of the nearest grid value; the 7 dead addresses sit beyond
    the positive end of the range and hold the saturation code.
    """
    lut = np.zeros(32, dtype=np.uint8)
    for addr in range(_QUANT_LUT_LIVE):
        v = (addr - _QUANT_LUT_OFFSET) / 2.0
        lut[addr] = encode(ACT_FORMAT, round_to_grid(ACT_FORMAT, v)).bits
    lut[_QUANT_LUT_LIVE:] = encode(ACT_FORMAT, max_value(ACT_FORMAT)).bits
    return lut


def build_dfq_luts() -> tuple[np.ndarray, np.ndarray]:
    """(negative, positive) 16-entry magnitude-address tables.

    The negative table covers the uniform E1M2 magnitudes (doubled:
    addresses 0..7) and returns sign-set codes; the positive table covers
    the doubled E2M1 magnitudes up to address 12.  Dead addresses hold the
    saturation code of their branch.
    """
    neg = np.zeros(16, dtype=np.uint8)
    for addr in range(8):
        neg[addr] = encode(DFQ_NEG_FORMAT, -addr / 2.0).bits
    neg[8:] = encode(DFQ_NEG_FORMAT, -max_value(DFQ_NEG_FORMAT)).bits
    pos = np.zeros(16, dtype=np.uint8)
    for addr in range(13):
        v = addr / 2.0
        pos[addr] = encode(DFQ_POS_FORMAT, round_to_grid(DFQ_POS_FORMAT, v)).bits
    pos[13:] = encode(DFQ_POS_FORMAT, max_value(DFQ_POS_FORMAT)).bits
    return neg, pos


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
    quant_lut = build_quant_lut()
    dfq_neg, dfq_pos = build_dfq_luts()
    mul_lut, prod_to_int = build_mul_lut()
    dfq_mul, dfq_p2i = build_mul_lut(DFQ_NEG_FORMAT, ACT_FORMAT, DFQ_PRODUCT_FORMAT)
    for t in (quant_lut, dfq_neg, dfq_pos, mul_lut, prod_to_int, dfq_mul, dfq_p2i):
        t.flags.writeable = False
    return LutTables(quant_lut, dfq_neg, dfq_pos, mul_lut, prod_to_int, dfq_mul, dfq_p2i)


def lut_quantize(x, scale: float, luts: LutTables | None = None) -> np.ndarray:
    """E2M1 codes via the address table; bit-identical to the reference.

    The scaled input snaps to the grid (same nearest/tie rule as the
    reference quantizer) before addressing, so only live doubled-grid
    addresses are ever hit and the table returns exactly the reference
    code.
    """
    arr = _validate_input(x, "lut_quantize")
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    table = luts.quant_lut if luts is not None else build_quant_lut()
    snapped = round_to_grid(ACT_FORMAT, arr / scale)
    addr = (2.0 * snapped).astype(np.int64) + _QUANT_LUT_OFFSET
    return table[addr]


def dfq_lut_quantize(x, luts: LutTables | None = None) -> DfqResult:
    """Dual-format quantization through the branch tables (per-tensor).

    Mask and scales come from the reference quantizer's split; each branch
    addresses its table with the doubled snapped magnitude, so the code
    planes are bit-identical to the reference path.
    """
    arr = _validate_input(x, "dfq_lut_quantize")
    if luts is None:
        luts = build_tables()
    g = Granularity.per_tensor()
    mask, neg_absmax, pos_absmax = _dfq_split(arr, g)
    s_neg = _unit_scales(neg_absmax, max_value(DFQ_NEG_FORMAT))
    s_pos = _unit_scales(pos_absmax, max_value(DFQ_POS_FORMAT))
    # E1M2 magnitudes are uniform at step 1/2, so rounding the doubled
    # magnitude (doubled after the division, which keeps it finite) to an
    # integer is the grid rounding (ties to even match the even-code rule).
    neg_addr = np.round(np.where(mask, arr, 0.0) / s_neg * -2.0).astype(np.int64)
    neg_codes = luts.dfq_lut_neg[neg_addr]
    pos_snap = round_to_grid(DFQ_POS_FORMAT, np.where(mask, 0.0, arr) / s_pos)
    pos_codes = luts.dfq_lut_pos[(2.0 * pos_snap).astype(np.int64)]
    return DfqResult(neg_codes, pos_codes, s_neg, s_pos, DFQ_NEG_FORMAT, DFQ_POS_FORMAT, g, arr.shape)


def emu_dot(codes_a, codes_b, luts: LutTables, variant: str = "e2m1") -> int:
    """Integer dot product of two code vectors through the tables.

    Returns sum_i prod_to_int[mul_lut[(a_i << 4) | b_i]], which is exactly
    4x the real dot product of the decoded values.
    """
    a = np.asarray(codes_a, dtype=np.int64)
    b = np.asarray(codes_b, dtype=np.int64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
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
    """
    w_tab = _doubled_values(ACT_FORMAT)
    peak = max(np.abs(_doubled_values(f)).max() for _, f, _ in code_planes) * np.abs(w_tab).max()
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    w_vals = w_tab.astype(dtype)[w_codes]
    rows = code_planes[0][0].shape[0]
    out = np.zeros((rows, w_codes.shape[0]))
    for gi, (c0, c1) in enumerate(groups):
        wj = w_vals[:, c0:c1]
        sw = w_scales_2d[:, gi]
        for codes, fmt, sx in code_planes:
            xa = _doubled_values(fmt).astype(dtype)[codes[:, c0:c1]]
            acc = (xa @ wj.T).astype(np.float64, copy=False)
            out += acc * (sx[:, gi][:, None] * sw[None, :]) * 0.25
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
    lut_codes = lut_quantize(x, float(ref.scales), luts)
    e2m1_ok = bool(np.array_equal(ref.codes, lut_codes))

    # Skewed data exercises both branches of the dual-format path.
    y = np.where(x > 1.2, x, -np.abs(x) * 0.05)
    ref_dfq = dfq_quantize(y, DFQ_NEG_FORMAT, DFQ_POS_FORMAT, Granularity.per_tensor())
    lut_dfq = dfq_lut_quantize(y, luts)
    dfq_ok = bool(
        np.array_equal(ref_dfq.neg_codes, lut_dfq.neg_codes)
        and np.array_equal(ref_dfq.pos_codes, lut_dfq.pos_codes)
        and np.array_equal(ref_dfq.s_neg, lut_dfq.s_neg)
        and np.array_equal(ref_dfq.s_pos, lut_dfq.s_pos)
    )
    return {
        "quantizer_parity": "pass" if (e2m1_ok and dfq_ok) else "fail",
        "e2m1_samples": n_samples,
        "e2m1_bit_identical": e2m1_ok,
        "dfq_bit_identical": dfq_ok,
    }
