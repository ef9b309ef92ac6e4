"""Bit-exact software model of a LUT-based micro-float multiply-accumulate
datapath, for every grid pair the DFQ format search can pick.

Widths derive from the formats.  A grid's integer scale k = 2^(bias +
man_bits - 1) inverts its smallest step, and its rounding midpoints are
multiples of 2^-F, F = bias + man_bits: k = 2, F = 2 for E2M1 and E1M2;
k = 4, F = 3 for E3M0.  A (neg, pos) quantizer saturates q = x / s to its
bus, truncates it to the pair's larger F, f = floor(2^F q) (two's
complement, so no separate sign), and adds a sticky bit for any lower bit
set: the signed address 2f + sticky = floor(2^F q) + ceil(2^F q) is the
point f / 2^F when even and the open step above it when odd.  No bucket
holds a threshold, so each entry is the reference code, ties included; the
build proves it.  Tables have 128 entries for E2M1 and E1M2/E2M1 and 1024
with E3M0.  With one bit fewer, midpoints fall inside buckets: the 5-bit
E2M1 address clip(round(2q), +-12) gives the wrong code for 2.3% of
Gaussian inputs (q in (2.5, 2.75) rounds to 2.5, which ties to 2, while 3
is nearest).

An (act, wt) multiplier is one table addressed by (a << wt.width) | b
that holds the integer k_act * k_wt * product: int16, or int32 for E3M2 x
E3M2, whose products reach 200704.  Every pair of grids has one, FP6
included.  Dot products accumulate in integers, and one multiply by
s_act * s_wt / (k_act * k_wt) gives the real result, the only rounding in
a GEMM.  Each code plane has its own product: a CSR product where the
activation is one group and the plane at most 1/32 nonzero (the rare DFQ
plane of a GeLU input), a dense matmul otherwise.

``dfq_lut_quantize`` is ``quantize``'s DFQ driver with the address table as
its kernel: only the table it rounds through differs from ``dfq_quantize``.
``emu_gemm`` reads the code planes a quantized result lists and the unit
layout its ``Granularity`` owns: activation and weight units must have
equal widths over equal column counts, so their groups line up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import product

import numpy as np

from .formats import (
    E1M2,
    E2M1,
    E2M3,
    E3M2,
    FpFormat,
    _finite,
    _lookup,
    _nearest,
    _slices,
    decode_bits,
    max_value,
)
from .quantize import (
    DFQ_CANDIDATE_FORMATS,
    DfqResult,
    Granularity,
    QuantizedTensor,
    _dfq,
    _validate_input,
    dfq_quantize,
    quantize,
)

__all__ = [
    "LutTables",
    "build_tables",
    "lut_quantize",
    "dfq_lut_quantize",
    "emu_dot",
    "emu_gemm",
    "verify_mul_tables",
    "verify_quantizer_parity",
    "verify_gemm_rows",
]

# The FP6 grids emu-check covers besides the DFQ candidates, and the
# multipliers it proves: every candidate x E2M1 and every FP6 pair.
_FP6_GRIDS = (E2M3, E3M2)
_CHECKED_PAIRS = (*((act, E2M1) for act in DFQ_CANDIDATE_FORMATS), *product(_FP6_GRIDS, repeat=2))


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
    ``product[(act, wt)]`` a multiplier's integer product table.
    """

    address: dict = field(default_factory=dict)
    product: dict = field(default_factory=dict)

    def quantizer(self, neg: FpFormat, pos: FpFormat) -> np.ndarray:
        if (neg, pos) not in self.address:
            self.address[neg, pos] = _build_address_lut(neg, pos)
        return self.address[neg, pos]

    def multiplier(self, act: FpFormat, wt: FpFormat) -> np.ndarray:
        if (act, wt) not in self.product:
            self.product[act, wt] = _build_mul_lut(act, wt)
        return self.product[act, wt]


def _build_address_lut(neg_fmt: FpFormat, pos_fmt: FpFormat, frac_bits: int | None = None) -> np.ndarray:
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


def _build_mul_lut(act_format: FpFormat, wt_format: FpFormat) -> np.ndarray:
    """The multiplier of one activation/weight grid pair, read-only.

    mul[(a << wt_format.width) | b] is k_act * k_wt times the exact product
    of the decoded operands, an integer: int16 where every product fits,
    int32 otherwise.
    """
    mul = np.multiply.outer(_int_values(act_format), _int_values(wt_format)).ravel()
    mul = mul.astype(np.int16 if np.abs(mul).max() < 2**15 else np.int32)
    mul.flags.writeable = False
    return mul


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


def _lut_codes(luts: LutTables | None, neg: FpFormat, pos: FpFormat, arr: np.ndarray, scale) -> np.ndarray:
    """Codes of ``arr / scale(rows)`` (see ``formats._lookup``, one element
    per row) from the pair's address table: q saturates to the bus range,
    and the low bits of the address 2*floor(2^F q) + sticky = floor(2^F q) +
    ceil(2^F q), an exact float64 sum cast once, index the table."""
    lut, frac_bits = (luts or _LUTS).quantizer(neg, pos), _frac_bits(neg, pos)
    top = len(lut) >> (frac_bits + 2)

    def address(q, _, addr):
        np.clip(q, -top, top - 2.0 ** -(frac_bits + 1), out=q)
        q *= 1 << frac_bits
        floor = np.floor(q, out=addr.view(np.float64))
        np.ceil(q, out=q)
        q += floor
        np.copyto(addr, q, casting="unsafe")
        addr &= len(lut) - 1
    return _lookup(lut, address, arr.reshape(-1, 1), scale).reshape(arr.shape)


def lut_quantize(x, scale: float, luts: LutTables | None = None, fmt: FpFormat = E2M1) -> np.ndarray:
    """``fmt`` codes of x / scale from the address table; bit-identical to
    ``quantize`` at per_tensor with its scale.  A quotient beyond the bus
    range, which only a caller's scale can give, saturates."""
    arr = _finite(_validate_input(x, "lut_quantize"), "lut_quantize")
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"scale must be positive and finite, got {scale}")
    with np.errstate(over="ignore"):
        return _lut_codes(luts, fmt, fmt, arr, lambda rows: scale)


def dfq_lut_quantize(
    x, luts: LutTables | None = None, neg_format: FpFormat = E1M2, pos_format: FpFormat = E2M1
) -> DfqResult:
    """Dual-format quantization through the address table (per-tensor):
    ``quantize``'s DFQ driver with the address kernel.  A part <= 0 over its
    scale gives a negative address or 0, whose entries hold ``neg_format``
    codes (0 for zero), and a part > 0 a positive one, holding ``pos_format``
    codes, so the driver's mask splits them as in ``dfq_quantize``."""
    return _dfq(x, neg_format, pos_format, Granularity.per_tensor(), "dfq_lut_quantize",
                partial(_lut_codes, luts, neg_format, pos_format))


def emu_dot(codes_a, codes_b, luts: LutTables | None = None,
            act_format: FpFormat = E2M1, wt_format: FpFormat = E2M1) -> int:
    """Integer dot product of activation and weight code vectors through
    the pair's multiplier.

    Returns sum_i mul[(a_i << wt_format.width) | b_i], which is exactly
    k_act * k_wt times the real dot product of the decoded values.
    """
    a, b = np.asarray(codes_a), np.asarray(codes_b)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    for c, fmt in ((a, act_format), (b, wt_format)):
        if c.size and not (np.issubdtype(c.dtype, np.integer) and c.min() >= 0 and c.max() < fmt.code_count):
            raise ValueError(f"codes must be integers in 0..{fmt.code_count - 1}")
    mul = (luts or _LUTS).multiplier(act_format, wt_format)
    if a.size == 0:
        return 0
    return int(mul[(a.astype(np.int64) << wt_format.width) | b].sum(dtype=np.int64))


# A plane takes a CSR product up to this density: at 1024^3, CSR build +
# product took 6.8/9.8/16.7/24.5/36.8 ms at 1/2/4/6.25/10% nonzero codes,
# against 21.8 ms for one dense matmul.
_RARE_DENSITY = 1 / 32


def _sparse_product(vals: np.ndarray, codes: np.ndarray, w_t: np.ndarray) -> np.ndarray:
    """One CSR product: ``vals`` of the nonzero codes times the weight values."""
    from scipy.sparse import csr_matrix  # 16 ms or more to import: `import fpq` must not pay it
    rows, cols = codes.shape
    flat = np.flatnonzero(codes)
    return csr_matrix((vals.take(codes.flat[flat]), flat % cols,
                       np.searchsorted(flat, np.arange(rows + 1) * cols)), shape=codes.shape) @ w_t


def _gemm_planes(code_planes: list[tuple[np.ndarray, FpFormat, np.ndarray]], w_codes: np.ndarray,
                 w_format: FpFormat, w_scales: np.ndarray, groups: list[tuple[int, int]],
                 peak: int) -> np.ndarray:
    """Group-by-group integer matmul of k-scaled values, rescaled per group.

    Partial sums are integers of at most peak * group width, ``peak`` the
    largest |entry| of the planes' multipliers; below 2^24 float32 holds
    them exactly in any summation order, else float64 does, so each plane's
    product reproduces the multiplier-table accumulation integer for integer
    (the exhaustive product tests pin the per-pair identity): a CSR product
    if the activation is one group and the plane at most ``_RARE_DENSITY``
    nonzero (per group, its rows x out outputs cost more than they save),
    else a dense matmul.  Its float64 rescale by s_act * s_wt / (k_act *
    k_wt), the power of two folded into s_wt (rounding the same while
    products are normal floats), runs over one ``_slices`` walk of the
    output rows, taken once so its one scratch buffer serves every group and
    plane; groups accumulate in ascending order, planes neg first.
    """
    dtype = np.float32 if peak * (groups[0][1] - groups[0][0]) < 2**24 else np.float64
    # C-ordered weight values: scipy copies a transposed operand.
    w_t = _int_values(w_format).astype(dtype).take(w_codes.T.copy())
    out = None
    for gi, (c0, c1) in enumerate(groups):
        for codes, fmt, sx in code_planes:
            vals = _int_values(fmt).astype(dtype)
            if len(groups) == 1 and np.count_nonzero(codes) <= codes.size * _RARE_DENSITY:
                acc = _sparse_product(vals, codes, w_t)
            else:
                acc = vals.take(codes[:, c0:c1]) @ w_t[c0:c1]
            if out is None:  # after the first product, whose gathers are freed by now
                out = np.zeros(acc.shape)
                walk = list(_slices(out.shape, np.float64))
            sw = w_scales[:, gi] * (1 / (_int_scale(fmt) * _int_scale(w_format)))
            for rows, t in walk:
                np.multiply.outer(sx[rows, gi], sw, out=t)
                t *= acc[rows]
                out[rows] += t
            del acc  # before the next product allocates its own
    return out


def emu_gemm(xq: QuantizedTensor | DfqResult, wq: QuantizedTensor,
             luts: LutTables | None = None) -> np.ndarray:
    """Emulated GEMM: per-group integer accumulation, then rescale.

    ``xq`` may be a plain quantized tensor or a dual-format result: each of
    its ``planes`` has its own integer sums and combines through its own
    scales.  The largest entry of each plane's multiplier with the weight
    grid bounds the accumulator.  Activation and weight must have the same
    column count and unit width, and the width must divide the columns.
    """
    for name, codes in (("weight", wq.codes), ("activation", xq.planes[0][0])):
        if codes.ndim != 2:
            raise ValueError(f"{name} codes must be 2-D, got shape {codes.shape}")
    peak = 0
    for _, fmt, _ in xq.planes:
        if not (isinstance(fmt, FpFormat) and isinstance(wq.format, FpFormat)):
            raise ValueError("emulated GEMM needs micro-float codes on both sides")
        peak = max(peak, int(np.abs((luts or _LUTS).multiplier(fmt, wq.format)).max()))
    x_cols, (out_features, cols) = xq.shape[-1], wq.codes.shape
    x_width, width = xq.granularity.width(x_cols), wq.granularity.width(cols)
    if (x_cols, x_width) != (cols, width):
        raise ValueError(f"activation units ({x_width} of {x_cols} columns) do not match "
                         f"weight units ({width} of {cols} columns)")
    if cols % width:
        raise ValueError(f"columns ({cols}) not divisible by group size {width}")

    n_groups = cols // width
    planes = [(codes, fmt, np.broadcast_to(np.reshape(s, (-1, n_groups)), (codes.shape[0], n_groups)))
              for codes, fmt, s in xq.planes]
    sw = np.broadcast_to(np.reshape(wq.scales, (-1, n_groups)), (out_features, n_groups))
    groups = [(c, c + width) for c in range(0, cols, width)]
    return _gemm_planes(planes, wq.codes, wq.format, sw, groups, peak)


def verify_mul_tables(luts: LutTables | None = None) -> dict:
    """Exhaustively check the multiplier of every candidate activation grid
    with E2M1 weights and of every FP6 pair: each entry must be k_act * k_wt
    times the product of the decoded operands."""
    exact = {}
    for act, wt in _CHECKED_PAIRS:
        mul = (luts or _LUTS).multiplier(act, wt)
        want = _int_scale(act) * _int_scale(wt) * np.multiply.outer(
            decode_bits(act, np.arange(act.code_count)), decode_bits(wt, np.arange(wt.code_count))).ravel()
        exact[f"{act.name}x{wt.name}"] = f"{np.count_nonzero(mul == want)}/{len(want)}"
    good = all(n == total for n, total in (v.split("/") for v in exact.values()))
    return {"mul_tables": "pass" if good else "fail", "mul_exact": exact}


def verify_quantizer_parity(
    n_samples: int = 1_000_000, seed: int = 0, luts: LutTables | None = None
) -> dict:
    """Compare the LUT quantizers against the reference quantizers on every
    candidate grid, each FP6 grid and every DFQ grid pair: code mismatches
    per grid ("E2M1") and per pair ("E1M2/E2M1"), and the pairs whose
    scales differ."""
    pt = Granularity.per_tensor()
    x = np.random.default_rng(seed).standard_normal(n_samples)
    # Skewed data exercises both branches of the dual-format path.
    y = np.where(x > 1.2, x, -np.abs(x) * 0.05)
    frac_bits, mismatches, scale_mismatches = {}, {}, []
    for fmt in (*DFQ_CANDIDATE_FORMATS, *_FP6_GRIDS):
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


def verify_gemm_rows(luts: LutTables | None = None, seed: int = 0) -> dict:
    """For every multiplier ``verify_mul_tables`` proves, compare ``emu_gemm``
    of a small seeded per_group-128 sample entry by entry with the table
    walk: ``emu_dot`` of each unit pair and plane, rescaled by the unit
    scales in the GEMM's order.  Two per_token samples check the CSR product
    the same way: the rare plane of an E1M2/E2M1 DFQ sample with about 1.4%
    of its values > 0, and a single E2M1 plane about 0.9% nonzero, each with
    a nonzero code ending its first row, which a slipped row pointer moves."""
    g, pt, rng = Granularity.per_group(128), Granularity.per_token(), np.random.default_rng(seed)
    samples = [(quantize(rng.standard_normal((4, 256)), act, g), quantize(rng.standard_normal((3, 256)), wt, g))
               for act, wt in _CHECKED_PAIRS]
    for sparse in (lambda x: dfq_quantize(np.where(x > 2.2, x, -np.abs(x) * 0.05), E1M2, E2M1, pt),
                   lambda x: quantize(np.where(np.abs(x) > 2.6, x, 0), E2M1, pt)):
        x = rng.standard_normal((4, 256))
        x[0, -1] = 3.0
        samples.append((sparse(x), quantize(rng.standard_normal((3, 256)), E2M1, Granularity.per_channel())))
    for xq, wq in samples:
        out, sw = emu_gemm(xq, wq, luts), np.reshape(wq.scales, (len(wq.codes), -1))
        w = 256 // sw.shape[1]
        for t, o in np.ndindex(out.shape):
            if out[t, o] != sum(emu_dot(codes[t, c:c + w], wq.codes[o, c:c + w], luts, fmt, wq.format)
                                * (np.reshape(sx, (len(codes), -1))[t, c // w] * sw[o, c // w])
                                * (1 / (_int_scale(fmt) * _int_scale(wq.format)))
                                for c in range(0, 256, w) for codes, fmt, sx in xq.planes):
                return {"gemm_rows": "fail"}
    return {"gemm_rows": "pass"}
