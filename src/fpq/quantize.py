"""Scaled quantization at per-tensor/channel/token/group granularity.

Implements absmax-scaled nearest-grid quantization (scale = max|X| /
max_value), a round-to-nearest integer baseline, asymmetric FP
quantization (one grid, two scales), dual-format quantization (separate
grids and scales for the non-positive and positive parts), and the
separable 3x3 FP4 format search (each element rounded once per grid;
earliest pair wins ties) minimizing reconstruction MSE over a calibration set.

``Granularity`` owns the unit layout: a unit is a row of ``rows(x)``, the
2-D view the kernel slices (per_tensor: one element a row, all one unit).
Every quantizer, ``quantize`` and the INT baseline included, reduces its
units along those rows and hands the rounding kernel (``formats._lookup``)
that view with each slice's unit scales as one column, so none builds a
full-size scale, quotient or key array; ``dequantize`` decodes and scales
the same slices straight into its output.  The unit max, min or absmax is
the finiteness check: a non-finite element makes it non-finite.  A
quantized result lists its ``planes``, one ``(codes, format, scales)`` per
code plane on that layout, so consumers never re-derive it.  The DFQ recipe
(sign split, part scales, one kernel pass, the mask's plane split) is one
driver, ``_dfq``; ``hwemu.dfq_lut_quantize`` runs it with its address kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence, Union

import numpy as np

from .formats import (
    E1M2,
    E2M1,
    E3M0,
    FpFormat,
    _checked_table,
    _finite,
    _lookup,
    _nearest,
    _round,
    _slices,
    max_value,
    nearest_codes,
)

__all__ = [
    "Granularity",
    "IntFormat",
    "QuantizedTensor",
    "DfqResult",
    "DFQ_CANDIDATE_FORMATS",
    "compute_scale",
    "quantize",
    "dequantize",
    "rtn_int_quantize",
    "afpq_quantize",
    "dfq_quantize",
    "dfq_search_format",
    "quant_mse",
]

_KINDS = ("per_tensor", "per_channel", "per_token", "per_group")


@dataclass(frozen=True)
class Granularity:
    """Quantization units: the rows of ``rows(x)``, or all of x at per_tensor.

    per_tensor: one scale for everything.
    per_channel: one scale per row of a 2-D weight matrix.
    per_token: one scale per row of a 2-D activation matrix.
    per_group: one scale per contiguous ``group_size`` slice of the last
    axis, which the group size must divide.
    """

    kind: str
    group_size: int = 128

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; one of {', '.join(_KINDS)}")
        if self.kind == "per_group" and self.group_size < 1:
            raise ValueError(f"group_size must be positive, got {self.group_size}")

    @classmethod
    def per_tensor(cls) -> "Granularity":
        return cls("per_tensor")

    @classmethod
    def per_channel(cls) -> "Granularity":
        return cls("per_channel")

    @classmethod
    def per_token(cls) -> "Granularity":
        return cls("per_token")

    @classmethod
    def per_group(cls, group_size: int = 128) -> "Granularity":
        return cls("per_group", group_size)

    def rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` as the 2-D view whose rows are its units: ``(-1, 1)`` at per_tensor,
        ``x`` at per_channel and per_token, ``(-1, group_size)`` at per_group."""
        if self.kind == "per_tensor":
            return x.reshape(-1, 1)
        if self.kind != "per_group":
            if x.ndim != 2:
                raise ValueError(f"{self.kind} granularity needs a 2-D tensor, got {x.ndim}-D")
            return x
        if x.ndim == 0:
            raise ValueError("per_group granularity needs a tensor with at least one axis, got 0-D")
        if x.shape[-1] % self.group_size:
            raise ValueError(f"last axis ({x.shape[-1]}) is not divisible by group size {self.group_size}")
        return x.reshape(-1, self.group_size)

    def reduce(self, x: np.ndarray, fn) -> np.ndarray:
        """Per-unit ``fn`` reduction (``np.max``, ``np.min``) of ``x`` along the rows
        of ``rows(x)``; per_group keeps the shape ``x.shape[:-1] + (groups,)``."""
        units = fn(self.rows(x), axis=None if self.kind == "per_tensor" else 1)
        return units.reshape(*x.shape[:-1], -1) if self.kind == "per_group" else units

    def row_scales(self, scales: np.ndarray):
        """Function of a row slice of ``rows`` giving the per-unit ``scales``
        of those rows as a column."""
        if self.kind == "per_tensor":
            return lambda rows: scales
        return lambda rows: scales.reshape(-1, 1)[rows]

    def width(self, n_cols: int) -> int:
        """Columns one unit spans in a row of ``n_cols``: the group size for
        per_group, otherwise the whole row."""
        return self.group_size if self.kind == "per_group" else n_cols


@dataclass(frozen=True)
class IntFormat:
    """Symmetric signed-integer grid {-(2^(b-1)-1) .. 2^(b-1)-1}."""

    name: str
    bits: int

    @property
    def qmax(self) -> int:
        return (1 << (self.bits - 1)) - 1


AnyFormat = Union[FpFormat, IntFormat]


@dataclass
class QuantizedTensor:
    """Codes plus per-unit scales for one quantized tensor.

    ``codes`` keeps the original tensor shape: unsigned bit patterns for
    FP formats, signed integers for the RTN baseline.
    """

    codes: np.ndarray
    scales: np.ndarray
    format: AnyFormat
    granularity: Granularity
    shape: tuple[int, ...]

    @property
    def planes(self) -> tuple[tuple[np.ndarray, AnyFormat, np.ndarray], ...]:
        """The one ``(codes, format, scales)`` plane."""
        return ((self.codes, self.format, self.scales),)


@dataclass
class DfqResult:
    """Dual-format quantization output: two code planes, two scale sets.

    Elements <= 0 are quantized on the negative plane, elements > 0 on the
    positive plane; for every element at most one plane holds a nonzero
    code.
    """

    neg_codes: np.ndarray
    pos_codes: np.ndarray
    s_neg: np.ndarray
    s_pos: np.ndarray
    neg_format: FpFormat
    pos_format: FpFormat
    granularity: Granularity
    shape: tuple[int, ...]

    @property
    def planes(self) -> tuple[tuple[np.ndarray, FpFormat, np.ndarray], ...]:
        """The ``(codes, format, scales)`` planes, negative first."""
        return ((self.neg_codes, self.neg_format, self.s_neg),
                (self.pos_codes, self.pos_format, self.s_pos))


def _validate_input(x: np.ndarray, op: str) -> np.ndarray:
    """``x`` as float64, rejected when empty; finiteness is the caller's check."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{op} requires a nonempty tensor")
    return arr


def _unit_scales(absmax: np.ndarray, peak: float) -> np.ndarray:
    """scale = absmax / peak where that is > 0, else 1 (all-zero units, and
    units so tiny that the quotient underflows)."""
    scales = absmax / peak
    return np.where(scales > 0, scales, 1.0)


def _absmax_scales(arr: np.ndarray, peak: float, g: Granularity, op: str) -> np.ndarray:
    """Unit scales of ``arr`` over ``peak``, from the finite unit absmax."""
    return _unit_scales(_finite(g.reduce(np.abs(arr), np.max), op), peak)


def compute_scale(unit_values, fmt: FpFormat) -> float:
    """Quantization scale of one unit, as ``quantize`` computes it."""
    arr = _validate_input(unit_values, "compute_scale")
    return float(_absmax_scales(arr, max_value(fmt), Granularity.per_tensor(), "compute_scale"))


def quantize(x, fmt: FpFormat, g: Granularity = Granularity.per_tensor()) -> QuantizedTensor:
    """Absmax-scale each unit and round to the nearest grid value."""
    arr = _validate_input(x, "quantize")
    scales = _absmax_scales(arr, max_value(fmt), g, "quantize")
    codes = nearest_codes(fmt, g.rows(arr), g.row_scales(scales)).reshape(arr.shape)
    return QuantizedTensor(codes, scales, fmt, g, arr.shape)


def _fake_quantize(x, fmt: FpFormat, g: Granularity) -> np.ndarray:
    """``dequantize(quantize(x, fmt, g))`` bit for bit, without the codes: each
    scaled slice rounds straight to grid values, multiplied back by its scales."""
    arr = _validate_input(x, "quantize")
    scales = _absmax_scales(arr, max_value(fmt), g, "quantize")
    return _round(fmt, g.rows(arr), g.row_scales(scales)).reshape(arr.shape)


def dequantize(q: QuantizedTensor | DfqResult) -> np.ndarray:
    """Reconstruct real values: the sum over the planes, in order, of decoded
    codes times their unit scale, one slice of rows at a time."""
    g = q.granularity
    planes = [(g.rows(codes), fmt, g.row_scales(scales)) for codes, fmt, scales in q.planes]
    out = np.empty(planes[0][0].shape)
    for rows, vals in _slices(out.shape, np.float64):
        for i, (codes, fmt, scale) in enumerate(planes):
            c, dst = codes[rows], (vals if i else out[rows])
            if isinstance(fmt, FpFormat):
                c = _checked_table(fmt, c).take(c, out=dst, mode="clip")
            np.multiply(c, scale(rows), out=dst)
            if i:
                out[rows] += dst
    return out.reshape(q.shape)


def _int_key(qmax: int, q: np.ndarray, _, out: np.ndarray) -> None:
    """The key of ``arange(-qmax, qmax + 1)`` at the integer nearest each
    quotient q (ties to even): rint(q) clipped to +-qmax, plus qmax."""
    np.rint(q, out=q)
    np.clip(q, -qmax, qmax, out=q)
    np.add(q, qmax, out=out, casting="unsafe")


def rtn_int_quantize(x, bits: int, g: Granularity = Granularity.per_tensor()) -> QuantizedTensor:
    """Round-to-nearest integer baseline on a symmetric uniform grid."""
    if bits not in (4, 6, 8):
        raise ValueError(f"supported integer widths are 4, 6, 8; got {bits}")
    arr = _validate_input(x, "rtn_int_quantize")
    fmt = IntFormat(f"INT{bits}", bits)
    scales = _absmax_scales(arr, float(fmt.qmax), g, "rtn_int_quantize")
    table = np.arange(-fmt.qmax, fmt.qmax + 1, dtype=np.int8)
    codes = _lookup(table, partial(_int_key, fmt.qmax), g.rows(arr), g.row_scales(scales))
    return QuantizedTensor(codes.reshape(arr.shape), scales, fmt, g, arr.shape)


def _dfq_split(arr: np.ndarray, g: Granularity, op: str):
    """The DFQ sign split ``(mask, neg_absmax, pos_absmax)`` with mask = arr <= 0.
    The parts where(mask, arr, 0) and where(mask, 0, arr) have unit absmax
    max(-min_unit(arr), 0) and max(max_unit(arr), 0), checked finite."""
    lo, hi = (_finite(g.reduce(arr, fn), op) for fn in (np.min, np.max))
    return arr <= 0, np.maximum(-lo, 0.0), np.maximum(hi, 0.0)


def _dfq_scales(split, neg_fmt: FpFormat, pos_fmt: FpFormat, g: Granularity):
    """``(s_neg, s_pos, scale)``: each part's unit scales, and the function of
    a row slice of ``g.rows`` giving the scale of each element there,
    ``s_neg`` where the split's mask is set and ``s_pos`` elsewhere."""
    mask, neg_absmax, pos_absmax = split
    s_neg = _unit_scales(neg_absmax, max_value(neg_fmt))
    s_pos = _unit_scales(pos_absmax, max_value(pos_fmt))
    m2 = g.rows(mask)
    sn, sp = (g.row_scales(u) for u in (s_neg, s_pos))
    return s_neg, s_pos, lambda rows: np.where(m2[rows], sn(rows), sp(rows))


def _dfq(x, neg_format: FpFormat, pos_format: FpFormat, g: Granularity, op: str, codes_of) -> DfqResult:
    """The one DFQ recipe: ``x`` validated as ``op``, its sign split, each
    part's unit scales, and one ``codes_of(g.rows(arr), scale)`` pass over
    the quotients (a kernel in the calling convention of ``formats._lookup``).
    The split's mask cuts the codes into two fresh uint8 planes, also for
    0-d input: the codes of the part <= 0 in neg, the rest in pos."""
    arr = _validate_input(x, op)
    split = _dfq_split(arr, g, op)
    s_neg, s_pos, scale = _dfq_scales(split, neg_format, pos_format, g)
    codes = codes_of(g.rows(arr), scale).reshape(arr.shape)
    neg = np.multiply(codes, split[0], out=np.empty(arr.shape, np.uint8))
    pos = np.subtract(codes, neg, out=np.empty_like(neg))
    return DfqResult(neg, pos, s_neg, s_pos, neg_format, pos_format, g, arr.shape)


def dfq_quantize(
    x,
    neg_format: FpFormat,
    pos_format: FpFormat,
    g: Granularity = Granularity.per_tensor(),
) -> DfqResult:
    """Quantize with separate grids and scales for each sign.

    Elements <= 0 go through ``neg_format`` scaled by the unit's
    max(-min(x), 0); elements > 0 go through ``pos_format`` scaled by its
    max(max(x), 0).  Dequantization is neg*s_neg + pos*s_pos.

    Each element is divided by its part's scale and rounded once in the pair
    table of both grids; a scaled element <= 0 has its sign bit set or is a
    zero (code 0 on both grids), so the mask splits the codes into the planes.
    """
    return _dfq(x, neg_format, pos_format, g, "dfq_quantize", partial(_nearest, neg_format, pos_format))


def afpq_quantize(x, fmt: FpFormat, g: Granularity = Granularity.per_tensor()) -> DfqResult:
    """Asymmetric FP quantization: one grid, separate sign scales."""
    return dfq_quantize(x, fmt, fmt, g)


DFQ_CANDIDATE_FORMATS: tuple[FpFormat, ...] = (E1M2, E2M1, E3M0)


def _part_sums(err: np.ndarray, mask: np.ndarray) -> tuple[float, float]:
    """Sums of the non-negative ``err`` where ``mask`` is set and where it is
    not, over the flat ``_slices`` walk: a BLAS dot of each slice with a 0/1
    float copy of its mask, then with the complement, added in slice order.
    An inf in ``err`` gives 0 * inf = NaN in the other part's dot, so a sum
    that is not finite is taken by numpy's masked sums instead."""
    e, m, neg, pos = err.reshape(-1), mask.reshape(-1), 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, fs in _slices(e.shape, np.float64):
            np.copyto(fs, m[rows])
            neg += np.dot(e[rows], fs)
            np.subtract(1.0, fs, out=fs)
            pos += np.dot(e[rows], fs)
    if not np.isfinite(neg + pos):
        return err.sum(where=mask), err.sum(where=~mask)
    return neg, pos


def _dfq_search_totals(tensors: Sequence[np.ndarray], g: Granularity) -> np.ndarray:
    """[i, j] sums the MSE of ``dfq_quantize(t, C[i], C[j], g)`` over the tensors.
    Each grid rounds every element once, at its part's scale; pair (i, j) has
    grid i's squared error summed over the part <= 0 plus grid j's over the
    rest, both from ``_part_sums``.  A squared error past float64's range is
    inf, and so is every total it enters."""
    cands = DFQ_CANDIDATE_FORMATS
    totals = np.zeros((len(cands), len(cands)))
    for t in tensors:
        split = _dfq_split(t, g, "dfq_search_format")
        neg, pos = np.empty(len(cands)), np.empty(len(cands))
        for i, fmt in enumerate(cands):
            err = _round(fmt, g.rows(t), _dfq_scales(split, fmt, fmt, g)[2]).reshape(t.shape)
            with np.errstate(over="ignore"):
                np.square(np.subtract(t, err, out=err), out=err)
            neg[i], pos[i] = _part_sums(err, split[0])
            del err  # the next grid's error is allocated before it rebinds
        totals += np.add.outer(neg, pos) / t.size
    return totals


def dfq_search_format(
    calib: Sequence[np.ndarray],
    g: Granularity = Granularity.per_tensor(),
) -> tuple[FpFormat, FpFormat]:
    """Search the (negative, positive) grid pair with the least MSE.

    Scores all 3x3 FP4 pairs by MSE summed over the calibration tensors,
    rounding each element once per candidate grid; on ties the earliest
    pair in (negative, positive) enumeration order wins.
    """
    tensors = [_validate_input(t, "dfq_search_format") for t in calib]
    if not tensors:
        raise ValueError("dfq_search_format requires a nonempty calibration set")
    totals = _dfq_search_totals(tensors, g)
    # argmin returns the first minimum in (negative, positive) row-major order.
    i, j = np.unravel_index(np.argmin(totals), totals.shape)
    return DFQ_CANDIDATE_FORMATS[i], DFQ_CANDIDATE_FORMATS[j]


def quant_mse(x, x_hat) -> float:
    """Mean squared error over all elements, in float64: the differences of
    each slice of the flat ``_slices`` walk go into its scratch and are
    summed as its BLAS dot with itself, so an MSE past float64's range is
    inf, without a warning."""
    a, b = np.asarray(x), np.asarray(x_hat)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    a, b, total = a.reshape(-1), b.reshape(-1), 0.0
    with np.errstate(over="ignore"):
        for rows, d in _slices(a.shape, np.float64):
            np.subtract(a[rows], b[rows], d, dtype=np.float64)
            total += float(np.dot(d, d))
    return total / a.size if a.size else float("nan")
