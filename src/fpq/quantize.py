"""Scaled quantization at per-tensor/channel/token/group granularity.

Implements absmax-scaled nearest-grid quantization (scale = max|X| /
max_value), a round-to-nearest integer baseline, asymmetric FP
quantization (one grid, two scales), dual-format quantization (separate
grids and scales for the non-positive and positive parts), and the
separable 3x3 FP4 format search (each sign part rounded once per grid;
earliest pair wins ties) minimizing reconstruction MSE over a calibration set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .formats import (
    E1M2,
    E2M1,
    E3M0,
    FpFormat,
    decode_bits,
    max_value,
    nearest_codes,
    round_to_grid,
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
    """How a tensor is split into quantization units.

    per_tensor: one scale for everything.
    per_channel: one scale per row of a 2-D weight matrix.
    per_token: one scale per row of a 2-D activation matrix.
    per_group: one scale per contiguous ``group_size`` slice of the last
    axis; a partial final group is an error unless ``pad_partial`` opts
    into zero padding (padding zeros never affect the unit absmax).
    """

    kind: str
    group_size: int = 128
    pad_partial: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown granularity {self.kind!r}; one of {_KINDS}")
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
    def per_group(cls, group_size: int = 128, pad_partial: bool = False) -> "Granularity":
        return cls("per_group", group_size, pad_partial)


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


def _validate_input(x: np.ndarray, op: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.size == 0:
        raise ValueError(f"{op} requires a nonempty tensor")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{op} requires finite input")
    return arr


def _absmax_per_unit(x: np.ndarray, g: Granularity) -> np.ndarray:
    """Per-unit max|x| with the unit layout of ``g``."""
    if g.kind == "per_tensor":
        return np.max(np.abs(x))
    if g.kind in ("per_channel", "per_token"):
        if x.ndim != 2:
            raise ValueError(f"{g.kind} granularity needs a 2-D tensor, got {x.ndim}-D")
        return np.max(np.abs(x), axis=1)
    n = x.shape[-1]
    gs = g.group_size
    if n % gs:
        if not g.pad_partial:
            raise ValueError(
                f"last axis ({n}) is not divisible by group size {gs}; "
                "set pad_partial to zero-pad the final group"
            )
        pad = gs - n % gs
        widths = [(0, 0)] * (x.ndim - 1) + [(0, pad)]
        x = np.pad(x, widths)
    grouped = x.reshape(*x.shape[:-1], x.shape[-1] // gs, gs)
    return np.max(np.abs(grouped), axis=-1)


def _per_element_scales(scales: np.ndarray, shape: tuple[int, ...], g: Granularity):
    """Expand per-unit scales so they broadcast against the tensor."""
    if g.kind == "per_tensor":
        return scales
    if g.kind in ("per_channel", "per_token"):
        return scales[:, None]
    return np.repeat(scales, g.group_size, axis=-1)[..., : shape[-1]]


def _unit_scales(absmax: np.ndarray, peak: float) -> np.ndarray:
    """scale = absmax / peak where that is > 0, else 1 (all-zero units, and
    units so tiny that the quotient underflows)."""
    scales = absmax / peak
    return np.where(scales > 0, scales, 1.0)


def compute_scale(unit_values, fmt: FpFormat) -> float:
    """Quantization scale of one unit, as ``quantize`` computes it."""
    arr = _validate_input(unit_values, "compute_scale")
    return float(_unit_scales(np.max(np.abs(arr)), max_value(fmt)))


def quantize(x, fmt: FpFormat, g: Granularity = Granularity.per_tensor()) -> QuantizedTensor:
    """Absmax-scale each unit and round to the nearest grid value."""
    arr = _validate_input(x, "quantize")
    absmax = _absmax_per_unit(arr, g)
    scales = _unit_scales(absmax, max_value(fmt))
    codes = nearest_codes(fmt, arr / _per_element_scales(scales, arr.shape, g))
    return QuantizedTensor(codes, scales, fmt, g, arr.shape)


def _fake_quantize(x, fmt: FpFormat, g: Granularity) -> np.ndarray:
    """``dequantize(quantize(x, fmt, g))`` without the codes.

    Rounds the scaled input straight to grid values, which are the decoded
    values of the codes ``quantize`` would emit, and multiplies by the same
    expanded scales, so the result is bit-identical.
    """
    arr = _validate_input(x, "quantize")
    scales = _unit_scales(_absmax_per_unit(arr, g), max_value(fmt))
    s = _per_element_scales(scales, arr.shape, g)
    return round_to_grid(fmt, arr / s) * s


def dequantize(q: QuantizedTensor | DfqResult) -> np.ndarray:
    """Reconstruct real values: decoded codes times their unit scale."""
    if isinstance(q, DfqResult):
        neg = decode_bits(q.neg_format, q.neg_codes)
        pos = decode_bits(q.pos_format, q.pos_codes)
        sn = _per_element_scales(q.s_neg, q.shape, q.granularity)
        sp = _per_element_scales(q.s_pos, q.shape, q.granularity)
        return neg * sn + pos * sp
    if isinstance(q.format, IntFormat):
        vals = q.codes.astype(np.float64)
    else:
        vals = decode_bits(q.format, q.codes)
    return vals * _per_element_scales(q.scales, q.shape, q.granularity)


def rtn_int_quantize(x, bits: int, g: Granularity = Granularity.per_tensor()) -> QuantizedTensor:
    """Round-to-nearest integer baseline on a symmetric uniform grid."""
    if bits not in (4, 6, 8):
        raise ValueError(f"supported integer widths are 4, 6, 8; got {bits}")
    arr = _validate_input(x, "rtn_int_quantize")
    fmt = IntFormat(f"INT{bits}", bits)
    absmax = _absmax_per_unit(arr, g)
    scales = _unit_scales(absmax, float(fmt.qmax))
    scaled = arr / _per_element_scales(scales, arr.shape, g)
    codes = np.clip(np.round(scaled), -fmt.qmax, fmt.qmax).astype(np.int8)
    return QuantizedTensor(codes, scales, fmt, g, arr.shape)


def _dfq_split(arr: np.ndarray, neg_fmt: FpFormat, pos_fmt: FpFormat, g: Granularity):
    """The DFQ sign split: zero-filled parts <= 0 and > 0, and each part's unit scales."""
    neg_part = np.where(arr <= 0, arr, 0.0)
    pos_part = np.where(arr > 0, arr, 0.0)
    s_neg = _unit_scales(_absmax_per_unit(neg_part, g), max_value(neg_fmt))
    s_pos = _unit_scales(_absmax_per_unit(pos_part, g), max_value(pos_fmt))
    return neg_part, pos_part, s_neg, s_pos


def dfq_quantize(
    x,
    neg_format: FpFormat,
    pos_format: FpFormat,
    g: Granularity = Granularity.per_tensor(),
) -> DfqResult:
    """Quantize with separate grids and scales for each sign.

    Elements <= 0 go through ``neg_format`` scaled by the most negative
    magnitude of the unit; elements > 0 go through ``pos_format`` scaled
    by the positive peak.  Dequantization is neg*s_neg + pos*s_pos.
    """
    arr = _validate_input(x, "dfq_quantize")
    neg_part, pos_part, s_neg, s_pos = _dfq_split(arr, neg_format, pos_format, g)
    neg_codes = nearest_codes(neg_format, neg_part / _per_element_scales(s_neg, arr.shape, g))
    pos_codes = nearest_codes(pos_format, pos_part / _per_element_scales(s_pos, arr.shape, g))
    return DfqResult(neg_codes, pos_codes, s_neg, s_pos, neg_format, pos_format, g, arr.shape)


def afpq_quantize(x, fmt: FpFormat, g: Granularity = Granularity.per_tensor()) -> DfqResult:
    """Asymmetric FP quantization: one grid, separate sign scales."""
    return dfq_quantize(x, fmt, fmt, g)


DFQ_CANDIDATE_FORMATS: tuple[FpFormat, ...] = (E1M2, E2M1, E3M0)


def _dfq_search_totals(tensors: Sequence[np.ndarray], g: Granularity) -> np.ndarray:
    """[i, j] sums the MSE of ``dfq_quantize(t, C[i], C[j], g)`` over the tensors; each
    part's squared error is zero on the other part, so en[i] + ep[j] is exact."""
    cands = DFQ_CANDIDATE_FORMATS
    totals = np.zeros((len(cands), len(cands)))
    for t in tensors:
        en, ep = [], []
        for fmt in cands:
            neg_part, pos_part, s_neg, s_pos = _dfq_split(t, fmt, fmt, g)
            for part, s, errs in ((neg_part, s_neg, en), (pos_part, s_pos, ep)):
                s = _per_element_scales(s, t.shape, g)
                errs.append((part - round_to_grid(fmt, part / s) * s) ** 2)
        for i, j in np.ndindex(totals.shape):
            totals[i, j] += np.mean(en[i] + ep[j])
    return totals


def dfq_search_format(
    calib: Sequence[np.ndarray],
    g: Granularity = Granularity.per_tensor(),
) -> tuple[FpFormat, FpFormat]:
    """Search the (negative, positive) grid pair with the least MSE.

    Scores all 3x3 FP4 pairs by MSE summed over the calibration tensors,
    rounding each sign part once per candidate grid; on ties the earliest
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
    """Mean squared error over all elements."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(x_hat, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))
