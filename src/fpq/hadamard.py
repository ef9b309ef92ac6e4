"""Hadamard and group-wise (block-diagonal) Hadamard transforms.

The group-wise transform applies one shared power-of-two Hadamard block
to each contiguous slice of the channel axis, which amortizes outlier
channels across their group while keeping the transform cheap: relative
to a dense whole-dimension transform the FLOP count drops by
dim / group_size.  Blocks are Sylvester-ordered and, when normalized,
orthonormal and symmetric, so the same routine applies the inverse.

``apply_ght`` runs as a single matrix product: the input is viewed as
rows of group_size and multiplied by one cached block, which hands the
work to BLAS.  At the block sizes used here that beats the O(n log n)
butterfly of ``fwht``, which stays as the reference the tests check
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HadamardConfig",
    "hadamard_matrix",
    "fwht",
    "apply_ght",
    "fuse_weight_rotation",
    "ght_flops",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HadamardConfig:
    """Block-diagonal transform layout: dim/group_size identical blocks."""

    dim: int
    group_size: int = 128
    normalized: bool = True

    def __post_init__(self) -> None:
        if not _is_pow2(self.group_size):
            raise ValueError(f"group_size must be a power of two, got {self.group_size}")
        if self.dim < 1 or self.dim % self.group_size:
            raise ValueError(
                f"dim ({self.dim}) must be a positive multiple of group_size ({self.group_size})"
            )

    @property
    def num_blocks(self) -> int:
        return self.dim // self.group_size


def hadamard_matrix(n: int) -> np.ndarray:
    """Unnormalized Sylvester Hadamard matrix: entries +-1, H @ H.T = n*I."""
    if not _is_pow2(n):
        raise ValueError(f"order must be a power of two, got {n}")
    h = np.array([[1]], dtype=np.int64)
    while h.shape[0] < n:
        h = np.kron(np.array([[1, 1], [1, -1]], dtype=np.int64), h)
    return h


def fwht(x, normalized: bool = False) -> np.ndarray:
    """Fast Walsh-Hadamard transform along the last axis.

    Equals hadamard_matrix(n) @ v per last-axis vector, computed with the
    O(n log n) butterfly in a fixed summation order, independent of
    ``apply_ght`` and used as its reference.  Floating inputs keep their
    dtype (float32 stays float32); everything else computes in float64.
    """
    arr = np.asarray(x)
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.float64
    n = arr.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"transform length must be a power of two, got {n}")
    flat = arr.astype(dtype).reshape(-1, n)
    h = 1
    while h < n:
        v = flat.reshape(-1, n // (2 * h), 2, h)
        top = v[:, :, 0, :] + v[:, :, 1, :]
        bot = v[:, :, 0, :] - v[:, :, 1, :]
        flat = np.stack((top, bot), axis=2).reshape(-1, n)
        h *= 2
    out = flat.reshape(arr.shape)
    if normalized:
        out = out * dtype.type(1.0 / np.sqrt(n))
    return out


@lru_cache(maxsize=None)
def _ght_block(n: int, normalized: bool, dtype: np.dtype) -> np.ndarray:
    """Read-only Hadamard block of order n in ``dtype``, scaled by
    1/sqrt(n) when normalized."""
    block = hadamard_matrix(n).astype(dtype)
    if normalized:
        block *= dtype.type(1.0 / np.sqrt(n))
    block.flags.writeable = False
    return block


def apply_ght(x, cfg: HadamardConfig) -> np.ndarray:
    """Transform each group_size slice of the last axis by the shared block.

    For a row vector this is x @ H_B with H_B = BlockDiag(H, ..., H);
    normalized blocks preserve the L2 norm of every row.  Floating inputs
    keep their dtype (float32 stays float32); everything else computes in
    float64.
    """
    arr = np.asarray(x)
    if arr.shape[-1] != cfg.dim:
        raise ValueError(f"last axis is {arr.shape[-1]}, config expects {cfg.dim}")
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.dtype(np.float64)
    block = _ght_block(cfg.group_size, cfg.normalized, dtype)
    grouped = arr.astype(dtype, copy=False).reshape(-1, cfg.group_size)
    return (grouped @ block).reshape(arr.shape)


def fuse_weight_rotation(w, cfg: HadamardConfig) -> np.ndarray:
    """Fold the rotation into a weight matrix offline: returns W @ H_B.

    The blocks are symmetric, so this is the same transform as apply_ght;
    a layer computing (X H_B)(W H_B)^T then equals X W^T exactly when the
    blocks are orthonormal.
    """
    return apply_ght(w, cfg)


def ght_flops(dim: int, group_size: int) -> tuple[int, int, int]:
    """Per-token FLOP cost model: dense transform, grouped transform, ratio.

    Dense costs 2*dim^2 (one dim x dim matrix-vector product), the grouped
    version 2*dim*group_size, so the saving is exactly dim/group_size.
    """
    if dim < 1 or dim % group_size:
        raise ValueError(f"dim ({dim}) must be a positive multiple of group_size ({group_size})")
    return 2 * dim * dim, 2 * dim * group_size, dim // group_size
