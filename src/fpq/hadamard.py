"""Hadamard and group-wise (block-diagonal) Hadamard transforms.

The group-wise transform applies one shared power-of-two Hadamard block
to each contiguous slice of the channel axis, which amortizes outlier
channels across their group while keeping the transform cheap: relative
to a dense whole-dimension transform the FLOP count drops by
dim / group_size.  Blocks are Sylvester-ordered, orthonormal and
symmetric, so the same routine applies the inverse.

``apply_ght`` runs as a single matrix product: the input is viewed as
rows of group_size and multiplied by one cached block, which hands the
work to BLAS.  At the block sizes used here that beats the O(n log n)
fast Walsh-Hadamard butterfly, which the tests keep as their reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "HadamardConfig",
    "hadamard_matrix",
    "apply_ght",
]


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class HadamardConfig:
    """Block-diagonal transform layout: dim/group_size identical blocks."""

    dim: int
    group_size: int = 128

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


@lru_cache(maxsize=None)
def _ght_block(n: int, dtype: np.dtype) -> np.ndarray:
    """Read-only orthonormal Hadamard block of order n in ``dtype``."""
    block = hadamard_matrix(n).astype(dtype)
    block *= dtype.type(1.0 / np.sqrt(n))
    block.flags.writeable = False
    return block


def apply_ght(x, cfg: HadamardConfig) -> np.ndarray:
    """Transform each group_size slice of the last axis by the shared block.

    For a row vector this is x @ H_B with H_B = BlockDiag(H, ..., H); the
    L2 norm of every row is preserved.  Floating inputs keep their dtype
    (float32 stays float32); everything else computes in float64.  Folding
    the rotation into a weight offline is this same call, and it is exact
    because H_B is symmetric and orthonormal: (X H_B)(W H_B)^T = X W^T.
    """
    arr = np.asarray(x)
    if arr.shape[-1] != cfg.dim:
        raise ValueError(f"last axis is {arr.shape[-1]}, config expects {cfg.dim}")
    dtype = arr.dtype if arr.dtype in (np.float32, np.float64) else np.dtype(np.float64)
    block = _ght_block(cfg.group_size, dtype)
    grouped = arr.astype(dtype, copy=False).reshape(-1, cfg.group_size)
    return (grouped @ block).reshape(arr.shape)

