"""Seeded synthetic tensors shaped like the distributions the quantizers target.

Each generator builds its tensor in its output buffer.  GeLU walks
``formats._slices`` over the flat output with two slice-sized scratch
buffers, so a draw holds no full-size temporary beside its output.  The
formula keeps its literal order, (0.5 * x) * (1 + erf(x / sqrt(2))), so
every output is bit-identical to the whole-array expression, NaN bits and
signed zeros included.  Any other order is another function in floating
point: x * (1 + erf) * 0.5, say, overflows to inf for |x| > DBL_MAX / 2,
where this one is finite.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .formats import _slices

__all__ = [
    "gelu",
    "gelu_activations",
    "gaussian_channel_weights",
    "GELU_PRE_MEAN",
    "GELU_PRE_STD",
]

# Pre-activation stats chosen so ~97.6% of outputs land in [-0.17, 0] and
# the rest form a long positive tail (the hard case for one-grid
# quantizers): P(N(mean, std) <= 0) = 0.976 at mean = -1.98 * std.
GELU_PRE_MEAN = -1.386
GELU_PRE_STD = 0.7
_SQRT2 = np.sqrt(2.0)


def _gelu(x: np.ndarray, out: np.ndarray):
    """GeLU of the float64 ``x`` into ``out`` of its shape (``x`` itself
    too), one slice at a time; a 0-d result is a NumPy scalar.  Only an
    ``x`` that is not C-contiguous is first copied flat."""
    flat, dest = x.reshape(-1), out.reshape(-1)
    for rows, cdf, half in _slices(flat.shape, np.float64, np.float64):
        xs = flat[rows]
        erf(np.divide(xs, _SQRT2, out=cdf), out=cdf)
        np.add(1.0, cdf, out=cdf)
        np.multiply(np.multiply(0.5, xs, out=half), cdf, out=dest[rows])
    return out if out.ndim else out[()]


def gelu(x):
    """Exact Gaussian-error linear unit, x * Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return _gelu(x, np.empty(x.shape))


def gelu_activations(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """GeLU outputs of Gaussian pre-activations: bounded negative hump peaking
    near -0.17 plus a sparse positive tail.  The draws are i.i.d. and have no
    per-channel structure."""
    z = np.random.default_rng(seed).normal(GELU_PRE_MEAN, GELU_PRE_STD, size=shape)
    return _gelu(z, z)


def gaussian_channel_weights(seed: int, rows: int, cols: int) -> np.ndarray:
    """Zero-mean Gaussian weight matrix with a per-row standard deviation
    drawn uniformly from [0.5, 2)."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 2.0, size=(rows, 1))
    w = rng.standard_normal((rows, cols))
    w *= sigma
    return w
