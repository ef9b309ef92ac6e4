"""Seeded synthetic tensors shaped like the distributions the quantizers target."""

from __future__ import annotations

import numpy as np
from scipy.special import erf

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


def gelu(x):
    """Exact Gaussian-error linear unit, x * Phi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def gelu_activations(seed: int, shape: tuple[int, ...]) -> np.ndarray:
    """GeLU outputs of Gaussian pre-activations: bounded negative hump
    peaking near -0.17 plus a sparse positive tail."""
    rng = np.random.default_rng(seed)
    return gelu(rng.normal(GELU_PRE_MEAN, GELU_PRE_STD, size=shape))


def gaussian_channel_weights(seed: int, rows: int, cols: int) -> np.ndarray:
    """Zero-mean Gaussian weight matrix with a per-row standard deviation
    drawn uniformly from [0.5, 2)."""
    rng = np.random.default_rng(seed)
    sigma = rng.uniform(0.5, 2.0, size=(rows, 1))
    return rng.standard_normal((rows, cols)) * sigma
