"""Learnable per-channel smoothing for group-rotated quantization (GALT).

One positive smoothing vector per linear layer scales the activation
channels before the group-wise Hadamard rotation and inversely scales the
weight columns, so the full-precision product is unchanged while the
quantization error of the rotated operands shrinks.  The vector is fit by
AdamW on the per-step quantized-output MSE over a multi-step calibration
set, with the quantizer treated as identity in the backward pass
(straight-through estimator).  At inference the vector folds into the
preceding normalization affine and into the weight, adding no runtime work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import FpFormat
from .hadamard import HadamardConfig, apply_ght
# ``quantize`` is not called here, but bench/test_bench.py reaches it as
# ``fpq.galt.quantize``, so the name stays importable from this module.
from .quantize import Granularity, _fake_quantize, quantize  # noqa: F401

__all__ = [
    "CalibrationSet",
    "GaltProblem",
    "DESK_SCHEDULE",
    "synth_calibration",
    "adamw_step",
    "optimize_galt",
    "fuse_lambda",
    "fuse_lambda_weight",
]

# Desk-scale stand-in for a coarse-to-fine multi-step token schedule.
DESK_SCHEDULE: tuple[int, ...] = (1, 4, 9, 16, 25, 36, 64, 100, 169, 256)


@dataclass
class CalibrationSet:
    """Per-step (tokens, dim) activation matrices, coarse to fine: at least
    one step, all with step 0's columns and at least one token, token counts
    strictly increasing.  The counts and dim are read off the arrays."""

    per_step: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.per_step:
            raise ValueError("calibration set must contain at least one step")
        for i, x in enumerate(self.per_step):
            if x.ndim != 2 or x.shape[1] != self.dim:
                raise ValueError(f"calibration step {i} must be 2-D with step 0's columns, got {x.shape}")
            if not x.shape[0]:
                raise ValueError(f"calibration step {i} has no tokens, got shape {x.shape}")
        counts = self.step_token_counts
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise ValueError(f"token counts must strictly increase, got {counts}")

    @property
    def step_token_counts(self) -> tuple[int, ...]:
        return tuple(x.shape[0] for x in self.per_step)

    @property
    def dim(self) -> int:
        return self.per_step[0].shape[1]

    @property
    def num_steps(self) -> int:
        return len(self.per_step)


def synth_calibration(seed: int, schedule: Sequence[int] = DESK_SCHEDULE, dim: int = 256,
                      outlier_channels: int = 4, outlier_magnitude: float = 50.0) -> CalibrationSet:
    """Deterministic Gaussian calibration data with step-varying outliers: per
    step, ``outlier_channels`` random channels (none at 0) are amplified by
    ``outlier_magnitude`` times a factor drawn from [0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    per_step = []
    for t in schedule:
        x = rng.standard_normal((t, dim))
        if outlier_channels > 0:
            cols = rng.choice(dim, size=outlier_channels, replace=False)
            x[:, cols] *= outlier_magnitude * rng.uniform(0.5, 1.5, size=outlier_channels)
        per_step.append(x)
    return CalibrationSet(per_step)


@dataclass
class GaltProblem:
    """One layer's smoothing-optimization instance."""

    calib: CalibrationSet
    weight: np.ndarray
    hadamard: HadamardConfig
    quant_format: FpFormat
    granularity: Granularity

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[1] != self.calib.dim:
            raise ValueError(
                f"weight must be (out, {self.calib.dim}), got {self.weight.shape}"
            )
        if self.hadamard.dim != self.calib.dim:
            raise ValueError("hadamard config dim must match the calibration dim")


def _weight_hat(problem: GaltProblem, lam: np.ndarray) -> np.ndarray:
    """The fused weight at ``lam``, fake-quantized."""
    w_fused = fuse_lambda_weight(problem.weight, lam, problem.hadamard)
    return _fake_quantize(w_fused, problem.quant_format, problem.granularity)


def _forward(problem: GaltProblem, step: int, lam: np.ndarray, y: np.ndarray, w_hat: np.ndarray):
    """One step's quantized forward pass against its full-precision output ``y`` (``x @ w.T``), with
    ``w_hat = _weight_hat(problem, lam)``: the loss, residual and quantized activation."""
    a_rot = apply_ght(problem.calib.per_step[step] * lam, problem.hadamard)
    a_hat = _fake_quantize(a_rot, problem.quant_format, problem.granularity)
    resid = a_hat @ w_hat.T - y
    return float(np.mean(resid**2)), resid, a_hat


def _grad(problem: GaltProblem, step: int, lam: np.ndarray, w_hat: np.ndarray,
          resid: np.ndarray, a_hat: np.ndarray) -> np.ndarray:
    """Straight-through gradient of one step's MSE w.r.t. lambda, from its ``_forward``.

    The quantizers are identity in the backward pass, so the gradient
    flows through the bilinear product and both rotations (the blocks are
    symmetric, so the adjoint of the rotation H is H itself), reaching
    lambda via the activation scaling and the inverse weight scaling.

    The weight half is summed on the token side.  With R the residual,
    A the quantized activation and W the weight, for any block matrix H
    sum_i W[i,j] * ((R.T A) H)[i,j] == sum_t (R W)[t,j] * (A H)[t,j],
    so it rotates the T rows of A instead of the out rows of R.T A, at the
    same matmul cost.
    """
    coef = 2.0 / resid.size
    g_a = apply_ght(coef * (resid @ w_hat), problem.hadamard)
    g_w = ((coef * (resid @ problem.weight)) * apply_ght(a_hat, problem.hadamard)).sum(axis=0)
    return (problem.calib.per_step[step] * g_a).sum(axis=0) - g_w / (lam * lam)


# AdamW's fixed hyperparameters (its decoupled weight decay is zero), and the
# floor that keeps lambda positive so the inverse weight scaling stays defined.
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8
_MIN_LAMBDA = 1e-4


def adamw_step(lam: np.ndarray, grad: np.ndarray, moments: tuple, step: int, lr: float = 0.01):
    """AdamW update ``step`` (counted from 1) of lambda from the (first, second)
    ``moments`` of the updates before it, ``(0.0, 0.0)`` at the first: the new
    lambda, clamped to the positivity floor, and the new moments."""
    first = _BETA1 * moments[0] + (1 - _BETA1) * grad
    second = _BETA2 * moments[1] + (1 - _BETA2) * grad**2
    m_hat = first / (1 - _BETA1**step)
    v_hat = second / (1 - _BETA2**step)
    new = lam - lr * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return np.maximum(new, _MIN_LAMBDA), (first, second)


def optimize_galt(
    problem: GaltProblem, epochs: int = 50, lr: float = 0.01
) -> tuple[np.ndarray, list[float]]:
    """Fit the smoothing vector over the calibration schedule.

    Each epoch walks the steps in ascending order doing one update per step; the epoch
    loss is the sum of the per-step losses seen before each update.  Returns the lambda
    after the last update of the epoch with the lowest loss (the earliest on a tie), or
    the initial all-ones lambda when no epoch beats the update-free baseline at it, and
    the loss history, the baseline first.  So ``min(history) <= history[0]``; the returned
    lambda's own calibration loss is never evaluated.  ``lr`` must be finite and positive.
    Each step's lambda-free ``x @ w.T`` is computed once, and one fused weight per update
    (the baseline's serves the first).
    """
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be finite and positive, got {lr}")
    num_steps = problem.calib.num_steps
    lam = np.ones(problem.calib.dim)
    moments = (0.0, 0.0)
    ys = [x @ problem.weight.T for x in problem.calib.per_step]
    w_hat = _weight_hat(problem, lam)
    fwd = _forward(problem, 0, lam, ys[0], w_hat)  # the first update's too, at the same lambda
    history = [sum((_forward(problem, j, lam, ys[j], w_hat)[0] for j in range(1, num_steps)), fwd[0])]
    best_lam = lam.copy()
    for epoch in range(epochs):
        epoch_loss = 0.0
        for j in range(num_steps):
            if epoch or j:
                w_hat = _weight_hat(problem, lam)
                fwd = _forward(problem, j, lam, ys[j], w_hat)
            grad = _grad(problem, j, lam, w_hat, *fwd[1:])
            lam, moments = adamw_step(lam, grad, moments, epoch * num_steps + j + 1, lr)
            epoch_loss += fwd[0]
            del fwd  # before the next step's forward allocates its own
        if epoch_loss < min(history):
            best_lam = lam.copy()
        history.append(epoch_loss)
    return best_lam, history


def fuse_lambda(alpha: np.ndarray, beta: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold the smoothing vector into the AdaLN affine x * (1 + alpha) + beta.

    [x * (1 + alpha) + beta] * lam == x * (1 + alpha_hat) + beta_hat with
    alpha_hat = lam * (1 + alpha) - 1 and beta_hat = lam * beta, so the
    fused pair is applied in the same form as the affine it replaces.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all(lam > 0):
        raise ValueError("lambda must be strictly positive")
    return lam * (1 + alpha) - 1, lam * beta


def fuse_lambda_weight(
    w: np.ndarray, lam: np.ndarray, cfg: HadamardConfig
) -> np.ndarray:
    """Offline-fused weight: scale columns by 1/lambda, then rotate.

    The result is ready for one-time quantization; together with the
    lambda-scaled, rotated activation it reproduces X @ W.T exactly in
    full precision.
    """
    w = np.asarray(w, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    if lam.shape != (w.shape[1],):
        raise ValueError(f"lambda must have shape ({w.shape[1]},), got {lam.shape}")
    if not np.all(lam > 0):
        raise ValueError("lambda must be strictly positive")
    return apply_ght(w / lam, cfg)
