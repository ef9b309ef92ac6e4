"""Learnable per-channel smoothing for group-rotated quantization (GALT).

One positive smoothing vector per linear layer scales the activation
channels before the group-wise Hadamard rotation and inversely scales the
weight columns, so the full-precision product is unchanged while the
quantization error of the rotated operands shrinks.  The vector is fit by
gradient descent on the per-step quantized-output MSE over a multi-step
calibration set, with the quantizer treated as identity in the backward
pass (straight-through estimator).  At inference the vector folds into
the preceding normalization affine and into the weight, adding no runtime
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .formats import FpFormat
from .hadamard import HadamardConfig, apply_ght, fuse_weight_rotation
# ``quantize`` is not called here, but bench/test_bench.py reaches it as
# ``fpq.galt.quantize``, so the name stays importable from this module.
from .quantize import Granularity, _fake_quantize, quantize  # noqa: F401

__all__ = [
    "CalibrationSet",
    "OutlierSpec",
    "GaltProblem",
    "LayerNormAffine",
    "OptimizerState",
    "DESK_SCHEDULE",
    "build_calibration",
    "synth_calibration",
    "galt_loss",
    "galt_grad",
    "adamw_step",
    "optimize_galt",
    "fuse_lambda",
    "fuse_lambda_weight",
]

# Desk-scale stand-in for a coarse-to-fine multi-step token schedule.
DESK_SCHEDULE: tuple[int, ...] = (1, 4, 9, 16, 25, 36, 64, 100, 169, 256)


@dataclass
class CalibrationSet:
    """Per-step activation matrices concatenated over calibration samples.

    Step i holds an (n_samples * token_counts[i], dim) matrix; token
    counts must strictly increase with the step index.
    """

    per_step: list[np.ndarray]
    step_token_counts: tuple[int, ...]
    dim: int
    n_samples: int = 1

    def __post_init__(self) -> None:
        if len(self.per_step) != len(self.step_token_counts):
            raise ValueError("one token count per step is required")
        if not self.per_step:
            raise ValueError("calibration set must contain at least one step")
        if any(b <= a for a, b in zip(self.step_token_counts, self.step_token_counts[1:])):
            raise ValueError(f"token counts must strictly increase, got {self.step_token_counts}")
        for i, x in enumerate(self.per_step):
            if x.ndim != 2 or x.shape[1] != self.dim:
                raise ValueError(f"step {i} must be 2-D with {self.dim} columns, got {x.shape}")
            expect = self.n_samples * self.step_token_counts[i]
            if x.shape[0] != expect:
                raise ValueError(f"step {i} has {x.shape[0]} rows, expected {expect}")

    @property
    def num_steps(self) -> int:
        return len(self.per_step)


def build_calibration(samples: Sequence[Sequence[np.ndarray]]) -> CalibrationSet:
    """Concatenate per-sample activations step by step.

    ``samples[s][i]`` is sample s's step-i activation of shape (T_i, dim);
    every sample must follow the same step schedule with the same dim.
    """
    if not samples:
        raise ValueError("build_calibration requires at least one sample")
    first = [np.asarray(x, dtype=np.float64) for x in samples[0]]
    if not first:
        raise ValueError("samples must contain at least one step")
    counts = tuple(x.shape[0] for x in first)
    dim = first[0].shape[1]
    per_step: list[list[np.ndarray]] = [[x] for x in first]
    for s, sample in enumerate(samples[1:], start=1):
        arrs = [np.asarray(x, dtype=np.float64) for x in sample]
        if tuple(a.shape[0] for a in arrs) != counts or any(a.shape[1] != dim for a in arrs):
            raise ValueError(f"sample {s} does not match the step schedule of sample 0")
        for i, a in enumerate(arrs):
            per_step[i].append(a)
    steps = [np.concatenate(group, axis=0) for group in per_step]
    return CalibrationSet(steps, counts, dim, n_samples=len(samples))


@dataclass(frozen=True)
class OutlierSpec:
    """Planted outlier channels: per step, ``count`` random channels are
    amplified by ``magnitude`` (jittered), at positions that change from
    step to step."""

    count: int = 4
    magnitude: float = 50.0
    jitter: float = 0.5


def synth_calibration(
    seed: int,
    schedule: Sequence[int] = DESK_SCHEDULE,
    dim: int = 256,
    outliers: OutlierSpec | None = OutlierSpec(),
    n_samples: int = 1,
) -> CalibrationSet:
    """Deterministic Gaussian calibration data with step-varying outliers."""
    rng = np.random.default_rng(seed)
    per_step = []
    for t in schedule:
        x = rng.standard_normal((n_samples * t, dim))
        if outliers is not None and outliers.count > 0:
            cols = rng.choice(dim, size=outliers.count, replace=False)
            mags = outliers.magnitude * rng.uniform(
                1.0 - outliers.jitter, 1.0 + outliers.jitter, size=outliers.count
            )
            x[:, cols] *= mags
        per_step.append(x)
    return CalibrationSet(per_step, tuple(schedule), dim, n_samples=n_samples)


@dataclass
class GaltProblem:
    """One layer's smoothing-optimization instance."""

    calib: CalibrationSet
    weight: np.ndarray
    hadamard: HadamardConfig
    quant_format: FpFormat
    granularity: Granularity
    lam: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2 or self.weight.shape[1] != self.calib.dim:
            raise ValueError(
                f"weight must be (out, {self.calib.dim}), got {self.weight.shape}"
            )
        if self.hadamard.dim != self.calib.dim:
            raise ValueError("hadamard config dim must match the calibration dim")
        if self.lam is None:
            self.lam = np.ones(self.calib.dim)
        else:
            self.lam = np.asarray(self.lam, dtype=np.float64)
            _check_lambda(self.lam, self.calib.dim)


def _check_lambda(lam: np.ndarray, dim: int) -> None:
    if lam.shape != (dim,):
        raise ValueError(f"lambda must have shape ({dim},), got {lam.shape}")
    if not np.all(lam > 0):
        raise ValueError("lambda must be strictly positive")


def _weight_hat(problem: GaltProblem, lam: np.ndarray) -> np.ndarray:
    """Fake-quantized fused weight: columns scaled by 1/lambda, rotated."""
    w_rot = apply_ght(problem.weight / lam, problem.hadamard)
    return _fake_quantize(w_rot, problem.quant_format, problem.granularity)


def _forward(problem: GaltProblem, step: int, lam: np.ndarray,
             w_hat: np.ndarray | None = None, y: np.ndarray | None = None):
    """Quantized forward pass of one step; returns the pieces the STE
    backward needs.  ``w_hat`` (``_weight_hat(problem, lam)``) and ``y``
    (``x @ w.T``) are built here when not given."""
    x = problem.calib.per_step[step]
    w = problem.weight
    a_rot = apply_ght(x * lam, problem.hadamard)
    a_hat = _fake_quantize(a_rot, problem.quant_format, problem.granularity)
    if w_hat is None:
        w_hat = _weight_hat(problem, lam)
    resid = a_hat @ w_hat.T - (x @ w.T if y is None else y)
    loss = float(np.mean(resid**2))
    return loss, resid, a_hat, w_hat, x, w


def _loss_and_grad(problem: GaltProblem, step: int, lam: np.ndarray, y: np.ndarray | None = None):
    """Per-step MSE and its straight-through gradient w.r.t. lambda (``y`` as in ``_forward``).

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
    loss, resid, a_hat, w_hat, x, w = _forward(problem, step, lam, y=y)
    coef = 2.0 / resid.size
    g_a = apply_ght(coef * (resid @ w_hat), problem.hadamard)
    g_w = ((coef * (resid @ w)) * apply_ght(a_hat, problem.hadamard)).sum(axis=0)
    grad = (x * g_a).sum(axis=0) - g_w / (lam * lam)
    return loss, grad


def _check_step(problem: GaltProblem, step_index: int) -> None:
    if not 0 <= step_index < problem.calib.num_steps:
        raise ValueError(
            f"step_index {step_index} out of range for {problem.calib.num_steps} steps"
        )


def galt_loss(problem: GaltProblem, step_index: int) -> float:
    """Quantized-output MSE of one calibration step at the problem's lambda."""
    _check_step(problem, step_index)
    _check_lambda(problem.lam, problem.calib.dim)
    loss, *_ = _forward(problem, step_index, problem.lam)
    return loss

def galt_grad(problem: GaltProblem, step_index: int) -> np.ndarray:
    """Straight-through gradient of the per-step loss w.r.t. lambda."""
    _check_step(problem, step_index)
    _check_lambda(problem.lam, problem.calib.dim)
    _, grad = _loss_and_grad(problem, step_index, problem.lam)
    return grad


@dataclass
class OptimizerState:
    """AdamW moments for the smoothing vector (with no weight decay)."""

    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0
    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    min_value: float = 1e-4

    @classmethod
    def fresh(cls, dim: int, lr: float = 0.01, **kwargs) -> "OptimizerState":
        return cls(np.zeros(dim), np.zeros(dim), lr=lr, **kwargs)


def adamw_step(state: OptimizerState, lam: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """One AdamW update of lambda; clamps to the positivity floor.

    The floor keeps the inverse scaling well defined after aggressive
    updates.  AdamW's decoupled weight decay is zero, so it has no term.
    """
    state.step_count += 1
    t = state.step_count
    state.first_moment = state.beta1 * state.first_moment + (1 - state.beta1) * grad
    state.second_moment = state.beta2 * state.second_moment + (1 - state.beta2) * grad**2
    m_hat = state.first_moment / (1 - state.beta1**t)
    v_hat = state.second_moment / (1 - state.beta2**t)
    new = lam - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return np.maximum(new, state.min_value)


def optimize_galt(
    problem: GaltProblem, epochs: int = 50, lr: float = 0.01
) -> tuple[np.ndarray, list[float]]:
    """Fit the smoothing vector over the calibration schedule.

    Each epoch walks the steps in ascending order doing one update per
    step; the epoch loss is the sum of the per-step losses seen before
    each update.  Returns the lambda snapshot with the best epoch loss and
    the loss history, whose first entry is the update-free baseline at the
    initial lambda (so the result never regresses past it).  ``lr`` must
    be finite and positive.  Each step's lambda-free ``x @ w.T`` is computed once.
    """
    if not 0 < lr < np.inf:
        raise ValueError(f"lr must be finite and positive, got {lr}")
    num_steps = problem.calib.num_steps
    lam = np.array(problem.lam, dtype=np.float64, copy=True)
    state = OptimizerState.fresh(problem.calib.dim, lr=lr)
    ys = [x @ problem.weight.T for x in problem.calib.per_step]
    w_hat = _weight_hat(problem, lam)
    baseline = sum(_forward(problem, j, lam, w_hat, ys[j])[0] for j in range(num_steps))
    best_loss = baseline
    best_lam = lam.copy()
    history = [baseline]
    for _ in range(epochs):
        epoch_loss = 0.0
        for j in range(num_steps):
            loss, grad = _loss_and_grad(problem, j, lam, ys[j])
            lam = adamw_step(state, lam, grad)
            epoch_loss += loss
        history.append(epoch_loss)
        if epoch_loss < best_loss:
            best_loss = epoch_loss
            best_lam = lam.copy()
    return best_lam, history


@dataclass
class LayerNormAffine:
    """Adaptive scale/shift applied to a row-normalized input."""

    alpha: np.ndarray
    beta: np.ndarray


def fuse_lambda(affine: LayerNormAffine, lam: np.ndarray) -> LayerNormAffine:
    """Fold the smoothing vector into the affine parameters.

    [x * (1 + alpha) + beta] * lam == x * (lam + alpha*lam) + beta*lam,
    so the fused affine uses alpha_hat = alpha*lam, beta_hat = beta*lam
    and the modulation becomes x * (lam + alpha_hat) + beta_hat.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not np.all(lam > 0):
        raise ValueError("lambda must be strictly positive")
    return LayerNormAffine(affine.alpha * lam, affine.beta * lam)


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
    _check_lambda(lam, w.shape[1])
    return fuse_weight_rotation(w / lam, cfg)
