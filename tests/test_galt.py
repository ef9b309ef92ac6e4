"""Smoothing-optimization tests: calibration, loss/grad, AdamW, fusions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpq.formats import E1M2, E2M1, E3M2, FpFormat
from fpq.galt import (
    CalibrationSet,
    GaltProblem,
    LayerNormAffine,
    OptimizerState,
    OutlierSpec,
    _forward,
    _loss_and_grad,
    _weight_hat,
    adamw_step,
    fuse_lambda,
    fuse_lambda_weight,
    optimize_galt,
    synth_calibration,
)
from fpq.hadamard import HadamardConfig, apply_ght
from fpq.quantize import Granularity, _fake_quantize, dequantize, quantize

GS = Granularity.per_group(128)

# Nearly lossless stand-in format: 16-bit-wide grid, relative step 2^-10.
FINE = FpFormat("E5M10", 5, 10, 15)


def _problem(seed: int = 7, dim: int = 256, out: int = 256) -> GaltProblem:
    calib = synth_calibration(seed=seed, dim=dim, outliers=OutlierSpec(count=4, magnitude=50.0))
    rng = np.random.default_rng(seed + 100)
    w = rng.standard_normal((out, dim)) * 0.5
    return GaltProblem(calib, w, HadamardConfig(dim=dim, group_size=128), E2M1, GS)


def _ones(problem: GaltProblem) -> np.ndarray:
    """The initial lambda ``optimize_galt`` starts from."""
    return np.ones(problem.calib.dim)


def _y(problem: GaltProblem, step: int) -> np.ndarray:
    """The full-precision output ``x @ w.T`` of one step."""
    return problem.calib.per_step[step] @ problem.weight.T


def _grad_oracle(problem: GaltProblem, step: int, lam: np.ndarray):
    """Per-step loss and the weight-side straight-through gradient: the
    weight half rotates the out x dim matrix R.T @ A_hat and sums its
    columns against W."""
    x = problem.calib.per_step[step]
    w = problem.weight
    cfg, fmt, g = problem.hadamard, problem.quant_format, problem.granularity
    a_hat = _fake_quantize(apply_ght(x * lam, cfg), fmt, g)
    w_hat = _fake_quantize(apply_ght(w / lam, cfg), fmt, g)
    resid = a_hat @ w_hat.T - x @ w.T
    coef = 2.0 / resid.size
    g_a = apply_ght(coef * (resid @ w_hat), cfg)
    g_w_fused = apply_ght(coef * (resid.T @ a_hat), cfg)
    grad = (x * g_a).sum(axis=0) - (w * g_w_fused).sum(axis=0) / (lam * lam)
    return float(np.mean(resid**2)), grad


def _optimize_oracle(problem: GaltProblem, epochs: int, lr: float = 0.01):
    """``optimize_galt`` as a plain loop over ``_grad_oracle``."""
    lam = _ones(problem)
    state = OptimizerState.fresh(problem.calib.dim, lr=lr)
    steps = range(problem.calib.num_steps)
    history = [sum(_grad_oracle(problem, j, lam)[0] for j in steps)]
    best_lam = lam.copy()
    for _ in range(epochs):
        epoch_loss = 0.0
        for j in steps:
            loss, grad = _grad_oracle(problem, j, lam)
            lam = adamw_step(state, lam, grad)
            epoch_loss += loss
        if epoch_loss < min(history):
            best_lam = lam.copy()
        history.append(epoch_loss)
    return best_lam, history


def _optimize_recomputing(problem: GaltProblem, epochs: int, lr: float = 0.01):
    """``optimize_galt`` with each step's ``x @ w.T`` computed again on every
    forward pass instead of once."""
    lam = _ones(problem)
    state = OptimizerState.fresh(problem.calib.dim, lr=lr)
    steps = range(problem.calib.num_steps)
    w_hat = _weight_hat(problem, lam)
    history = [sum(_forward(problem, j, lam, _y(problem, j), w_hat)[0] for j in steps)]
    best_lam = lam.copy()
    for _ in range(epochs):
        epoch_loss = 0.0
        for j in steps:
            loss, grad = _loss_and_grad(problem, j, lam, _y(problem, j))
            lam = adamw_step(state, lam, grad)
            epoch_loss += loss
        if epoch_loss < min(history):
            best_lam = lam.copy()
        history.append(epoch_loss)
    return best_lam, history


class TestCalibration:
    def test_single_sample_passthrough(self) -> None:
        steps = [np.ones((2, 4)), np.ones((5, 4))]
        calib = CalibrationSet(steps)
        for got, want in zip(calib.per_step, steps):
            assert got is want

    def test_row_count_law(self) -> None:
        # The token counts and dim are the arrays' rows and columns.
        rng = np.random.default_rng(1)
        counts = (1, 4, 9)
        calib = CalibrationSet([rng.standard_normal((t, 16)) for t in counts])
        assert calib.step_token_counts == counts
        assert (calib.dim, calib.num_steps) == (16, 3)

    def test_ragged_schedule_rejected(self) -> None:
        with pytest.raises(ValueError, match="step 1 must be 2-D with step 0's columns, got \\(4, 3\\)"):
            CalibrationSet([np.ones((1, 4)), np.ones((4, 3))])

    def test_token_counts_must_increase(self) -> None:
        with pytest.raises(ValueError, match="strictly increase"):
            CalibrationSet([np.ones((4, 8)), np.ones((4, 8))])

    def test_needs_a_step(self) -> None:
        with pytest.raises(ValueError, match="at least one step"):
            CalibrationSet([])

    @pytest.mark.parametrize("shapes, bad", [
        ([(8,)], 0), ([()], 0), ([(2, 8, 1)], 0), ([(1, 8), (8,)], 1), ([(1, 8), (2, 8, 1)], 1),
    ])
    def test_steps_must_be_2d(self, shapes, bad) -> None:
        with pytest.raises(ValueError, match=f"step {bad} must be 2-D"):
            CalibrationSet([np.ones(shape) for shape in shapes])


class TestSynthCalibration:
    def test_deterministic(self) -> None:
        a = synth_calibration(seed=3)
        b = synth_calibration(seed=3)
        for x, y in zip(a.per_step, b.per_step):
            np.testing.assert_array_equal(x, y)

    def test_no_outliers_plain_gaussian(self) -> None:
        calib = synth_calibration(seed=4, outliers=None)
        tall = calib.per_step[-1]
        assert np.abs(tall).max() < 8  # no planted channels

    def test_outlier_positions_vary_across_steps(self) -> None:
        calib = synth_calibration(seed=5, outliers=OutlierSpec(count=4, magnitude=100.0))
        planted = []
        for x in calib.per_step[3:]:
            absmax = np.abs(x).max(axis=0)
            planted.append(frozenset(np.flatnonzero(absmax > 10 * np.median(absmax))))
        assert len(set(planted)) > 1


class TestLossAndGrad:
    def test_lossless_format_gives_zero_loss(self) -> None:
        prob = _problem()
        fp4_loss = _forward(prob, 9, _ones(prob), _y(prob, 9))[0]
        fine = GaltProblem(prob.calib, prob.weight, prob.hadamard, FINE, GS)
        assert _forward(fine, 9, _ones(fine), _y(fine, 9))[0] < 1e-4 * fp4_loss

    def test_lambda_one_equals_rotation_only_error(self) -> None:
        prob = _problem()
        x = prob.calib.per_step[5]
        a = dequantize(quantize(apply_ght(x, prob.hadamard), E2M1, GS))
        w = dequantize(quantize(apply_ght(prob.weight, prob.hadamard), E2M1, GS))
        direct = float(np.mean((a @ w.T - x @ prob.weight.T) ** 2))
        assert _forward(prob, 5, _ones(prob), _y(prob, 5))[0] == pytest.approx(direct, rel=1e-10)

    def test_global_lambda_scale_cancels_unquantized(self) -> None:
        prob = _problem(dim=128, out=32)
        x = prob.calib.per_step[2]
        w = prob.weight
        cfg = prob.hadamard
        rng = np.random.default_rng(8)
        lam = np.exp(rng.uniform(-0.5, 0.5, 128))
        for c in (1.0, 3.7):
            out = apply_ght(x * (c * lam), cfg) @ apply_ght(w / (c * lam), cfg).T
            np.testing.assert_allclose(out, x @ w.T, rtol=1e-8)

    def test_full_precision_path_invariant_to_lambda(self) -> None:
        prob = _problem(dim=128, out=64)
        rng = np.random.default_rng(9)
        lam = np.exp(rng.uniform(-1, 1, 128))
        x = prob.calib.per_step[7]
        out = apply_ght(x * lam, prob.hadamard) @ fuse_lambda_weight(prob.weight, lam, prob.hadamard).T
        ref = x @ prob.weight.T
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-10

    def test_gradient_shape_and_validation(self) -> None:
        # A lambda reaches the pipeline through fuse_lambda_weight, which
        # checks its positivity and shape.
        prob = _problem(dim=128, out=32)
        assert _loss_and_grad(prob, 0, _ones(prob), _y(prob, 0))[1].shape == (128,)
        with pytest.raises(ValueError, match="positive"):
            fuse_lambda_weight(prob.weight, np.zeros(128), prob.hadamard)
        with pytest.raises(ValueError, match="shape"):
            fuse_lambda_weight(prob.weight, np.ones(64), prob.hadamard)
        with pytest.raises(ValueError, match="weight must be"):
            GaltProblem(prob.calib, prob.weight[:, :64], prob.hadamard, E2M1, GS)

    def test_lossless_gradient_vanishes(self) -> None:
        prob = _problem(dim=128, out=64)
        fp4_scale = np.abs(_loss_and_grad(prob, 4, _ones(prob), _y(prob, 4))[1]).max()
        fine = GaltProblem(prob.calib, prob.weight, prob.hadamard, FINE, GS)
        assert np.abs(_loss_and_grad(fine, 4, _ones(fine), _y(fine, 4))[1]).max() < 1e-3 * fp4_scale

    @settings(max_examples=100)
    @given(data=st.data())
    def test_token_side_gradient_matches_weight_side(self, data) -> None:
        # Step 0 has fewer tokens than weight rows, step 1 more.  Entries
        # that cancel to near zero drift more than the rest, so the bound
        # is on the norm of the difference.
        gs = data.draw(st.sampled_from([8, 16, 32, 64]))
        dim = gs * data.draw(st.integers(1, 2))
        kind = data.draw(st.sampled_from(["per_group", "per_token", "per_tensor"]))
        g = Granularity.per_group(gs) if kind == "per_group" else Granularity(kind)
        cfg = HadamardConfig(dim=dim, group_size=gs)
        fmt = data.draw(st.sampled_from([E2M1, E3M2, E1M2]))
        out = data.draw(st.integers(4, 40))
        seed = data.draw(st.integers(0, 2**32 - 1))
        calib = synth_calibration(seed, schedule=(3, 48), dim=dim,
                                  outliers=OutlierSpec(count=2, magnitude=20.0))
        rng = np.random.default_rng(seed)
        lam = np.exp(rng.uniform(-1.0, 1.0, dim))
        prob = GaltProblem(calib, rng.standard_normal((out, dim)), cfg, fmt, g)
        for step in (0, 1):
            _, want = _grad_oracle(prob, step, lam)
            got = _loss_and_grad(prob, step, lam, _y(prob, step))[1]
            assert np.linalg.norm(got - want) <= 1e-11 * np.linalg.norm(want)

    def test_gradient_matches_surrogate_finite_differences(self) -> None:
        # The straight-through backward differentiates the forward with the
        # quantization residual frozen at the evaluation point; central
        # differences of that surrogate are the oracle.
        prob = _problem(dim=256, out=128)
        step = 6
        x = prob.calib.per_step[step]
        w = prob.weight
        cfg = prob.hadamard
        lam0 = _ones(prob)
        a0 = apply_ght(x * lam0, cfg)
        w0 = apply_ght(w / lam0, cfg)
        ra = dequantize(quantize(a0, E2M1, GS)) - a0
        rw = dequantize(quantize(w0, E2M1, GS)) - w0
        ref = x @ w.T

        def surrogate(lam: np.ndarray) -> float:
            aq = apply_ght(x * lam, cfg) + ra
            wq = apply_ght(w / lam, cfg) + rw
            return float(np.mean((aq @ wq.T - ref) ** 2))

        grad = _loss_and_grad(prob, step, lam0, ref)[1]
        h = 1e-3
        rng = np.random.default_rng(10)
        for c in rng.choice(256, 30, replace=False):
            lp, lm = lam0.copy(), lam0.copy()
            lp[c] += h
            lm[c] -= h
            fd = (surrogate(lp) - surrogate(lm)) / (2 * h)
            assert abs(grad[c] - fd) <= 5e-2 * max(abs(fd), abs(grad[c]))


class TestAdamW:
    def test_zero_gradient_no_motion(self) -> None:
        state = OptimizerState.fresh(4)
        lam = np.ones(4)
        np.testing.assert_array_equal(adamw_step(state, lam, np.zeros(4)), lam)

    def test_sign_scaled_steps_without_momentum(self) -> None:
        # Under a constant gradient the bias-corrected moments are g and
        # g^2 whatever the betas, so momentum plays no part.
        state = OptimizerState.fresh(1, lr=0.01)
        lam = np.ones(1)
        g = np.array([2.5])
        for t in range(1, 4):
            lam = adamw_step(state, lam, g)
            # m_hat = g, v_hat = g^2, so each step is lr * sign(g).
            np.testing.assert_allclose(lam, 1.0 - t * 0.01 * np.sign(g), rtol=1e-7)

    def test_positivity_floor(self) -> None:
        state = OptimizerState.fresh(1, lr=10.0)
        lam = adamw_step(state, np.array([0.5]), np.array([1.0]))
        assert lam[0] == 1e-4

    # lambda and the loss history of one small fit, bit for bit, as the
    # optimizer gave them while its state still carried a (zero) weight decay.
    PINNED_LAMBDA = [
        "0x1.10e20d66c9332p+0", "0x1.4366d5eb2c54fp+0", "0x1.5d7d02df53419p+0", "0x1.27c7c7c006f84p+0",
        "0x1.fb545f02a7828p-1", "0x1.30c655ae4cbcap+0", "0x1.1a22d49498ce8p+0", "0x1.6f50f7726c462p+0",
        "0x1.3c89f45946944p+0", "0x1.31b236bda8c70p-1", "0x1.5ac0d560dcc01p+0", "0x1.30d7c7f7de3c4p+0",
        "0x1.45885030f2a5dp+0", "0x1.e1780cb078e59p-1", "0x1.2a7f89d449718p+0", "0x1.7b20d0c398fe1p+0",
    ]
    PINNED_HISTORY = [
        "0x1.e21b1337191dcp+4", "0x1.726a1a3b531e0p+4", "0x1.52f744820003ap+4",
        "0x1.4304bb341add0p+4", "0x1.28c75639a272dp+4",
    ]

    def test_fit_is_pinned_bit_for_bit(self) -> None:
        calib = synth_calibration(seed=3, schedule=(1, 4, 9), dim=16,
                                  outliers=OutlierSpec(count=2, magnitude=20.0))
        w = np.random.default_rng(4).standard_normal((8, 16))
        problem = GaltProblem(calib, w, HadamardConfig(dim=16, group_size=8), E2M1, Granularity.per_group(8))
        lam, history = optimize_galt(problem, epochs=4, lr=0.05)
        assert [float(v).hex() for v in lam] == self.PINNED_LAMBDA
        assert [float(v).hex() for v in history] == self.PINNED_HISTORY


class TestOptimize:
    def test_zero_epochs_returns_baseline(self) -> None:
        prob = _problem(dim=128, out=64)
        lam, history = optimize_galt(prob, epochs=0)
        np.testing.assert_array_equal(lam, np.ones(128))
        baseline = sum(_forward(prob, j, _ones(prob), _y(prob, j))[0] for j in range(prob.calib.num_steps))
        assert history == [baseline]

    @pytest.mark.parametrize("epochs", [2, 10])
    @pytest.mark.parametrize("seed, out", [(3, 384), (4, 128), (5, 512)])
    def test_matches_oracle_loop(self, seed: int, out: int, epochs: int) -> None:
        base = _problem(seed, dim=128, out=out)
        prob = GaltProblem(base.calib, base.weight, HadamardConfig(dim=128, group_size=64),
                           E2M1, Granularity.per_group(64))
        lam, history = optimize_galt(prob, epochs=epochs)
        want_lam, want_history = _optimize_oracle(prob, epochs)
        assert history[0] == want_history[0]
        np.testing.assert_allclose(history, want_history, rtol=1e-12, atol=0)
        np.testing.assert_allclose(lam, want_lam, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed, out, g", [
        (3, 384, Granularity.per_group(64)), (4, 128, Granularity.per_token()), (6, 32, Granularity.per_tensor()),
    ])
    def test_matches_recomputing_loop_exactly(self, seed: int, out: int, g: Granularity) -> None:
        base = _problem(seed, dim=128, out=out)
        prob = GaltProblem(base.calib, base.weight, HadamardConfig(dim=128, group_size=64), E2M1, g)
        lam, history = optimize_galt(prob, epochs=3)
        want_lam, want_history = _optimize_recomputing(prob, epochs=3)
        assert history == want_history
        assert lam.tobytes() == want_lam.tobytes()

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -0.01])
    def test_rejects_bad_learning_rate(self, lr: float) -> None:
        with pytest.raises(ValueError, match="lr must be finite and positive"):
            optimize_galt(_problem(dim=128, out=8), epochs=1, lr=lr)

    def test_loss_improves_on_planted_outliers(self) -> None:
        prob = _problem()
        lam, history = optimize_galt(prob, epochs=8)
        assert min(history) < history[0]
        assert not np.allclose(lam, 1.0)

    def test_best_is_min_of_history(self) -> None:
        prob = _problem(dim=128, out=64)
        lam, history = optimize_galt(prob, epochs=5)
        best_idx = int(np.argmin(history))
        assert history[best_idx] == min(history)
        # Returned lambda reproduces its recorded epoch loss only for the
        # baseline entry; otherwise just confirm it never regresses.
        assert min(history) <= history[0]

    def test_problem_lambda_untouched(self) -> None:
        # The fit leaves the problem as it found it, so a second fit starts
        # from the same lambda and repeats the first bit for bit.
        prob = _problem(dim=128, out=64)
        weight, steps = prob.weight.copy(), [x.copy() for x in prob.calib.per_step]
        lam, history = optimize_galt(prob, epochs=2)
        assert prob.weight.tobytes() == weight.tobytes()
        assert all(x.tobytes() == y.tobytes() for x, y in zip(prob.calib.per_step, steps))
        again, again_history = optimize_galt(prob, epochs=2)
        assert again.tobytes() == lam.tobytes() and again_history == history


class TestFusions:
    def test_identity_lambda(self) -> None:
        affine = LayerNormAffine(np.array([0.5, -0.25]), np.array([1.0, 2.0]))
        fused = fuse_lambda(affine, np.ones(2))
        np.testing.assert_array_equal(fused.alpha, affine.alpha)
        np.testing.assert_array_equal(fused.beta, affine.beta)

    def test_affine_equivalence(self) -> None:
        rng = np.random.default_rng(11)
        c = 64
        alpha = rng.standard_normal(c)
        beta = rng.standard_normal(c)
        lam = np.exp(rng.uniform(-1, 1, c))
        x = rng.standard_normal((32, c))
        fused = fuse_lambda(LayerNormAffine(alpha, beta), lam)
        unfused = (x * (1 + alpha) + beta) * lam
        refused = x * (lam + fused.alpha) + fused.beta
        np.testing.assert_allclose(refused, unfused, rtol=1e-7)

    def test_zero_affine_is_pure_scaling(self) -> None:
        lam = np.array([2.0, 0.5])
        fused = fuse_lambda(LayerNormAffine(np.zeros(2), np.zeros(2)), lam)
        x = np.array([[1.0, 4.0]])
        np.testing.assert_array_equal(x * (lam + fused.alpha) + fused.beta, x * lam)

    def test_weight_fusion_identity_lambda(self) -> None:
        w = np.random.default_rng(12).standard_normal((16, 128))
        cfg = HadamardConfig(dim=128, group_size=128)
        np.testing.assert_array_equal(
            fuse_lambda_weight(w, np.ones(128), cfg), apply_ght(w, cfg)
        )

    def test_weight_fusion_halves_column(self) -> None:
        w = np.ones((4, 128))
        lam = np.ones(128)
        lam[3] = 2.0
        cfg = HadamardConfig(dim=128, group_size=128)
        scaled = w / lam
        np.testing.assert_array_equal(
            fuse_lambda_weight(w, lam, cfg), apply_ght(scaled, cfg)
        )
        assert scaled[0, 3] == 0.5

    def test_rejects_non_positive_lambda(self) -> None:
        cfg = HadamardConfig(dim=128, group_size=128)
        with pytest.raises(ValueError, match="positive"):
            fuse_lambda_weight(np.ones((2, 128)), np.zeros(128), cfg)
