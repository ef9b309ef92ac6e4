"""Rotation tests: dense/fast equivalence, invariance, outlier amortization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fpq.hadamard import (
    HadamardConfig,
    apply_ght,
    fuse_weight_rotation,
    fwht,
    ght_flops,
    hadamard_matrix,
)


class TestMatrix:
    def test_order_one(self) -> None:
        np.testing.assert_array_equal(hadamard_matrix(1), [[1]])

    def test_order_two(self) -> None:
        np.testing.assert_array_equal(hadamard_matrix(2), [[1, 1], [1, -1]])

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_orthogonality(self, n: int) -> None:
        h = hadamard_matrix(n)
        np.testing.assert_array_equal(h @ h.T, n * np.eye(n, dtype=np.int64))
        assert set(np.unique(h)) == {-1, 1}

    @pytest.mark.parametrize("n", [0, 3, 12, 100])
    def test_rejects_non_power_of_two(self, n: int) -> None:
        with pytest.raises(ValueError, match="power of two"):
            hadamard_matrix(n)


class TestFwht:
    def test_hand_example(self) -> None:
        np.testing.assert_array_equal(fwht(np.array([1.0, 1.0])), [2.0, 0.0])

    def test_involution_up_to_n(self) -> None:
        rng = np.random.default_rng(0)
        v = rng.standard_normal(64)
        np.testing.assert_allclose(fwht(fwht(v)), 64 * v, rtol=1e-12)

    @pytest.mark.parametrize("n", [2**k for k in range(1, 11)])
    def test_matches_dense_multiply(self, n: int) -> None:
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        dense = hadamard_matrix(n).astype(np.float64) @ v
        np.testing.assert_allclose(fwht(v), dense, rtol=1e-6, atol=1e-9)

    def test_normalized_scaling(self) -> None:
        v = np.random.default_rng(1).standard_normal(128)
        np.testing.assert_allclose(fwht(v, normalized=True), fwht(v) / np.sqrt(128), rtol=1e-15)

    def test_batched_rows(self) -> None:
        x = np.random.default_rng(2).standard_normal((5, 3, 16))
        out = fwht(x)
        for i in range(5):
            for j in range(3):
                np.testing.assert_allclose(out[i, j], fwht(x[i, j]), rtol=1e-14)

    def test_rejects_bad_length(self) -> None:
        with pytest.raises(ValueError, match="power of two"):
            fwht(np.ones(12))

    def test_float32_stays_float32(self) -> None:
        out = fwht(np.ones(8, dtype=np.float32), normalized=True)
        assert out.dtype == np.float32


class TestApplyGht:
    def test_one_hot_row(self) -> None:
        cfg = HadamardConfig(dim=256, group_size=128)
        x = np.zeros((1, 256))
        x[0, 0] = 1.0
        out = apply_ght(x, cfg)
        np.testing.assert_allclose(out[0, :128], 1 / np.sqrt(128))
        np.testing.assert_array_equal(out[0, 128:], 0)

    def test_single_group_is_full_transform(self) -> None:
        x = np.random.default_rng(3).standard_normal((4, 64))
        cfg = HadamardConfig(dim=64, group_size=64)
        # The matmul and the butterfly sum in different orders, so entries
        # that cancel to near zero differ by a few ulps of the O(1) inputs.
        np.testing.assert_allclose(
            apply_ght(x, cfg), fwht(x, normalized=True), rtol=1e-14, atol=1e-14
        )

    def test_norm_preservation(self) -> None:
        x = np.random.default_rng(4).standard_normal((16, 512))
        out = apply_ght(x, HadamardConfig(dim=512, group_size=128))
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=1e-6
        )

    def test_planted_outlier_amortized(self) -> None:
        rng = np.random.default_rng(5)
        m = 1000.0
        row = rng.standard_normal((1, 256))
        row[0, 17] = m
        out = apply_ght(row, HadamardConfig(dim=256, group_size=128))
        assert np.abs(out[0, :128]).max() <= 2 * m / np.sqrt(128)
        # Channel spread collapses toward the amortized level.
        assert np.abs(out[0, :128]).max() < np.abs(row).max() / 5

    def test_shape_mismatch(self) -> None:
        with pytest.raises(ValueError, match="last axis"):
            apply_ght(np.ones((2, 100)), HadamardConfig(dim=128, group_size=128))

    def test_config_validation(self) -> None:
        with pytest.raises(ValueError, match="power of two"):
            HadamardConfig(dim=256, group_size=100)
        with pytest.raises(ValueError, match="multiple"):
            HadamardConfig(dim=200, group_size=128)


def _draw_matrix(draw, dtype, shape) -> np.ndarray:
    """Floats in [-1e3, 1e3]; magnitudes below 1e-3 become zero, because
    values near the float32 underflow limit lose precision to subnormals,
    which is not a property of the transform."""
    x = draw(arrays(dtype, shape, elements=st.floats(-1e3, 1e3, width=32)))
    x[np.abs(x) < 1e-3] = 0
    return x


@st.composite
def _ght_cases(draw, dtype):
    """A config and an input of 1-3 dims whose last axis matches it."""
    group = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128]))
    cfg = HadamardConfig(dim=group * draw(st.integers(1, 4)), group_size=group)
    lead = draw(st.lists(st.integers(1, 5), max_size=2))
    x = _draw_matrix(draw, dtype, (*lead, cfg.dim))
    return cfg, x


class TestGhtProperties:
    """The matmul GHT against the butterfly oracle, in both float widths."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_matches_fwht(self, dtype, data) -> None:
        cfg, x = data.draw(_ght_cases(dtype))
        got = apply_ght(x, cfg)
        grouped = x.reshape(*x.shape[:-1], cfg.num_blocks, cfg.group_size)
        ref = fwht(grouped, normalized=True).reshape(x.shape)
        assert got.dtype == dtype and got.shape == x.shape
        eps = np.finfo(dtype).eps
        atol = 4 * cfg.group_size * eps * max(float(np.abs(x).max(initial=0)), 1.0)
        np.testing.assert_allclose(got, ref, rtol=0, atol=atol)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @given(data=st.data())
    def test_preserves_product(self, dtype, data) -> None:
        cfg, x = data.draw(_ght_cases(dtype))
        x = x.reshape(-1, cfg.dim)
        w = _draw_matrix(data.draw, dtype, (data.draw(st.integers(1, 6)), cfg.dim))
        ref = x.astype(np.float64) @ w.T.astype(np.float64)
        got = apply_ght(x, cfg) @ fuse_weight_rotation(w, cfg).T
        eps = np.finfo(dtype).eps
        bound = 8 * cfg.dim * eps * np.outer(np.linalg.norm(x, axis=1), np.linalg.norm(w, axis=1))
        assert np.all(np.abs(got - ref) <= bound)

    def test_integer_input_computes_in_float64(self) -> None:
        out = apply_ght(np.arange(8), HadamardConfig(dim=8, group_size=4))
        assert out.dtype == np.float64
        np.testing.assert_allclose(out[:4], fwht(np.arange(4.0), normalized=True))


class TestFuse:
    def test_identity_weight(self) -> None:
        cfg = HadamardConfig(dim=128, group_size=128)
        fused = fuse_weight_rotation(np.eye(128), cfg)
        np.testing.assert_allclose(
            fused, hadamard_matrix(128).astype(float) / np.sqrt(128), rtol=1e-12
        )

    def test_invariance_float32(self) -> None:
        rng = np.random.default_rng(6)
        x = rng.standard_normal((64, 1920)).astype(np.float32)
        w = rng.standard_normal((512, 1920)).astype(np.float32)
        cfg = HadamardConfig(dim=1920, group_size=128)
        ref = x @ w.T
        got = apply_ght(x, cfg) @ fuse_weight_rotation(w, cfg).T
        rel = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert rel < 1e-5

    def test_fuse_twice_restores(self) -> None:
        w = np.random.default_rng(7).standard_normal((32, 256))
        cfg = HadamardConfig(dim=256, group_size=128)
        np.testing.assert_allclose(
            fuse_weight_rotation(fuse_weight_rotation(w, cfg), cfg), w, rtol=1e-12, atol=1e-12
        )


class TestFlops:
    def test_wide_model_ratio(self) -> None:
        ht, ght, ratio = ght_flops(1920, 128)
        assert ratio == 15
        assert ht == 2 * 1920 * 1920
        assert ght == 2 * 1920 * 128
        assert ht / ght == 15

    def test_degenerate_single_group(self) -> None:
        assert ght_flops(128, 128)[2] == 1

    def test_two_groups(self) -> None:
        assert ght_flops(256, 128)[2] == 2

    def test_divisibility_check(self) -> None:
        with pytest.raises(ValueError, match="multiple"):
            ght_flops(100, 64)
