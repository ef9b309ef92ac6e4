"""synth: each generator equals its whole-array expression bit for bit, and
builds its tensor with no full-size temporary beside the output."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import erf

from fpq import formats
from fpq.synth import GELU_PRE_MEAN, GELU_PRE_STD, gaussian_channel_weights, gelu, gelu_activations

DBL_MAX = np.finfo(np.float64).max
SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, np.inf, -np.inf, np.nan, -np.nan,
                     -37.5, -38.6, DBL_MAX, -DBL_MAX, 1.0, -1.0, 0.5])
# (100, 1024) is 102,400 elements: three whole slices of the flat walk and a partial one.
SHAPES = [(), (7,), (64, 256), (100, 1024)]


def _literal_gelu(x):
    """The whole-array expression ``synth.gelu`` has to reproduce."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def _assert_same_bits(got, want) -> None:
    assert type(got) is type(want)
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))


def _assert_gelu_is_literal(x) -> None:
    before = np.array(x, copy=True)
    with np.errstate(all="ignore"):
        want = _literal_gelu(x)
        got = gelu(x)
    _assert_same_bits(got, want)
    assert np.asarray(x).tobytes() == before.tobytes()  # gelu never writes x


class TestGeluBits:
    def test_special_values(self) -> None:
        _assert_gelu_is_literal(SPECIALS)

    def test_finite_at_the_ends_of_the_range(self) -> None:
        # (0.5 * x) * (1 + erf) is finite at +-DBL_MAX; x * (1 + erf) * 0.5 overflows at +DBL_MAX.
        assert gelu(DBL_MAX) == DBL_MAX and gelu(-DBL_MAX) == 0.0
        with np.errstate(over="ignore"):
            assert np.isinf(DBL_MAX * (1.0 + erf(DBL_MAX / np.sqrt(2.0))) * 0.5)

    @given(x=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=20),
                    elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)))
    def test_float64_arrays(self, x) -> None:
        _assert_gelu_is_literal(x)

    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_every_bit_pattern(self, bits) -> None:
        # Raw words reach every NaN payload, signalling NaNs and both signs included.
        _assert_gelu_is_literal(np.array(bits, dtype=np.uint64).view(np.float64))

    @pytest.mark.parametrize("x", [
        np.linspace(-9, 9, 70, dtype=np.float32),
        np.arange(-20, 21),
        np.random.default_rng(1).normal(size=(40, 30))[:, ::3],
        np.random.default_rng(2).normal(size=(30, 40)).T,
        np.random.default_rng(3).normal(size=(200, 400))[::-1, 1::2],
        [-1.5, 0.0, 2.5],
    ], ids=["float32", "int", "strided", "transposed", "strided_multi_slice", "list"])
    def test_other_inputs(self, x) -> None:
        _assert_gelu_is_literal(x)

    @pytest.mark.parametrize("x", [1.5, -0.0, np.float64(2.0), np.float32(-3.0), np.array(0.25), 7],
                             ids=["float", "neg_zero", "np_float64", "np_float32", "0d_array", "int"])
    def test_0d_input_gives_a_numpy_scalar(self, x) -> None:
        got = gelu(x)
        assert isinstance(got, np.float64) and not isinstance(got, np.ndarray)
        _assert_gelu_is_literal(x)


class TestDrawsBits:
    @pytest.mark.parametrize("shape", SHAPES, ids=str)
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_gelu_activations(self, seed, shape) -> None:
        z = np.random.default_rng(seed).normal(GELU_PRE_MEAN, GELU_PRE_STD, size=shape)
        _assert_same_bits(gelu_activations(seed, shape), _literal_gelu(z))

    @pytest.mark.parametrize("rows, cols", [(1, 1), (7, 3), (64, 256), (100, 1024)])
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    def test_gaussian_channel_weights(self, seed, rows, cols) -> None:
        rng = np.random.default_rng(seed)
        sigma = rng.uniform(0.5, 2.0, size=(rows, 1))
        _assert_same_bits(gaussian_channel_weights(seed, rows, cols), rng.standard_normal((rows, cols)) * sigma)


X = gelu_activations(9, (512, 1024))


@pytest.mark.parametrize("draw", [
    lambda: gelu_activations(7, (512, 1024)),
    lambda: gaussian_channel_weights(7, 512, 1024),
    lambda: gelu(X),
], ids=["gelu_activations", "gaussian_channel_weights", "gelu"])
def test_draw_holds_no_full_size_temporary(draw) -> None:
    """A 512 x 1024 draw peaks within its output plus two float64 slice
    buffers and 64 KiB: the whole-array expressions held 4x the output
    (GeLU) and 2x (the weight)."""
    draw()
    tracemalloc.start()
    try:
        out = draw()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 2 * formats._BLOCK * 8 + 2**16
