import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from milrank.errors import NumericError, ShapeError
from milrank.numkit import finite_diff_gradient, relu, stable_softmax

finite_vecs = st.lists(
    st.floats(min_value=-1e4, max_value=1e4, allow_nan=False), min_size=1, max_size=20
).map(lambda v: np.asarray(v, dtype=np.float64))


class TestRelu:
    def test_sign_split(self):
        assert np.array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_zero(self):
        assert np.array_equal(relu(np.zeros(2)), np.zeros(2))

    def test_positive_passthrough(self):
        assert np.array_equal(relu(np.array([3.5, 0.1])), [3.5, 0.1])

    @given(finite_vecs)
    def test_idempotent(self, x):
        once = relu(x)
        assert np.array_equal(relu(once), once)


class TestStableSoftmax:
    def test_constant_input(self):
        for c in (0.0, -3.0, 1e4):
            assert np.allclose(stable_softmax(np.full(4, c)), 0.25)

    def test_single_element(self):
        assert np.allclose(stable_softmax(np.array([42.0])), [1.0])

    def test_hand_value(self):
        out = stable_softmax(np.array([0.0, math.log(3.0)]))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_empty_errors(self):
        with pytest.raises(ShapeError):
            stable_softmax(np.array([]))

    @given(finite_vecs)
    def test_sums_to_one_large_magnitudes(self, x):
        assert abs(stable_softmax(x).sum() - 1.0) < 1e-6

    @given(finite_vecs, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_shift_invariance(self, x, c):
        assert np.allclose(stable_softmax(x), stable_softmax(x + c), atol=1e-6)

    @given(finite_vecs)
    def test_argmax_preserved(self, x):
        # only meaningful when the max is unique by a representable margin
        gap = np.sort(x)[-1] - np.sort(x)[-2] if x.size > 1 else 1.0
        if gap > 1e-9:
            assert np.argmax(stable_softmax(x)) == np.argmax(x)


class _ScalarParams:
    """Single-parameter holder so the oracle can probe plain functions."""

    def __init__(self, value):
        self.tensors = {"theta": np.array([value], dtype=np.float64)}


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_gradient(lambda p: float(p.tensors["theta"][0] ** 2), _ScalarParams(3.0))
        assert abs(g["theta"][0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_gradient(lambda p: 7.0, _ScalarParams(2.0))
        assert g["theta"][0] == 0.0

    def test_linear(self):
        for theta in (-2.0, 0.0, 5.0):
            g = finite_diff_gradient(
                lambda p: 5.0 * float(p.tensors["theta"][0]), _ScalarParams(theta)
            )
            assert abs(g["theta"][0] - 5.0) < 1e-9

    def test_nonfinite_loss_identifies_parameter(self):
        def bad(p):
            return float("nan")

        with pytest.raises(NumericError, match="theta"):
            finite_diff_gradient(bad, _ScalarParams(1.0))

    def test_restores_parameters(self):
        p = _ScalarParams(3.0)
        finite_diff_gradient(lambda q: float(q.tensors["theta"][0] ** 2), p)
        assert p.tensors["theta"][0] == 3.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: 0.0, _ScalarParams(1.0), h=0.0)
