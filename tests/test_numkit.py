import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import milrank
import milrank.numkit
from milrank.errors import NumericError, ShapeError
from milrank.numkit import BLAS_THREAD_VARS, blas_single_threaded, finite_diff_gradient, relu, stable_softmax

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


class _Params:
    """A ``tensors`` holder so the oracle can probe plain functions."""

    def __init__(self, **tensors):
        self.tensors = {name: np.array(value, dtype=np.float64) for name, value in tensors.items()}


def _scalar(value):
    return _Params(theta=[value])


class TestFiniteDiff:
    """``loss_fn`` gets every probe at once, stacked on a leading axis, and
    returns one loss per probe."""

    def test_quadratic(self):
        g = finite_diff_gradient(lambda p: p.tensors["theta"][:, 0] ** 2, _scalar(3.0))
        assert abs(g["theta"][0] - 6.0) < 1e-6

    def test_constant(self):
        g = finite_diff_gradient(lambda p: np.full(len(p.tensors["theta"]), 7.0), _scalar(2.0))
        assert g["theta"][0] == 0.0

    def test_linear(self):
        for theta in (-2.0, 0.0, 5.0):
            g = finite_diff_gradient(lambda p: 5.0 * p.tensors["theta"][:, 0], _scalar(theta))
            assert abs(g["theta"][0] - 5.0) < 1e-9

    def test_matrix_and_vector_entries(self):
        """d/dW of sum(W @ x) + b . b is x in every row and 2b; each tensor's
        gradient comes back in its own shape."""
        x = np.array([1.0, -2.0, 0.5])
        params = _Params(w=np.arange(6.0).reshape(2, 3), b=[1.5, -4.0])

        def loss(p):
            return (p.tensors["w"] @ x).sum(axis=-1) + (p.tensors["b"] ** 2).sum(axis=-1)

        g = finite_diff_gradient(loss, params)
        assert g["w"].shape == (2, 3) and g["b"].shape == (2,)
        assert np.allclose(g["w"], np.tile(x, (2, 1)), atol=1e-9)
        assert np.allclose(g["b"], [3.0, -8.0], rtol=1e-6)

    def test_probe_layout(self):
        """Probe i moves entry i by +h max(1, |theta|) and probe M + i moves it
        by the same step down; every other entry keeps its value."""
        params = _Params(w=[[0.5, -3.0]], b=[2.0])
        seen = []

        def loss(p):
            seen.append({name: t.copy() for name, t in p.tensors.items()})
            return np.zeros(6)

        finite_diff_gradient(loss, params, h=1e-3)
        flat = np.concatenate([seen[0]["w"].reshape(6, -1), seen[0]["b"]], axis=1)
        theta = np.array([0.5, -3.0, 2.0])
        step = 1e-3 * np.array([1.0, 3.0, 2.0])
        assert np.array_equal(flat, np.vstack([theta + np.diag(step), theta - np.diag(step)]))

    def test_loss_fn_called_once(self):
        calls = []

        def loss(p):
            calls.append(p)
            return p.tensors["w"].sum(axis=(1, 2)) + p.tensors["b"][:, 0]

        finite_diff_gradient(loss, _Params(w=np.ones((3, 4)), b=[0.0]))
        assert len(calls) == 1
        assert calls[0].tensors["w"].shape == (26, 3, 4) and calls[0].tensors["b"].shape == (26, 1)

    def test_params_left_bit_identical(self):
        params = _Params(w=[[0.1, -0.0], [1e300, 3.0]], b=[-7.5])
        arrays = dict(params.tensors)
        before = {name: t.tobytes() for name, t in arrays.items()}
        finite_diff_gradient(lambda p: p.tensors["w"].sum(axis=(1, 2)) + p.tensors["b"][:, 0], params)
        assert params.tensors == arrays  # the same array objects
        assert {name: t.tobytes() for name, t in params.tensors.items()} == before

    def test_nonfinite_loss_identifies_parameter(self):
        def bad(p):
            return np.full(len(p.tensors["theta"]), float("nan"))

        with pytest.raises(NumericError, match=r"theta\[0\]"):
            finite_diff_gradient(bad, _scalar(1.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_nonfinite_probe_names_its_entry(self, sign):
        """Only one probe, of the fourth entry of w, gives a non-finite loss."""
        params = _Params(b=[0.0, 0.0], w=np.zeros((2, 3)))

        def loss(p):
            with np.errstate(divide="ignore"):
                return np.log(1.0 + sign * 1e3 * p.tensors["w"][:, 1, 0])

        with pytest.raises(NumericError, match=r"non-finite loss while probing w\[3\]$"):
            finite_diff_gradient(loss, params)

    def test_restores_parameters(self):
        p = _scalar(3.0)
        finite_diff_gradient(lambda q: q.tensors["theta"][:, 0] ** 2, p)
        assert p.tensors["theta"][0] == 3.0

    def test_wrong_loss_shape_rejected(self):
        with pytest.raises(ShapeError, match="one loss per probe"):
            finite_diff_gradient(lambda p: 0.0, _scalar(1.0))

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            finite_diff_gradient(lambda p: np.zeros(2), _scalar(1.0), h=0.0)


class TestBlasProbe:
    @pytest.mark.parametrize("count,single", [(1, True), (2, False)])
    def test_reads_the_thread_count(self, monkeypatch, count, single):
        monkeypatch.setattr(milrank.numkit, "blas_thread_count", lambda: (lambda: count, lambda n: None))
        for var in BLAS_THREAD_VARS:  # the count read wins over the variables
            monkeypatch.setenv(var, "2" if single else "1")
        assert blas_single_threaded() is single

    @pytest.mark.parametrize("values,single", [(("1", "1", "1"), True), (("1", "1", "2"), False),
                                               (("1", None, "1"), False)])
    def test_unreadable_blas_needs_every_variable_at_one(self, monkeypatch, values, single):
        monkeypatch.setattr(milrank.numkit, "blas_thread_count", lambda: None)
        for var, value in zip(BLAS_THREAD_VARS, values):
            if value is None:
                monkeypatch.delenv(var, raising=False)
            else:
                monkeypatch.setenv(var, value)
        assert blas_single_threaded() is single

    def test_lookup_is_cached(self):
        assert milrank.numkit.blas_thread_count() is milrank.numkit.blas_thread_count()

    def test_import_starts_no_pool_machinery(self):
        src = str(Path(milrank.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, milrank; print(sorted(m for m in sys.modules if m.split('.')[0] in " \
               "('concurrent', 'multiprocessing')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"
