"""Minimal dense numeric kernel.

Vectors and matrices are plain numpy arrays.  Feature storage on disk is
float32; the network computes in the dtype of its parameters (float32 while
training, float64 otherwise), and softmax sums always accumulate in float64.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from .errors import NumericError, ShapeError

GradientSet = Dict[str, np.ndarray]


def relu(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis with max-subtraction, accumulated in
    float64."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ShapeError("softmax of an empty vector")
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def require_finite(a: np.ndarray, what: str) -> None:
    if not np.isfinite(a).all():
        raise NumericError(f"non-finite values in {what}")


def finite_diff_gradient(
    loss_fn: Callable[[object], float],
    params,
    h: float = 1e-3,
) -> GradientSet:
    """Central-difference gradient of a scalar loss over every parameter entry.

    ``params`` is any object exposing a ``tensors`` mapping of name -> float64
    ndarray.  The per-entry step is ``h * max(1, |theta|)``.  Entries are
    perturbed in place and restored, so ``loss_fn`` must be a pure function of
    the parameter values.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    tensors: Mapping[str, np.ndarray] = params.tensors
    grads: GradientSet = {}
    for name, tensor in tensors.items():
        flat = tensor.reshape(-1)
        g = np.zeros(flat.shape, dtype=np.float64)
        for i in range(flat.size):
            orig = flat[i]
            step = h * max(1.0, abs(float(orig)))
            flat[i] = orig + step
            lp = float(loss_fn(params))
            flat[i] = orig - step
            lm = float(loss_fn(params))
            flat[i] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NumericError(f"non-finite loss while probing {name}[{i}]")
            g[i] = (lp - lm) / (2.0 * step)
        grads[name] = g.reshape(tensor.shape)
    return grads
