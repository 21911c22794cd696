"""Minimal dense numeric kernel.

Vectors and matrices are plain numpy arrays.  Feature storage on disk is
float32; the network computes in the dtype of its parameters (float32 while
training, float64 otherwise), and softmax sums always accumulate in float64.
"""

from __future__ import annotations

import copy
import functools
import os
from typing import Callable, Dict, Mapping, Optional

import numpy as np

from .errors import NumericError, ShapeError

GradientSet = Dict[str, np.ndarray]

# Environment variables that set the thread count of the common BLAS builds.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@functools.lru_cache(maxsize=None)
def blas_thread_count():
    """(get, set) C functions of the OpenBLAS that numpy links, or None.
    Looked up once per process."""
    import ctypes

    try:
        umath = np._core._multiarray_umath
    except AttributeError:  # numpy < 2
        umath = np.core._multiarray_umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_single_threaded() -> bool:
    """Whether a BLAS call runs on its calling thread alone: the OpenBLAS
    thread count reads 1, or, where it cannot be read, the thread variables
    are all ``1``."""
    blas = blas_thread_count()
    if blas is None:
        return all(os.environ.get(var) == "1" for var in BLAS_THREAD_VARS)
    return blas[0]() == 1


def usable_cpus() -> int:
    """The CPUs in this process's affinity mask, so ``taskset`` limits it."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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


def finite_diff_gradient(loss_fn: Callable[[object], np.ndarray], params, h: float = 1e-3) -> GradientSet:
    """Central-difference gradient of a scalar loss over every parameter entry.

    ``params`` is any object exposing a ``tensors`` mapping of name -> float64
    ndarray; it is never written.  The per-entry step is ``h * max(1, |theta|)``.
    With M entries in all, ``loss_fn`` is called once, on a shallow copy of
    ``params`` whose tensors carry a leading axis of 2M probes (2M^2 values):
    probe ``i`` moves entry ``i`` (in mapping order, row-major) by +step and
    probe ``M + i`` by -step.  It must return the 2M losses.
    """
    if h <= 0:
        raise ValueError("finite-difference step must be positive")
    tensors: Mapping[str, np.ndarray] = params.tensors
    offsets = np.cumsum([0] + [t.size for t in tensors.values()])

    def split(a: np.ndarray) -> GradientSet:  # each tensor's part of the last axis of a
        return {name: a[..., lo : lo + t.size].reshape(a.shape[:-1] + t.shape)
                for (name, t), lo in zip(tensors.items(), offsets)}

    theta = np.concatenate([t.reshape(-1) for t in tensors.values()])
    m = theta.size
    step = h * np.maximum(1.0, np.abs(theta))
    flat = np.tile(theta, (2 * m, 1))
    diag = np.arange(m)
    flat[diag, diag] += step
    flat[m + diag, diag] -= step
    probe = copy.copy(params)
    probe.tensors = split(flat)
    losses = np.asarray(loss_fn(probe), dtype=np.float64)
    if losses.shape != (2 * m,):
        raise ShapeError(f"loss_fn returned shape {losses.shape}, expected one loss per probe {(2 * m,)}")
    if not np.isfinite(losses).all():
        bad = ~(np.isfinite(losses[:m]) & np.isfinite(losses[m:]))
        name, entries = next((name, b) for name, b in split(bad).items() if b.any())
        raise NumericError(f"non-finite loss while probing {name}[{int(entries.argmax())}]")
    return split((losses[:m] - losses[m:]) / (2.0 * step))
