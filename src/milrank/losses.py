"""Objectives: hinge ranking losses over per-bag score statistics, binary
cross-entropy on the bag event probability, and the exact gradient of the
combined objective via reverse accumulation through the cached forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .model import ModelParams, StackedForward
from .numkit import GradientSet

BCE_CLAMP = 1e-7


@dataclass(frozen=True)
class LossBreakdown:
    """Loss terms; arrays over the probe axes of a forward with probe axes."""

    mm: float
    bce_pos: float
    bce_neg: float

    @property
    def total(self) -> float:
        return self.mm + self.bce_pos + self.bce_neg


# variant -> (positive statistic is the max, negative statistic is the max)
_VARIANT_OPS = {
    "max-max": (True, True),
    "min-min": (False, False),
    "min-max": (False, True),
    "max-min": (True, False),
}
VARIANTS = tuple(_VARIANT_OPS)


def _hinge(ep: np.ndarray, en: np.ndarray, eps: float, variant: str):
    """Hinge of the ranking loss over positive and negative score sequences on
    the last axis, and the index each statistic selects, over any leading axes;
    ties go to the lowest index, and a NaN score propagates to the hinge."""
    try:
        pos_max, neg_max = _VARIANT_OPS[variant]
    except KeyError:
        raise ConfigError(f"unknown ranking loss variant {variant!r}") from None
    ip = ep.argmax(axis=-1) if pos_max else ep.argmin(axis=-1)
    jn = en.argmax(axis=-1) if neg_max else en.argmin(axis=-1)
    sp = ep.max(axis=-1) if pos_max else ep.min(axis=-1)
    sn = en.max(axis=-1) if neg_max else en.min(axis=-1)
    return np.maximum(0.0, eps - sp + sn), ip, jn


def variant_ranking_loss(ep, en, eps: float, variant: str) -> float:
    """Ranking loss of one positive and one negative score sequence under any
    of the ``VARIANTS``."""
    ep = np.asarray(ep, dtype=np.float64)
    en = np.asarray(en, dtype=np.float64)
    if ep.size == 0 or en.size == 0:
        raise DataError("ranking loss needs nonempty score sequences")
    return float(_hinge(ep, en, eps, variant)[0])


def mm_ranking_loss(ep, en, eps: float) -> float:
    return variant_ranking_loss(ep, en, eps, "max-max")


def bce(y: float, label: int) -> float:
    """Clamped binary cross-entropy, elementwise over an array of probabilities."""
    y = np.minimum(np.maximum(y, BCE_CLAMP), 1.0 - BCE_CLAMP)
    if label == 1:
        return -np.log(y)
    if label == 0:
        return -np.log(1.0 - y)
    raise ConfigError(f"binary label must be 0 or 1, got {label!r}")


def _check_pair(fwd: StackedForward) -> None:
    if fwd.norm_scores.shape[-2] != 2:
        raise ShapeError(f"{fwd.norm_scores.shape[-2]} stacked bags, expected one positive and one negative")


def total_loss(
    fwd: StackedForward,
    eps: float,
    variant: str = "max-max",
    ablate_mm: bool = False,
    ablate_bcm: bool = False,
) -> LossBreakdown:
    """Loss of a stacked forward over two bags: bag 0 is the positive, bag 1
    the negative.  A forward over parameters with leading probe axes gives
    one loss per probe."""
    if ablate_mm and ablate_bcm:
        raise ConfigError("ablating both the ranking and classification terms leaves no objective")
    _check_pair(fwd)
    e = fwd.norm_scores
    mm = 0.0 if ablate_mm else _hinge(e[..., 0, :], e[..., 1, :], eps, variant)[0]
    bp = 0.0 if ablate_bcm else bce(fwd.event_prob[..., 0], 1)
    bn = 0.0 if ablate_bcm else bce(fwd.event_prob[..., 1], 0)
    return LossBreakdown(mm=mm, bce_pos=bp, bce_neg=bn)


# ---------------------------------------------------------------------------
# Backward


def _bce_grad(y: float, label: int) -> float:
    # gradient of the clamped BCE; zero inside the clamp region
    if y <= BCE_CLAMP or y >= 1.0 - BCE_CLAMP:
        return 0.0
    return -1.0 / y if label == 1 else 1.0 / (1.0 - y)


def _dense_grad(grads: GradientSet, fwd: StackedForward, t: dict, w: str, b: str, d_z: np.ndarray, relu_input=False):
    """The reverse of ``model._dense``: from the gradient ``d_z`` of its output,
    the layer's weight and bias gradients go into ``grads``; returns the
    gradient of its cached input, masked by ``x > 0`` if that is a relu output."""
    x = fwd.layer_inputs[w]
    grads[w] = d_z.T @ x
    grads[b] = d_z.sum(axis=0)
    d_x = d_z @ t[w]
    if relu_input:
        d_x *= x > 0
    return d_x


def backward(
    fwd: StackedForward,
    params: ModelParams,
    eps: float,
    variant: str = "max-max",
    ablate_mm: bool = False,
    ablate_bcm: bool = False,
) -> GradientSet:
    """Exact gradient of ``total_loss`` with respect to every parameter, in
    one reverse pass over the stacked forward; zero for the parameters of a
    layer that did not run or of an ablated loss term.

    The hinge uses subgradient 0 at the kink; the max/min selections route
    gradient only through the selected instance, while the in-bag softmax
    Jacobian spreads it over every raw score.  The per-row chain runs in the
    dtype of the forward's caches: float64 head quantities are cast to it.
    """
    if fwd.params_version != params.version:
        raise ConfigError("forward cache is stale (params changed since forward)")
    if ablate_mm and ablate_bcm:
        raise ConfigError("ablating both the ranking and classification terms leaves no objective")
    t = params.tensors
    _check_pair(fwd)
    e = fwd.norm_scores  # (2, N)
    dtype = fwd.fused.dtype
    grads: GradientSet = {}

    d_norm = np.zeros_like(e)
    if not ablate_mm:
        hinge, ip, jn = _hinge(e[0], e[1], eps, variant)
        if hinge > 0.0:
            d_norm[0, ip] = -1.0
            d_norm[1, jn] = 1.0

    if not ablate_bcm:
        # classifier head: event_prob = softmax(logits)[:, 1]
        p = fwd.cls_probs
        d_prob = np.array([_bce_grad(p[0, 1], 1), _bce_grad(p[1, 1], 0)])
        d_logits = (d_prob * p[:, 1])[:, None] * (np.array([0.0, 1.0]) - p)
        d_ch = _dense_grad(grads, fwd, t, "wc2", "bc2", d_logits.astype(dtype, copy=False), relu_input=True)
        d_fb = _dense_grad(grads, fwd, t, "wc1", "bc1", d_ch)  # (B, fused_dim)
        # bag feature: fB = sum_i E_i f_i
        d_norm += np.matmul(fwd.fused, d_fb[:, :, None])[:, :, 0]

    # in-bag softmax over raw scores (full Jacobian)
    d_raw = (e * (d_norm - (d_norm * e).sum(axis=1, keepdims=True))).reshape(-1, 1).astype(dtype, copy=False)

    # scorer: raw = wh relu(ws f + bs) + bh
    d_sh = _dense_grad(grads, fwd, t, "wh", "bh", d_raw, relu_input=True)
    d_fused = _dense_grad(grads, fwd, t, "ws", "bs", d_sh)
    if not ablate_bcm:
        d_fused += (e.astype(dtype, copy=False)[:, :, None] * d_fb[:, None, :]).reshape(d_fused.shape)

    # fusion: fused = base + concat_j branch_j(cat)
    d_cat = np.zeros_like(fwd.layer_inputs["f0_w1"])
    width = params.config.fused_dim // params.config.k
    for j in range(params.config.k):
        d_z3 = d_fused[:, j * width : (j + 1) * width]
        d_z2 = _dense_grad(grads, fwd, t, f"f{j}_w3", f"f{j}_b3", d_z3, relu_input=True)
        d_z1 = _dense_grad(grads, fwd, t, f"f{j}_w2", f"f{j}_b2", d_z2, relu_input=True)
        d_cat += _dense_grad(grads, fwd, t, f"f{j}_w1", f"f{j}_b1", d_z1)

    if not fwd.ablation.no_vision:
        d_proj = d_fused + d_cat[:, : params.config.da]  # the residual base is the projection
        if fwd.ablation.no_audio:
            d_proj += d_cat[:, params.config.da :]
        d_h = _dense_grad(grads, fwd, t, "wv2", "bv2", d_proj, relu_input=True)
        # the input layer: the input features need no gradient
        grads["wv1"] = d_h.T @ fwd.layer_inputs["wv1"]
        grads["bv1"] = d_h.sum(axis=0)
    return {name: grads[name] if name in grads else np.zeros_like(theta) for name, theta in t.items()}
