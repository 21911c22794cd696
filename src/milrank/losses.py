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


def backward(
    fwd: StackedForward,
    params: ModelParams,
    eps: float,
    variant: str = "max-max",
    ablate_mm: bool = False,
    ablate_bcm: bool = False,
) -> GradientSet:
    """Exact gradient of ``total_loss`` with respect to every parameter, in
    one reverse pass over the stacked forward.

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
    cfg = params.config
    _check_pair(fwd)
    e = fwd.norm_scores  # (2, N)
    n_bags, n = e.shape
    fused = fwd.fused.reshape(n_bags * n, cfg.fused_dim)
    dtype = fused.dtype
    grads: GradientSet = {}

    d_norm = np.zeros_like(e)
    if not ablate_mm:
        hinge, ip, jn = _hinge(e[0], e[1], eps, variant)
        if hinge > 0.0:
            d_norm[0, ip] = -1.0
            d_norm[1, jn] = 1.0

    # classifier head: event_prob = softmax(logits)[:, 1]
    if ablate_bcm:
        for name in ("wc2", "bc2", "wc1", "bc1"):
            grads[name] = np.zeros_like(t[name])
        d_fused = np.zeros_like(fused)
    else:
        p = fwd.cls_probs
        d_prob = np.array([_bce_grad(p[0, 1], 1), _bce_grad(p[1, 1], 0)])
        d_logits = (d_prob * p[:, 1])[:, None] * (np.array([0.0, 1.0]) - p)
        d_logits = d_logits.astype(dtype, copy=False)
        grads["wc2"] = d_logits.T @ fwd.cls_hidden
        grads["bc2"] = d_logits.sum(axis=0)
        d_ch = d_logits @ t["wc2"]
        d_ch *= fwd.cls_hidden > 0
        grads["wc1"] = d_ch.T @ fwd.bag_feature
        grads["bc1"] = d_ch.sum(axis=0)
        d_fb = d_ch @ t["wc1"]  # (B, fused_dim)
        # bag feature: fB = sum_i E_i f_i
        d_norm += np.matmul(fwd.fused, d_fb[:, :, None])[:, :, 0]
        d_fused = (e.astype(dtype, copy=False)[:, :, None] * d_fb[:, None, :]).reshape(fused.shape)

    # in-bag softmax over raw scores (full Jacobian)
    d_raw = (e * (d_norm - (d_norm * e).sum(axis=1, keepdims=True))).reshape(-1).astype(dtype, copy=False)

    # scorer: raw = wh relu(ws f + bs) + bh
    grads["wh"] = (d_raw @ fwd.score_hidden)[None, :]
    grads["bh"] = np.array([d_raw.sum()])
    d_sh = np.outer(d_raw, t["wh"].ravel())
    d_sh *= fwd.score_hidden > 0
    grads["ws"] = d_sh.T @ fused
    grads["bs"] = d_sh.sum(axis=0)
    d_fused += d_sh @ t["ws"]

    # fusion: fused = base + concat_j branch_j(cat)
    d_cat = np.zeros_like(fwd.cat)
    width = cfg.fused_dim // cfg.k
    for j in range(cfg.k):
        d_z3 = d_fused[:, j * width : (j + 1) * width]
        z1, z2 = fwd.branch_z1[j], fwd.branch_z2[j]
        grads[f"f{j}_w3"] = d_z3.T @ z2
        grads[f"f{j}_b3"] = d_z3.sum(axis=0)
        d_z2 = d_z3 @ t[f"f{j}_w3"]
        d_z2 *= z2 > 0
        grads[f"f{j}_w2"] = d_z2.T @ z1
        grads[f"f{j}_b2"] = d_z2.sum(axis=0)
        d_z1 = d_z2 @ t[f"f{j}_w2"]
        d_z1 *= z1 > 0
        grads[f"f{j}_w1"] = d_z1.T @ fwd.cat
        grads[f"f{j}_b1"] = d_z1.sum(axis=0)
        d_cat += d_z1 @ t[f"f{j}_w1"]

    if fwd.ablation.no_vision:
        # base and both cat halves are the raw audio input
        for name in ("wv2", "bv2", "wv1", "bv1"):
            grads[name] = np.zeros_like(t[name])
        return grads
    da = cfg.da
    d_proj = d_fused + d_cat[:, :da]  # the residual base is the projection
    if fwd.ablation.no_audio:
        d_proj += d_cat[:, da:]
    grads["wv2"] = d_proj.T @ fwd.proj_hidden
    grads["bv2"] = d_proj.sum(axis=0)
    d_h = d_proj @ t["wv2"]
    d_h *= fwd.proj_hidden > 0
    grads["wv1"] = d_h.T @ fwd.vision
    grads["bv1"] = d_h.sum(axis=0)
    return grads
