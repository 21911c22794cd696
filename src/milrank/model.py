"""Network definition: vision projection, k-branch vision-audio fusion with a
residual connection, per-instance highlight scoring, within-bag softmax
normalization, score-weighted bag pooling, and a two-way bag event classifier.

Parameters live in a flat name -> ndarray mapping so that the optimizer,
checkpoints, and the finite-difference oracle can treat them uniformly; they
are float32 while training and float64 everywhere else.  Weight matrices are
(out, in); a batch X of shape (N, in) is transformed as X @ W.T + b, over any
leading probe axes of W (..., out, in) and b (..., out): the forward then runs
one network per probe, and its outputs gain those axes.
"""

from __future__ import annotations

import _thread
import itertools
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .data import Bag, VideoRecord
from .errors import ConfigError, ShapeError
from .numkit import blas_single_threaded, relu, require_finite, stable_softmax, usable_cpus

# Rows per block when scoring a video, whatever the thread count.  Blocks this
# small keep the forward's intermediates small enough to reuse the same memory
# from block to block, where a whole long video would allocate and fault in
# tens of megabytes per call; below this size, a thread's start and its share
# of the GIL cost more than the rows' matmuls save (on a 2-core host two
# threads were 0.89-0.97x of one on videos of 64-128 rows, and 1.5-1.8x from
# 192 rows on).
SCORE_BLOCK_ROWS = 96


@dataclass(frozen=True)
class ModelConfig:
    """Layer widths.  The fused feature width equals the audio width; each of
    the k fusion branches emits fused_dim / k coordinates."""

    dv: int = 512  # vision feature width
    da: int = 128  # audio feature width (= fused width)
    hv: int = 256  # vision projection hidden width
    hf: int = 128  # fusion branch hidden width
    ds: int = 64  # scorer subspace width
    hc: int = 64  # classifier hidden width
    k: int = 4  # fusion branch count

    @property
    def fused_dim(self) -> int:
        return self.da

    def validate(self) -> None:
        for name in ("dv", "da", "hv", "hf", "ds", "hc", "k"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ConfigError(f"model width {name} must be an int, got {value!r}")
            if value < 1:
                raise ConfigError(f"model width {name} must be >= 1")
        if self.fused_dim % self.k != 0:
            raise ConfigError(f"branch count k={self.k} must divide the fused width {self.fused_dim}")


@dataclass(frozen=True)
class Ablation:
    no_audio: bool = False
    no_vision: bool = False

    def validate(self) -> None:
        if self.no_audio and self.no_vision:
            raise ConfigError("cannot ablate both audio and vision")


class ModelParams:
    """All learnable tensors plus a version token bumped on every mutation."""

    def __init__(self, config: ModelConfig, tensors: Dict[str, np.ndarray]):
        self.config = config
        self.tensors = tensors
        self.version = 0

    def bump_version(self) -> None:
        self.version += 1

    def copy(self) -> "ModelParams":
        out = ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})
        out.version = self.version
        return out


def _layer_shapes(config: ModelConfig) -> List:
    shapes = [
        ("wv1", (config.hv, config.dv)),
        ("bv1", (config.hv,)),
        ("wv2", (config.da, config.hv)),
        ("bv2", (config.da,)),
    ]
    branch_out = config.fused_dim // config.k
    for j in range(config.k):
        shapes += [
            (f"f{j}_w1", (config.hf, 2 * config.da)),
            (f"f{j}_b1", (config.hf,)),
            (f"f{j}_w2", (config.hf, config.hf)),
            (f"f{j}_b2", (config.hf,)),
            (f"f{j}_w3", (branch_out, config.hf)),
            (f"f{j}_b3", (branch_out,)),
        ]
    shapes += [
        ("ws", (config.ds, config.fused_dim)),
        ("bs", (config.ds,)),
        ("wh", (1, config.ds)),
        ("bh", (1,)),
        ("wc1", (config.hc, config.fused_dim)),
        ("bc1", (config.hc,)),
        ("wc2", (2, config.hc)),
        ("bc2", (2,)),
    ]
    return shapes


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Glorot-style uniform weights in [-sqrt(6/fan_in), +sqrt(6/fan_in)],
    zero biases, deterministic in the seed (PCG64)."""
    config.validate()
    rng = np.random.default_rng(seed)
    tensors: Dict[str, np.ndarray] = {}
    for name, shape in _layer_shapes(config):
        if len(shape) == 1:
            tensors[name] = np.zeros(shape, dtype=np.float64)
        else:
            limit = np.sqrt(6.0 / shape[1])
            tensors[name] = rng.uniform(-limit, limit, size=shape).astype(np.float64)
    return ModelParams(config, tensors)


def zero_like_params(params: ModelParams) -> Dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


@dataclass
class StackedForward:
    """Every intermediate of one forward pass over B bags of N instances,
    cached for the backward.

    Outputs carry any probe axes, then a bag axis.  ``layer_inputs`` maps the
    weight name of every dense layer that ran to the input it took, so the
    backward can apply one reverse rule per layer; the per-instance inputs are
    flat, with bag ``b`` in rows ``b*N`` to ``(b+1)*N``.  The classifier head
    fields are None, and its layers absent, when the forward ran without it.
    """

    fused: np.ndarray  # (B, N, fused_dim)
    raw_scores: np.ndarray  # (B, N)
    norm_scores: np.ndarray  # (B, N), in-bag softmax of raw_scores
    bag_feature: Optional[np.ndarray]  # (B, fused_dim)
    event_prob: Optional[np.ndarray]  # (B,)
    layer_inputs: Dict[str, np.ndarray]
    cls_probs: Optional[np.ndarray]  # softmax of the two logits, (B, 2)
    ablation: Ablation
    params_version: int


@dataclass
class BagForward:
    """The outputs of a single bag."""

    fused: np.ndarray  # (N, fused_dim)
    raw_scores: np.ndarray  # (N,)
    norm_scores: np.ndarray  # (N,)
    bag_feature: np.ndarray  # (fused_dim,)
    event_prob: float


def _dense(x: np.ndarray, t: Dict[str, np.ndarray], w: str, b: str, inputs: Dict, act: bool = False) -> np.ndarray:
    """x @ t[w].T + t[b] over any probe axes of the weights, then relu if
    ``act``; ``x`` is recorded as ``inputs[w]`` for the backward.  The bias and
    the relu are applied in place on the matmul output: the same operations in
    the same order as the expression, without its temporaries."""
    inputs[w] = x
    z = x @ t[w].swapaxes(-1, -2)
    z += t[b][..., None, :]
    return relu(z, out=z) if act else z


def forward_stacked(
    vision: np.ndarray,
    audio: np.ndarray,
    params: ModelParams,
    ablation: Ablation = Ablation(),
    head: bool = True,
) -> StackedForward:
    """The network over B bags of N instances, stacked as (B, N, width).

    The per-instance layers (vision projection, k-branch fusion, scorer) run
    once over all B*N rows, in the dtype of ``params``; the in-bag softmax,
    score-weighted pooling and bag classifier run per bag in float64.
    ``head=False`` skips pooling and the classifier for callers that read no
    event probability.
    """
    ablation.validate()
    cfg = params.config
    t = params.tensors
    v = np.asarray(vision, dtype=t["ws"].dtype)
    a = np.asarray(audio, dtype=t["ws"].dtype)
    if v.ndim != 3 or v.shape[2] != cfg.dv:
        raise ShapeError(f"vision has shape {v.shape}, expected (B, N, {cfg.dv})")
    if a.shape != v.shape[:2] + (cfg.da,):
        raise ShapeError(f"audio has shape {a.shape}, expected {v.shape[:2] + (cfg.da,)}")
    n_bags, n = v.shape[:2]
    v = v.reshape(n_bags * n, cfg.dv)
    a = a.reshape(n_bags * n, cfg.da)

    inputs: Dict[str, np.ndarray] = {}
    if ablation.no_vision:
        base = a
        cat = np.concatenate([a, a], axis=-1)
    else:
        proj_hidden = _dense(v, t, "wv1", "bv1", inputs, act=True)
        base = _dense(proj_hidden, t, "wv2", "bv2", inputs)
        a = a if a.ndim == base.ndim else np.broadcast_to(a, base.shape)  # probe axes on the weights only
        cat = np.concatenate([base, base if ablation.no_audio else a], axis=-1)

    outs = []
    for j in range(cfg.k):
        z1 = _dense(cat, t, f"f{j}_w1", f"f{j}_b1", inputs, act=True)
        z2 = _dense(z1, t, f"f{j}_w2", f"f{j}_b2", inputs, act=True)
        outs.append(_dense(z2, t, f"f{j}_w3", f"f{j}_b3", inputs))
    fused = np.concatenate(outs, axis=-1)
    fused += base
    score_hidden = _dense(fused, t, "ws", "bs", inputs, act=True)
    raw = _dense(score_hidden, t, "wh", "bh", inputs)
    raw = raw.reshape(raw.shape[:-2] + (n_bags, n))
    require_finite(raw, "raw scores")
    norm = stable_softmax(raw)
    fused = fused.reshape(fused.shape[:-2] + (n_bags, n, cfg.fused_dim))

    fb = probs = event_prob = None
    if head:
        fb = np.matmul(norm[..., None, :], fused)[..., 0, :]
        cls_hidden = _dense(fb, t, "wc1", "bc1", inputs, act=True)
        probs = stable_softmax(_dense(cls_hidden, t, "wc2", "bc2", inputs))
        event_prob = probs[..., 1]
    return StackedForward(
        fused=fused,
        raw_scores=raw,
        norm_scores=norm,
        bag_feature=fb,
        event_prob=event_prob,
        layer_inputs=inputs,
        cls_probs=probs,
        ablation=ablation,
        params_version=params.version,
    )


def forward_bag(bag: Bag, params: ModelParams, ablation: Ablation = Ablation()) -> BagForward:
    fwd = forward_stacked(np.asarray(bag.vision)[None], np.asarray(bag.audio)[None], params, ablation)
    return BagForward(
        fused=fwd.fused[0],
        raw_scores=fwd.raw_scores[0],
        norm_scores=fwd.norm_scores[0],
        bag_feature=fwd.bag_feature[0],
        event_prob=float(fwd.event_prob[0]),
    )


def score_video(
    video: VideoRecord, params: ModelParams, ablation: Ablation = Ablation()
) -> np.ndarray:
    """Raw per-segment highlight scores; each segment is scored independently,
    so ranking by these matches ranking by any within-video softmax.

    The n rows are split into ``max(1, n // SCORE_BLOCK_ROWS)`` blocks of
    near-equal size, whatever the thread count, so the scores do not depend
    on how many threads ran them.  When BLAS holds one thread, one helper
    thread per further usable CPU is started (numpy releases the GIL inside
    BLAS), and the calling thread and the helpers claim blocks in row order
    until none is left.  The caller waits only for blocks a helper has
    claimed, never for a helper to start: where another process holds the
    other CPUs, a helper that is not scheduled in time finds nothing left to
    claim and exits, and the call runs at the speed of one thread instead of
    waiting on it.  About ``SCORE_BLOCK_ROWS`` rows per thread are in flight
    at once, so the memory a call takes does not grow with the video's
    length.  Every block is scored, and the error of the lowest-indexed
    failing block is raised."""
    n = video.n_segments
    if n == 0:
        raise ShapeError(f"{video.video_id}: empty video")
    n_blocks = max(1, n // SCORE_BLOCK_ROWS)
    edges = [n * b // n_blocks for b in range(n_blocks + 1)]
    blocks: List = [None] * n_blocks
    scored = [threading.Event() for _ in range(n_blocks)]
    claims = itertools.count()  # next() is atomic under the GIL, so each block is claimed once

    def work() -> None:
        for b in claims:
            if b >= n_blocks:
                return
            rows = slice(edges[b], edges[b + 1])
            try:  # no block's intermediates outlive its forward
                blocks[b] = forward_stacked(
                    video.vision[None, rows], video.audio[None, rows], params, ablation, head=False
                ).raw_scores[0]
            except BaseException as exc:
                blocks[b] = exc
            scored[b].set()

    workers = usable_cpus() if blas_single_threaded() else 1
    for _ in range(min(workers, n_blocks) - 1):
        # not threading.Thread: its start() waits until the thread runs
        _thread.start_new_thread(work, ())
    work()
    for event in scored:
        event.wait()
    for block in blocks:
        if isinstance(block, BaseException):
            raise block
    return np.concatenate(blocks)
