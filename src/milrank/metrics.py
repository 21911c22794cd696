"""Ranking metrics and model evaluation: average precision, AP over the
top-k ranks, per-event aggregation, and highlight extraction.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .data import VideoRecord
from .errors import DataError, ShapeError
from .model import Ablation, ModelParams, score_video


class ScoredSegment(NamedTuple):
    segment_index: int
    start_s: float
    score: float


@dataclass
class EvalReport:
    event: str
    metric: str  # "mAP" | "top5-mAP"
    per_video: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def aggregate(self) -> float:
        if not self.per_video:
            return 0.0
        return float(np.mean([ap for _, ap in self.per_video]))

    def to_text(self) -> str:
        lines = [f"event\t{self.event}\tmetric\t{self.metric}"]
        lines += [f"{vid}\t{ap:.10g}" for vid, ap in self.per_video]
        lines.append(f"aggregate\t{self.aggregate:.10g}")
        return "\n".join(lines) + "\n"


def _ranked_labels(labels: np.ndarray, scores: np.ndarray) -> np.ndarray:
    if labels.shape != scores.shape:
        raise ShapeError(f"{labels.shape[0]} labels for {scores.shape[0]} scores")
    if labels.size == 0:
        raise ShapeError("empty label sequence")
    # sort by descending score; ties by ascending original index
    order = np.lexsort((np.arange(scores.size), -scores))
    return labels[order]


def average_precision(labels: Sequence[int], scores: Sequence[float]) -> float:
    """Mean of precision-at-rank over the positive ranks; 0 when there are no
    positives."""
    return ap_at_k(labels, scores, len(labels))


def ap_at_k(labels: Sequence[int], scores: Sequence[float], k: int) -> float:
    """AP restricted to the top-k ranks, normalized by min(P, k)."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    ranked = _ranked_labels(labels, scores)
    if k < 1:
        raise ShapeError("k must be >= 1")
    n_pos = int(ranked.sum())
    if n_pos == 0:
        return 0.0
    top = ranked[:k]
    hits = np.cumsum(top)
    prec = hits / np.arange(1, top.size + 1)
    # sequential accumulation in rank order keeps the result bit-identical to
    # a direct evaluation of the definition
    return float(sum(prec[top == 1]) / min(n_pos, k))


def binarize_importance(importance: Sequence[int]) -> np.ndarray:
    """Mark the top 50% of segments by importance as positives.  Ties break
    toward the earlier segment."""
    imp = np.asarray(importance, dtype=np.float64)
    if imp.size == 0:
        raise ShapeError("empty importance sequence")
    n_pos = max(1, imp.size // 2)
    order = np.lexsort((np.arange(imp.size), -imp))
    labels = np.zeros(imp.size, dtype=np.int64)
    labels[order[:n_pos]] = 1
    return labels


def evaluate_map(
    params: ModelParams,
    videos: Sequence[VideoRecord],
    event: str,
    ablation: Ablation = Ablation(),
) -> EvalReport:
    """Per-video average precision of the segment ranking against binary
    labels, averaged over videos."""
    report = EvalReport(event=event, metric="mAP")
    for video in videos:
        if video.labels is None:
            raise DataError(f"{video.video_id}: no labels")
        labels = np.asarray(video.labels)
        if not np.all((labels == 0) | (labels == 1)):
            raise DataError(f"{video.video_id}: labels must be binary for mAP")
        scores = score_video(video, params, ablation)
        report.per_video.append((video.video_id, average_precision(labels, scores)))
    return report


def evaluate_top5_map(
    params: ModelParams,
    videos: Sequence[VideoRecord],
    event: str,
    ablation: Ablation = Ablation(),
) -> EvalReport:
    """Top-5 AP per video against its importance labels binarized by the
    top-50% rule, averaged over videos."""
    report = EvalReport(event=event, metric="top5-mAP")
    for video in videos:
        if video.labels is None:
            raise DataError(f"{video.video_id}: no importance labels")
        scores = score_video(video, params, ablation)
        ap = ap_at_k(binarize_importance(video.labels), scores, 5)
        report.per_video.append((video.video_id, ap))
    return report


def scored_segments(video: VideoRecord, params: ModelParams, ablation: Ablation = Ablation()) -> List[ScoredSegment]:
    scores = score_video(video, params, ablation)
    return [ScoredSegment(i, float(i), s) for i, s in enumerate(scores.tolist())]


def extract_highlights(
    segments: Sequence[ScoredSegment],
    mode: str,
    k: Optional[int] = None,
) -> Tuple[List[ScoredSegment], bool]:
    """Select highlight segments; returns (selection, clamped_flag).

    The one mode, top-k, returns the k highest-scoring segments in temporal
    order (k clamped to the segment count, setting the flag).
    """
    if not segments:
        raise ShapeError("no segments to extract from")
    if mode != "top-k":
        raise ShapeError(f"unknown extraction mode {mode!r}")
    if k is None or k < 1:
        raise ShapeError("top-k extraction needs k >= 1")
    clamped = k > len(segments)
    kk = min(k, len(segments))
    order = heapq.nsmallest(kk, range(len(segments)), key=lambda i: (-segments[i].score, i))
    return [segments[i] for i in sorted(order)], clamped
