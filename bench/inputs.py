"""Seeded input generator for the benchmark.

Writes MNF1 feature files, label files and TSV manifests in the formats the
project README documents, plus one MNCK checkpoint, without importing
milrank: a change to the program's own synthetic generator does not change
what is measured.  The same seed gives the same bytes.

Every video length is a fixed schedule; the seed only chooses the content
and, for the score set, the order.  Time per operation therefore depends on
the seed only through the data values, which dense arithmetic ignores.

Feature model (the harder regime; dims 512 vision + 128 audio):
- each event has a unit highlight prototype; a shared pool of background
  prototypes is each tilted towards one event's prototype;
- a highlight segment (label 1) of event e is
  ``ALPHA * H[e] + (1 - ALPHA) * background``;
- decoys (label 0) are drawn exactly like the video's own highlights, so a
  perfect detector of the event still ranks them among the highlights and
  held-out mAP stays clearly below 1;
- distractors (label 0) carry another event's prototype at ``DIS_ALPHA``, so
  the long negative videos used in training hold segments that resemble the
  interest event;
- isotropic noise of expected norm ``SIGMA`` is added to every segment.
At full strength (``DIS_ALPHA = ALPHA``) the distractors make the default
training configuration collapse on a few seeds in a hundred; see CHANGES.md.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from oracle import MODEL_WIDTHS, tensor_shapes, write_mnck, write_mnf1

DV, DA = MODEL_WIDTHS["dv"], MODEL_WIDTHS["da"]
N_EVENTS = 4
TRAIN_EVENTS = ("ev00", "ev01")
N_BACKGROUND = 12
ALPHA = 0.7
SHARE = 0.6
DISTRACT = 0.15
DIS_ALPHA = 0.35
DECOY = 0.08
SIGMA = 0.8
HIGHLIGHT = 0.2

# Train set, per event: short videos (positives for that event), long videos
# (negatives for the others) and held-out labelled videos for `eval`.
# Durations equal segment counts (1-second segments) and avoid tau = 60.
SHORT = [int(x) for x in np.linspace(30, 58, 20).round()]
LONG = [int(x) for x in np.linspace(62, 150, 20).round()]
HELDOUT = [int(x) for x in np.linspace(40, 120, 30).round()]

# Score set: 200 videos from one minute to thirty minutes, log-spaced.
SCORE_LENGTHS = [int(x) for x in np.geomspace(60, 1800, 200).round()]
TOPK = 5


class _World:
    def __init__(self, rng: np.random.Generator):
        d = DV + DA
        self.highlight = _unit(rng.standard_normal((N_EVENTS, d)))
        tilt = self.highlight[np.arange(N_BACKGROUND) % N_EVENTS]
        self.background = _unit(rng.standard_normal((N_BACKGROUND, d)) + SHARE * tilt)

    def video(self, rng: np.random.Generator, event: int, n: int):
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=max(1, round(HIGHLIGHT * n)), replace=False)] = 1
        x = self.background[rng.integers(N_BACKGROUND, size=n)]
        hl = labels == 1
        x[hl] = ALPHA * self.highlight[event] + (1.0 - ALPHA) * x[hl]
        rest = np.flatnonzero(~hl)
        u = rng.random(rest.size)
        dis = rest[u < DISTRACT]
        dec = rest[(u >= DISTRACT) & (u < DISTRACT + DECOY)]
        other = (event + rng.integers(1, N_EVENTS, size=dis.size)) % N_EVENTS
        x[dis] = DIS_ALPHA * self.highlight[other] + (1.0 - DIS_ALPHA) * x[dis]
        x[dec] = ALPHA * self.highlight[event] + (1.0 - ALPHA) * x[dec]
        x = x.astype(np.float32)
        x += np.float32(SIGMA / math.sqrt(DV + DA)) * rng.standard_normal(x.shape, dtype=np.float32)
        return x[:, :DV], x[:, DV:], labels


def _unit(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def _write_video(root: Path, vid: str, vision, audio, labels) -> str:
    write_mnf1(root / "features" / f"{vid}.mnf", vision, audio)
    (root / "labels" / f"{vid}.txt").write_text("".join(f"{int(v)}\n" for v in labels), encoding="utf-8")
    return f"features/{vid}.mnf\tlabels/{vid}.txt"


def _manifest(path: Path, rows) -> None:
    path.write_text("".join(f"{vid}\t{ev}\t{float(dur)!r}\t{files}\n" for vid, ev, dur, files in rows),
                    encoding="utf-8")


def write_train_set(root: Path, seed: int) -> None:
    """``train.tsv`` (short and long videos of every event) and
    ``heldout.tsv`` (held-out videos of the trained events)."""
    rng = np.random.default_rng([seed, 1])
    world = _World(rng)
    for sub in ("features", "labels"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    train, heldout = [], []
    for e in range(N_EVENTS):
        tag = f"ev{e:02d}"
        for kind, lengths, rows in (("s", SHORT, train), ("l", LONG, train), ("h", HELDOUT, heldout)):
            if kind == "h" and tag not in TRAIN_EVENTS:
                continue
            for i, n in enumerate(lengths):
                vid = f"{tag}_{kind}{i:02d}"
                rows.append((vid, tag, n, _write_video(root, vid, *world.video(rng, e, n))))
    _manifest(root / "train.tsv", train)
    _manifest(root / "heldout.tsv", heldout)


def write_score_set(root: Path, seed: int) -> None:
    """``score.tsv`` over SCORE_LENGTHS in a seeded order, and
    ``score.mnck``: Glorot-uniform weights with small random biases."""
    rng = np.random.default_rng([seed, 2])
    world = _World(rng)
    for sub in ("features", "labels"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rows = []
    for i, n in enumerate(rng.permutation(SCORE_LENGTHS)):
        vid = f"sc{i:03d}"
        e = int(rng.integers(N_EVENTS))
        rows.append((vid, f"ev{e:02d}", n, _write_video(root, vid, *world.video(rng, e, int(n)))))
    _manifest(root / "score.tsv", rows)
    tensors = {}
    for name, shape in tensor_shapes(MODEL_WIDTHS):
        limit = 0.1 if len(shape) == 1 else math.sqrt(6.0 / shape[1])
        tensors[name] = rng.uniform(-limit, limit, size=shape)
    write_mnck(root / "score.mnck", tensors, MODEL_WIDTHS)
