"""Computations the benchmark checks the program against, written from the
model's equations and the documented file formats, without importing milrank.

- ``read_mnf1`` / ``read_mnck`` / ``write_mnck``: the MNF1 feature and MNCK
  checkpoint containers described in the project README.
- ``reference_scores``: the segment-scoring forward pass (vision projection,
  k-branch fusion with residual, scorer) over a checkpoint's named tensors.
  The first fusion layer is evaluated as two half-products instead of one
  product over the concatenated input, so agreement with the program is not
  an artefact of sharing its operation order.
- ``average_precision`` / ``random_ap``: AP by its definition, and its exact
  expectation under a uniformly random ranking.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MODEL_WIDTHS = {"dv": 512, "da": 128, "hv": 256, "hf": 128, "ds": 64, "hc": 64, "k": 4}


def tensor_shapes(w: dict) -> list:
    """(name, shape) of every learnable tensor, in the model's naming."""
    shapes = [("wv1", (w["hv"], w["dv"])), ("bv1", (w["hv"],)),
              ("wv2", (w["da"], w["hv"])), ("bv2", (w["da"],))]
    out = w["da"] // w["k"]
    for j in range(w["k"]):
        shapes += [(f"f{j}_w1", (w["hf"], 2 * w["da"])), (f"f{j}_b1", (w["hf"],)),
                   (f"f{j}_w2", (w["hf"], w["hf"])), (f"f{j}_b2", (w["hf"],)),
                   (f"f{j}_w3", (out, w["hf"])), (f"f{j}_b3", (out,))]
    shapes += [("ws", (w["ds"], w["da"])), ("bs", (w["ds"],)),
               ("wh", (1, w["ds"])), ("bh", (1,)),
               ("wc1", (w["hc"], w["da"])), ("bc1", (w["hc"],)),
               ("wc2", (2, w["hc"])), ("bc2", (2,))]
    return shapes


# ---------------------------------------------------------------------------
# File formats


def write_mnf1(path, vision: np.ndarray, audio: np.ndarray) -> None:
    n, dv = vision.shape
    with open(path, "wb") as fh:
        fh.write(b"MNF1" + struct.pack("<III", n, dv, audio.shape[1]))
        fh.write(np.ascontiguousarray(vision, dtype="<f4").tobytes())
        fh.write(np.ascontiguousarray(audio, dtype="<f4").tobytes())


def read_mnf1(path):
    raw = Path(path).read_bytes()
    if raw[:4] != b"MNF1":
        raise ValueError(f"{path}: not an MNF1 file")
    n, dv, da = struct.unpack("<III", raw[4:16])
    payload = np.frombuffer(raw, dtype="<f4", offset=16)
    if payload.size != n * (dv + da):
        raise ValueError(f"{path}: payload size does not match header")
    return payload[: n * dv].reshape(n, dv), payload[n * dv:].reshape(n, da)


def write_mnck(path, tensors: dict, widths: dict) -> None:
    """Version-1 MNCK with zero momentum velocities.  The metadata names only
    the layer widths, so every other training setting takes its default."""
    meta = json.dumps({"config": {"model": widths}, "step": 0, "epoch": 0},
                      sort_keys=True).encode("utf-8")
    blocks = [(f"p/{k}", v) for k, v in sorted(tensors.items())]
    blocks += [(f"v/{k}", np.zeros_like(v)) for k, v in sorted(tensors.items())]
    out = bytearray(b"MNCK" + struct.pack("<II", 1, len(meta)) + meta)
    out += struct.pack("<I", len(blocks))
    for name, t in blocks:
        nb = name.encode("utf-8")
        out += struct.pack("<I", len(nb)) + nb + struct.pack("<BI", 2, t.ndim)
        out += struct.pack(f"<{t.ndim}I", *t.shape) + np.ascontiguousarray(t, dtype="<f8").tobytes()
    Path(path).write_bytes(bytes(out))


def read_mnck(path):
    """(metadata, {block name: array}) of a version-1 MNCK file."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"MNCK":
        raise ValueError(f"{path}: not an MNCK file")
    version, meta_len = struct.unpack_from("<II", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: MNCK version {version}")
    off = 12
    meta = json.loads(raw[off: off + meta_len])
    off += meta_len
    (count,) = struct.unpack_from("<I", raw, off)
    off += 4
    blocks = {}
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", raw, off)
        name = raw[off + 4: off + 4 + nlen].decode("utf-8")
        off += 4 + nlen
        code, ndim = struct.unpack_from("<BI", raw, off)
        off += 5
        shape = struct.unpack_from(f"<{ndim}I", raw, off)
        off += 4 * ndim
        dt = np.dtype({1: "<f4", 2: "<f8"}[code])
        size = int(np.prod(shape)) * dt.itemsize
        blocks[name] = np.frombuffer(raw, dtype=dt, count=size // dt.itemsize, offset=off).reshape(shape)
        off += size
    if off != len(raw):
        raise ValueError(f"{path}: {len(raw) - off} trailing bytes")
    return meta, blocks


# ---------------------------------------------------------------------------
# Forward pass


def _relu(x):
    return np.maximum(x, 0.0)


def reference_scores(t: dict, vision: np.ndarray, audio: np.ndarray, k: int) -> np.ndarray:
    """Raw per-segment highlight scores of the full (unablated) model.

    projected = W_v2 relu(W_v1 v + b_v1) + b_v2
    fused     = projected + concat_j W3_j relu(W2_j relu(W1_j [projected; a] + b1_j) + b2_j) + b3_j
    score     = w_h relu(W_s fused + b_s) + b_h
    """
    v = np.asarray(vision, dtype=np.float64)
    a = np.asarray(audio, dtype=np.float64)
    da = a.shape[1]
    proj = _relu(v @ t["wv1"].T + t["bv1"]) @ t["wv2"].T + t["bv2"]
    branches = []
    for j in range(k):
        w1 = t[f"f{j}_w1"]
        z1 = _relu(proj @ w1[:, :da].T + a @ w1[:, da:].T + t[f"f{j}_b1"])
        z2 = _relu(z1 @ t[f"f{j}_w2"].T + t[f"f{j}_b2"])
        branches.append(z2 @ t[f"f{j}_w3"].T + t[f"f{j}_b3"])
    fused = proj + np.hstack(branches)
    return _relu(fused @ t["ws"].T + t["bs"]) @ t["wh"][0] + t["bh"][0]


def softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


# ---------------------------------------------------------------------------
# Ranking metrics


def ranking(scores) -> list:
    """Indices by descending score, ties to the earlier segment."""
    return sorted(range(len(scores)), key=lambda i: (-float(scores[i]), i))


def average_precision(labels, scores) -> float:
    """Mean over the positive ranks r of (positives at or above r) / r,
    accumulated in rank order; 0 when there is no positive."""
    hits, total = 0, 0.0
    for rank, i in enumerate(ranking(scores), start=1):
        if labels[i]:
            hits += 1
            total += hits / rank
    return total / hits if hits else 0.0


def random_ap(n_pos: int, n: int) -> float:
    """Expected AP of a uniformly random ranking of n items, n_pos positive:
    H_n / n + (n_pos - 1) / (n - 1) * (1 - H_n / n)."""
    h = sum(1.0 / r for r in range(1, n + 1)) / n
    return h if n == 1 else h + (n_pos - 1) / (n - 1) * (1.0 - h)
