"""Per-event training loop: paired bag sampling, SGD with momentum and
weight decay, step-decay learning rate, versioned binary checkpoints.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, get_type_hints

import numpy as np

from . import data as datamod
from .errors import ConfigError, FormatError, NumericError
from .losses import VARIANTS, backward, total_loss
from .model import (
    Ablation,
    ModelConfig,
    ModelParams,
    _layer_shapes,
    forward_stacked,
    init_params,
    zero_like_params,
)
from .numkit import GradientSet, require_finite

MNCK_MAGIC = b"MNCK"
MNCK_VERSION = 1
_DTYPES = {1: "<f4", 2: "<f8"}
_DTYPE_CODES = {np.dtype("float32"): 1, np.dtype("float64"): 2}
# Metadata keys of the tensor-section checksum and of the metadata checksum
# (over the metadata without its own key).  Files without them (older
# checkpoints, hand-built ones) load unchecked.
_CRC_KEY = "tensor_crc32"
_META_CRC_KEY = "meta_crc32"
# The values each scalar field type of TrainingConfig accepts.  A bool, though
# an int, is accepted only for a bool field.
_SCALAR_TYPES = {bool: bool, int: (int, np.integer), float: (int, float, np.integer)}


@dataclass(frozen=True)
class TrainingConfig:
    lr0: float = 0.005
    lr_decay: float = 0.7
    lr_decay_every: int = 20
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 60
    bag_size: int = 60
    tau: float = 60.0
    eps: float = 1.0
    loss_variant: str = "max-max"
    no_audio: bool = False
    no_vision: bool = False
    no_mmrl: bool = False
    no_bcm: bool = False
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    @property
    def ablation(self) -> Ablation:
        return Ablation(no_audio=self.no_audio, no_vision=self.no_vision)

    def validate(self) -> None:
        for name, typ in get_type_hints(TrainingConfig).items():
            value = getattr(self, name)
            if not isinstance(value, _SCALAR_TYPES.get(typ, object)) or (
                isinstance(value, bool) and typ is not bool
            ):
                raise ConfigError(f"{name} must be of type {typ.__name__}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.lr0 <= 0:
            raise ConfigError("lr0 must be positive")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ConfigError("lr_decay must lie in (0, 1]")
        if self.lr_decay_every < 1:
            raise ConfigError("lr_decay_every must be >= 1")
        if self.bag_size < 1:
            raise ConfigError("bag_size must be >= 1")
        if self.eps < 0:
            raise ConfigError("eps must be nonnegative")
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be nonnegative")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        if self.loss_variant not in VARIANTS:
            raise ConfigError(f"unknown loss variant {self.loss_variant!r}")
        if self.no_mmrl and self.no_bcm:
            raise ConfigError("disabling both loss terms leaves nothing to optimize")
        self.ablation.validate()
        self.model.validate()


@dataclass
class OptimizerState:
    velocity: GradientSet
    step: int = 0
    epoch: int = 0


@dataclass
class Checkpoint:
    params: ModelParams
    config: TrainingConfig
    state: OptimizerState
    rng_states: Optional[dict] = None  # final bag/negative/shuffle stream states


def lr_at(epoch: int, config: TrainingConfig) -> float:
    if epoch < 0:
        raise ConfigError("epoch must be nonnegative")
    return config.lr0 * config.lr_decay ** (epoch // config.lr_decay_every)


def sgd_step(
    params: ModelParams,
    grads: GradientSet,
    state: OptimizerState,
    lr: float,
    config: TrainingConfig,
) -> None:
    """Classical momentum SGD with coupled weight decay, in the dtype of
    ``params`` whatever the dtype of ``grads``, with one temporary per tensor."""
    for name, theta in params.tensors.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for {name} at step {state.step}")
        step = np.multiply(theta, config.weight_decay)
        step += g
        v = state.velocity[name]
        v *= config.momentum
        v += step
        theta -= np.multiply(v, lr, out=step)
    state.step += 1
    params.bump_version()


def _make_streams(seed: int):
    ss = np.random.SeedSequence(seed)
    init_ss, bag_ss, neg_ss, shuffle_ss = ss.spawn(4)
    return (
        int(init_ss.generate_state(1)[0]),
        np.random.default_rng(bag_ss),
        np.random.default_rng(neg_ss),
        np.random.default_rng(shuffle_ss),
    )


@np.errstate(over="ignore", invalid="ignore")  # a non-finite value fails its step with a NumericError
def train_event(
    index: datamod.DatasetIndex,
    interest_event: str,
    config: TrainingConfig,
    out_dir: Optional[Path] = None,
    checkpoint_path: Optional[Path] = None,
) -> Tuple[ModelParams, List[dict]]:
    """Train a model for one interest event.

    Each epoch takes one optimizer step per positive video (in shuffled
    order); every step pairs a bag from that positive video with a bag from a
    uniformly chosen negative video.  Fully deterministic in the seed; all
    randomness flows through derived streams, whose final states the
    checkpoint records.  One float32 set of parameters and of velocities is
    trained; both are upcast to float64 (exactly) after the last epoch, so the
    returned parameters and the checkpoint are float64.
    """
    config.validate()
    positives, negatives = datamod.split_videos(index, interest_event, config.tau)

    init_seed, bag_rng, neg_rng, shuffle_rng = _make_streams(config.seed)
    params = init_params(config.model, init_seed)
    params.tensors = {k: v.astype(np.float32) for k, v in params.tensors.items()}
    state = OptimizerState(velocity=zero_like_params(params))

    expect_dims = (config.model.dv, config.model.da)
    cache: Dict[str, datamod.VideoRecord] = {}

    def video(ref: datamod.VideoRef) -> datamod.VideoRecord:
        if ref.video_id not in cache:
            cache[ref.video_id] = datamod.load_video(ref, expect_dims=expect_dims)
        return cache[ref.video_id]

    ablation = config.ablation
    log: List[dict] = []
    log_lines: List[str] = []
    for epoch in range(config.epochs):
        lr = lr_at(epoch, config)
        order = shuffle_rng.permutation(len(positives))
        sums = np.zeros(3)
        n_steps = 0
        for pi in order:
            pos = video(positives[pi])
            neg = video(negatives[neg_rng.integers(len(negatives))])
            rows_p = datamod.sample_bag(pos, config.bag_size, bag_rng)
            rows_n = datamod.sample_bag(neg, config.bag_size, bag_rng)
            try:
                fwd = forward_stacked(
                    np.stack([pos.vision[rows_p], neg.vision[rows_n]]),
                    np.stack([pos.audio[rows_p], neg.audio[rows_n]]),
                    params,
                    ablation,
                    head=not config.no_bcm,
                )
                lb = total_loss(fwd, config.eps, config.loss_variant, config.no_mmrl, config.no_bcm)
                require_finite(lb.total, "loss")
                grads = backward(
                    fwd, params, config.eps, config.loss_variant, config.no_mmrl, config.no_bcm
                )
                sgd_step(params, grads, state, lr, config)
            except NumericError as exc:
                step = f"event {interest_event}, epoch {epoch}, step {state.step}"
                raise NumericError(f"{step}, videos {pos.video_id} and {neg.video_id}: {exc}") from None
            sums += (lb.mm, lb.bce_pos, lb.bce_neg)
            n_steps += 1
        state.epoch = epoch + 1
        mean = sums / max(n_steps, 1)
        entry = {
            "epoch": epoch,
            "lr": lr,
            "mm": float(mean[0]),
            "bce_pos": float(mean[1]),
            "bce_neg": float(mean[2]),
            "total": float(mean.sum()),
        }
        log.append(entry)
        log_lines.append(
            "{epoch}\t{lr:.10g}\t{mm:.10g}\t{bce_pos:.10g}\t{bce_neg:.10g}\t{total:.10g}".format(**entry)
        )

    params.tensors = {k: v.astype(np.float64) for k, v in params.tensors.items()}
    state.velocity = {k: v.astype(np.float64) for k, v in state.velocity.items()}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        datamod.write_atomic(
            out_dir / f"{interest_event}.train.log", ("\n".join(log_lines) + "\n").encode("utf-8")
        )
    if checkpoint_path is not None:
        streams = {"bag": bag_rng, "negative": neg_rng, "shuffle": shuffle_rng}
        rng_states = {name: rng.bit_generator.state for name, rng in streams.items()}
        save_checkpoint(checkpoint_path, Checkpoint(params, config, state, rng_states))
    return params, log


# ---------------------------------------------------------------------------
# Checkpoint serialization (MNCK container)


def _config_from_dict(d: dict) -> TrainingConfig:
    d = dict(d)
    # checkpoints from before one pair per step store pairs_per_step = 1
    if (pairs := d.pop("pairs_per_step", 1)) != 1:
        raise FormatError(f"pairs_per_step {pairs!r} is not supported; a step trains one pair")
    model = ModelConfig(**d.pop("model"))
    return TrainingConfig(model=model, **d)


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    """Write an MNCK file atomically.  The metadata carries a CRC-32 of the
    tensor section (everything after the metadata block) and a CRC-32 of
    itself without that key.  The section is streamed from the tensors'
    memory, never assembled in one buffer."""
    tensors = [(f"p/{k}", v) for k, v in sorted(ckpt.params.tensors.items())]
    tensors += [(f"v/{k}", v) for k, v in sorted(ckpt.state.velocity.items())]
    section = [struct.pack("<I", len(tensors))]
    for name, tensor in tensors:
        nb = name.encode("utf-8")
        code = _DTYPE_CODES[tensor.dtype]
        section.append(struct.pack(f"<I{len(nb)}sBI{tensor.ndim}I", len(nb), nb, code, tensor.ndim, *tensor.shape))
        section.append(memoryview(np.ascontiguousarray(tensor, dtype=_DTYPES[code])).cast("B"))
    crc = 0
    for chunk in section:
        crc = zlib.crc32(chunk, crc)
    meta = {
        "config": asdict(ckpt.config),
        "step": ckpt.state.step,
        "epoch": ckpt.state.epoch,
        "params_version": ckpt.params.version,
        "rng_states": ckpt.rng_states,
        _CRC_KEY: crc,
    }
    meta[_META_CRC_KEY] = _meta_crc(meta)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    datamod.write_atomic(
        path, MNCK_MAGIC, struct.pack("<II", MNCK_VERSION, len(meta_bytes)), meta_bytes, *section
    )


def _meta_crc(meta: dict) -> int:
    return zlib.crc32(json.dumps(meta, sort_keys=True).encode("utf-8"))


def load_checkpoint(path) -> Checkpoint:
    raw = memoryview(Path(path).read_bytes())
    off = 0

    def take(n: int) -> memoryview:  # a view: no tensor's bytes are copied
        nonlocal off
        if off + n > len(raw):
            raise FormatError(f"{path}: truncated checkpoint")
        chunk = raw[off : off + n]
        off += n
        return chunk

    if take(4) != MNCK_MAGIC:
        raise FormatError(f"{path}: bad magic")
    (version,) = struct.unpack("<I", take(4))
    if version != MNCK_VERSION:
        raise FormatError(f"{path}: unsupported checkpoint version {version}")
    (meta_len,) = struct.unpack("<I", take(4))
    try:
        meta = json.loads(str(take(meta_len), "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:  # RecursionError: deeply nested JSON
        raise FormatError(f"{path}: unreadable checkpoint metadata: {exc}") from None
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: malformed checkpoint metadata: not a JSON object")
    section_start = off
    (n_tensors,) = struct.unpack("<I", take(4))
    tensors: Dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"{path}: tensor name is not UTF-8") from None
        if name[:2] not in ("p/", "v/"):
            raise FormatError(f"{path}: unexpected tensor {name!r}")
        if name in tensors:
            raise FormatError(f"{path}: duplicate tensor {name}")
        code, ndim = struct.unpack("<BI", take(5))
        if code not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype code {code} for {name}")
        if ndim > 2:  # every layer tensor is a matrix or a vector
            raise FormatError(f"{path}: tensor {name} has {ndim} dimensions")
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim))
        count = math.prod(shape)  # exact: a corrupt shape must not wrap around
        dt = np.dtype(_DTYPES[code])
        arr = np.frombuffer(take(count * dt.itemsize), dtype=dt).reshape(shape)
        tensors[name] = arr.astype(arr.dtype.newbyteorder("="))  # a copy, native byte order
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes")
    if _CRC_KEY in meta and zlib.crc32(raw[section_start:]) != meta[_CRC_KEY]:
        raise FormatError(f"{path}: tensor checksum mismatch")
    if _META_CRC_KEY in meta:
        stored = meta.pop(_META_CRC_KEY)
        if _meta_crc(meta) != stored:
            raise FormatError(f"{path}: metadata checksum mismatch")

    try:
        config = _config_from_dict(meta["config"])
        counters = {key: meta[key] for key in ("step", "epoch")}
        counters["params_version"] = meta.get("params_version", 0)
        config.validate()
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: malformed checkpoint metadata: {exc!r}") from None
    for key, value in counters.items():
        if type(value) is not int or value < 0:  # bool is an int subclass
            raise FormatError(f"{path}: malformed checkpoint metadata: {key} {value!r} is not a count")
    p_tensors = {k[2:]: v for k, v in tensors.items() if k.startswith("p/")}
    v_tensors = {k[2:]: v for k, v in tensors.items() if k.startswith("v/")}
    expected = {name for name, _ in _layer_shapes(config.model)}
    if set(p_tensors) != expected:
        missing = sorted(expected.symmetric_difference(p_tensors))
        raise FormatError(f"{path}: tensor set mismatch: {missing}")
    for name, shape in _layer_shapes(config.model):
        if p_tensors[name].shape != shape:
            raise FormatError(
                f"{path}: tensor {name} has shape {p_tensors[name].shape}, expected {shape}"
            )
    odd = {
        "missing": sorted(expected - v_tensors.keys()),
        "extra": sorted(v_tensors.keys() - expected),
        "misshapen": sorted(k for k in expected & v_tensors.keys() if v_tensors[k].shape != p_tensors[k].shape),
    }
    if any(odd.values()):
        detail = "; ".join(f"{kind} {names}" for kind, names in odd.items() if names)
        raise FormatError(f"{path}: velocity tensors do not match the parameter tensors: {detail}")
    params = ModelParams(config.model, p_tensors)
    params.version = counters["params_version"]
    state = OptimizerState(velocity=v_tensors, step=counters["step"], epoch=counters["epoch"])
    return Checkpoint(params=params, config=config, state=state, rng_states=meta.get("rng_states"))

