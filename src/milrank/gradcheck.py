"""Toy-scale comparison of the analytic backward pass against the
finite-difference oracle, across loss variants and ablation switches.

Both sides differentiate the training forward itself: the analytic gradient
is ``losses.backward`` over ``model.forward_stacked``, and the oracle probes
``losses.total_loss`` over the same ``forward_stacked``, run once over all
the perturbed copies of the parameters stacked on a leading probe axis.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Tuple

import numpy as np

from .errors import ConfigError
from .losses import VARIANTS, backward, total_loss
from .model import ModelConfig, ModelParams, forward_stacked, init_params
from .numkit import finite_diff_gradient
from .train import TrainingConfig

TOY_MODEL = ModelConfig(dv=8, da=4, hv=3, hf=3, ds=2, hc=2, k=2)
TOY_BAG_SIZE = 5
# A case fails when its max relative error reaches this.
TOLERANCE = 1e-4
# The finite-difference probe step of every case.
PROBE_STEP = 1e-6


def label(config: TrainingConfig) -> str:
    bits = [config.loss_variant]
    for switch in ("no_audio", "no_vision", "no_mmrl", "no_bcm"):
        if getattr(config, switch):
            bits.append(switch.replace("_", "-"))
    return "+".join(bits)


def all_cases(variants=VARIANTS) -> List[TrainingConfig]:
    """Every modality / loss-term / variant combination worth checking.  When
    the ranking term is ablated the variant is irrelevant, so only one
    representative is kept."""
    cases = []
    for modality in ({}, {"no_audio": True}, {"no_vision": True}):
        base = TrainingConfig(model=TOY_MODEL, **modality)
        for variant in variants:
            cases.append(replace(base, loss_variant=variant))
            cases.append(replace(base, loss_variant=variant, no_bcm=True))
        cases.append(replace(base, loss_variant=VARIANTS[0], no_mmrl=True))
    return cases


def _random_pair(rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """Vision and audio of a positive and a negative toy bag, stacked as
    (2, N, width)."""
    # moderate feature scale keeps event probabilities away from the BCE
    # clamp, where the log curvature would swamp the difference quotient
    n = TOY_BAG_SIZE
    vision, audio = [], []
    for _ in range(2):
        vision.append(0.5 * rng.standard_normal((n, TOY_MODEL.dv)))
        audio.append(0.5 * rng.standard_normal((n, TOY_MODEL.da)))
    return np.stack(vision), np.stack(audio)


def relative_errors(
    analytic: Dict[str, np.ndarray], numeric: Dict[str, np.ndarray]
) -> Dict[str, float]:
    """Per-tensor max of |a - f| / max(1, |a|, |f|); infinite where the
    analytic gradient is not finite, so that it can never pass a tolerance."""
    out = {}
    for name, a in analytic.items():
        f = numeric[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(f)))
        err = float(np.max(np.abs(a - f) / denom))
        out[name] = err if math.isfinite(err) else math.inf
    return out


def check_case(config: TrainingConfig, seed: int) -> Tuple[float, Dict[str, float]]:
    """Max relative error over all parameters for one configuration, whose
    loss settings reach the forward and the loss as in ``train.train_event``.

    All probes of all parameter entries run in one batched forward and loss
    call.  Biases are nudged off their zero init so no relu pre-activation
    sits exactly on the kink, where central differences straddle the
    subgradient.  The probe step is small for the same reason.  A case that
    reaches ``TOLERANCE`` is probed again at ten times the step, in a second
    call, and each tensor keeps its smaller error: round-off in the difference
    quotient grows as the step shrinks, while a wrong gradient is wrong at both.
    """
    rng = np.random.default_rng(seed)
    params = init_params(TOY_MODEL, int(rng.integers(2**63)))
    for tensor in params.tensors.values():
        if tensor.ndim == 1:
            tensor += rng.uniform(-0.3, 0.3, size=tensor.shape)
    vision, audio = _random_pair(rng)
    ablation, head = config.ablation, not config.no_bcm
    loss_args = (config.eps, config.loss_variant, config.no_mmrl, config.no_bcm)

    def forward(p: ModelParams):
        return forward_stacked(vision, audio, p, ablation, head=head)

    analytic = backward(forward(params), params, *loss_args)

    def loss_fn(p: ModelParams) -> np.ndarray:
        return total_loss(forward(p), *loss_args).total

    errs = relative_errors(analytic, finite_diff_gradient(loss_fn, params, h=PROBE_STEP))
    if max(errs.values()) >= TOLERANCE:
        coarse = relative_errors(analytic, finite_diff_gradient(loss_fn, params, h=10 * PROBE_STEP))
        errs = {name: min(err, coarse[name]) for name, err in errs.items()}
    return max(errs.values()), errs


def run_gradient_check(seeds=range(20), variants=VARIANTS) -> Dict[str, float]:
    """Max relative error per case label over all seeds."""
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("gradient check needs at least one seed")
    results: Dict[str, float] = {}
    for case in all_cases(variants):
        worst = 0.0
        for seed in seeds:
            err, errs = check_case(case, seed)
            worst = max(worst, err)
        results[label(case)] = worst
    return results
