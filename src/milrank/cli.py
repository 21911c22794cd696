"""Command-line entry point.

Commands: train, eval, score, synth, gradcheck.  A ``--config`` file holds
``key = value`` lines; explicit flags override file values, and the merged
configuration is echoed into the output directory.  Exit codes: 0 success,
1 runtime failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional

from . import data as datamod
from . import metrics
from .errors import ConfigError, MilrankError
from .gradcheck import run_gradient_check
from .model import ModelConfig
from .train import TrainingConfig, load_checkpoint, train_event

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

_TRAIN_KEYS = {
    "lr0": float,
    "lr_decay": float,
    "lr_decay_every": int,
    "momentum": float,
    "weight_decay": float,
    "epochs": int,
    "bag_size": int,
    "tau": float,
    "eps": float,
    "loss_variant": str,
    "no_audio": bool,
    "no_vision": bool,
    "no_mmrl": bool,
    "no_bcm": bool,
    "pairs_per_step": int,
    "seed": int,
    "k": int,
}


def _parse_config_file(path: Path) -> dict:
    values = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, value: str):
    if key not in _TRAIN_KEYS:
        raise ConfigError(f"unknown config key {key!r}")
    typ = _TRAIN_KEYS[key]
    if typ is bool:
        if value.lower() in ("1", "true", "yes"):
            return True
        if value.lower() in ("0", "false", "no"):
            return False
        raise ConfigError(f"config key {key!r}: bad boolean {value!r}")
    try:
        return typ(value)
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad value {value!r}") from None


def _build_training_config(args) -> TrainingConfig:
    values: dict = {}
    if args.config:
        for key, raw in _parse_config_file(Path(args.config)).items():
            values[key] = _coerce(key, raw)
    for key in _TRAIN_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values.get("seed") is None:
        raise ConfigError("--seed is required (no silent nondeterminism)")
    k = values.pop("k", None)
    model = ModelConfig(k=k) if k is not None else ModelConfig()
    config = TrainingConfig(model=model, **values)
    config.validate()
    return config


def _echo_config(config: TrainingConfig, out_dir: Path) -> None:
    lines = []
    d = dataclasses.asdict(config)
    model = d.pop("model")
    for key in sorted(d):
        lines.append(f"{key} = {d[key]}")
    for key in sorted(model):
        lines.append(f"model.{key} = {model[key]}")
    datamod.write_atomic(out_dir / "config.txt", ("\n".join(lines) + "\n").encode("utf-8"))


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--lr0", type=float)
    p.add_argument("--lr-decay", dest="lr_decay", type=float)
    p.add_argument("--lr-decay-every", dest="lr_decay_every", type=int)
    p.add_argument("--momentum", type=float)
    p.add_argument("--weight-decay", dest="weight_decay", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--bag-size", dest="bag_size", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--epsilon", dest="eps", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--loss-variant", dest="loss_variant", choices=("max-max", "min-min", "min-max", "max-min"))
    p.add_argument("--no-audio", dest="no_audio", action="store_const", const=True)
    p.add_argument("--no-vision", dest="no_vision", action="store_const", const=True)
    p.add_argument("--no-mmrl", dest="no_mmrl", action="store_const", const=True)
    p.add_argument("--no-bcm", dest="no_bcm", action="store_const", const=True)
    p.add_argument("--pairs-per-step", dest="pairs_per_step", type=int)
    p.add_argument("--seed", type=int)


def cmd_train(args) -> int:
    config = _build_training_config(args)
    index = datamod.read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    for event in args.event:
        ckpt_path = out_dir / f"{event}.mnck"
        train_event(index, event, config, out_dir=out_dir, checkpoint_path=ckpt_path)
        print(f"trained\t{event}\t{ckpt_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    index = datamod.read_manifest(args.manifest)
    expect_dims = (ckpt.config.model.dv, ckpt.config.model.da)
    videos = [
        datamod.load_video(r, expect_dims=expect_dims)
        for r in index.records
        if r.event_tag == args.event
    ]
    if not videos:
        raise ConfigError(f"manifest has no videos for event {args.event!r}")
    ablation = ckpt.config.ablation
    if args.metric == "map":
        report = metrics.evaluate_map(ckpt.params, videos, args.event, ablation)
    else:
        report = metrics.evaluate_top5_map(ckpt.params, videos, args.event, ablation)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / f"{args.event}.{args.metric}.report"
    datamod.write_atomic(report_path, report.to_text().encode("utf-8"))
    print(f"{args.event}\t{report.metric}\t{report.aggregate:.10g}")
    return EXIT_OK


def cmd_score(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    expect_dims = (ckpt.config.model.dv, ckpt.config.model.da)
    vision, audio = datamod.read_feature_file(args.features, expect_dims=expect_dims)
    video = datamod.VideoRecord("input", "unknown", float(vision.shape[0]), vision, audio)
    segs = metrics.scored_segments(video, ckpt.params, ckpt.config.ablation)
    if args.topk is not None:
        segs, clamped = metrics.extract_highlights(segs, "top-k", k=args.topk)
        if clamped:
            print(f"warning: topk clamped to {len(segs)} segments", file=sys.stderr)
    for s in segs:
        print(f"{s.segment_index}\t{s.start_s:.10g}\t{s.score:.10g}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.seed is None:
        raise ConfigError("--seed is required (no silent nondeterminism)")
    spec = datamod.SyntheticSpec(
        n_events=args.events,
        videos_per_event=args.videos_per_event,
        segments_per_video=args.segments_per_video,
        highlight_fraction=args.highlight_fraction,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        tau=args.tau,
    )
    index = datamod.gen_synthetic(spec, args.out)
    print(f"synth\t{len(index)} videos\t{Path(args.out) / 'manifest.tsv'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    variants = (args.variant,) if args.variant else ("max-max", "min-min", "min-max", "max-min")
    seeds = range(args.seeds)
    results = run_gradient_check(seeds=seeds, variants=variants, perturb=args.perturb)
    tolerance = 1e-4
    failing = []
    for label in sorted(results):
        err = results[label]
        print(f"{label}\t{err:.3e}")
        if err >= tolerance:
            failing.append(label)
    if failing:
        print(f"FAILED: {', '.join(failing)} exceed {tolerance:g}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="milrank", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model per event")
    _add_train_flags(p)
    p.add_argument("--manifest", required=True)
    p.add_argument("--event", action="append", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on labeled videos")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--event", required=True)
    p.add_argument("--metric", choices=("map", "top5map"), default="map")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="dump per-segment scores for one feature file")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--topk", type=int)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--events", type=int, default=6)
    p.add_argument("--videos-per-event", type=int, default=80)
    p.add_argument("--segments-per-video", type=int, default=60)
    p.add_argument("--highlight-fraction", type=float, default=0.15)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=60.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="compare analytic gradients with finite differences")
    p.add_argument("--variant", choices=("max-max", "min-min", "min-max", "max-min"))
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--perturb", type=float, default=0.0, help="test hook: inflate errors")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MilrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
