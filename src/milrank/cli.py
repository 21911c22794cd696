"""Command-line entry point.

Commands: train, eval, score, synth, gradcheck.  A ``--config`` file holds
``key = value`` lines; explicit flags override file values, and the merged
configuration is echoed into the output directory.  Exit codes: 0 success,
1 runtime failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import sys
from pathlib import Path
from typing import List, Optional, get_type_hints

from . import data as datamod
from . import metrics, numkit
from .errors import ConfigError, DataError, MilrankError
from .gradcheck import TOLERANCE, run_gradient_check
from .losses import VARIANTS
from .model import ModelConfig
from .train import TrainingConfig, load_checkpoint, train_event

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# The training settings: every scalar `TrainingConfig` field plus the model's
# branch count under its checkpoint name.  Config-file keys, `train` flags and
# the echoed `config.txt` all come from this one table.
_SCHEMA = {key: typ for key, typ in get_type_hints(TrainingConfig).items() if key != "model"}
_SCHEMA["model.k"] = get_type_hints(ModelConfig)["k"]

def _parse_config_file(path: Path) -> dict:
    values = {}
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _coerce(key: str, value: str):
    if key not in _SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    typ = _SCHEMA[key]
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
    for key in _SCHEMA:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if values.get("seed") is None:
        raise ConfigError("--seed is required (no silent nondeterminism)")
    model = {key.split(".")[1]: values.pop(key) for key in list(values) if "." in key}
    config = TrainingConfig(model=ModelConfig(**model), **values)
    config.validate()
    return config


def _echo_config(config: TrainingConfig, out_dir: Path) -> None:
    """Write the settings as a config file that ``--config`` reads back."""
    lines = [f"{key} = {functools.reduce(getattr, key.split('.'), config)}\n" for key in _SCHEMA]
    datamod.write_atomic(out_dir / "config.txt", "".join(lines).encode("utf-8"))


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file")
    for key, typ in _SCHEMA.items():
        # eps keeps the paper's name for the margin
        flag = "--epsilon" if key == "eps" else "--" + key.split(".")[-1].replace("_", "-")
        if typ is bool:
            p.add_argument(flag, dest=key, action="store_const", const=True)
        elif key == "loss_variant":
            p.add_argument(flag, dest=key, choices=VARIANTS)
        else:
            p.add_argument(flag, dest=key, type=typ)


def _train_one(index, event: str, config: TrainingConfig, out_dir: Path) -> Path:
    ckpt_path = out_dir / f"{event}.mnck"
    train_event(index, event, config, out_dir=out_dir, checkpoint_path=ckpt_path)
    return ckpt_path


def _train_events(index, events: List[str], config: TrainingConfig, out_dir: Path, jobs: int) -> None:
    """Train ``events`` over up to ``jobs`` processes and print their lines in
    command-line order.

    The parent trains ``events[0::jobs]`` itself, so one job is the serial
    run; the other events go, in command-line order, to ``jobs - 1`` forked
    workers.  Every process holds one BLAS thread: forked processes that each
    keep the default count oversubscribe the cores and train many times
    slower.  Without ``fork``, or without a way to hold BLAS to one thread,
    the run takes one job.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    blas = numkit.blas_thread_count() if jobs > 1 else None
    held = blas is not None or numkit.blas_single_threaded()
    if "fork" not in multiprocessing.get_all_start_methods() or not held:
        jobs, blas = 1, None
    with contextlib.ExitStack() as cleanup:
        if blas is not None:
            cleanup.callback(blas[1], blas[0]())
            blas[1](1)
        futures = {}
        if jobs > 1:
            pool = ProcessPoolExecutor(jobs - 1, mp_context=multiprocessing.get_context("fork"))
            cleanup.callback(pool.shutdown, cancel_futures=True)
            futures = {event: pool.submit(_train_one, index, event, config, out_dir)
                       for i, event in enumerate(events) if i % jobs}
        for i, event in enumerate(events):
            if event not in futures:
                ckpt_path = _train_one(index, event, config, out_dir)
            else:
                try:
                    ckpt_path = futures[event].result()
                except BrokenProcessPool:
                    lost = [e for e in events[i:]
                            if e not in futures or futures[e].exception() is not None]
                    raise MilrankError(
                        f"a training worker process died; events not trained: {', '.join(lost)}"
                    ) from None
            print(f"trained\t{event}\t{ckpt_path}")


def cmd_train(args) -> int:
    events = args.event
    repeated = sorted({event for event in events if events.count(event) > 1})
    if repeated:
        raise ConfigError(f"--event given more than once: {', '.join(repeated)}")
    config = _build_training_config(args)
    index = datamod.read_manifest(args.manifest)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _echo_config(config, out_dir)
    # one process per usable CPU; `taskset` limits it
    jobs = min(len(events), numkit.usable_cpus())
    _train_events(index, events, config, out_dir, jobs)
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
    if args.topk is not None and args.topk < 1:
        raise ConfigError("--topk must be >= 1")
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
    # only the flags given; `SyntheticSpec` holds the defaults
    fields = {f.name for f in dataclasses.fields(datamod.SyntheticSpec)}
    spec = datamod.SyntheticSpec(**{k: v for k, v in vars(args).items() if k in fields and v is not None})
    try:
        spec.validate()
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    index = datamod.gen_synthetic(spec, args.out)
    print(f"synth\t{len(index)} videos\t{Path(args.out) / 'manifest.tsv'}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    variants = (args.variant,) if args.variant else VARIANTS
    seeds = range(args.seeds)
    results = run_gradient_check(seeds=seeds, variants=variants)
    failing = []
    for label in sorted(results):
        err = results[label]
        print(f"{label}\t{err:.3e}")
        if err >= TOLERANCE:
            failing.append(label)
    if failing:
        print(f"FAILED: {', '.join(failing)} exceed {TOLERANCE:g}", file=sys.stderr)
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
    p.add_argument("--events", dest="n_events", type=int)
    p.add_argument("--videos-per-event", type=int)
    p.add_argument("--segments-per-video", type=int)
    p.add_argument("--highlight-fraction", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="compare analytic gradients with finite differences")
    p.add_argument("--variant", choices=VARIANTS)
    p.add_argument("--seeds", type=int, default=20)
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
