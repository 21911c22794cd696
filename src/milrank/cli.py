"""Command-line entry point.

Commands: train, eval, score, synth, gradcheck.  A ``--config`` file holds
``key = value`` lines; explicit flags override file values, and the merged
configuration is echoed into the output directory.  Exit codes: 0 success,
1 runtime failure, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path
from typing import List, Optional, get_type_hints

from . import data as datamod
from . import metrics
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

# Environment variables that set the thread count of the common BLAS builds.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


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


def _blas_thread_count():
    """(get, set) C functions of the OpenBLAS that numpy links, or None."""
    import ctypes

    import numpy as np

    try:
        umath = np._core._multiarray_umath
    except AttributeError:  # numpy < 2
        umath = np.core._multiarray_umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def _train_parallel(index, events: List[str], config: TrainingConfig, out_dir: Path, jobs: int) -> bool:
    """Train ``events`` over ``jobs`` processes and print their lines in
    order; False, with nothing done, when it cannot run in parallel.

    The parent trains ``events[0::jobs]`` itself; the other events go, in
    command-line order, to ``jobs - 1`` forked workers.  Every process holds
    one BLAS thread: forked processes that each keep the default count
    oversubscribe the cores and train many times slower.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    blas = _blas_thread_count()
    pinned = all(os.environ.get(var) == "1" for var in _BLAS_THREAD_VARS)
    if "fork" not in multiprocessing.get_all_start_methods() or (blas is None and not pinned):
        return False
    previous = None
    if blas is not None:
        previous = blas[0]()
        blas[1](1)
    try:
        pool = ProcessPoolExecutor(jobs - 1, mp_context=multiprocessing.get_context("fork"))
        try:
            futures = {event: pool.submit(_train_one, index, event, config, out_dir)
                       for i, event in enumerate(events) if i % jobs}
            for i, event in enumerate(events):
                if i % jobs == 0:
                    ckpt_path = _train_one(index, event, config, out_dir)
                else:
                    try:
                        ckpt_path = futures[event].result()
                    except BrokenProcessPool:
                        lost = [e for e in events[i:] if e in futures
                                and isinstance(futures[e].exception(), BrokenProcessPool)]
                        raise MilrankError(
                            f"a training worker process died; events not trained: {', '.join(lost)}"
                        ) from None
                print(f"trained\t{event}\t{ckpt_path}")
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        if blas is not None:
            blas[1](previous)
    return True


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
    jobs = min(len(events), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    if jobs > 1 and _train_parallel(index, events, config, out_dir, jobs):
        return EXIT_OK
    for event in events:
        print(f"trained\t{event}\t{_train_one(index, event, config, out_dir)}")
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
    spec = datamod.SyntheticSpec(
        n_events=args.events,
        videos_per_event=args.videos_per_event,
        segments_per_video=args.segments_per_video,
        highlight_fraction=args.highlight_fraction,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        tau=args.tau,
    )
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
    results = run_gradient_check(seeds=seeds, variants=variants, perturb=args.perturb)
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
    p.add_argument("--events", type=int, default=6)
    p.add_argument("--videos-per-event", type=int, default=80)
    p.add_argument("--segments-per-video", type=int, default=60)
    p.add_argument("--highlight-fraction", type=float, default=0.15)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--tau", type=float, default=60.0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("gradcheck", help="compare analytic gradients with finite differences")
    p.add_argument("--variant", choices=VARIANTS)
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
