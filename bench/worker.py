"""One benchmark workload in a process of its own.

    python3 bench/worker.py --workload W --inputs DIR --seed N --seconds S
                            [--rounds R] [--trace 0|1] [--probes 0|1]

Runs whole rounds of the workload's operation until ``--seconds`` have
passed (or exactly ``--rounds`` rounds), checking every output against
``oracle``, and times the set-up (import, manifest read, checkpoint load)
``SETUP_REPEATS`` times spread over the run.
With ``--probes 1`` rounds of the other two workloads are interleaved with
the workload's own, each taking a share of the time, so every end-to-end
metric has a value.  With ``--trace 1`` the layer wrappers of ``tracing`` are
installed first.  The last line of stdout is one JSON object.

Only these program functions are called: ``cli.main``,
``train.load_checkpoint``, ``data.read_manifest``, ``data.load_video``,
``metrics.scored_segments``, ``metrics.extract_highlights``,
``metrics.average_precision`` and ``gradcheck.run_gradient_check``.  They are
looked up at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
import tracing

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 7
TRAIN_EPOCHS = 4
# one optimizer step per positive (short) video and epoch
STEPS_PER_EVENT = TRAIN_EPOCHS * len(inputs.SHORT)
MAP_FLOOR_ABOVE_RANDOM = 0.2
# run_gradient_check is called with one seed at a time from this fixed set;
# rounds cycle through it.  Some seeds outside it exceed the tolerance through
# finite-difference round-off (see CHANGES.md).
GRADCHECK_SEEDS = range(20)
GRADCHECK_TOL = 1e-4
# modalities x (ranking variants x {with, without BCE} + BCE alone)
GRADCHECK_GRID = 3 * (4 * 2 + 1)
SCORE_TAIL_PCT = 95
SCORE_CHUNKS = 4
# Share of the run each operation gets.  The other workloads' operations
# (probes) are interleaved with the workload's own, so every metric averages
# over the same stretch of time: this host's speed drifts over tens of seconds.
MAIN_SHARE = 0.5


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def failed_op(what: str, exc: Exception) -> None:
    print(f"operation failed: {what}: {type(exc).__name__}: {exc}", file=sys.stderr)


def import_milrank():
    for name in [m for m in sys.modules if m == "milrank" or m.startswith("milrank.")]:
        del sys.modules[name]
    importlib.import_module("milrank.cli")
    return sys.modules["milrank"]


def run_cli(mr, argv: list, stdout: io.StringIO) -> tuple:
    """(exit code, seconds) of ``cli.main(argv)`` run in this process."""
    with contextlib.redirect_stdout(stdout):
        t0 = time.perf_counter()
        try:
            code = mr.cli.main(argv)
        except Exception as exc:  # an escaped error fails the operation, not the run
            failed_op(" ".join(argv[:1]), exc)
            code = 1
        return code, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# train: `milrank train` on two events, then `milrank eval` per event


class TrainOp:
    name = "train"
    min_rounds = 1

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.out = work / "train_out"
        self.steps = self.train_s = self.op_s = 0.0
        self.maps = {}
        self.heldout = {}
        for line in (work / "heldout.tsv").read_text(encoding="utf-8").splitlines():
            vid, ev, _, feat, lab = line.split("\t")
            self.heldout.setdefault(ev, []).append((vid, work / feat, work / lab))

    def setup(self, mr) -> None:
        mr.data.read_manifest(self.work / "train.tsv")
        # unwrapped, so the check's own reloads stay out of the trace
        self.reload = getattr(mr.train.load_checkpoint, "__wrapped__", mr.train.load_checkpoint)

    def round(self, mr) -> tuple:
        argv = ["train", "--manifest", str(self.work / "train.tsv"), "--out", str(self.out),
                "--seed", str(self.seed), "--epochs", str(TRAIN_EPOCHS)]
        for ev in inputs.TRAIN_EVENTS:
            argv += ["--event", ev]
        code, dt = run_cli(mr, argv, io.StringIO())
        if code != 0:
            return len(inputs.TRAIN_EVENTS), len(inputs.TRAIN_EVENTS)
        self.op_s += dt
        self.train_s += dt
        self.steps += len(inputs.TRAIN_EVENTS) * STEPS_PER_EVENT
        failed = 0
        for ev in inputs.TRAIN_EVENTS:
            ckpt = self.out / f"{ev}.mnck"
            buf = io.StringIO()
            code, dt = run_cli(mr, ["eval", "--checkpoint", str(ckpt), "--manifest",
                                    str(self.work / "heldout.tsv"), "--event", ev,
                                    "--metric", "map", "--out", str(self.out)], buf)
            self.op_s += dt
            if code != 0:
                failed += 1
                continue
            agg = self._check_event(ev, ckpt, buf.getvalue())
            check(self.maps.setdefault(ev, agg) == agg, f"{ev}: held-out mAP changed between identical rounds")
        return len(inputs.TRAIN_EVENTS), failed

    def _check_event(self, ev: str, ckpt: Path, stdout: str) -> float:
        meta, blocks = oracle.read_mnck(ckpt)
        check(meta["step"] == STEPS_PER_EVENT and meta["epoch"] == TRAIN_EPOCHS,
              f"{ev}: checkpoint at step {meta['step']}, epoch {meta['epoch']}")
        loaded = self.reload(ckpt)
        program = {f"p/{k}": v for k, v in loaded.params.tensors.items()}
        program.update({f"v/{k}": v for k, v in loaded.state.velocity.items()})
        check(program.keys() == blocks.keys(), f"{ev}: checkpoint tensor names differ on reload")
        for name, t in blocks.items():
            check(program[name].dtype == t.dtype and np.array_equal(program[name], t),
                  f"{ev}: tensor {name} does not reload bit-identically")
            check(bool(np.all(np.isfinite(t))), f"{ev}: tensor {name} is not finite")

        log = [line.split("\t") for line in (self.out / f"{ev}.train.log").read_text().split("\n") if line]
        check(float(log[-1][5]) < float(log[0][5]), f"{ev}: last-epoch loss {log[-1][5]} >= first {log[0][5]}")

        tensors = {k[2:]: v for k, v in blocks.items() if k.startswith("p/")}
        report = {}
        for line in (self.out / f"{ev}.map.report").read_text().splitlines()[1:]:
            key, value = line.split("\t")
            report[key] = float(value)
        aps, randoms = [], []
        for vid, feat, lab in self.heldout[ev]:
            labels = [int(x) for x in lab.read_text(encoding="utf-8").split()]
            scores = oracle.reference_scores(tensors, *oracle.read_mnf1(feat), oracle.MODEL_WIDTHS["k"])
            aps.append(oracle.average_precision(labels, scores))
            randoms.append(oracle.random_ap(sum(labels), len(labels)))
            check(abs(report[vid] - aps[-1]) <= 1e-9, f"{ev}/{vid}: eval AP {report[vid]} vs oracle {aps[-1]}")
        agg = float(stdout.split("\t")[2])
        oracle_map = sum(aps) / len(aps)
        check(abs(agg - oracle_map) <= 1e-9 and abs(report["aggregate"] - oracle_map) <= 1e-9,
              f"{ev}: eval mAP {agg} vs oracle {oracle_map}")
        floor = sum(randoms) / len(randoms) + MAP_FLOOR_ABOVE_RANDOM
        check(oracle_map >= floor, f"{ev}: held-out mAP {oracle_map:.4f} below floor {floor:.4f}")
        return agg

    def metrics(self) -> dict:
        return {"train_steps_per_s": (self.steps / self.train_s, "steps/s"),
                "heldout_map": (sum(self.maps.values()) / len(self.maps), "mAP")}


# ---------------------------------------------------------------------------
# score: read, score, top-k and AP for every video of the score set


class ScoreOp:
    name = "score"
    min_rounds = SCORE_CHUNKS  # one pass over all videos, so the p95 has 10 samples beyond it

    def __init__(self, work: Path, seed: int):
        self.work = work
        _, blocks = oracle.read_mnck(work / "score.mnck")
        self.tensors = {k[2:]: v for k, v in blocks.items() if k.startswith("p/")}
        self.chunks = self.params = None
        self.rounds = 0
        self.seen = {}
        self.ms, self.segments, self.op_s = [], 0, 0.0

    def setup(self, mr) -> None:
        index = mr.data.read_manifest(self.work / "score.tsv")
        # every chunk takes every SCORE_CHUNKS-th video by length, so all
        # chunks hold about the same work whatever the seeded order
        by_length = sorted(index.records, key=lambda r: r.duration_s)
        self.chunks = [by_length[c::SCORE_CHUNKS] for c in range(SCORE_CHUNKS)]
        ckpt = mr.train.load_checkpoint(self.work / "score.mnck")
        self.params, self.ablation = ckpt.params, ckpt.config.ablation

    def round(self, mr) -> tuple:
        dims = (oracle.MODEL_WIDTHS["dv"], oracle.MODEL_WIDTHS["da"])
        chunk = self.chunks[self.rounds % SCORE_CHUNKS]
        self.rounds += 1
        failed = 0
        for ref in chunk:
            try:
                t0 = time.perf_counter()
                video = mr.data.load_video(ref, expect_dims=dims)
                segs = mr.metrics.scored_segments(video, self.params, self.ablation)
                top, _ = mr.metrics.extract_highlights(segs, "top-k", k=inputs.TOPK)
                t1 = time.perf_counter()
                scores = [s.score for s in segs]
                ap = mr.metrics.average_precision(video.labels, scores)
                t2 = time.perf_counter()
            except Exception as exc:  # one video's failure is counted, the round goes on
                failed_op(ref.video_id, exc)
                failed += 1
                continue
            self.ms.append((t1 - t0) * 1e3)
            self.op_s += t2 - t0
            self.segments += len(segs)
            self._check(ref, np.array(scores), [s.segment_index for s in top], ap)
        return len(chunk), failed

    def _check(self, ref, scores, top, ap) -> None:
        vid = ref.video_id
        if vid in self.seen:
            first = self.seen[vid]
            check(np.array_equal(scores, first[0]) and top == first[1] and ap == first[2],
                  f"{vid}: outputs changed between identical rounds")
            return
        v, a = oracle.read_mnf1(ref.feature_path)
        labels = [int(x) for x in Path(ref.label_path).read_text(encoding="utf-8").split()]
        k = oracle.MODEL_WIDTHS["k"]
        expect = np.concatenate([oracle.reference_scores(self.tensors, v[i:i + 256], a[i:i + 256], k)
                                 for i in range(0, len(v), 256)])
        check(scores.shape == expect.shape, f"{vid}: {scores.size} scores for {expect.size} segments")
        err = np.max(np.abs(scores - expect)) / np.max(np.abs(expect))
        check(err <= 1e-9, f"{vid}: scores differ from the reference forward by {err:.3e} relative")
        w, w_ref = oracle.softmax(scores), oracle.softmax(expect)
        check(abs(w.sum() - 1.0) <= 1e-9 and np.max(np.abs(w - w_ref)) <= 1e-9,
              f"{vid}: in-bag softmax weights do not sum to 1 or differ from the reference")
        check(top == sorted(oracle.ranking(expect)[:inputs.TOPK]), f"{vid}: top-{inputs.TOPK} {top}")
        check(ap == oracle.average_precision(labels, scores), f"{vid}: AP {ap} differs from the oracle")
        self.seen[vid] = (scores, top, ap)

    def metrics(self) -> dict:
        return {"score_segments_per_s": (self.segments / self.op_s, "segments/s"),
                "score_ms_p50": (statistics.median(self.ms), "ms"),
                "score_ms_tail": (float(np.percentile(self.ms, SCORE_TAIL_PCT)), "ms")}


# ---------------------------------------------------------------------------
# gradcheck: run_gradient_check, one seed of the fixed set per round


class GradcheckOp:
    name = "gradcheck"
    min_rounds = 1

    def __init__(self, work: Path, seed: int):
        self.rounds = 0
        self.checks, self.op_s = 0, 0.0

    def setup(self, mr) -> None:
        pass

    def round(self, mr) -> tuple:
        seed = GRADCHECK_SEEDS[self.rounds % len(GRADCHECK_SEEDS)]
        self.rounds += 1
        try:
            t0 = time.perf_counter()
            errors = mr.gradcheck.run_gradient_check(seeds=[seed])
            dt = time.perf_counter() - t0
        except Exception as exc:  # every check of the round failed
            failed_op(f"gradcheck seed {seed}", exc)
            return GRADCHECK_GRID, GRADCHECK_GRID
        self.op_s += dt
        self.checks += len(errors)
        check(len(errors) == GRADCHECK_GRID, f"{len(errors)} gradcheck cases, expected {GRADCHECK_GRID}")
        failed = [label for label, err in errors.items() if not err < GRADCHECK_TOL]
        for label in failed:
            print(f"gradcheck seed {seed}: {label} error {errors[label]:.3e}", file=sys.stderr)
        return len(errors), len(failed)

    def metrics(self) -> dict:
        return {"gradcheck_checks_per_s": (self.checks / self.op_s, "checks/s")}


OPS = {op.name: op for op in (TrainOp, ScoreOp, GradcheckOp)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(OPS), required=True)
    ap.add_argument("--inputs", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    ops = {name: op(args.inputs, args.seed) for name, op in OPS.items()
           if name == args.workload or args.probes}
    main_op = ops[args.workload]
    setup_s = []

    def set_up():
        """Import milrank afresh and set the workload up, timed; the probes
        are set up again untimed, so no operation keeps the old modules."""
        t0 = time.perf_counter()
        mr = import_milrank()
        main_op.setup(mr)
        setup_s.append(time.perf_counter() - t0)
        for op in ops.values():
            if op is not main_op:
                op.setup(mr)
        return mr

    mr = set_up()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        main_op.setup(mr)  # once more, so the set-up's layers are traced too
    share = {n: MAIN_SHARE if n == args.workload else (1 - MAIN_SHARE) / (len(ops) - 1) for n in ops}
    spent, done = dict.fromkeys(ops, 0.0), dict.fromkeys(ops, 0)

    def setup_due() -> bool:
        # timed runs repeat the set-up evenly over the run, so its median
        # covers the same stretch of time as the other metrics
        return (not args.rounds and len(setup_s) < SETUP_REPEATS
                and time.perf_counter() - t_start >= len(setup_s) * args.seconds / SETUP_REPEATS)

    def finished() -> bool:
        if args.rounds:
            return done[args.workload] >= args.rounds
        return (time.perf_counter() - t_start >= args.seconds and len(setup_s) >= SETUP_REPEATS
                and all(done[n] >= ops[n].min_rounds for n in ops))

    correct, why = True, ""
    attempted = failed = 0
    t_start = time.perf_counter()
    try:
        while not finished():
            if setup_due():
                mr = set_up()
                continue
            name = min(ops, key=lambda n: spent[n] / share[n])
            t0 = time.perf_counter()
            a, f = ops[name].round(mr)
            spent[name] += time.perf_counter() - t0
            done[name] += 1
            if name == args.workload:
                attempted, failed = attempted + a, failed + f
            else:
                check(f == 0, f"{f} of {a} {name} probe operations failed")
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        result = {"setup_s": (statistics.median(setup_s), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
        for op in ops.values():
            result.update(op.metrics())
    except CheckFailed as exc:
        correct, why, result = False, str(exc), {}
        attempted += 1  # the operation whose output failed the check
    out = {
        "correct": correct, "why": why, "attempted": attempted, "failed": failed,
        "rounds": done[args.workload], "probe_rounds": {n: done[n] for n in ops if n != args.workload},
        "op_s": main_op.op_s, "setup_samples_s": setup_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }
    if args.workload == "score":
        out["score_samples"] = len(main_op.ms)
    if tracer:
        out["metrics"] = tracer.metrics()
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
