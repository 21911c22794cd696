"""Benchmark entry point (see README.md in this directory).

    python3 bench/run.py --workload {train,score,gradcheck} --seed N --seconds S --trace {0,1}

Writes the workload's inputs from the seed under bench/work/, runs the
workload in a worker process with one BLAS thread, and prints one JSON object
as the last line of stdout.  With ``--trace 0`` it holds every end-to-end
metric; with ``--trace 1`` an untraced and a traced worker run the same
rounds and it holds every per-layer metric, ``trace.overhead_s`` being the
difference of their operation times.  Details of each run go to bench/out/.
"""

from __future__ import annotations

import os

# One BLAS thread, the same on every commit, set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("train", "score", "gradcheck")
DEADLINE_S = 170.0


def run_worker(args, work: Path, deadline: float, trace: int, probes: int, rounds=None) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--inputs", str(work),
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
           "--probes", str(probes)]
    if rounds is not None:
        cmd += ["--rounds", str(rounds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=deadline - time.monotonic(), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "milrank" / "__init__.py").is_file():
        print(f"error: no milrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(BENCH))
    import inputs

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        if args.workload == "train" or not args.trace:
            inputs.write_train_set(work, args.seed)
        if args.workload == "score" or not args.trace:
            inputs.write_score_set(work, args.seed)
        gen_s = time.perf_counter() - t0
        plain = run_worker(args, work, deadline, trace=0, probes=1 - args.trace)
        detail = {"args": vars(args), "blas_threads": BLAS_THREADS, "inputs_s": gen_s, "untraced": plain}
        result = plain
        if args.trace:
            traced = run_worker(args, work, deadline, trace=1, probes=0, rounds=plain["rounds"])
            detail["traced"] = traced
            traced["metrics"]["trace.overhead_s"] = {"value": traced["op_s"] - plain["op_s"], "unit": "s"}
            result = dict(traced, correct=plain["correct"] and traced["correct"])
            if traced["absent"]:
                print(f"absent layers (reported as 0): {', '.join(traced['absent'])}", file=sys.stderr)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    for part in ("untraced", "traced"):
        if part in detail and not detail[part]["correct"]:
            print(f"check failed ({part}): {detail[part]['why']}", file=sys.stderr)
    print(f"inputs written in {gen_s:.2f} s (excluded from every metric); "
          f"{result['rounds']} rounds", file=sys.stderr)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
