"""Alternating parent/change pairs of the benchmark, written to BENCH_<n>.json.

    python3 tools/pairs.py --parent REV --workload W [--workload W2 ...] --pairs N --seeds S [S ...]
                           [--out BENCH_<n>.json]

The parent revision is unpacked with ``git archive`` into a temporary
directory (removed afterwards), which leaves the repository's own metadata
untouched; the change is the working tree this script lives in.  For every
workload, pair ``i`` runs

    python3 bench/run.py --workload W --seed S --seconds SECONDS --trace 0

once in each tree, one after the other, with seed ``S = seeds[(i - 1) % len(seeds)]``
and SECONDS the ``run_seconds`` of ``BENCHMARK.json``.  The parent runs first
in odd pairs (1, 3, ...) and second in even ones, so a drift of the host's
speed over the run falls on both trees alike.  The output holds every run's
end-to-end metrics, each tree's total of attempted and failed operations,
each metric's median and quartiles per tree and of the change/parent ratio
within each pair (a drift of the host's speed between pairs cancels in it),
the count of pairs the change won (by the direction ``BENCHMARK.json``
gives), and a host line: usable CPUs, the numpy version and its BLAS.  A
pair counts toward the medians and wins only when both its runs exited 0
and ``bench/run.py`` judged them correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 600


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout.strip()


def host_line() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except Exception:  # numpy < 1.26 has no dict mode; the line is informative only
        pass
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": cpus, "numpy": np.__version__, "blas": blas, "python": platform.python_version(),
            "machine": platform.machine()}


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"exit_code": proc.returncode, "wall_s": wall, "stderr": proc.stderr[-2000:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"exit_code": 0, "wall_s": wall, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def usable(run: dict) -> bool:
    return run["exit_code"] == 0 and run["correct"] is True


def summarize(runs: list, metrics: list) -> dict:
    """Each tree's operations over its runs that exited 0, the pairs whose two
    runs are both usable, and per metric over those pairs: each tree's median
    and quartiles, the change's median over the parent's, the median and
    quartiles of the change/parent ratio of each pair, and the pairs the
    change won."""
    trees = ("parent", "change")
    pairs = sorted({r["pair"] for r in runs})
    kept = [p for p in pairs if all(usable(r) for r in runs if r["pair"] == p)
            and {r["tree"] for r in runs if r["pair"] == p} == set(trees)]
    out = {
        "operations": {tree: {k: sum(r[k] for r in runs if r["tree"] == tree and r["exit_code"] == 0)
                              for k in ("attempted", "failed")} for tree in trees},
        "pairs_kept": kept,
        "metrics": {},
    }
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        by_tree = {tree: {r["pair"]: r["metrics"][name] for r in runs
                          if r["tree"] == tree and r["pair"] in kept and name in r["metrics"]} for tree in trees}
        both = [p for p in pairs if p in by_tree["parent"] and p in by_tree["change"]]
        if not both:
            continue
        wins = sum((by_tree["change"][p] > by_tree["parent"][p]) == higher
                   and by_tree["change"][p] != by_tree["parent"][p] for p in both)
        entry = {"unit": m["unit"], "better": m["better"], "pairs": len(both), "change_wins": wins}
        for tree in trees:
            entry[tree] = quartiles([by_tree[tree][p] for p in both])
        base = entry["parent"]["median"]
        entry["change_over_parent"] = entry["change"]["median"] / base if base else None
        ratios = [by_tree["change"][p] / by_tree["parent"][p] for p in both if by_tree["parent"][p]]
        entry["pair_ratio"] = quartiles(ratios) if ratios else None
        out["metrics"][name] = entry
    return out


def next_bench_path() -> Path:
    n = 1
    while (ROOT / f"BENCH_{n}.json").exists():
        n += 1
    return ROOT / f"BENCH_{n}.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", required=True, choices=("train", "score", "gradcheck"))
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--out", type=Path, help="output file (default: the next free BENCH_<n>.json)")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    out_path = args.out or next_bench_path()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    report = {
        "parent": {"rev": args.parent, "sha": parent_sha},
        "change": {"sha": git("rev-parse", "HEAD"), "uncommitted_changes": dirty},
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
        "host": host_line(),
        "workloads": {},
    }
    tmp = Path(tempfile.mkdtemp(prefix="pairs-"))
    parent_tree = tmp / "parent"
    try:
        parent_tree.mkdir()
        archive = subprocess.run(["git", "archive", parent_sha], cwd=ROOT, check=True, stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in args.workload:
            runs = []
            for pair in range(1, args.pairs + 1):
                seed = args.seeds[(pair - 1) % len(args.seeds)]
                order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
                for position, tree in enumerate(order, start=1):
                    run = bench_run(trees[tree], workload, seed, seconds)
                    runs.append({"pair": pair, "seed": seed, "tree": tree, "position": position, **run})
                    shown = {k: round(v, 4) for k, v in run.get("metrics", {}).items()}
                    print(f"{workload} pair {pair} seed {seed} {tree}: {shown or run}", file=sys.stderr)
            report["workloads"][workload] = {"runs": runs, "summary": summarize(runs, metrics)}
            out_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
