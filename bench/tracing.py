"""Per-layer tracing from outside the program.

Each traced function is replaced, under the name its caller looks it up by,
with a wrapper that records calls, busy time, self time (busy time minus the
time spent in traced callees) and an optional count taken from the
arguments or the result.  Calls inside the defining module are not layer
boundaries and stay unwrapped: ``milrank.model.score_video`` calls its own
module's ``forward_bag``, which is not traced, while ``milrank.train``'s
``forward_bag`` is.  Spans stay in memory; ``metrics`` turns them into the
``<module>.<function>.<stat>`` figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _mb_read(args, kwargs, result):
    ref = args[0] if args else kwargs["ref"]
    paths = [ref.feature_path] + ([ref.label_path] if ref.label_path is not None else [])
    return sum(os.path.getsize(p) for p in paths) / 1e6


def _rows(args, kwargs, result):
    return len(args[0].vision)


def _checkpoint_bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _loss_evals(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return 2 * sum(t.size for t in params.tensors.values())


# layer -> (caller lookups as (module, attribute), count taken per call, count name)
LAYERS = {
    "data.read_manifest": ([("data", "read_manifest")], None, None),
    "data.load_video": ([("data", "load_video")], _mb_read, "mb_read"),
    "data.sample_bag": ([("data", "sample_bag")], None, None),
    "model.forward_bag": ([("train", "forward_bag"), ("gradcheck", "forward_bag")], _rows, "rows"),
    "model.score_video": ([("metrics", "score_video")], _rows, "rows"),
    "losses.total_loss": ([("train", "total_loss")], None, None),
    "losses.backward": ([("train", "backward"), ("gradcheck", "backward")], None, None),
    "train.sgd_step": ([("train", "sgd_step")], None, None),
    "train.train_event": ([("cli", "train_event")], None, None),
    "train.save_checkpoint": ([("train", "save_checkpoint")], _checkpoint_bytes, "bytes"),
    "train.load_checkpoint": ([("train", "load_checkpoint"), ("cli", "load_checkpoint")], None, None),
    "metrics.evaluate_map": ([("metrics", "evaluate_map")], None, None),
    "metrics.average_precision": ([("metrics", "average_precision")], None, None),
    "metrics.extract_highlights": ([("metrics", "extract_highlights")], None, None),
    "gradcheck.check_case": ([("gradcheck", "check_case")], None, None),
    "numkit.finite_diff_gradient": ([("gradcheck", "finite_diff_gradient")], _loss_evals, "loss_evals"),
    "cli.main": ([("cli", "main")], None, None),
}

# (metric name, unit): what the traced run reports, in BENCHMARK.json's order.
METRICS = [
    ("data.read_manifest.ms", "ms"),
    ("data.load_video.calls", "count"), ("data.load_video.ms", "ms"), ("data.load_video.mb_read", "MB"),
    ("data.sample_bag.calls", "count"), ("data.sample_bag.ms", "ms"),
    ("model.forward_bag.calls", "count"), ("model.forward_bag.rows", "rows"),
    ("model.forward_bag.ms", "ms"), ("model.forward_bag.us_per_row", "us/row"),
    ("model.score_video.calls", "count"), ("model.score_video.rows", "rows"),
    ("model.score_video.ms", "ms"), ("model.score_video.us_per_row", "us/row"),
    ("losses.total_loss.ms", "ms"),
    ("losses.backward.calls", "count"), ("losses.backward.ms", "ms"),
    ("train.sgd_step.calls", "count"), ("train.sgd_step.ms", "ms"),
    ("train.train_event.self_ms", "ms"),
    ("train.save_checkpoint.ms", "ms"), ("train.save_checkpoint.bytes", "bytes"),
    ("train.load_checkpoint.ms", "ms"),
    ("metrics.evaluate_map.ms", "ms"),
    ("metrics.average_precision.calls", "count"), ("metrics.average_precision.ms", "ms"),
    ("metrics.extract_highlights.ms", "ms"),
    ("gradcheck.check_case.calls", "count"), ("gradcheck.check_case.ms", "ms"),
    ("numkit.finite_diff_gradient.ms", "ms"), ("numkit.finite_diff_gradient.loss_evals", "count"),
    ("numkit.finite_diff_gradient.us_per_eval", "us/eval"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        self.stats = {}
        self.absent = []
        self._stack = []

    def install(self) -> None:
        """Wrap every caller lookup of every layer that still exists; a
        layer with no lookup left is recorded as absent."""
        for layer, (lookups, count, _) in LAYERS.items():
            st = self.stats[layer] = {"calls": 0, "s": 0.0, "self_s": 0.0, "n": 0.0}
            found = False
            for mod_name, attr in lookups:
                try:
                    module = importlib.import_module(f"milrank.{mod_name}")
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if callable(fn):
                    setattr(module, attr, self._wrap(fn, st, count))
                    found = True
            if not found:
                self.absent.append(layer)

    def _wrap(self, fn, st, count):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st["calls"] += 1
                st["s"] += dt
                st["self_s"] += dt - child
            if count is not None:
                st["n"] += count(args, kwargs, result)
            return result

        return traced

    def metrics(self) -> dict:
        """Every layer metric of METRICS; ``trace.overhead_s`` needs the
        untraced run and is left to the caller."""
        out = {}
        for name, unit in METRICS:
            layer, stat = name.rsplit(".", 1)
            if layer == "trace":
                continue
            st = self.stats[layer]
            per = {"calls": st["calls"], "ms": st["s"] * 1e3, "self_ms": st["self_s"] * 1e3}
            per[LAYERS[layer][2]] = st["n"]
            per["us_per_row"] = per["us_per_eval"] = st["s"] * 1e6 / st["n"] if st["n"] else 0.0
            out[name] = {"value": per[stat], "unit": unit}
        return out
