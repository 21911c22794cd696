"""The summary that tools/pairs.py writes into BENCH_<n>.json."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).resolve().parent.parent / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

METRICS = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "time", "unit": "ms", "better": "lower", "bound": 0.25},
]


def run(pair, tree, correct=True, failed=0, **metrics):
    return {"pair": pair, "seed": pair, "tree": tree, "exit_code": 0, "correct": correct,
            "attempted": 10, "failed": failed, "metrics": metrics}


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    runs = [
        run(1, "parent", rate=10.0, time=5.0), run(1, "change", rate=20.0, time=6.0),
        run(2, "change", rate=30.0, time=4.0), run(2, "parent", rate=10.0, time=5.0),
        run(3, "parent", rate=10.0, time=5.0), run(3, "change", rate=10.0, time=5.0),
    ]
    summary = pairs.summarize(runs, METRICS)
    rate = summary["metrics"]["rate"]
    assert rate["change_wins"] == 2 and rate["pairs"] == 3
    assert summary["metrics"]["time"]["change_wins"] == 1
    assert rate["parent"] == {"median": 10.0, "q1": 10.0, "q3": 10.0}
    assert rate["change"] == {"median": 20.0, "q1": 15.0, "q3": 25.0}
    assert rate["change_over_parent"] == 2.0
    assert summary["pairs_kept"] == [1, 2, 3]


def test_a_run_that_exits_nonzero_drops_its_pair():
    runs = [
        run(1, "parent", rate=10.0), run(1, "change", rate=20.0),
        run(2, "parent", rate=10.0), {"pair": 2, "seed": 2, "tree": "change", "exit_code": 1, "stderr": "boom"},
    ]
    summary = pairs.summarize(runs, METRICS)
    assert summary["pairs_kept"] == [1]
    assert summary["metrics"]["rate"]["pairs"] == 1 and summary["metrics"]["rate"]["change_wins"] == 1
    assert "time" not in summary["metrics"]  # reported by no run
    assert summary["operations"] == {"parent": {"attempted": 20, "failed": 0}, "change": {"attempted": 10, "failed": 0}}


@pytest.mark.parametrize("wrong", ["parent", "change"])
def test_an_incorrect_run_drops_its_pair(wrong):
    runs = [
        run(1, "parent", rate=10.0), run(1, "change", rate=20.0),
        run(2, "parent", correct=wrong != "parent", rate=10.0), run(2, "change", correct=wrong != "change", rate=99.0),
        run(3, "parent", rate=10.0), run(3, "change", rate=5.0),
    ]
    summary = pairs.summarize(runs, METRICS)
    assert summary["pairs_kept"] == [1, 3]
    rate = summary["metrics"]["rate"]
    assert rate["pairs"] == 2 and rate["change_wins"] == 1
    assert rate["change"]["median"] == 12.5  # the incorrect pair's 99 is left out


def test_failed_operations_are_totalled_per_tree():
    runs = [
        run(1, "parent", rate=10.0), run(1, "change", failed=3, rate=20.0),
        run(2, "change", failed=1, rate=20.0), run(2, "parent", rate=10.0),
    ]
    summary = pairs.summarize(runs, METRICS)
    assert summary["operations"] == {"parent": {"attempted": 20, "failed": 0}, "change": {"attempted": 20, "failed": 4}}
    assert summary["metrics"]["rate"]["change_wins"] == 2  # a win is still reported; the totals sit beside it


def test_a_pair_missing_one_tree_is_dropped():
    runs = [run(1, "parent", rate=10.0), run(1, "change", rate=20.0), run(2, "parent", rate=10.0)]
    assert pairs.summarize(runs, METRICS)["pairs_kept"] == [1]


@pytest.mark.parametrize("values,expected", [([3.0], (3.0, 3.0, 3.0)), ([1.0, 2.0, 3.0, 4.0, 5.0], (2.0, 3.0, 4.0))])
def test_quartiles(values, expected):
    q = pairs.quartiles(values)
    assert (q["q1"], q["median"], q["q3"]) == expected
