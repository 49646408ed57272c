"""tools/bench_pairs.py: the summary that every BENCH_*.json file carries."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tools", "bench_pairs.py")


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WALL = {"name": "wall_s", "better": "lower"}
RATE = {"name": "items_per_s", "better": "higher"}


def _run(side, seed, metrics, workload="w"):
    result = {"correct": True, "attempted": 10, "failed": 0,
              "metrics": {name: {"value": value} for name, value in metrics.items()}}
    return {"workload": workload, "seed": seed, "side": side, "result": result}


def _pairs(parent, change, name):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", seed, {name: p}), _run("change", seed, {name: c})]
    return runs


def test_quartiles(bench_pairs):
    assert bench_pairs.quartiles([5.0, 1.0, 4.0, 2.0, 3.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5
    }
    assert bench_pairs.quartiles([1.0, 2.0]) == {"median": 1.5, "q1": 1.25, "q3": 1.75, "n": 2}


@pytest.mark.parametrize("metric, wins", [(WALL, 1), (RATE, 2)])
def test_direction_and_ties(bench_pairs, metric, wins):
    # pair 0 is lower on the change, pair 1 a tie, pairs 2 and 3 higher
    name = metric["name"]
    runs = _pairs([2.0, 3.0, 1.0, 1.0], [1.0, 3.0, 2.0, 4.0], name)
    entry = bench_pairs.summarize(runs, [metric])["w"][name]
    assert entry["change_wins"] == wins
    assert entry["pairs"] == 4
    assert entry["missing_pairs"] == 0
    assert entry["parent"] == bench_pairs.quartiles([2.0, 3.0, 1.0, 1.0])
    assert entry["change"] == bench_pairs.quartiles([1.0, 3.0, 2.0, 4.0])
    assert entry["parent_iqr"] == entry["parent"]["q3"] - entry["parent"]["q1"]
    assert entry["median_change_rel"] == entry["change"]["median"] / entry["parent"]["median"] - 1.0


def test_ties_alone_win_nothing(bench_pairs):
    for metric in (WALL, RATE):
        runs = _pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], metric["name"])
        assert bench_pairs.summarize(runs, [metric])["w"][metric["name"]]["change_wins"] == 0


def test_failed_run_counts_as_missing_pair(bench_pairs):
    runs = _pairs([1.0, 1.0, 1.0], [0.5, 0.5, 0.5], "wall_s")
    runs[-1]["result"] = dict(bench_pairs.FAILED)  # the change side of seed 2 failed
    summary = bench_pairs.summarize(runs, [WALL])["w"]
    assert summary["wall_s"]["missing_pairs"] == 1
    assert summary["wall_s"]["pairs"] == 2
    assert summary["wall_s"]["change_wins"] == 2
    assert summary["all_correct"] is False
    assert summary["failed"] == 1


def test_fewer_than_two_complete_pairs_give_only_the_count(bench_pairs):
    runs = _pairs([1.0, 1.0], [0.5, 0.5], "wall_s")
    runs[0]["result"] = dict(bench_pairs.FAILED)
    summary = bench_pairs.summarize(runs, [WALL, RATE])["w"]
    assert summary["wall_s"] == {"missing_pairs": 1}
    assert summary["items_per_s"] == {"missing_pairs": 2}  # no run reports it


def test_workloads_are_summarized_apart(bench_pairs):
    runs = _pairs([1.0, 1.0], [0.5, 0.5], "wall_s")
    runs += [dict(r, workload="v") for r in _pairs([1.0, 1.0], [2.0, 2.0], "wall_s")]
    summary = bench_pairs.summarize(runs, [WALL])
    assert sorted(summary) == ["v", "w"]
    assert summary["w"]["wall_s"]["change_wins"] == 2
    assert summary["v"]["wall_s"]["change_wins"] == 0
