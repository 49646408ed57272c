"""tools/bench_pairs.py: the summary that every BENCH_*.json file carries."""

import importlib.util
import json
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


def _pairs(parent, change, name, workload="w"):
    runs = []
    for seed, (p, c) in enumerate(zip(parent, change)):
        runs += [_run("parent", seed, {name: p}, workload), _run("change", seed, {name: c}, workload)]
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
    assert summary["failed"] == {"parent": 0, "change": 1}
    assert summary["attempted"] == {"parent": 30, "change": 21}


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


BOUNDED = [dict(WALL, bound=0.25), dict(RATE, bound=0.25)]
CLAIM = {"workload": "w", "metric": "items_per_s"}


def _verdict(bench_pairs, runs, claim=CLAIM):
    return bench_pairs.verdict(bench_pairs.summarize(runs, BOUNDED), BOUNDED, claim)


def test_claim_met_needs_nine_of_ten_wins(bench_pairs):
    parent = [100.0 + i for i in range(10)]  # q1 102.25, q3 106.75: IQR 4.5
    change = [p + 20.0 for p in parent]
    assert _verdict(bench_pairs, _pairs(parent, change, "items_per_s"))["claim_met"] is True
    change[0] = parent[0]  # a tie counts for neither side: 9 of 10 still meets it
    assert _verdict(bench_pairs, _pairs(parent, change, "items_per_s"))["claim_met"] is True
    change[1] = parent[1] - 1.0  # 8 of 10
    assert _verdict(bench_pairs, _pairs(parent, change, "items_per_s"))["claim_met"] is False


def test_claim_met_needs_a_gap_wider_than_the_parent_iqr(bench_pairs):
    parent = [100.0 + i for i in range(10)]
    for gap, met in ((4.0, False), (4.5, False), (5.0, True)):
        runs = _pairs(parent, [p + gap for p in parent], "items_per_s")
        assert _verdict(bench_pairs, runs)["claim_met"] is met, gap
    # lower is better for wall_s: the same gap upward is a loss
    runs = _pairs(parent, [p + 5.0 for p in parent], "wall_s")
    assert _verdict(bench_pairs, runs, {"workload": "w", "metric": "wall_s"})["claim_met"] is False
    runs = _pairs(parent, [p - 5.0 for p in parent], "wall_s")
    assert _verdict(bench_pairs, runs, {"workload": "w", "metric": "wall_s"})["claim_met"] is True


def test_failed_pairs_count_against_the_claim(bench_pairs):
    parent = [100.0 + i for i in range(10)]
    runs = _pairs(parent, [p + 20.0 for p in parent], "items_per_s")
    # the parent side fails, so the change's failed share stays the lower
    runs[-2]["result"] = dict(bench_pairs.FAILED)  # 9 wins, but of 10 pairs run
    assert _verdict(bench_pairs, runs)["claim_met"] is True
    runs[-4]["result"] = dict(bench_pairs.FAILED)  # 8 wins of 10
    assert _verdict(bench_pairs, runs)["claim_met"] is False


def test_no_claim_and_unrun_claim(bench_pairs):
    runs = _pairs([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], "items_per_s")
    assert _verdict(bench_pairs, runs, None)["claim_met"] is None
    assert _verdict(bench_pairs, runs, {"workload": "v", "metric": "items_per_s"})["claim_met"] is False


def test_regressions_past_the_bound(bench_pairs):
    runs = _pairs([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "wall_s")  # 30% slower: past 25%
    runs += _pairs([1.0, 1.0, 1.0], [1.2, 1.2, 1.2], "wall_s", workload="v")  # 20%: inside
    runs += _pairs([100.0] * 3, [70.0] * 3, "items_per_s", workload="v")  # 30% fewer
    runs += _pairs([100.0] * 3, [130.0] * 3, "items_per_s", workload="u")  # better
    got = _verdict(bench_pairs, runs, None)["regressions"]
    assert [(r["workload"], r["metric"], r["bound"]) for r in got] == [
        ("v", "items_per_s", 0.25), ("w", "wall_s", 0.25)
    ]
    assert got[1]["median_change_rel"] == pytest.approx(0.3)


def test_the_claimed_metric_is_not_a_regression(bench_pairs):
    runs = _pairs([100.0] * 3, [50.0] * 3, "items_per_s")
    verdict = _verdict(bench_pairs, runs)
    assert verdict == {"claim_met": False, "regressions": [], "unresolved": []}


def test_more_failed_operations_fail_the_claim(bench_pairs):
    parent = [100.0 + i for i in range(10)]
    runs = _pairs(parent, [p + 20.0 for p in parent], "items_per_s")
    runs[1]["result"]["failed"] = 1  # 1 of the change's 100 operations failed
    assert _verdict(bench_pairs, runs)["claim_met"] is False
    runs[0]["result"]["failed"] = 1  # and 1 of the parent's 100
    assert _verdict(bench_pairs, runs)["claim_met"] is True
    summary = bench_pairs.summarize(runs, BOUNDED)["w"]
    assert summary["failed"] == {"parent": 1, "change": 1}
    assert summary["attempted"] == {"parent": 100, "change": 100}


def test_all_runs_better(bench_pairs):
    for metric, parent, change, better in (
        (WALL, [2.0, 3.0], [1.0, 1.9], True),
        (WALL, [2.0, 3.0], [1.0, 2.0], False),  # a tie with the best parent run
        (RATE, [2.0, 3.0], [3.5, 4.0], True),
        (RATE, [2.0, 3.0], [1.0, 9.0], False),
    ):
        runs = _pairs(parent, change, metric["name"])
        entry = bench_pairs.summarize(runs, [metric])["w"][metric["name"]]
        assert entry["all_runs_better"] is better, (metric, change)


WIDE = [60.0, 80.0, 100.0, 120.0, 140.0]  # q1 80, q3 120: IQR 40% of the median


def test_wide_parent_spread_is_unresolved(bench_pairs):
    runs = _pairs(WIDE, [w + 1.0 for w in WIDE], "wall_s")  # 1% slower
    assert _verdict(bench_pairs, runs, None)["unresolved"] == [
        {"workload": "w", "metric": "wall_s", "parent_iqr": 40.0, "parent_median": 100.0,
         "bound": 0.25}
    ]


def test_spread_inside_the_bound_is_resolved(bench_pairs):
    narrow = [95.0, 98.0, 100.0, 102.0, 105.0]  # IQR 4% of the median
    runs = _pairs(narrow, [n + 1.0 for n in narrow], "wall_s")
    assert _verdict(bench_pairs, runs, None)["unresolved"] == []


def test_wide_spread_resolved_when_every_change_run_is_better(bench_pairs):
    runs = _pairs(WIDE, [w - 100.0 for w in WIDE], "wall_s")  # 40 below the best parent
    assert _verdict(bench_pairs, runs, None)["unresolved"] == []
    runs = _pairs(WIDE, [w + 100.0 for w in WIDE], "items_per_s")
    assert _verdict(bench_pairs, runs, None)["unresolved"] == []


def test_a_regression_or_the_claim_is_not_unresolved(bench_pairs):
    runs = _pairs(WIDE, [w * 1.5 for w in WIDE], "wall_s")  # 50% slower: a regression
    got = _verdict(bench_pairs, runs, None)
    assert [r["metric"] for r in got["regressions"]] == ["wall_s"]
    assert got["unresolved"] == []
    runs = _pairs(WIDE, [w + 1.0 for w in WIDE], "items_per_s")
    got = _verdict(bench_pairs, runs)  # the claimed workload and metric
    assert got["claim_met"] is False
    assert got["unresolved"] == []


def _no_run(*args):
    raise AssertionError("a benchmark run started before the arguments were checked")


@pytest.mark.parametrize("extra, message", [
    (["--claim", "enum-exact"], "expected WORKLOAD:METRIC"),
    (["--claim", "enum-exact:item_per_s"], "METRIC must be one of"),
    (["--claim", "sim-bigframe:items_per_s"], "no --pairs run sim-bigframe"),
    (["--trace", "sim-bigframe"], "expected WORKLOAD:SEED"),
    (["--trace", "sim-bigframe:x"], "is not an integer >= 0"),
    (["--pairs", "enum-exactt=3"], "WORKLOAD one of"),
    (["--pairs", "theory-csv=0"], "is not an integer >= 1"),
    (["--pairs", "theory-csv:3"], "expected WORKLOAD=COUNT"),
])
def test_bad_specs_stop_before_any_run(bench_pairs, monkeypatch, tmp_path, capsys, extra, message):
    monkeypatch.setattr(bench_pairs, "run_once", _no_run)
    argv = ["--parent", str(tmp_path), "--out", str(tmp_path / "out.json"),
            "--change-text", "t", "--pairs", "enum-exact=2"] + extra
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_good_specs_run_every_pair_and_trace(bench_pairs, monkeypatch, tmp_path):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((workload, seed, trace))
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"items_per_s": {"value": 2.0 if checkout == bench_pairs.ROOT else 1.0}}}
        return {"result": result, "info": [], "machine": {"cpus": 1}}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    monkeypatch.setattr(bench_pairs, "git_head", lambda checkout: "parent")
    out = tmp_path / "out.json"
    argv = ["--parent", str(tmp_path), "--out", str(out), "--change-text", "t",
            "--pairs", "enum-exact=2", "--seed", "5", "--claim", "enum-exact:items_per_s",
            "--trace", "theory-csv:7"]
    assert bench_pairs.main(argv) == 0
    assert calls == [("enum-exact", 5, 0)] * 2 + [("enum-exact", 6, 0)] * 2 + [("theory-csv", 7, 1)] * 2
    report = json.loads(out.read_text())
    assert report["claim"] == {"workload": "enum-exact", "metric": "items_per_s"}
    assert report["summary"]["enum-exact"]["items_per_s"]["change_wins"] == 2
