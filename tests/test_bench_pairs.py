"""The pair runner's summary, on fixed numbers; no benchmark run is started."""

import subprocess

import pytest
from bench_pairs import summarize

END_TO_END = [
    {"name": "runs_per_s", "better": "higher", "bound": 0.2},
    {"name": "run_tail_ms", "better": "lower", "bound": 0.25},
]


def _run(workload, pair, side, runs_per_s, tail_ms, failed=0, correct=True):
    metrics = {"runs_per_s": {"value": runs_per_s}, "run_tail_ms": {"value": tail_ms}}
    return {"workload": workload, "pair": pair, "side": side, "correct": correct,
            "failed": failed, "metrics": metrics}


def test_summary_gives_quartiles_pairs_won_and_median_change(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the summary started a process")

    monkeypatch.setattr(subprocess, "run", no_run)
    parent = [100.0, 102.0, 104.0, 106.0, 108.0]
    change = [110.0, 101.0, 115.0, 117.0, 119.0]
    tails = [(4.0, 4.0), (5.0, 4.5), (20.0, 4.5), (6.0, 5.5), (8.0, 7.0)]
    runs = []
    for pair, (p, c, (pt, ct)) in enumerate(zip(parent, change, tails)):
        runs += [_run("paper", pair, "parent", p, pt), _run("paper", pair, "change", c, ct)]
    runs.append(_run("paper", 5, "parent", 1.0, 1.0))  # an unfinished pair does not count
    runs.append(_run("mesh", 0, "change", 9.0, 1.0, failed=2, correct=False))
    runs.append(_run("mesh", 0, "parent", 8.0, 1.0))

    summary = summarize(runs, END_TO_END)

    paper = summary["paper"]
    assert paper["pairs"] == 5
    assert paper["failed"] == {"parent": 0, "change": 0}
    assert paper["correct"] == {"parent": True, "change": True}
    assert paper["runs_per_s"] == {
        "parent_q1_median_q3": [102.0, 104.0, 106.0],
        "change_q1_median_q3": [110.0, 115.0, 117.0],
        "median_change_pct": 10.58,
        "pairs_change_better": "4 of 5",
        "worse_beyond_bound": False,
        "unresolved": False,  # 4 on 104, under 20 %
    }
    # lower is better for a time; a tie counts for neither side, and a
    # quartile distance of 3 on a median of 6 exceeds the 25 % bound while
    # the change's 7.0 is not below the parent's 4.0
    assert paper["run_tail_ms"] == {
        "parent_q1_median_q3": [5.0, 6.0, 8.0],
        "change_q1_median_q3": [4.5, 4.5, 5.5],
        "median_change_pct": -25.0,
        "pairs_change_better": "4 of 5",
        "worse_beyond_bound": False,
        "unresolved": True,
    }
    mesh = summary["mesh"]
    assert mesh["pairs"] == 1
    assert mesh["failed"] == {"parent": 0, "change": 2}
    assert mesh["correct"] == {"parent": True, "change": False}
    assert mesh["runs_per_s"]["parent_q1_median_q3"] == [8.0, 8.0, 8.0]
    assert mesh["runs_per_s"]["median_change_pct"] == pytest.approx(12.5)


def test_summary_skips_workloads_without_a_complete_pair():
    runs = [_run("paper", 0, "parent", 100.0, 5.0)]
    assert summarize(runs, END_TO_END) == {}


def _pairs(parent_values, change_values, parent_tails, change_tails):
    runs = []
    for pair, values in enumerate(zip(parent_values, change_values, parent_tails, change_tails)):
        p, c, pt, ct = values
        runs += [_run("paper", pair, "parent", p, pt), _run("paper", pair, "change", c, ct)]
    return summarize(runs, END_TO_END)["paper"]


def test_a_wide_spread_is_resolved_when_every_change_run_is_better():
    # parent quartile distances: 60 on 100 runs/s and 5 on 10 ms, both above
    # their bounds; every change run beats every parent run
    paper = _pairs([50.0, 70.0, 100.0, 130.0, 140.0], [150.0, 160.0, 170.0, 180.0, 190.0],
                   [8.0, 9.0, 10.0, 14.0, 30.0], [7.0, 7.5, 7.5, 7.9, 7.9])
    assert paper["runs_per_s"]["unresolved"] is False
    assert paper["run_tail_ms"]["unresolved"] is False
    # one change run level with the slowest parent run leaves it unresolved
    paper = _pairs([50.0, 70.0, 100.0, 130.0, 140.0], [150.0, 160.0, 170.0, 180.0, 190.0],
                   [8.0, 9.0, 10.0, 14.0, 30.0], [7.0, 7.5, 7.5, 7.9, 8.0])
    assert paper["run_tail_ms"]["unresolved"] is True


def test_worse_beyond_bound_compares_the_medians_against_the_bound():
    # runs_per_s: median 100 -> 79, 21 % lower against a 20 % bound;
    # run_tail_ms: median 4.0 -> 5.0, 25 % higher, exactly at its bound
    paper = _pairs([100.0] * 3, [79.0, 79.0, 79.0], [4.0] * 3, [5.0] * 3)
    assert paper["runs_per_s"]["worse_beyond_bound"] is True
    assert paper["runs_per_s"]["pairs_change_better"] == "0 of 3"
    assert paper["run_tail_ms"]["worse_beyond_bound"] is False
    # a gain is never worse, however large
    paper = _pairs([100.0] * 3, [300.0] * 3, [4.0] * 3, [1.0] * 3)
    assert paper["runs_per_s"]["worse_beyond_bound"] is False
    assert paper["run_tail_ms"]["worse_beyond_bound"] is False
    # 5.01 ms is past the 25 % bound
    paper = _pairs([100.0] * 3, [100.0] * 3, [4.0] * 3, [5.01] * 3)
    assert paper["run_tail_ms"]["worse_beyond_bound"] is True
