"""Tests that the benchmark's correctness gate can fail.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def report_json(distribution, label=None, verdict="pass"):
    modes = len(next(iter(distribution)))
    report = {
        "norm": 1.0,
        "expectations": {
            f"N{m + 1}": sum(p * occ[m] for occ, p in distribution.items())
            for m in range(modes)
        },
        "distribution": [{"occ": list(o), "prob": p} for o, p in distribution.items()],
        "comparison": {"max_deviation": 0.0, "verdict": verdict},
    }
    if label is not None:
        report = {"input": label, **report}
    return report


def test_permanent_matches_closed_forms():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert oracle.permanent(a[None])[0] == pytest.approx(1 * 4 + 2 * 3)
    for n in range(1, 6):
        assert oracle.permanent(np.ones((1, n, n)))[0] == pytest.approx(math.factorial(n))


def test_hong_ou_mandel_has_no_coincidences():
    (dist,) = oracle.expected_reports(oracle.hom_check()).values()
    assert dist[(1, 1)] < 1e-15
    assert dist[(2, 0)] == pytest.approx(0.5, abs=1e-15)
    assert dist[(0, 2)] == pytest.approx(0.5, abs=1e-15)


def test_wrong_expected_value_counts_as_failure():
    check = oracle.hom_check()
    (dist,) = oracle.expected_reports(check).values()
    stdout = json.dumps(report_json(dist))
    assert oracle.classify(check, 0, stdout) == "pass"
    wrong = {None: {**dist, (1, 1): 1e-6, (2, 0): 0.5 - 1e-6}}
    assert oracle.classify(check, 0, stdout, expected=wrong) == "fail"


def test_classical_coincidences_fail_the_hom_check():
    check = oracle.hom_check()
    distinguishable = {(2, 0): 0.25, (1, 1): 0.5, (0, 2): 0.25}
    assert oracle.classify(check, 0, json.dumps(report_json(distinguishable))) == "fail"


def test_failed_comparison_and_bad_output_fail():
    check = oracle.hom_check()
    (dist,) = oracle.expected_reports(check).values()
    assert oracle.classify(check, 0, json.dumps(report_json(dist, verdict="fail"))) == "fail"
    assert oracle.classify(check, 0, "not json") == "fail"
    assert oracle.classify(check, 1, "") == "fail"


def test_only_large_angle_vertex_exits_are_known_failures():
    large = {"kind": "vertex", "theta": 18.0}
    small = {"kind": "vertex", "theta": 1.0}
    assert oracle.classify(large, 3, "") == "known"
    assert oracle.classify(large, 1, "") == "known"
    assert oracle.classify(large, 2, "") == "fail"
    assert oracle.classify(small, 3, "") == "fail"
    wrong = report_json({(1, 0, 0): 0.5, (0, 1, 1): 0.5})
    assert oracle.classify(large, 0, json.dumps(wrong)) == "fail"


def test_timed_vertex_angles_stay_below_the_known_failures(tmp_path):
    manifest = workloads.generate("paper_circuits", 7, tmp_path)
    timed = [run["check"]["theta"] for part in ("warmup", "runs")
             for run in manifest[part] if run["check"]["kind"] == "vertex"]
    assert max(timed) < oracle.KNOWN_VERTEX_FAILURE_THETA
    probe = [run["check"]["theta"] for run in workloads.known_failure_runs()]
    assert min(probe) >= oracle.KNOWN_VERTEX_FAILURE_THETA
    assert max(probe) < 6.0 * math.pi


def test_cnot_truth_table_needs_every_input():
    check = {"kind": "cnot"}
    expected = oracle.expected_reports(check)
    reports = [report_json(d, label) for label, d in expected.items()]
    assert oracle.classify(check, 0, json.dumps(reports)) == "pass"
    assert oracle.classify(check, 0, json.dumps(reports[:3])) == "fail"
    swapped = [report_json(expected["00"], "01")] + reports[:1] + reports[2:]
    assert oracle.classify(check, 0, json.dumps(swapped)) == "fail"


def test_gate_self_test_against_the_cli(tmp_path):
    from click.testing import CliRunner
    from fockbench.cli import main

    def invoke(text):
        path = tmp_path / "hom.fck"
        path.write_text(text)
        result = CliRunner().invoke(
            main, ["run", str(path), "--backend", "both", "--format", "json"])
        return result.exit_code, result.stdout

    oracle.gate_self_test(invoke)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"] for m in spec["per_layer"]}
    produced = set(tracer.Tracer().metrics(1)) | {"trace.overhead_frac",
                                                   "vertex.known_failures"}
    assert listed == produced
