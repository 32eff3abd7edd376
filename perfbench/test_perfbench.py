"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

TINY = {
    "lambda": ("lambda", "--lambda", "0.25", "--shots", "2000"),
    "twirl": ("twirl", "--samples", "2000", "--split", "3x3", "--workers", "2"),
    "superdense": ("superdense", "--dim", "4", "--trials", "2"),
    "verify": ("verify", "--suite", "thm1", "--trials", "3"),
}


def _tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], argv=TINY[name])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_spec()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", list(TINY))
def test_untraced_run_emits_every_end_to_end_metric(name):
    report = run.measure(_tiny(name), seed=0, seconds=0, trace=False)
    assert report["failed"] == 0, report["errors"]
    assert report["metrics"].keys() == dict(run.END_TO_END).keys()
    for metric, (value, unit) in report["metrics"].items():
        assert unit == dict(run.END_TO_END)[metric]
        assert value > 0, metric
    assert len(report["digests"]) == 1


@pytest.mark.parametrize("name", list(TINY))
def test_traced_run_self_times_add_up(name):
    report = run.measure(_tiny(name), seed=0, seconds=0, trace=True)
    assert report["failed"] == 0, report["errors"]
    spec = {metric: unit for metric, unit, _ in run.per_layer_spec()}
    assert {m: unit for m, (_, unit) in report["metrics"].items()} == spec
    values = {m: value for m, (value, _) in report["metrics"].items()}
    self_times = {m: v for m, v in values.items() if m.endswith(".self_s")}
    assert all(v >= 0 for v in self_times.values()), self_times
    for metric, value in self_times.items():
        total = metric.removesuffix(".self_s") + ".total_s"
        if total in values:
            assert value <= values[total]
    # Everything under the handler span, the handler's own Python included,
    # accounts for the traced handler time.
    under_handler = sum(v for m, v in self_times.items() if m != f"{run.ROOT}.self_s")
    tolerance = max(abs(values["trace.overhead_s"]), 1e-4)
    assert abs(under_handler - values["trace.handler_s"]) <= tolerance
    for expected in run.WORKLOADS[name].expected:
        assert values[f"{expected}.calls"] > 0


def test_counters_follow_the_workload():
    report = run.measure(_tiny("lambda"), seed=0, seconds=0, trace=True)
    values = {m: value for m, (value, _) in report["metrics"].items()}
    assert values["protocols.sample_lambda_measurement.shots"] == 2000
    assert values["frames.MeronomicElement.to_operator.calls"] == 0
    report = run.measure(_tiny("verify"), seed=0, seconds=0, trace=True)
    values = {m: value for m, (value, _) in report["metrics"].items()}
    # Each of the 3 trials tests one group element (a member) and one Haar
    # candidate (not a member) on each of two splits.
    assert values["frames.factor_as_local.calls"] == 12
    assert values["frames.factor_as_local.member_ratio"] == 0.5


def test_checks_reject_wrong_results():
    assert run._check_lambda({"estimate": {"p_hat": 0.3}, "expected_p": 0.1875, "binomial_sigma": 0.01})
    assert run._check_lambda({"estimate": {"p_hat": 0.19}, "expected_p": 0.1875, "binomial_sigma": 0.01}) is None
    assert run._check_twirl({"split": "3x3", "samples": 100, "frobenius_distance_to_uniform": 0.5})
    assert run._check_twirl({"split": "3x3", "samples": 100, "frobenius_distance_to_uniform": 0.09}) is None
    assert run._check_superdense({"all_success": False, "successes": 3, "rounds": 4})
    assert run._check_verify({"passed": False, "detail": "trial 0"})


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
