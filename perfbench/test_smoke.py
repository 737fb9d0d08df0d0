"""Smoke test of the benchmark at its smallest scale.

    python3 -m pytest perfbench/test_smoke.py

A handful of jobs of every workload, with answers checked against the
recorded ones, the result schema, and the tables BENCHMARK.json and
manifest.json are derived from.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import jobs  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from spans import NullTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bench(*args: str):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    report = json.loads(lines[-2].removeprefix("report: "))
    return done.returncode, report, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_a_few_jobs_of_each_workload_pass_their_checks(workload):
    code, report, result = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                                 "--jobs", "5", "--trace", "0")
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 5 and result["failed"] == 0
    assert report["expected_answers"] > 0  # compared against the record
    assert set(result["metrics"]) == set(metrics.END_TO_END)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == metrics.END_TO_END[name][0] and metric["value"] > 0


def test_a_traced_run_reports_every_layer_metric():
    code, _, result = bench("--workload", "ties", "--jobs", "5", "--trace", "1")
    assert code == 0 and result["correct"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: row[0] for name, row in metrics.PER_LAYER.items()}


def _loop(expected=None):
    return run.Loop(jobs, run.Budget(5.0), expected)


def test_an_answer_that_differs_from_the_record_fails_the_job():
    job = WORKLOADS["ties"].pass_jobs(run.DEFAULT_SEED, 0)[0]
    assert _loop().run_one(job, NullTracer())["status"] == "ok"
    assert _loop({job.key: "0" * 16}).run_one(job, NullTracer())["status"] == "wrong"


def test_invariant_checks_reject_bad_answers():
    job = next(j for j in WORKLOADS["ties"].pass_jobs(run.DEFAULT_SEED, 0) if j.kind == "ranking")
    profile, answer, _ = jobs.execute(job, NullTracer())
    jobs.check(job, profile, answer, None, NullTracer())
    with pytest.raises(jobs.CheckFailed):
        jobs.check(job, profile, frozenset({next(iter(answer))[:-1]}), None, NullTracer())
    winner = replace(job, kind="winner", rule="pv")
    with pytest.raises(jobs.CheckFailed):
        jobs.check(winner, profile, frozenset(), None, NullTracer())


def test_a_witness_that_does_not_replay_is_rejected():
    job = next(j for j in WORKLOADS["axiom-sweep"].pass_jobs(run.DEFAULT_SEED, 0)
               if j.detail == "ioc" and j.rule == "pv")
    profile, verdict, _ = jobs.execute(job, NullTracer())
    forged = replace(verdict, holds=False, witness={"clone_set": [], "removed": profile.candidates[0],
                                                     "winners": [], "winners_without": [],
                                                     "violation": "clone set"})
    with pytest.raises(jobs.CheckFailed):
        jobs.check(job, profile, forged, None, NullTracer())


def test_benchmark_json_is_derived_from_the_metric_tables():
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench_json["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench_json["end_to_end"]} == {
        name: row[:3] for name, row in metrics.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench_json["per_layer"]} == {
        name: row[:2] for name, row in metrics.PER_LAYER.items()}


def test_manifest_is_current():
    committed = json.loads((HERE / "manifest.json").read_text())
    fresh = run.manifest()
    committed.pop("measured_on")
    fresh.pop("measured_on")
    assert committed == json.loads(json.dumps(fresh))
