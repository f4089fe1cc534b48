"""Smoke test of the benchmark at toy size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload with and without tracing, checks that every metric is
emitted with its unit, that a corrupted report counts as a failed run, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def bench(workload, trace, root=ROOT, seed=3):
    done = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", "1", "--trace",
         str(trace), "--size", "toy"],
        cwd=root, capture_output=True, text=True, timeout=170)
    return done


def results(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["report"]


def test_benchmark_json_names_match_the_harness():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert tuple(m["name"] for m in SPEC["end_to_end"]) == run.END_TO_END
    for m in SPEC["end_to_end"]:
        assert (m["unit"], m["better"]) == run.REPORT_METRICS[m["name"]]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        tracer.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, report = results(bench(workload, 0))
    assert result["correct"], report["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, (unit, _) in run.REPORT_METRICS.items():
        assert report["metrics"][name]["unit"] == unit
        assert report["metrics"][name]["samples"] >= 1
    assert len(report["rounds_sha256"]) == 64
    for key in ("python", "numpy", "scipy", "blas", "blas_threads", "nproc"):
        assert key in report["env"]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric_and_keeps_the_digest(workload):
    plain = results(bench(workload, 0))[1]
    result, report = results(bench(workload, 1))
    assert result["correct"], report["problems"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert report["rounds_sha256"] == plain["rounds_sha256"]
    assert report["untraced_calls"] == []
    assert result["metrics"]["loop.rounds"]["value"] >= 1
    assert result["metrics"]["mlp.forward_calls"]["value"] >= 1
    assert os.path.getsize(os.path.join(
        ROOT, ".bench_work", f"{workload}-seed3-trace1", "spans.jsonl")) > 0


def test_corrupted_report_counts_as_failed_run(tmp_path):
    plan = workloads.prepare("multiround_net", 5, str(tmp_path), "toy")
    al = worker.import_program(os.path.join(ROOT, "src"))
    out = str(tmp_path / "out")
    worker.run_iteration(al, plan, out)
    assert not any(o.failed for o in worker.check_iteration(plan, out))

    path = os.path.join(worker.run_dirs(plan, out)[0], "report.json")
    with open(path) as f:
        report = json.load(f)
    report["final_coverage"] += 0.01
    with open(path, "w") as f:
        json.dump(report, f)
    outcomes = worker.check_iteration(plan, out)
    assert sum(o.failed for o in outcomes) == 1
    assert "final_coverage" in outcomes[0].failures[0]
    assert checks.outcome_metrics(outcomes)["failed_frac"] == \
        1 / len(outcomes)


def test_self_time_subtracts_direct_children():
    tr = tracer.Tracer()
    tr.spans = [["outer", 0.0, 10.0, -1], ["inner", 1.0, 4.0, 0],
                ["leaf", 2.0, 3.0, 1], ["inner", 5.0, 6.0, 0]]
    assert dict(tr.self_times()) == {"outer": 6.0, "inner": 3.0, "leaf": 1.0}


def test_relative_time_divides_each_run_by_the_reference_around_it():
    its = [{"t": [2.0, 6.0], "r": [1.0, 1.0, 3.0]},
           {"t": [4.0, 6.0], "r": [2.0, 2.0, 2.0]},
           {"t": [9.0, 9.0], "r": [1.0, 1.0, 1.0]}]
    # run 0: ratios 2, 2, 9 -> median 2; run 1: 3, 3, 9 -> median 3
    assert run.relative_time(its, "t", "r") == 5.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("multiround_net", 0, root=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
