"""The repository's benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--size full|toy]

Run from the root of a checkout. The benchmark generates the workload's
worlds and configs from the seed under `.bench_work/` and times the
program's set-up in fresh processes. Then `worker.py` runs the plan in one
more fresh process: a warm-up iteration, after which it reads the peak
memory, then timed iterations for about S seconds in all. Every run's
outputs are checked.

The last line of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
metrics of BENCHMARK.json under `--trace 0` and its per-layer metrics under
`--trace 1`. The line before it is the full report: every end-to-end and
outcome metric with unit and sample count, the round-log digest, and the
environment. Exit status is non-zero, with no result, when the program's
sources are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

# BLAS runs on one thread in every process the benchmark starts; this must
# happen before numpy is imported anywhere
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 8
PROBE_TIMEOUT_S = 60
WORKER_GRACE_S = 120

# name -> (unit, better); the first four are the end-to-end metrics of
# BENCHMARK.json, the rest are raw times and outcome metrics shown only in
# the report
REPORT_METRICS = {
    "wall_rel": ("x", "lower"),
    "cpu_rel": ("x", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "ref_s": ("s", "lower"),
    "human_labels": ("count", "lower"),
    "coverage": ("fraction", "higher"),
    "auto_error": ("fraction", "lower"),
    "err_exceed_frac": ("fraction", "lower"),
    "worst_round_error": ("fraction", "lower"),
    "failed_frac": ("fraction", "lower"),
}
END_TO_END = ("wall_rel", "cpu_rel", "setup_s", "peak_rss_mb")


def _run_child(cmd, timeout):
    """Run a child to completion (killed on timeout); (returncode, out, err)."""
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or "", f"timed out after {timeout} s"
    return done.returncode, done.stdout, done.stderr


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def setup_times(config_path: str, samples: int) -> "list[float]":
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    out = []
    for _ in range(samples):
        code, stdout, stderr = _run_child(
            [sys.executable, probe, SRC, config_path], PROBE_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"set-up probe failed ({code}): {stderr}")
        out.append(_last_json(stdout)["setup_s"])
    return out


def run_worker(plan_path: str, seconds: float, trace: int,
               spans_path: str | None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), plan_path,
           "--src", SRC, "--seconds", str(seconds), "--trace", str(trace)]
    if spans_path:
        cmd += ["--spans", spans_path]
    code, stdout, stderr = _run_child(cmd, seconds + WORKER_GRACE_S)
    if code != 0:
        raise RuntimeError(f"worker failed ({code}):\n{stderr}")
    return _last_json(stdout)


def _metric(name, value, samples):
    unit = REPORT_METRICS[name][0]
    return {"value": value, "unit": unit, "samples": samples}


def iteration_time(iterations, key: str) -> float:
    """Time of one iteration: each run's median over the iterations, summed.

    A burst of load from other processes slows a few runs of one iteration;
    the per-run median drops it where a median of iteration totals would
    need many more iterations to.
    """
    return sum(statistics.median(runs) for runs in zip(*(
        it[key] for it in iterations)))


def relative_time(iterations, key: str, ref_key: str) -> float:
    """Time of one iteration in units of the reference work.

    Each run's time is divided by the mean of the reference times taken
    just before and just after it; then, as in `iteration_time`, each run's
    median over the iterations is summed. The host's speed drifts over
    minutes, and both times drift with it, so the ratio stays put where
    the seconds do not.
    """
    ratios = []
    for it in iterations:
        t, r = it[key], it[ref_key]
        ratios.append([t[k] / ((r[k] + r[k + 1]) / 2) for k in range(len(t))])
    return sum(statistics.median(runs) for runs in zip(*ratios))


def summarize(worker: dict, setups: "list[float]", trace: bool) -> dict:
    """The full report from the worker and the set-up samples.

    The warm-up iteration's runs are checked and hashed like the others, but
    it is not timed: it only gives the peak resident memory.
    """
    its = worker["iterations"]
    timed = [it for it in its if not it["warmup"]]
    plain = [it for it in timed if not it["traced"] and "run_wall_s" in it]
    traced = [it for it in timed if it["traced"] and "run_wall_s" in it]
    digests = sorted({it["rounds_sha256"] for it in its
                      if "rounds_sha256" in it})
    attempted = sum(it["attempted"] for it in its)
    failed = sum(it["failed"] for it in its)
    metrics = {}
    if plain:
        metrics["wall_rel"] = _metric("wall_rel", relative_time(
            plain, "run_wall_s", "ref_wall_s"), len(plain))
        metrics["cpu_rel"] = _metric("cpu_rel", relative_time(
            plain, "run_cpu_s", "ref_cpu_s"), len(plain))
        metrics["wall_s"] = _metric(
            "wall_s", iteration_time(plain, "run_wall_s"), len(plain))
        metrics["cpu_s"] = _metric(
            "cpu_s", iteration_time(plain, "run_cpu_s"), len(plain))
        refs = [r for it in plain for r in it["ref_wall_s"]]
        metrics["ref_s"] = _metric("ref_s", statistics.median(refs),
                                   len(refs))
    if setups:
        metrics["setup_s"] = _metric("setup_s", statistics.median(setups),
                                     len(setups))
    if not trace and worker["peak_rss_mb"] is not None:
        metrics["peak_rss_mb"] = _metric("peak_rss_mb", worker["peak_rss_mb"],
                                         1)
    if plain:
        # outcome metrics are deterministic: every iteration gives the same;
        # null where undefined (no auto-labels anywhere)
        for name, value in plain[0]["outcome"].items():
            if name != "failed_frac":
                metrics[name] = _metric(name, value, plain[0]["attempted"])
    if attempted:
        metrics["failed_frac"] = _metric("failed_frac", failed / attempted,
                                         attempted)
    layers = {}
    if traced:
        for name, unit in tracer.PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = (iteration_time(traced, "run_wall_s")
                         - metrics["wall_s"]["value"])
            else:
                value = statistics.median(it["layers"][name] for it in traced)
            layers[name] = {"value": value, "unit": unit,
                            "samples": len(traced)}
    problems = list(worker["errors"])
    problems += [msg for it in its for msg in it.get("failures", [])]
    if len(digests) > 1:
        problems.append("round logs differ between iterations"
                        + (", traced vs untraced" if traced else ""))
    return {
        "correct": not problems and failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "rounds_sha256": digests[0] if len(digests) == 1 else digests,
        "metrics": metrics,
        "per_layer": layers,
        "untraced_calls": sorted({c for it in traced
                                  for c in it.get("untraced_calls", [])}),
        "problems": problems[:20],
        "env": worker["env"],
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "toy"), default="full")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "autolabel", "__init__.py")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2

    keep = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    work = os.path.join(keep, "work")
    shutil.rmtree(keep, ignore_errors=True)
    os.makedirs(work)
    try:
        plan = workloads.prepare(args.workload, args.seed, work, args.size)
        plan_path = os.path.join(work, "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f, indent=2)
        try:
            # set-up is timed half before and half after the worker, so
            # its median spans the whole run, as the iteration times do
            setups = []
            if not args.trace:
                setups = setup_times(plan["configs"][0]["path"],
                                     SETUP_SAMPLES // 2)
            worker = run_worker(plan_path, args.seconds, args.trace,
                                os.path.join(keep, "spans.jsonl"))
            if not args.trace:
                setups += setup_times(plan["configs"][0]["path"],
                                      SETUP_SAMPLES - SETUP_SAMPLES // 2)
        except RuntimeError as exc:
            print(exc, file=sys.stderr)
            return 1
        report = summarize(worker, setups, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, **report}
    with open(os.path.join(keep, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
    if args.trace:
        shown = {k: {"value": v["value"], "unit": v["unit"]}
                 for k, v in report["per_layer"].items()}
    else:
        shown = {k: {"value": report["metrics"][k]["value"],
                     "unit": report["metrics"][k]["unit"]}
                 for k in END_TO_END if k in report["metrics"]}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": shown}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
