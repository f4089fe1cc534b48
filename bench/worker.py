"""Runs one workload plan in a fresh process and prints one JSON line.

    python3 bench/worker.py PLAN.json --src SRC --seconds S --trace 0|1
                            [--spans SPANS.jsonl]

The process never generates a world: it reads the plan's files, so its peak
resident memory is the program's. One iteration is the path of
`autolabel run --config` for every config of the plan: `parse_config`, then
`run_experiment` with `jobs=1`, each into a fresh output directory. After
each iteration (untimed) every run's outputs are checked and the round logs
hashed. The first iteration warms up: it is checked but not timed, and the
peak resident memory is read right after it, so it is the peak of a fresh
process that ran one iteration. In the timed iterations the fixed work of
`reference.py` is timed before each run and after the last. Timed
iterations repeat until the next one would end past `--seconds` or the
plan's `max_iterations` are done, with at least `MIN_ITERATIONS`.

With `--trace 1` untraced and traced iterations alternate after the warm-up,
and the limits count pairs; the traced ones run with the layer wrappers of
`tracer.py` installed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import checks
import reference
import tracer as tracing
from workloads import world_labels

MIN_ITERATIONS = 1


def import_program(src: str):
    """Import the package from `src`, refusing any other installed copy."""
    sys.path.insert(0, src)
    al = importlib.import_module("autolabel")
    here = os.path.dirname(os.path.abspath(al.__file__))
    if here != os.path.join(os.path.abspath(src), "autolabel"):
        raise ImportError(f"autolabel imported from {here}, not from {src}")
    for name in ("config", "runner", "loop", "data", "mlp", "confidence",
                 "thresholds"):
        importlib.import_module(f"autolabel.{name}")
    return al


def environment() -> dict:
    import scipy
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _dir_bytes(root: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(root) for f in files)


def run_iteration(al, plan: dict, out_root: str, gauge: bool = False):
    """One pass over the plan's configs.

    Returns per config wall s and user+sys CPU s and, with `gauge`, the
    reference work's (wall s, CPU s) before each run and after the last.
    """
    walls, cpus, refs = [], [], []
    for i, c in enumerate(plan["configs"]):
        if gauge:
            refs.append(reference.run(**plan["reference"]))
        t0, c0 = time.perf_counter(), time.process_time()
        cfg = al.config.parse_config(c["path"])
        al.runner.run_experiment(cfg, out_dir=os.path.join(out_root, f"exp_{i}"),
                                 force=True, jobs=1)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    if gauge:
        refs.append(reference.run(**plan["reference"]))
    return walls, cpus, refs


def run_dirs(plan: dict, out_root: str) -> "list[str]":
    """The run directory of every config (each config has one repeat)."""
    return [os.path.join(out_root, f"exp_{i}", "run_00")
            for i in range(len(plan["configs"]))]


def check_iteration(plan: dict, out_root: str) -> "list[checks.RunOutcome]":
    outcomes, truths = [], {}
    for c, run_dir in zip(plan["configs"], run_dirs(plan, out_root)):
        if c["labels_path"] not in truths:
            truths[c["labels_path"]] = world_labels(c["labels_path"])
        outcomes.append(checks.check_run(
            run_dir, truths[c["labels_path"]], plan["pool_size"],
            plan["val_size"], c["seed_size"], c["eps_a"]))
    return outcomes


def measure(al, plan: dict, seconds: float, trace: bool,
            spans_path: str | None) -> dict:
    out_root = os.path.join(plan["work_dir"], "out")
    iterations, tracers, errors = [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        n = len(iterations)
        warmup = n == 0
        traced = trace and not warmup and n % 2 == 0
        shutil.rmtree(out_root, ignore_errors=True)
        gc.collect()
        tr = tracing.Tracer() if traced else None
        restore = tracing.instrument(tr, al) if traced else None
        failed_run = None
        try:
            walls, cpus, refs = run_iteration(al, plan, out_root,
                                              gauge=not warmup)
        except Exception:  # the program failed: count the runs, report, stop
            failed_run = traceback.format_exc()
        finally:
            if restore is not None:
                restore()
        dirs = run_dirs(plan, out_root)
        if failed_run is not None:
            errors.append(failed_run)
            iterations.append({"traced": traced, "warmup": warmup,
                               "attempted": len(dirs), "failed": len(dirs)})
            break
        if warmup:
            # peak memory grows with fragmentation over iterations, so it
            # is read after exactly one
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        outcomes = check_iteration(plan, out_root)
        rec = {
            "traced": traced,
            "warmup": warmup,
            "run_wall_s": walls,
            "run_cpu_s": cpus,
            "ref_wall_s": [r[0] for r in refs],
            "ref_cpu_s": [r[1] for r in refs],
            "attempted": len(outcomes),
            "failed": sum(o.failed for o in outcomes),
            "failures": [f"{os.path.relpath(o.run_dir, out_root)}: {msg}"
                         for o in outcomes for msg in o.failures],
            "outcome": checks.outcome_metrics(outcomes),
            "rounds_sha256": checks.rounds_digest(dirs, out_root),
        }
        if traced:
            rec["layers"] = tr.layer_metrics()
            rec["layers"]["runner.bytes_written"] = float(_dir_bytes(out_root))
            rec["untraced_calls"] = tr.missing
            tracers.append(tr)
        iterations.append(rec)
        elapsed = time.perf_counter() - start
        done = len(iterations)
        per_mode = (done - 1) // 2 if trace else done - 1
        if per_mode >= plan["max_iterations"]:
            break
        if per_mode >= MIN_ITERATIONS and elapsed + elapsed / done > seconds:
            break
    shutil.rmtree(out_root, ignore_errors=True)
    if spans_path and tracers:
        with open(spans_path, "w") as f:
            for i, tr in enumerate(tracers):
                tr.write(f, f"traced-{i}")
    return {
        "iterations": iterations,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "env": environment(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("plan")
    p.add_argument("--src", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    with open(args.plan) as f:
        plan = json.load(f)
    al = import_program(args.src)
    result = measure(al, plan, args.seconds, bool(args.trace), args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
