"""A fixed piece of numpy work that gauges the machine's speed right now.

The benchmark shares its host with other work, and the host's speed drifts
over minutes. On a shared 2-vCPU Xeon virtual machine the same kind of
`mixture_dense_grid` iteration took 7.7 s in one minute and 10.4 s a few
minutes later, and a fixed numpy loop slowed by the same factor in the same
windows. `worker.py` times `run()` before every run of a timed iteration
and after the last one. A run's time over the mean of the two reference
times next to it is its time relative to the machine's speed at that
moment, which drifts far less than either time alone.

The work has three parts, one for each kind of work the program does: a
scan of many small array operations in an interpreter loop (as in
threshold selection), single-threaded dense layers, and row gathers from a
table larger than the caches. Other work on the host slows the three by
different factors, so each workload sets how much of each part to run, to
match its own mix (`workloads.py`). The inputs are fixed: they never
depend on a workload's seed or on the program. They are built on the first
call, after the worker has read its peak memory, so they do not count in
`peak_rss_mb`.
"""

from __future__ import annotations

import time

import numpy as np

_inputs = None


def _build():
    rng = np.random.default_rng(20240425)
    scores = rng.random(1000)
    return {
        "scores": scores,
        "wrong": scores < rng.random(1000) * 0.3,
        "x": rng.standard_normal((1000, 784)).astype(np.float32),
        "w": rng.standard_normal((784, 128)).astype(np.float32),
        "table": rng.standard_normal((20000, 784)).astype(np.float32),
        "rows": rng.permutation(20000)[:3000],
    }


def run(scan_points: int, dense_layers: int,
        gathers: int) -> "tuple[float, float]":
    """Do the reference work once; (wall s, user+sys CPU s)."""
    global _inputs
    if _inputs is None:
        _inputs = _build()
    d = _inputs
    grid = np.linspace(0.0, 1.0, scan_points)
    t0, c0 = time.perf_counter(), time.process_time()
    for t in grid:
        sel = d["scores"] >= t
        m = int(sel.sum())
        float(d["wrong"][sel].sum() / max(m, 1))
    for _ in range(dense_layers):
        np.maximum(d["x"] @ d["w"], 0.0)
    for _ in range(gathers):
        d["table"][d["rows"]].sum()
    return time.perf_counter() - t0, time.process_time() - c0
