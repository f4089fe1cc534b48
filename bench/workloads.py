"""The benchmark's workloads: a seeded world plus the experiment configs run
on it.

`prepare(name, seed, work_dir, size)` writes each of the workload's worlds
as a rawf32 file, with one JSON config per experiment, into `work_dir`, and
returns the plan the worker executes. `size="full"` is the measured workload; `size="toy"` keeps
the same shape at a few hundred points for the smoke test.
"""

from __future__ import annotations

import json
import os

import numpy as np

import worlds

# the heavy-tail mixture's confidence net: the acceptance check-5 settings
GENTLE_NET = {"method": "confidence_net", "alpha": 1.0, "lam": 3.0,
              "max_epochs": 40, "batch_size": 512, "weight_decay": 0.1,
              "learning_rate": 0.001}

# how much of each part of reference.py's work a workload's timed runs are
# divided by. The 2-D workloads spend most of their time in interpreter
# loops of small array operations (threshold scans, small-batch training),
# so the scan takes about half of their reference work. The glyph workload
# spends it in 784-d dense layers and feature gathers, so those take three
# quarters of its reference work. In sets of ten seeds on a drifting 2-vCPU
# host, the interquartile range of `mixture_dense_grid`'s relative time was
# 4% of the median with the scan-heavy mix (two sets) and 10% with the other;
# that of `glyphs_28px` was 3% and 9% with the dense-heavy mix and 11% with
# the other.
SCAN_HEAVY = {"scan_points": 3000, "dense_layers": 8, "gathers": 5}
DENSE_HEAVY = {"scan_points": 1500, "dense_layers": 8, "gathers": 8}


def _mixture_dense_grid(size: str):
    toy = size == "toy"
    tbal = {
        "train_budget": 150, "seed_size": 150, "query_batch": 75,
        "eps_a": 0.05, "cal_fraction": 0.5, "coverage_floor": 0.05, "c1": 0.25,
        "grid_size": 2001 if toy else 20001, "group_by": "predicted_label",
        "hidden": [64],
        "train": {"max_epochs": 10 if toy else 250, "learning_rate": 0.1},
    }
    methods = [{"method": "softmax"}, {"method": "temperature"},
               {"method": "top_label_hb"},
               dict(GENTLE_NET, max_epochs=2 if toy else 40)]
    return {
        "world": worlds.heavy_tail_mixture,
        "reference": SCAN_HEAVY,
        "cases": 1 if toy else 2,
        "max_iterations": 12,
        "pool_size": 400 if toy else 4000,
        "val_size": 800 if toy else 8000,
        "experiments": [dict(tbal, posthoc=m) for m in methods],
    }


def _multiround_net(size: str):
    toy = size == "toy"
    return {
        "world": worlds.circle_mixture,
        "reference": SCAN_HEAVY,
        "cases": 1,
        "max_iterations": 3,
        "pool_size": 400 if toy else 20000,
        "val_size": 300 if toy else 10000,
        "experiments": [{
            "train_budget": 300 if toy else 1000,
            "seed_size": 100, "query_batch": 100,
            "posthoc": {"method": "confidence_net", "lam": 10.0,
                        "max_epochs": 3 if toy else 100},
        }],
    }


def _glyphs_28px(size: str):
    toy = size == "toy"
    return {
        "world": worlds.glyphs,
        "reference": DENSE_HEAVY,
        "cases": 1,
        "max_iterations": 24,
        "pool_size": 300 if toy else 30000,
        "val_size": 300 if toy else 10000,
        "experiments": [{
            "train_budget": 200 if toy else 1000,
            "seed_size": 100 if toy else 200,
            "query_batch": 100 if toy else 200,
            "hidden": [128], "group_by": "predicted_label",
            "train": {"max_epochs": 2 if toy else 20},
            "posthoc": {"method": "softmax"},
        }],
    }


WORKLOADS = {
    "mixture_dense_grid": _mixture_dense_grid,
    "multiround_net": _multiround_net,
    "glyphs_28px": _glyphs_28px,
}


def case_seed(seed: int, case: int) -> int:
    """Seed of one world of a workload, derived from the run's seed."""
    return int(np.random.SeedSequence([int(seed), case]).generate_state(1)[0])


def prepare(name: str, seed: int, work_dir: str, size: str = "full") -> dict:
    """Generate the worlds and configs for one workload; return the plan.

    A workload has `cases` worlds, each seeded from `seed`; one iteration
    runs every experiment on every world, one run each. A run makes at most
    `max_iterations` iterations, so runs of two versions of the program
    take the same number of samples unless one runs out of time.
    """
    spec = WORKLOADS[name](size)
    n = spec["pool_size"] + spec["val_size"]
    configs = []
    for case in range(spec["cases"]):
        sub = case_seed(seed, case)
        case_dir = os.path.join(work_dir, f"case_{case}")
        os.makedirs(case_dir)
        X, y, k = spec["world"](n, sub)
        world_path = os.path.join(case_dir, "world.f32")
        worlds.write_rawf32(world_path, X, y, k)
        for i, tbal in enumerate(spec["experiments"]):
            doc = {
                "master_seed": sub,
                "repeats": 1,
                "dataset": {"kind": "file", "path": "world.f32",
                            "format": "rawf32", "pool_size": spec["pool_size"],
                            "val_size": spec["val_size"]},
                "tbal": tbal,
            }
            path = os.path.join(case_dir, f"config_{i}.json")
            with open(path, "w") as f:
                json.dump(doc, f, indent=2, sort_keys=True)
            configs.append({"path": path, "labels_path": world_path + ".labels",
                            "seed_size": tbal["seed_size"],
                            "eps_a": tbal.get("eps_a", 0.05)})
    return {
        "work_dir": work_dir,
        "pool_size": spec["pool_size"],
        "val_size": spec["val_size"],
        "max_iterations": spec["max_iterations"],
        "reference": spec["reference"],
        "configs": configs,
    }


def world_labels(labels_path: str) -> np.ndarray:
    """A world's ground truth, indexed by point id, read from its file."""
    return np.fromfile(labels_path, dtype="<u4").astype(np.int64)
