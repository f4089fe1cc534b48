"""A run defaults to one BLAS thread, so its bytes do not depend on the host.

OpenBLAS starts a thread per core unless told otherwise, and a product's
bits depend on the thread count: on a two-core host a glyph-shape run
(784-d inputs, a 128-wide hidden layer, 200 training rows) scores its pool
with other bits at two threads. ``autolabel`` sets the thread variables to
1 before numpy's first import unless the caller set them, so a fresh
``python -m autolabel.cli run`` with them unset must write what one with
``OPENBLAS_NUM_THREADS=1`` writes. On a one-CPU host both runs take one
thread whatever the default is, so there the check cannot fail. Where
numpy was imported first and no thread variable is set, the default comes
too late, and importing ``autolabel`` warns.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import autolabel
from conftest import THREAD_VARS, bench_module

SRC = pathlib.Path(autolabel.__file__).parent.parent


def run_cli(tmp_path, name, **threads):
    """The run directory's files, {name: bytes}, of a fresh CLI run of
    ``tmp_path/exp.json`` with no thread variable set but ``threads``."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads, PYTHONPATH=str(SRC))
    out = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "autolabel.cli", "run", "--config",
         str(tmp_path / "exp.json"), "--out", str(out)],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_a_run_with_no_thread_setting_writes_the_one_thread_bytes(tmp_path):
    worlds = bench_module("worlds")
    pool, val = 1000, 500
    worlds.write_rawf32(str(tmp_path / "world.f32"),
                        *worlds.glyphs(pool + val, 7))
    doc = {"master_seed": 7, "repeats": 1,
           "dataset": {"kind": "file", "path": "world.f32",
                       "format": "rawf32", "pool_size": pool,
                       "val_size": val},
           "tbal": {"train_budget": 200, "seed_size": 100,
                    "query_batch": 100, "hidden": [128],
                    "group_by": "predicted_label",
                    "train": {"max_epochs": 20},
                    "posthoc": {"method": "softmax"}}}
    (tmp_path / "exp.json").write_text(json.dumps(doc))
    default = run_cli(tmp_path, "default")
    pinned = run_cli(tmp_path, "pinned", OPENBLAS_NUM_THREADS="1")
    assert {"summary.json", "run_00/rounds.jsonl", "run_00/report.json",
            "run_00/scores_round_001.csv"} <= set(default)
    assert default.keys() == pinned.keys()
    for name in default:
        assert default[name] == pinned[name], name


@pytest.mark.parametrize("code, threads, warns", [
    ("import numpy, autolabel", {}, True),
    ("import numpy, autolabel", {"OPENBLAS_NUM_THREADS": "1"}, False),
    ("import autolabel, numpy", {}, False),
])
def test_numpy_imported_first_with_no_thread_setting_warns(code, threads,
                                                           warns):
    # with numpy loaded first the one-thread default comes too late, and
    # such a run would write the bytes of BLAS's own thread count
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(threads, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          capture_output=True, text=True, env=env,
                          check=False)
    if warns:
        assert proc.returncode == 1
        assert "RuntimeWarning" in proc.stderr
        assert all(name in proc.stderr for name in THREAD_VARS)
    else:
        assert proc.returncode == 0, proc.stderr
