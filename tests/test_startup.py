"""Runs stay free of scipy and of the process pool.

No run path imports scipy: the temperature fit runs its own bounded search,
so a run with any of the post-hoc methods never loads it. The process pool
(``concurrent.futures.process``, ``multiprocessing``) is imported only by a
run with jobs > 1, so no case here loads it. Each case starts a fresh
interpreter, because this test process has both loaded already.
"""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import autolabel
from autolabel.confidence import POSTHOC_CONFIGS

SRC = pathlib.Path(autolabel.__file__).parent.parent

# the path of `autolabel run --config`, with every temperature fit recorded
SCRIPT = """
import json, pickle, sys

import autolabel
import autolabel.cli
import autolabel.confidence
from autolabel.config import parse_config
from autolabel.runner import materialize_dataset, run_experiment

cfg_path, out_dir, fits_path = sys.argv[1:]
autolabel.cli.build_parser()
cfg = parse_config(cfg_path)
materialize_dataset(cfg)
fits = []
fit_temperature = autolabel.confidence.TemperatureConfig.fit


def recording_fit(self, logits, penultimate, labels, seed):
    conf, warning = fit_temperature(self, logits, penultimate, labels, seed)
    fits.append((logits, labels, conf.temperature))
    return conf, warning


autolabel.confidence.TemperatureConfig.fit = recording_fit
run_experiment(cfg, out_dir=out_dir)
with open(fits_path, "wb") as f:
    pickle.dump(fits, f)
print(json.dumps([m for m in ("concurrent.futures.process", "multiprocessing")
                  if m in sys.modules]))
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def run_fresh(tmp_path, method):
    doc = {
        "master_seed": 5,
        "repeats": 1,
        "dataset": {"kind": "synthetic", "classes": 3, "dim": 2,
                    "sigma": 2.5, "pool_size": 300, "val_size": 120},
        "tbal": {"train_budget": 60, "seed_size": 30, "query_batch": 15,
                 "train": {"max_epochs": 10},
                 "posthoc": {"method": method}},
    }
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps(doc))
    fits_path = tmp_path / "fits.pkl"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(cfg), str(tmp_path / "out"),
         str(fits_path)],
        capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "run_00" / "rounds.jsonl").exists()
    with open(fits_path, "rb") as f:
        fits = pickle.load(f)
    pool_modules, scipy_modules = map(json.loads,
                                      proc.stdout.strip().splitlines()[-2:])
    # every case is a jobs=1 run
    assert pool_modules == []
    return scipy_modules, fits


@pytest.mark.parametrize("method", POSTHOC_CONFIGS)
def test_a_run_loads_no_scipy(tmp_path, method):
    scipy_modules, fits = run_fresh(tmp_path, method)
    assert scipy_modules == []
    # every recorded fit re-fits to the same T in this process
    assert bool(fits) == (method == "temperature")
    for logits, labels, temperature in fits:
        conf, _ = autolabel.TemperatureConfig().fit(logits, None, labels, 0)
        assert conf.temperature == temperature
