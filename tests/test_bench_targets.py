"""The benchmark's tracer finds, and counts through, every call it wraps.

`bench/tracer.py` looks up the package's functions by name and reads some
of their arguments by position. A renamed or re-signed function only shows
in a traced benchmark run, so this checks the lookup and the counters on a
tiny fit, and that `restore` puts every original back.
"""

import importlib.util
from pathlib import Path

import numpy as np

import autolabel as al
from autolabel.confidence import ConfidenceNetConfig, fit_confidence_net

from conftest import four_blobs, label_everything

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_and_counts_every_fit_target():
    tracing = load_tracer()
    originals = (al.mlp.train_model, al.confidence.objective_grad,
                 al.mlp.MlpClassifier.representations)
    labeled = label_everything(four_blobs(n=40))
    train = al.TrainConfig(max_epochs=3, batch_size=16)
    net = ConfidenceNetConfig(max_epochs=2, batch_size=16)
    top = np.linspace(0.3, 1.0, 40)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, al)
    try:
        assert tracer.missing == []
        # the tracer reads config and train_set at positions 0 and 1
        h = al.mlp.train_model(train, labeled, [2, 6, 4], 0)
        fit_confidence_net(*h.representations(labeled.features),
                           labeled.labels, net, 0)
        al.thresholds.estimate_thresholds(top, labeled.labels, labeled.labels,
                                          4, al.ThresholdConfig())
    finally:
        restore()
    assert (al.mlp.train_model, al.confidence.objective_grad,
            al.mlp.MlpClassifier.representations) == originals
    counts = tracer.layer_metrics()
    assert counts["mlp.train_calls"] == 1
    assert counts["mlp.train_rows"] == 3 * 40
    assert counts["confidence.grad_steps"] == 2 * 3  # 40 rows in batches of 16
    assert counts["confidence.grad_rows"] == 2 * 40
    assert counts["mlp.forward_calls"] == 1
    assert counts["mlp.forward_rows"] == 40
    assert counts["thresholds.calls"] == 1
    assert counts["thresholds.points"] == 40
    assert np.isfinite(counts["mlp.train_s"]) and counts["mlp.train_s"] > 0
