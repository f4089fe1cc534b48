"""The benchmark's tracer finds, and counts through, every call it wraps.

`bench/tracer.py` looks up the package's functions by name and reads some
of their arguments by position. A renamed or re-signed function, or one the
package stopped calling, only shows in a traced benchmark run, so this
checks the lookup and the counters on a tiny fit and a tiny run, and that
`restore` puts every original back.
"""

import numpy as np

import autolabel as al
from autolabel.confidence import ConfidenceNetConfig

from conftest import CROSS_MEANS, bench_module, four_blobs, label_everything


def test_tracer_finds_and_counts_every_fit_target():
    tracing = bench_module("tracer")
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
        h = al.mlp.train_model(train, labeled, [6], 0)
        net.fit(*h.representations(labeled.features), labeled.labels, 0)
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


def test_a_traced_run_enters_every_loop_span():
    # a two-round run that auto-labels and queries: the selection, the
    # validation filter, the query, the training-set merge and the pool's
    # shrinking each run under their spans
    tracing = bench_module("tracer")
    ds = al.synth_gaussian_mixture(4, 2, CROSS_MEANS, 2.0, 300, 3)
    pool_rows, val_rows = al.carve(ds.n, [200, 100], 4)
    cfg = al.TbalConfig(train_budget=40, seed_size=20, query_batch=20,
                        thresholds=al.ThresholdConfig(eps_a=0.3),
                        train=al.TrainConfig(max_epochs=5))
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, al)
    try:
        assert tracer.missing == []
        report = al.run_tbal(cfg, al.Pool(ds, pool_rows),
                             al.LabeledSet.from_oracle(ds, val_rows), 0)
    finally:
        restore()
    assert report.rounds[0].n_queried == 20 and len(report.rounds) == 2
    assert sum(rec.n_auto for rec in report.rounds) > 0
    assert tracer.layer_metrics()["loop.rounds"] == 2
    entered = {name for name, *_ in tracer.spans}
    assert {"loop", "loop.select", "loop.filter", "loop.query", "data.merge",
            "data.pool_without", "confidence.fit"} <= entered
