import contextlib
import importlib.util
import os
from pathlib import Path

# One BLAS thread, as a run of the package defaults to, before numpy's first
# import: check 6's stand-in numbers were frozen at one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARS:
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import autolabel as al  # noqa: E402
from autolabel.thresholds import predicted_scores  # noqa: E402

CROSS_MEANS = np.array([[3.0, 0.0], [0.0, 3.0], [-3.0, 0.0], [0.0, -3.0]])


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name):
    """``bench/<name>.py``, loaded by path: the benchmark is not a package,
    and the tests read its code rather than a copy."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def kept_classifiers():
    """Yields a list that collects, in round order, the classifier of every
    round that ``run_tbal`` trains inside the block."""
    models = []
    original = al.loop.train_round

    def keep(*args, **kwargs):
        models.append(original(*args, **kwargs))
        return models[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(al.loop, "train_round", keep)
        yield models


def four_blobs(n=400, sigma=1.0, seed=1):
    """Well-separated 4-class 2-D mixture; a small MLP gets ~99% on it."""
    return al.synth_gaussian_mixture(4, 2, CROSS_MEANS, sigma, n, seed)


def label_everything(ds):
    return al.LabeledSet.from_oracle(ds, np.arange(ds.n))


def whole_pool(ds):
    """Pool holding every row of ``ds``."""
    return al.Pool(ds, np.arange(ds.n))


class FixedModel:
    """Classifier stub: feature column 0 is a row index into fixed outputs."""

    def __init__(self, preds):
        self._preds = np.asarray(preds, dtype=np.int64)

    def predict(self, X):
        return self._preds[np.asarray(X[:, 0], dtype=np.int64)]

    def representations(self, X):
        """One-hot logits of the fixed predictions; X is the penultimate."""
        return np.eye(self._preds.max() + 1)[self.predict(X)], X


class FixedScores:
    """Confidence stub paired with FixedModel; rows indexed the same way."""

    def __init__(self, scores):
        self._scores = np.asarray(scores, dtype=np.float64)

    def scores(self, logits, penultimate):
        return self._scores[np.asarray(penultimate[:, 0], dtype=np.int64)]


def scored(g, h, X):
    """``predicted_scores`` of ``g`` on one ``representations`` pass of h
    over the rows of X."""
    return predicted_scores(g, *h.representations(X))


def metrics_on(g, t, h, labeled):
    """``empirical_metrics`` at t of ``g``'s scores of ``labeled``."""
    return al.empirical_metrics(t, *scored(g, h, labeled.features),
                                labeled.labels)


def thresholds_on(g, h, labeled, cfg):
    """``estimate_thresholds`` on ``g``'s scores of ``labeled``."""
    return al.estimate_thresholds(*scored(g, h, labeled.features),
                                  labeled.labels, labeled.dataset.num_classes,
                                  cfg)


def uniform_thresholds(t, k=2):
    """ThresholdVector holding the same threshold t for each of k classes."""
    return al.ThresholdVector(np.full(k, t))


def indexed_set(true_labels, k):
    """LabeledSet whose single feature is the row index, labels as given."""
    labels = np.asarray(true_labels, dtype=np.int64)
    n = labels.shape[0]
    ds = al.Dataset(np.arange(n, dtype=np.float32).reshape(n, 1), labels, k)
    return al.LabeledSet.from_oracle(ds, np.arange(n))


def single_class_instance(top_scores, correct):
    """A k=2 set where every point is predicted as class 0, so all form
    class 0's threshold group, and wrong points truly belong to class 1."""
    top_scores = np.asarray(top_scores, dtype=np.float64)
    correct = np.asarray(correct, dtype=bool)
    n = top_scores.shape[0]
    labeled = indexed_set(np.where(correct, 0, 1), 2)
    scores = np.zeros((n, 2))
    scores[:, 0] = top_scores
    preds = np.zeros(n, dtype=np.int64)
    return labeled, FixedModel(preds), FixedScores(scores)


@pytest.fixture
def blobs():
    return four_blobs()


@pytest.fixture
def blob_model(blobs):
    labeled = label_everything(blobs)
    return al.train_model(al.TrainConfig(max_epochs=30), labeled, [16],
                          11)
