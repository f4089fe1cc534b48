"""Reference computations that only the test suite runs.

* ``mc_population_metrics`` -- plug-in Monte-Carlo estimates of population
  coverage and selection error, checked against the 1-D closed forms
  (acceptance check 8);
* ``ToyWorldModel`` -- the 1-D toy world as the classifier, the confidence
  function and the population sampler those estimates take;
* ``surrogate_metrics`` -- the sigmoid-smoothed coverage and selection error
  of a fitted confidence function, the quantities the confidence-net
  objective trades off, evaluated through ``predicted_scores``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from autolabel.confidence import sigmoid
from autolabel.thresholds import ThresholdVector, predicted_scores
from autolabel.verify import Toy1DWorld


@dataclass(frozen=True)
class McMetrics:
    coverage: float
    coverage_se: float
    error: float | None
    error_se: float | None
    n_selected: int


def mc_population_metrics(g, t: ThresholdVector, h, sampler, n: int,
                          seed: int) -> McMetrics:
    """Plug-in estimates of population coverage and selection error.

    ``sampler(rng, n)`` must return (X, true_labels) drawn from the population;
    ``g`` and ``h`` score and classify the samples through ``predicted_scores``.
    Standard errors use the binomial formula; the error estimate is None when
    no sample is selected.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.default_rng(seed)
    X, y = sampler(rng, n)
    top, preds = predicted_scores(g, h, X)
    sel = top >= t.per_point(preds)
    m = int(sel.sum())
    cov = m / n
    cov_se = float(np.sqrt(cov * (1.0 - cov) / n))
    if m == 0:
        return McMetrics(cov, cov_se, None, None, 0)
    err = float(np.mean(np.asarray(y)[sel] != preds[sel]))
    err_se = float(np.sqrt(err * (1.0 - err) / m))
    return McMetrics(cov, cov_se, err, err_se, m)


class ToyWorldModel(Toy1DWorld):
    """The toy world as both the classifier and the confidence function that
    ``predicted_scores`` takes: ``representations`` passes x through as the
    penultimate, and ``scores`` reads |w - x| from it."""

    def confidence(self, x):
        return np.abs(self.w - np.asarray(x))

    def predict(self, X: np.ndarray) -> np.ndarray:
        x = np.asarray(X).reshape(-1)
        return (x >= self.theta_pred).astype(np.int64)

    def representations(self, X: np.ndarray):
        """(one-hot logits of ``predict``, X as the penultimate)."""
        return np.eye(2)[self.predict(X)], np.asarray(X)

    def scores(self, logits: np.ndarray, penultimate: np.ndarray) -> np.ndarray:
        """2-column score matrix carrying |w-x| for whichever class is read."""
        c = self.confidence(np.asarray(penultimate).reshape(-1))
        return np.stack([c, c], axis=1)

    def sample_side(self, rng: np.random.Generator, n: int):
        """(X, y) uniform on the predict-1 side; X is (n, 1)."""
        lo, hi = self.side
        x = rng.uniform(lo, hi, size=n)
        y = (x >= self.theta_true).astype(np.int64)
        return x[:, None], y


def surrogate_metrics(g, t: ThresholdVector, h, labeled, alpha: float,
                      denom_epsilon: float = 1e-8):
    """Sigmoid-smoothed (coverage, selection error) of thresholding at t.

    Each point is weighted by u = sigmoid(alpha, score_of_predicted -
    threshold_of_predicted): coverage is the mean of u, and the error is the
    u-weighted wrong mass over the u-weighted selected mass.
    """
    if len(labeled) == 0:
        raise ValueError("empty set")
    top, preds = predicted_scores(g, h, labeled.features)
    u = sigmoid(alpha, top - t.per_point(preds))
    wrong = labeled.labels != preds
    return (float(np.mean(u)),
            float((u * wrong).sum() / (u.sum() + denom_epsilon)))
