"""Empirical coverage/error estimators and per-class threshold selection.

Selection semantics throughout: a point is selected when the confidence of its
PREDICTED class is >= the threshold for that class (ties inclusive). Thresholds
may be +inf, meaning "never auto-label this class".

``ThresholdConfig`` holds every setting of the selection: the error tolerance
eps_a, the coverage floor, the C1 safety margin and the candidate grid. A
run's ``TbalConfig`` carries one as ``thresholds``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import _Config


def uniform_grid(size: int) -> np.ndarray:
    """``size`` uniform candidate thresholds 1/size .. 1.0."""
    return np.linspace(1.0 / size, 1.0, size)


@dataclass(frozen=True)
class ThresholdVector:
    """Per-class selection thresholds; entries in [0,1] or +inf."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1 or v.size == 0:
            raise ValueError("thresholds must be a non-empty 1-D vector")
        # NaN fails both tests; -inf, which would select every point, too
        if not np.all(((v >= 0) & (v <= 1)) | (v == np.inf)):
            raise ValueError("thresholds must lie in [0, 1] or be +inf")
        object.__setattr__(self, "values", v)

    def selects(self, top: np.ndarray, preds: np.ndarray) -> np.ndarray:
        """Mask: each point's top score >= its predicted class's threshold."""
        return top >= self.values[preds]

    def to_jsonable(self) -> list:
        # +inf has no strict-JSON spelling; serialize it as null
        return [None if not np.isfinite(v) else float(v) for v in self.values]


@dataclass(frozen=True)
class ThresholdConfig(_Config):
    """Settings for estimate_thresholds.

    grid           : ascending candidate thresholds in [0,1]; uniform_grid(200)
                     by default
    coverage_floor : minimum selectable fraction of the class group
    c1             : multiplier on the binomial std added to the error estimate
    eps_a          : auto-labeling error tolerance the selection must respect
    """

    RANGES = {"coverage_floor": "in (0, 1]", "c1": ">= 0",
              "eps_a": "in [0, 1]"}

    grid: np.ndarray = field(default_factory=lambda: uniform_grid(200))
    coverage_floor: float = 0.05
    c1: float = 0.25
    eps_a: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 1 or g.size == 0:
            raise ValueError("grid must be a non-empty 1-D array")
        if not np.all(np.isfinite(g)):
            raise ValueError("grid values must be finite")
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly ascending")
        if g[0] < 0 or g[-1] > 1:
            raise ValueError("grid values must lie in [0, 1]")
        object.__setattr__(self, "grid", g)


def predicted_scores(g, logits: np.ndarray, penultimate: np.ndarray):
    """(score of the predicted class, predictions) of the classifier's
    ``representations`` of a set: the predictions are the logits' argmax
    (ties to the lowest index), and ``g`` scores the same rows.
    """
    preds = np.argmax(logits, axis=1)
    top = g.scores(logits, penultimate)[np.arange(preds.shape[0]), preds]
    return top, preds


def empirical_metrics(t: ThresholdVector, top: np.ndarray, preds: np.ndarray,
                      labels: np.ndarray):
    """(coverage, error among selected points) of thresholding at t.

    ``top, preds`` are ``predicted_scores`` of the rows ``labels`` labels.
    Coverage is the fraction of points whose predicted-class confidence
    clears its class threshold; the error is None when nothing is selected.
    """
    if top.shape[0] == 0:
        raise ValueError("empty set")
    sel = t.selects(top, preds)
    coverage = float(np.mean(sel))
    m = int(sel.sum())
    if m == 0:
        return coverage, None
    return coverage, float((labels != preds)[sel].sum() / m)


def _padded_error(wrong, m, c1: float):
    """The c1 rule's bound on the error among m selected points, ``wrong``
    of them mistakes: the estimate wrong/m plus c1 binomial standard errors
    sqrt(p(1-p)/m). Elementwise over arrays; every m must be >= 1.
    """
    err = wrong / m
    return err + c1 * np.sqrt(err * (1.0 - err) / m)


def select_class_threshold(top: np.ndarray, wrong: np.ndarray,
                           cfg: ThresholdConfig) -> float:
    """Smallest grid threshold for one class group, +inf when none qualifies.

    ``wrong`` is a bool mask of the group's mistakes. A grid value t
    selects the points with top >= t and qualifies when (a) it selects at
    least coverage_floor of the group and (b) the selected error plus c1
    binomial-std safety stays within eps_a. A NaN score is never selected
    but still counts in the group size the coverage floor divides by.

    The rule is evaluated only where the selected set changes. With the
    scores sorted, the grid values that select exactly ``sorted_top[j:]``
    are those above ``sorted_top[j - 1]`` and at most ``sorted_top[j]``.
    One binary search of the grid per score finds them, and the first of
    each non-empty range is the only candidate for that selection: at most
    n candidates, O(n log n + n log G) for n points and G grid values.
    A candidate's (wrong, m) pair is the one each grid value of its range
    gives, so it passes exactly when they do, and the smallest qualifying
    grid value is the first candidate that qualifies. Its wrong count is
    that of the mistakes scoring at least ``sorted_top[j]``, found by a
    binary search of the mistakes' sorted scores.
    """
    n = top.shape[0]
    if n == 0:
        return np.inf
    top = np.asarray(top, dtype=np.float64)
    keep = ~np.isnan(top)
    top, wrong = top[keep], wrong[keep]
    sorted_top = np.sort(top)
    sorted_wrong = np.sort(top[wrong])
    # grid[lo[j]:lo[j + 1]] select sorted_top[j:]; the grid values above
    # every score select nothing and are no candidate
    lo = np.concatenate(
        ([0], np.searchsorted(cfg.grid, sorted_top, side="right")))
    cand = np.flatnonzero(lo[:-1] < lo[1:])
    m = sorted_top.shape[0] - cand
    w = sorted_wrong.shape[0] - np.searchsorted(
        sorted_wrong, sorted_top[cand], side="left")
    # coverage_floor > 0, so every ok entry selects a point
    ok = m / n >= cfg.coverage_floor
    passes = _padded_error(w[ok], m[ok], cfg.c1) <= cfg.eps_a
    if not passes.any():
        return np.inf
    return float(cfg.grid[lo[cand[ok][np.argmax(passes)]]])


def estimate_thresholds(top: np.ndarray, preds: np.ndarray, labels: np.ndarray,
                        k: int, cfg: ThresholdConfig) -> ThresholdVector:
    """Per-class thresholds for k classes from held-out labeled data.

    ``top, preds`` are ``predicted_scores`` of the rows ``labels`` labels.
    Class y's group is the points predicted as y, which its threshold
    auto-labels; y takes the smallest grid threshold whose in-group coverage
    reaches coverage_floor and whose safety-padded error estimate stays
    within eps_a, or +inf (auto-label nothing) when none qualifies.
    """
    if labels.shape[0] == 0:
        raise ValueError("empty threshold-estimation set")
    wrong = labels != preds
    out = np.full(k, np.inf)
    for y in range(k):
        # indices, not a mask: two mask gathers took 3x as long on 4,000 rows
        sel = np.flatnonzero(preds == y)
        out[y] = select_class_threshold(top[sel], wrong[sel], cfg)
    return ThresholdVector(out)
