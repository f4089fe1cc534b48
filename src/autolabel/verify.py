"""The 1-D analytic world that ``toy-check`` sweeps, where every quantity has
a closed form.

The toy world: x ~ Uniform(0,1), truth y = 1(x >= 0.5), a fixed classifier
predicting 1(x >= 0.25), and a one-parameter confidence g_w(x) = |w - x|.
All metrics restrict to the predict-1 side [0.25, 1], where selection regions
are unions of at most two intervals, so coverage and selection error are exact
ratios of interval lengths. The smoothed counterparts replace the selection
indicator 1(|w-x| >= t) with sigmoid(alpha, |w-x| - t) and are integrated
numerically to tight absolute tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confidence import sigmoid


# toy-check's default sweep: (start, stop, step) of w and of t, and the
# sigmoid sharpness values. w covers [0, 1]. t stops at the wrong-region
# width 0.25: beyond roughly 0.3 the selected set on the 0.75-long side
# approaches measure zero and the smoothed error ratio is dominated by
# sigmoid tail mass, which says nothing about how the smoothing tightens.
TOY_W_SWEEP = (0.0, 1.0, 0.02)
TOY_T_SWEEP = (0.0, 0.25, 0.05)
TOY_ALPHAS = (1.0, 10.0, 100.0)


def sweep_grid(start: float, stop: float, step: float) -> np.ndarray:
    """start, start + step, ... through stop, rounded to 12 decimals."""
    if step <= 0:
        raise ValueError("grid step must be positive")
    n = int(round((stop - start) / step))
    return np.round(np.linspace(start, start + n * step, n + 1), 12)


@dataclass(frozen=True)
class Toy1DWorld:
    """Uniform x on [0,1]; truth flips at 0.5, the classifier at 0.25."""

    w: float
    theta_true: float = 0.5
    theta_pred: float = 0.25

    @property
    def side(self) -> tuple[float, float]:
        """The predict-1 region the metrics restrict to."""
        return (self.theta_pred, 1.0)


@dataclass(frozen=True)
class ToyMetrics:
    actual_coverage: float
    actual_error: float | None
    surrogate_coverage: float
    surrogate_error: float | None


def _selected_intervals(world: Toy1DWorld, t: float):
    """{x in side : |w-x| >= t} as a list of disjoint intervals."""
    lo, hi = world.side
    w = world.w
    pieces = []
    left_hi = min(hi, w - t)
    if left_hi > lo:
        pieces.append((lo, left_hi))
    right_lo = max(lo, w + t)
    if right_lo < hi:
        pieces.append((right_lo, hi))
    if not pieces:
        return []
    if len(pieces) == 2 and pieces[0][1] >= pieces[1][0]:
        # t == 0 makes the halves meet; merge to one interval
        return [(pieces[0][0], pieces[1][1])]
    return pieces


def _overlap(a, b) -> float:
    return max(0.0, min(a[1], b[1]) - max(a[0], b[0]))


def toy_1d_metrics(world: Toy1DWorld, t: float, alpha: float) -> ToyMetrics:
    """Exact and smoothed coverage/error of thresholding |w-x| at t.

    Actual values are interval-length ratios on the predict-1 side; the
    mistake region there is [theta_pred, theta_true). Smoothed values weight
    each x by sigmoid(alpha, |w-x| - t) and integrate with breakpoints at the
    kinks {w-t, w, w+t}.
    """
    # imported here, so importing the package never loads scipy
    from scipy.integrate import quad

    if not (0.0 <= t <= 1.0):
        raise ValueError("t must lie in [0, 1]")
    lo, hi = world.side
    side_len = hi - lo
    wrong_iv = (world.theta_pred, world.theta_true)
    pieces = _selected_intervals(world, t)
    sel_len = sum(b - a for a, b in pieces)
    actual_cov = sel_len / side_len
    if sel_len > 0:
        actual_err = sum(_overlap(p, wrong_iv) for p in pieces) / sel_len
    else:
        actual_err = None

    def weight(x):
        return sigmoid(alpha, abs(world.w - x) - t)

    kinks = sorted({world.w - t, world.w, world.w + t})
    pts = [p for p in kinks if lo < p < hi]
    wrong_pts = [p for p in pts if wrong_iv[0] < p < wrong_iv[1]]
    total, _ = quad(weight, lo, hi, points=pts or None, epsabs=1e-8, limit=200)
    wrong_mass, _ = quad(weight, wrong_iv[0], wrong_iv[1],
                         points=wrong_pts or None, epsabs=1e-8, limit=200)
    surrogate_cov = total / side_len
    surrogate_err = wrong_mass / total if total > 0 else None
    return ToyMetrics(actual_cov, actual_err, surrogate_cov, surrogate_err)
