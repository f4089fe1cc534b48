"""Central finite-difference gradient checking.

Used by the test suite to validate every analytic gradient in the package;
the same harness backs the gradient tests of the classifier losses, the
confidence-net objective and acceptance check 3.
"""

from __future__ import annotations

import numpy as np


def central_difference(f, x: np.ndarray, step: float = 1e-4) -> np.ndarray:
    """Numerical gradient of scalar f at x, one coordinate at a time."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = f(x)
        flat[i] = orig - step
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """||a-b|| / max(||a||, ||b||), zero when both vanish."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)
