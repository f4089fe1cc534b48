"""Central finite-difference gradient checking.

Used by the test suite to validate every analytic gradient in the package;
the same harness backs the gradient tests of the classifier losses, the
confidence-net objective and acceptance check 3. The gradient functions
write into scratch their callers make; ``backprop_plan`` and
``objective_scratch`` make it fresh for one batch.
"""

from __future__ import annotations

import numpy as np

from autolabel.confidence import ConfidenceNet
from autolabel.mlp import _backprop_plan


def backprop_plan(model, X: np.ndarray):
    """``_backprop_plan`` of the model for the batch ``X``: new arrays, the
    gradients shaped like the model's tensors and the scratch in the dtype
    the batch and the model promote to."""
    dtype = np.result_type(X, *model.weights, *model.biases)
    grads = ([np.empty_like(w) for w in model.weights],
             [np.empty_like(b) for b in model.biases])
    return _backprop_plan(model, grads, X.shape[0], dtype)


def objective_scratch(params, Z: np.ndarray):
    """(out, work) for ``objective_grad`` of the batch ``Z``: new arrays,
    the gradients shaped like ``params`` and the two activation buffers in
    the dtype ``Z`` and the weights promote to."""
    shape = (Z.shape[0], params.W1.shape[1])
    dtype = np.result_type(Z, params.W1, params.W2)
    return (ConfidenceNet(np.empty_like(params.W1),
                          np.empty_like(params.W2),
                                np.empty_like(params.t_raw)),
            (np.empty(shape, dtype), np.empty(shape, dtype)))


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
