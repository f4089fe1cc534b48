"""Confidence functions over a trained classifier's representations.

A confidence function is a post-hoc map from a batch's classifier outputs --
its logits and its penultimate activations -- to per-class score vectors.
Neither it nor its fit runs the classifier: both read a round's one forward
pass over its validation set, the fit only the calibration rows. Variants:

* softmax response        -- the raw softmax: temperature scaling at T = 1
* temperature scaling     -- softmax of logits / T, T fit at the calibration
                             NLL minimum
* top-label histogram     -- uniform-mass binning of the predicted-class score
* confidence net          -- a small tanh network over the classifier's
                             representations, trained to maximize a smoothed
                             selection-coverage objective with a smoothed
                             selection-error penalty, and scored in bounded
                             row chunks

Each variant is one frozen config class (``SoftmaxConfig``,
``TemperatureConfig``, ``TopLabelBinningConfig``, ``ConfidenceNetConfig``):
its ``method`` names it, its fields hold its settings, and its ``fit`` fits
it. ``PosthocConfig``, their union, is the one list of methods;
``POSTHOC_CONFIGS`` maps each method's name to its class.

Only the predicted class's score is ever compared to a threshold downstream,
but all variants return full k-vectors. The histogram variant bins each
binned class's whole softmax column with that class's bins, so its rows do
not sum to 1 by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import LabeledSet, _Config
from .mlp import _chunk_bounds, _epoch_batches, _flat_views, softmax
from .rng import stream


def sigmoid(alpha: float, z):
    """Scaled logistic 1/(1+exp(-alpha*z)), overflow-safe, elementwise;
    keeps the input's float dtype."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    x = np.multiply(alpha, z)
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


class ConfidenceModel:
    """Base: a fitted map from (logits, penultimate) rows to (n, k) scores."""

    def scores(self, logits: np.ndarray, penultimate: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class TemperatureConfidence(ConfidenceModel):
    """softmax(logits / T). T rescales sharpness, never the argmax; at
    T = 1 (``x / 1.0`` is exact) it is the classifier's raw softmax."""

    def __init__(self, temperature: float):
        if not (temperature > 0):
            raise ValueError("temperature must be positive")
        self.temperature = float(temperature)

    def scores(self, logits: np.ndarray, penultimate: np.ndarray) -> np.ndarray:
        return softmax(logits / self.temperature)


class TopLabelHistogramConfidence(ConfidenceModel):
    """Per-class uniform-mass binning of the softmax score.

    scores() replaces each binned class's softmax column with its bin
    values, so rows need not sum to 1. Only a row's predicted entry is read
    downstream, and the fit bins each class's calibration points predicted
    as it, the logits' argmax as in ``predicted_scores``. A class with no
    calibration points has no key in ``values``; it keeps its softmax column.
    """

    def __init__(self, boundaries: dict, values: dict):
        self.boundaries = boundaries  # class -> ascending inner bin edges
        self.values = values          # class -> per-bin correct fraction

    def scores(self, logits: np.ndarray, penultimate: np.ndarray) -> np.ndarray:
        probs = softmax(logits)
        for y, vals in self.values.items():
            idx = np.searchsorted(self.boundaries[y], probs[:, y], side="right")
            probs[:, y] = vals[idx]
        return probs


# the interval of log T the temperature fit searches: T in [e^-5, e^5]
LOG_T_BOUNDS = (-5.0, 5.0)


@dataclass(frozen=True)
class SoftmaxConfig:
    """Softmax response; nothing to set or fit."""

    method = "softmax"

    def fit(self, logits, penultimate, labels, seed):
        return TemperatureConfidence(1.0), None


@dataclass(frozen=True)
class TemperatureConfig:
    """Temperature scaling; T is fit, nothing to set."""

    method = "temperature"

    def fit(self, logits, penultimate, labels, seed):
        """Fit T at the minimum of the mean calibration NLL of
        softmax(logits / T).

        The NLL is convex in beta = 1/T, with slope
        g(beta) = mean_i(E_{softmax(beta z_i)}[z_i] - z_{i,y_i}), so the
        fit bisects theta = log T on ``LOG_T_BOUNDS`` by the sign of g at
        beta = e^-theta: where g > 0 the minimum lies at larger theta. It
        stops once the bracket is narrower than 1e-6 (24 evaluations) and
        takes its midpoint, within 3e-7 of the minimum or of the interval's
        end beyond which it lies. T = 1 is returned unless that point's NLL
        is lower, so the fit is never worse than no scaling on the
        calibration data. g is evaluated on one (k, n) float64 copy of the
        row-max-shifted logits, so its sums run along the long axis.
        """
        if len(labels) == 0:
            raise ValueError("empty calibration set")
        z = np.asarray(logits, dtype=np.float64)
        s = (z - z.max(axis=1, keepdims=True)).T.copy()
        s_label = s[labels, np.arange(len(labels))]
        mean_label = s_label.mean()
        # at a -inf logit e * s would be 0 * -inf = NaN; below the floor e is
        # 0 at every beta > e^-5, and beta < e^5 < 2^8 cannot overflow it
        np.maximum(s, -2.0 ** 1015, out=s)

        def nll(beta: float) -> float:
            total = np.exp(beta * s).sum(axis=0)
            return float(np.mean(np.log(total) - beta * s_label))

        lo, hi = LOG_T_BOUNDS
        while hi - lo >= 1e-6:
            mid = 0.5 * (lo + hi)
            e = np.exp(math.exp(-mid) * s)
            if np.mean((e * s).sum(axis=0) / e.sum(axis=0)) > mean_label:
                lo = mid
            else:
                hi = mid
        beta = math.exp(-0.5 * (lo + hi))
        lower = nll(beta) < nll(1.0)
        return TemperatureConfidence(1 / beta if lower else 1.0), None


@dataclass(frozen=True)
class TopLabelBinningConfig(_Config):
    method = "top_label_hb"
    RANGES = {"points_per_bin": ">= 1"}

    points_per_bin: int = 25

    def fit(self, logits, penultimate, labels, seed):
        """Build per-class uniform-mass bins from calibration data.

        For each class, calibration points predicted as that class are
        sorted by their softmax top score and split into
        round(m/points_per_bin) near-equal contiguous bins; each bin's value
        is its fraction of correct predictions. With fewer calibration
        points than ``points_per_bin`` it degrades to raw softmax with a
        warning instead of aborting the run.
        """
        if len(labels) < self.points_per_bin:
            return TemperatureConfidence(1.0), (
                f"calibration set ({len(labels)}) smaller than points_per_bin "
                f"({self.points_per_bin}); using raw softmax this round"
            )
        probs = softmax(logits)
        preds = np.argmax(logits, axis=1)
        correct = (preds == labels).astype(np.float64)
        boundaries: dict = {}
        values: dict = {}
        for y in range(logits.shape[1]):
            mask = preds == y
            m = int(mask.sum())
            if m == 0:
                continue
            top = probs[mask, y]
            ok = correct[mask]
            order = np.argsort(top, kind="stable")
            n_bins = max(1, int(round(m / self.points_per_bin)))
            groups = np.array_split(order, n_bins)
            values[y] = np.array([ok[grp].mean() for grp in groups])
            boundaries[y] = np.array([top[grp[0]] for grp in groups[1:]])
        return TopLabelHistogramConfidence(boundaries, values), None


# ---------------------------------------------------------------------------
# confidence net


# hidden floats a chunk of ``ConfidenceNet.scores`` holds: a 2 MiB float32
# block
NET_CHUNK_FLOATS = 2 ** 19


class ConfidenceNet(ConfidenceModel):
    """softmax(W2 tanh(W1 [logits, penultimate])) over classifier reps.

    Two bias-free layers plus unconstrained auxiliary thresholds: W1 is
    (k+d2, 2(k+d2)), W2 is (2(k+d2), k) and t_raw is (k,), read through the
    logistic when needed in (0,1). The fit's gradients are held in a
    ConfidenceNet of the same shapes. ``scores`` runs in bounded row
    chunks, so no pass holds a whole set's hidden activations.
    """

    def __init__(self, W1: np.ndarray, W2: np.ndarray, t_raw: np.ndarray):
        p, k = W1.shape[0], t_raw.size
        if W1.shape != (p, 2 * p):
            raise ValueError(f"W1 must be ({p}, {2 * p}), got {W1.shape}")
        if W2.shape != (2 * p, k):
            raise ValueError("W2 shape mismatch")
        if t_raw.shape != (k,):
            raise ValueError("t_raw shape mismatch")
        self.W1, self.W2, self.t_raw = W1, W2, t_raw

    def scores(self, logits: np.ndarray, penultimate: np.ndarray) -> np.ndarray:
        """``softmax(np.tanh(Z @ W1) @ W2)`` for ``Z = [logits |
        penultimate]``, bit for bit, in ``mlp._chunk_bounds``'s row chunks:
        ``NET_CHUNK_FLOATS // (2p)`` rows each for float32 products, one
        chunk otherwise.

        Each chunk's rows of ``Z`` are copied into one reused (c, p)
        buffer, multiplied into one reused (c, 2p) hidden buffer, which
        takes the tanh in place, and the chunk's ``@ W2`` is written into
        its rows of one (n, k) array; the softmax runs once on that. As in
        ``mlp._rows_product``, a pass of more than one chunk does over
        10**6 multiply-adds in each product of each chunk for k, p >= 2,
        above OpenBLAS's small-kernel switch, and a pass of one chunk makes
        one call per layer, so the bits are those of the whole-set
        products.
        """
        n, k = logits.shape
        p = self.W1.shape[0]
        bounds = _chunk_bounds(n, 2 * p, NET_CHUNK_FLOATS, np.result_type(
            logits, penultimate, self.W1, self.W2))
        Z = np.empty((n - bounds[-2], p), np.result_type(logits, penultimate))
        H = np.empty((len(Z), 2 * p), np.result_type(Z, self.W1))
        V = np.empty((n, self.W2.shape[1]), np.result_type(H, self.W2))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            z, h = Z[:hi - lo], H[:hi - lo]
            z[:, :k] = logits[lo:hi]
            z[:, k:] = penultimate[lo:hi]
            np.matmul(z, self.W1, out=h)
            np.tanh(h, out=h)
            np.matmul(h, self.W2, out=V[lo:hi])
        return softmax(V)


def init_confidence_net(k: int, d2: int, seed: int) -> ConfidenceNet:
    p = k + d2
    rng = stream(seed, "init")
    b1 = 1.0 / np.sqrt(p)
    b2 = 1.0 / np.sqrt(2 * p)
    return ConfidenceNet(
        W1=rng.uniform(-b1, b1, size=(p, 2 * p)).astype(np.float32),
        W2=rng.uniform(-b2, b2, size=(2 * p, k)).astype(np.float32),
        t_raw=np.zeros(k, dtype=np.float32),
    )


def objective_grad(net: ConfidenceNet, Z: np.ndarray,
                   yhat: np.ndarray, wrong: np.ndarray, lam: float,
                   alpha: float, denom_epsilon: float, out, work):
    """Gradients, shaped like ``net``, of the batch objective.

    The objective is -(smoothed coverage) + lam * (smoothed selection
    error): each point is weighted by u = sigmoid(alpha, score_of_predicted
    - threshold_of_predicted), coverage is the mean of u, and the error is
    the u-weighted wrong mass over the u-weighted selected mass. The fit
    reads only its gradient, so its value is not computed here.

    The gradients are written into ``out`` (a ConfidenceNet of arrays
    shaped like ``net``'s), which is returned. ``work`` is two
    arrays of at least ``len(Z)`` rows and W1's width, for the hidden
    activations and their gradient. The tanh, the softmax-gradient product
    and the hidden layer's gradient are computed in place, with the
    operations of the expression form in the same order, so every call
    gives the same bits.
    """
    m = Z.shape[0]
    rows = np.arange(m)
    A = np.matmul(Z, net.W1, out=work[0][:m])
    np.tanh(A, out=A)
    V = A @ net.W2
    Q = softmax(V)
    s = Q[rows, yhat]
    tvec = sigmoid(1.0, net.t_raw)
    delta = s - tvec[yhat]
    u = sigmoid(alpha, delta)
    S = u.sum()
    M = (u * wrong).sum()
    denom = S + denom_epsilon
    # d objective / d u_i, then chain through the sigmoid, softmax, and layers
    du = -1.0 / m + lam * (wrong * denom - M) / (denom * denom)
    c = du * alpha * u * (1.0 - u)
    cs = c * s
    Gv = np.negative(Q, out=Q)
    Gv *= cs[:, None]
    Gv[rows, yhat] += cs
    np.matmul(A.T, Gv, out=out.W2)
    dPre = np.matmul(Gv, net.W2.T, out=work[1][:m])
    np.multiply(A, A, out=A)
    np.subtract(1.0, A, out=A)
    dPre *= A
    np.matmul(Z.T, dPre, out=out.W1)
    dt = np.bincount(yhat, weights=-c, minlength=tvec.shape[0])
    out.t_raw[...] = dt * tvec * (1.0 - tvec)
    return out


@dataclass(frozen=True)
class ConfidenceNetConfig(_Config):
    """Optimizer settings for the smoothed selection objective.

    lam    : weight of the smoothed-error penalty (> 0)
    alpha  : sigmoid sharpness in both surrogate terms (> 0)
    """

    method = "confidence_net"
    RANGES = {"lam": "> 0", "alpha": "> 0", "learning_rate": "> 0",
              "denom_epsilon": "> 0", "batch_size": ">= 1",
              "max_epochs": ">= 0", "weight_decay": ">= 0"}

    lam: float = 100.0
    alpha: float = 1.0
    learning_rate: float = 0.01
    weight_decay: float = 0.01
    batch_size: int = 64
    max_epochs: int = 500
    denom_epsilon: float = 1e-8

    def fit(self, logits, penultimate, labels, seed):
        """Optimize the smoothed objective with Adam; returns the fitted net.

        The classifier is frozen: only W1, W2 and the auxiliary thresholds
        move. The auxiliary thresholds, ``sigmoid(1, net.t_raw)``, steer the
        fit only; threshold estimation never sees them. The initial weights
        and each epoch's mini-batch shuffle are drawn from ``seed``'s
        streams; weight decay is decoupled and applied to the weight
        matrices only.

        Every step writes into buffers made once per fit: ``_epoch_batches``
        gives the shuffled batches of features, predictions and mistakes,
        ``objective_grad`` keeps its activations in two scratch buffers and
        writes the gradient into views of one flat W1|W2|t_raw buffer, and
        the Adam moments and update are computed in two more, with the
        float32 operations of the per-tensor update in the same order.
        """
        if len(labels) == 0:
            raise ValueError("empty calibration set")
        Z = np.asarray(np.concatenate([logits, penultimate], axis=1),
                       dtype=np.float32)
        preds = np.argmax(logits, axis=1)
        wrong = (preds != labels)
        init = init_confidence_net(logits.shape[1], penultimate.shape[1], seed)
        # Adam steps once over the flat W1|W2|t_raw buffer; decay hits
        # W1|W2 only
        shapes = (init.W1.shape, init.W2.shape, init.t_raw.shape)
        theta = np.concatenate([init.W1.ravel(), init.W2.ravel(), init.t_raw])
        net = ConfidenceNet(*_flat_views(theta, shapes))
        nw = init.W1.size + init.W2.size
        weights = theta[:nw]
        grad = np.empty_like(theta)
        grads = ConfidenceNet(*_flat_views(grad, shapes))
        mom = np.zeros_like(theta)
        sec = np.zeros_like(theta)
        num = np.empty_like(theta)
        den = np.empty_like(theta)
        shape = (min(len(Z), self.batch_size), init.W1.shape[1])
        work = (np.empty(shape, Z.dtype), np.empty(shape, Z.dtype))
        b1, b2, adam_eps = 0.9, 0.999, 1e-8
        lr = np.float32(self.learning_rate)
        wd = np.float32(self.weight_decay)
        step = 0
        for Zb, preds_b, wrong_b in _epoch_batches(
                (Z, preds, wrong), self.batch_size, self.max_epochs, seed):
            objective_grad(net, Zb, preds_b, wrong_b, self.lam, self.alpha,
                           self.denom_epsilon, out=grads, work=work)
            step += 1
            c1 = np.float32(1.0 - b1 ** step)
            c2 = np.float32(1.0 - b2 ** step)
            mom *= np.float32(b1)
            np.multiply(np.float32(1 - b1), grad, out=num)
            mom += num
            sec *= np.float32(b2)
            np.multiply(np.float32(1 - b2), grad, out=num)
            num *= grad
            sec += num
            # lr * (mom / c1) / (sqrt(sec / c2) + eps)
            np.divide(mom, c1, out=num)
            np.multiply(lr, num, out=num)
            np.divide(sec, c2, out=den)
            np.sqrt(den, out=den)
            den += np.float32(adam_eps)
            num /= den
            theta -= num
            if wd > 0:
                np.multiply(lr * wd, weights, out=num[:nw])
                weights -= num[:nw]
        return ConfidenceNet(net.W1.copy(), net.W2.copy(),
                             net.t_raw.copy()), None


# ---------------------------------------------------------------------------
# the post-hoc methods


# the post-hoc methods, and each method's name to its config class
PosthocConfig = (SoftmaxConfig | TemperatureConfig | TopLabelBinningConfig
                 | ConfidenceNetConfig)
POSTHOC_CONFIGS = {cls.method: cls for cls in PosthocConfig.__args__}


def fit_posthoc(cfg: PosthocConfig, logits: np.ndarray,
                penultimate: np.ndarray, labels: np.ndarray, seed: int):
    """Fit the confidence function ``cfg`` names on calibration data:
    (model_g, warning-or-None), as ``cfg.fit`` returns it."""
    return cfg.fit(logits, penultimate, labels, seed)


# ---------------------------------------------------------------------------
# score dumps


def write_score_dump(path: str, labeled: LabeledSet, top: np.ndarray,
                     preds: np.ndarray) -> None:
    """CSV of per-point predicted-class scores vs. the set's labels.

    ``top, preds`` are ``predicted_scores`` of ``labeled``'s rows. Scores are
    written with ``repr``, so each parses back to the exact value; no field
    ever needs CSV quoting.
    """
    labels = labeled.labels
    rows = zip(labeled.indices.tolist(), labels.tolist(), preds.tolist(),
               top.tolist(), (labels == preds).astype(np.int64).tolist())
    with open(path, "w", newline="") as f:
        f.write("point_id,true_label,predicted_label,score_of_predicted,"
                "correct_flag\n")
        f.write("".join([f"{pid},{lab},{pred},{sc!r},{ok}\n"
                         for pid, lab, pred, sc, ok in rows]))
