"""Reference computations that only the test suite runs.

* the 1-D toy world (``Toy1DWorld``, ``toy_1d_metrics``) -- every quantity
  has a closed form: x ~ Uniform(0,1), truth y = 1(x >= 0.5), a fixed
  classifier predicting 1(x >= 0.25), and a one-parameter confidence
  g_w(x) = |w - x|. All metrics restrict to the predict-1 side [0.25, 1],
  where selection regions are unions of at most two intervals, so coverage
  and selection error are exact ratios of interval lengths. The smoothed
  counterparts replace the selection indicator 1(|w-x| >= t) with
  sigmoid(alpha, |w-x| - t) and are integrated numerically to tight
  absolute tolerance (acceptance check 4);
* ``mc_population_metrics`` -- plug-in Monte-Carlo estimates of population
  coverage and selection error, checked against the 1-D closed forms
  (acceptance check 8);
* ``ToyWorldModel`` -- the 1-D toy world as the classifier, the confidence
  function and the population sampler those estimates take;
* ``surrogate_metrics`` -- the sigmoid-smoothed coverage and selection error
  of a fitted confidence function, the quantities the confidence-net
  objective trades off, evaluated through ``predicted_scores``;
* ``net_scores`` -- the confidence net's scores as one expression over the
  whole set, the bits its chunked ``scores`` must give;
* ``objective_value`` -- the confidence net's batch objective, whose
  gradient ``objective_grad`` computes, for the finite-difference gradient
  checks;
* ``patched_histogram_scores`` -- top-label histogram binning as it once
  scored: the raw softmax with only each row's predicted entry replaced by
  its bin value, the prediction the logits' argmax;
* ``batch_loss`` -- the mean classifier loss whose logit gradient training
  runs, for the finite-difference gradient checks;
* ``batch_dlogits``, ``backprop_reference`` and ``sgd_reference`` -- the
  classifier's fit as a plain per-layer loop in expression form, whose
  weights ``train_model`` must equal bit for bit;
* ``thresholds_from_jsonable`` and ``write_rawf32`` -- the inverses of the
  round log's threshold lists and of the rawf32 loader;
* ``oracle_coverage`` -- the best coverage one threshold shared by all
  classes reaches at a realized error of at most eps, chosen on the truth:
  coverage at matched error, the frontier the paper's claim is about;
* ``copied_splits`` -- pool, validation and hyp as copies of their rows,
  each over a Dataset of its own, the way the runner once made them; a run
  on them must match a run on the row sets of the one loaded Dataset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from autolabel.confidence import sigmoid
from autolabel.data import Dataset, LabeledSet, Pool
from autolabel.mlp import MlpClassifier, _epoch_batches, init_mlp, softmax
from autolabel.thresholds import ThresholdVector, predicted_scores


# acceptance check 4's sweep: (start, stop, step) of w and of t, and the
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
    # imported here, so importing this module never loads scipy
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
    top, preds = predicted_scores(g, *h.representations(X))
    sel = top >= t.values[preds]
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
    top, preds = predicted_scores(g, *h.representations(labeled.features))
    u = sigmoid(alpha, top - t.values[preds])
    wrong = labeled.labels != preds
    return (float(np.mean(u)),
            float((u * wrong).sum() / (u.sum() + denom_epsilon)))


def patched_histogram_scores(g, logits: np.ndarray) -> np.ndarray:
    """(n, k) scores of the fitted histogram binning ``g``: the raw softmax
    with each row's predicted entry, the logits' argmax, replaced by its
    bin value for a class that has bins."""
    probs = softmax(logits)
    preds = np.argmax(logits, axis=1)
    out = probs.copy()
    for y in g.values:
        mask = preds == y
        if not np.any(mask):
            continue
        idx = np.searchsorted(g.boundaries[y], probs[mask, y], side="right")
        out[mask, y] = g.values[y][idx]
    return out


def net_scores(net, logits: np.ndarray, penultimate: np.ndarray) -> np.ndarray:
    """(n, k) scores of the confidence net ``net``: softmax(tanh(Z @ W1) @
    W2) of the concatenated rows Z = [logits | penultimate], whole-set."""
    Z = np.concatenate([logits, penultimate], axis=1)
    return softmax(np.tanh(Z @ net.W1) @ net.W2)


def objective_value(net, Z: np.ndarray, yhat: np.ndarray, wrong: np.ndarray,
                    lam: float, alpha: float, denom_epsilon: float) -> float:
    """The batch objective ``objective_grad`` differentiates:
    -(smoothed coverage) + lam * (smoothed selection error) of the net's
    predicted-class scores at its auxiliary thresholds
    sigmoid(1, t_raw)."""
    s = softmax(np.tanh(Z @ net.W1) @ net.W2)[np.arange(len(Z)), yhat]
    u = sigmoid(alpha, s - sigmoid(1.0, net.t_raw)[yhat])
    error = (u * wrong).sum() / (u.sum() + denom_epsilon)
    return float(-u.mean() + lam * error)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, stabilized by max subtraction."""
    z = np.asarray(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_loss(logits: np.ndarray, labels: np.ndarray,
               kind: str = "vanilla") -> float:
    """Mean loss of a batch of logits; ``_batch_dlogits`` is its gradient.

    Cross-entropy, plus for squentropy the mean squared logit over each
    row's incorrect classes.
    """
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    m, k = logits.shape
    rows = np.arange(m)
    ce = -_log_softmax(logits)[rows, labels]
    if kind == "squentropy":
        sq = (np.sum(logits ** 2, axis=1) - logits[rows, labels] ** 2) / (k - 1)
        return float(np.mean(ce + sq))
    return float(np.mean(ce))


def batch_dlogits(logits: np.ndarray, labels: np.ndarray,
                  kind: str = "vanilla") -> np.ndarray:
    """The gradient of ``batch_loss`` w.r.t. the logits, in the dtype of
    ``logits``: softmax minus the one-hot labels, plus for squentropy
    2 / (k - 1) times each off-label logit, over the batch size."""
    m, k = logits.shape
    rows = np.arange(m)
    d = np.exp(_log_softmax(logits))
    d[rows, labels] -= 1.0
    if kind == "squentropy":
        extra = (2.0 / (k - 1)) * logits
        extra[rows, labels] = 0.0
        d = d + extra
    return d / np.asarray(m, dtype=d.dtype)


def backprop_reference(model: MlpClassifier, Xb: np.ndarray,
                       yb: np.ndarray, kind: str):
    """(grads_w, grads_b) of the mean batch loss, layer by layer with
    ``@``: tanh(A @ w + b) forward, and (dZ @ w.T) * (1 - a**2) back."""
    acts = [Xb]
    A = Xb
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        A = np.tanh(A @ w + b)
        acts.append(A)
    logits = A @ model.weights[-1] + model.biases[-1]
    dZ = batch_dlogits(logits, yb, kind)
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for l in range(len(model.weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ dZ
        grads_b[l] = dZ.sum(axis=0)
        if l:
            dZ = (dZ @ model.weights[l].T) * (1.0 - acts[l] ** 2)
    return grads_w, grads_b


def sgd_reference(config, train_set: LabeledSet, hidden,
                  seed: int) -> MlpClassifier:
    """``train_model(config, train_set, hidden, seed)`` as a plain loop:
    the same initial weights (``init_mlp``) and batches
    (``_epoch_batches``), ``backprop_reference`` gradients, and for each
    tensor p with velocity v the float32 update

        v <- momentum * v + grad
        p <- p - (lr * v + lr * weight_decay * p)
    """
    data = train_set.dataset
    model = init_mlp([data.dim, *hidden, data.num_classes], seed)
    X = np.ascontiguousarray(train_set.features, dtype=np.float32)
    lr = np.float32(config.learning_rate)
    mu = np.float32(config.momentum)
    wd = np.float32(config.weight_decay)
    tensors = model.weights + model.biases
    vel = [np.zeros_like(p) for p in tensors]
    for Xb, yb in _epoch_batches((X, train_set.labels), config.batch_size,
                                 config.max_epochs, seed):
        grads_w, grads_b = backprop_reference(model, Xb, yb, config.loss)
        for i, (p, g) in enumerate(zip(tensors, grads_w + grads_b)):
            vel[i] = mu * vel[i] + g
            p -= lr * vel[i] + lr * wd * p
    return model


def thresholds_from_jsonable(items) -> ThresholdVector:
    """The inverse of ``ThresholdVector.to_jsonable``: null reads as +inf."""
    return ThresholdVector(
        np.array([np.inf if v is None else float(v) for v in items]))


def write_rawf32(dataset: Dataset, path: str) -> None:
    """Write the rawf32 trio (features, .meta, .labels) for ``dataset``."""
    feats = np.ascontiguousarray(dataset.features, dtype="<f4")
    labels = np.ascontiguousarray(dataset.hidden_labels, dtype="<u4")
    with open(path, "wb") as f:
        f.write(feats.tobytes())
    with open(path + ".meta", "w") as f:
        f.write(f"n={dataset.n}\nd={dataset.dim}\nk={dataset.num_classes}\n")
    with open(path + ".labels", "wb") as f:
        f.write(labels.tobytes())


def copied_splits(pool: Pool, val: LabeledSet, hyp: LabeledSet | None):
    """(pool, validation, hyp or None) with each set's rows of the shared
    Dataset copied into a Dataset of their own, whole.

    Row ``j`` of a copy is row ``rows[j]`` of the shared Dataset, where
    ``rows`` is the set's ascending ``active`` or ``indices``.
    """
    def copy(rows):
        base = pool.dataset
        return Dataset(base.features[rows], base.hidden_labels[rows],
                       base.num_classes)

    def whole(labeled):
        data = copy(labeled.indices)
        return LabeledSet.from_oracle(data, np.arange(data.n))

    pool_data = copy(pool.active)
    return (Pool(pool_data, np.arange(pool_data.n)), whole(val),
            None if hyp is None else whole(hyp))


def oracle_coverage(top: np.ndarray, wrong: np.ndarray, eps: float,
                    n_initial: int) -> float:
    """The largest share of an initial pool of ``n_initial`` points that one
    threshold, shared by all classes, selects from the scored points with
    realized error <= ``eps``.

    ``top`` are the points' predicted-class scores and ``wrong`` flags the
    wrong predictions. A threshold selects every point scoring at or above
    it, so it cuts only between distinct scores, and the order of tied
    points never matters.
    """
    top = np.asarray(top)
    order = np.argsort(-top, kind="stable")
    ranked = top[order]
    n_wrong = np.cumsum(np.asarray(wrong, dtype=np.int64)[order])
    n_sel = np.arange(1, len(ranked) + 1)
    # the last position of each run of tied scores
    cuts = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    ok = cuts[n_wrong[cuts] / n_sel[cuts] <= eps]
    return float(ok[-1] + 1) / n_initial if len(ok) else 0.0
