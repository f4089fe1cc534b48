"""Small fully-connected classifier trained by hand-rolled backprop.

The network is deliberately tiny and explicit: tanh hidden layers, a linear
output layer, mini-batch SGD with momentum and decoupled weight decay, all in
float32 numpy. Two losses are supported: plain cross-entropy and squentropy
(cross-entropy plus the mean squared logit over the incorrect classes).

Everything a fitted model computes is deterministic; training is deterministic
given ``train_model``'s seed and its ``TrainConfig``, a ``data._Config``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import LabeledSet, _Config
from .rng import stream


@dataclass(frozen=True)
class TrainConfig(_Config):
    """Knobs for one training run. ``loss`` is "vanilla" or "squentropy"."""

    RANGES = {"learning_rate": "> 0", "batch_size": ">= 1",
              "max_epochs": ">= 0", "momentum": "in [0, 1)",
              "weight_decay": ">= 0"}

    loss: str = "vanilla"
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 32
    max_epochs: int = 50

    def __post_init__(self):
        super().__post_init__()
        if self.loss not in ("vanilla", "squentropy"):
            raise ValueError(f"loss must be 'vanilla' or 'squentropy', "
                             f"got {self.loss!r}")


class MlpClassifier:
    """Immutable stack of (weights, biases); weights[i] is (fan_in, fan_out)."""

    def __init__(self, weights, biases):
        if len(weights) != len(biases):
            raise ValueError("weights/biases length mismatch")
        if len(weights) < 2:
            raise ValueError("need at least one hidden layer")
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[1],):
                raise ValueError(f"layer {i}: shape mismatch {w.shape} / {b.shape}")
            if i and weights[i - 1].shape[1] != w.shape[0]:
                raise ValueError(f"layer {i}: fan-in does not match previous fan-out")
        self.weights = [np.asarray(w) for w in weights]
        self.biases = [np.asarray(b) for b in biases]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[1]

    # ------------------------------------------------------------------
    # inference

    def representations(self, X: np.ndarray,
                        rows=None) -> tuple[np.ndarray, np.ndarray]:
        """Batch (logits, penultimate activations) for ``X[rows]``, or for
        every row of X when ``rows`` is None.

        Each layer adds its bias and takes the tanh in the array its product
        made: the float operations of ``np.tanh(A @ w + b)``, in that order,
        with one array per layer. (A bias of a wider dtype than its layer's
        product would be rounded to the product's; the models this package
        builds are float32 throughout.) Given ``rows``, the first layer's
        product reads them from X in chunks (``_rows_product``), so no copy
        of ``X[rows]`` is made; the result is that of ``X[rows]``, bit for
        bit.
        """
        A = np.asarray(X)
        if A.ndim != 2 or A.shape[1] != self.input_dim:
            raise ValueError(
                f"input has shape {A.shape}, model wants (*, {self.input_dim})"
            )
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            A = A @ w if i or rows is None else _rows_product(A, rows, w)
            A += b
            np.tanh(A, out=A)
        logits = A @ self.weights[-1]
        logits += self.biases[-1]
        return logits, A


# floats of X a chunk of ``_rows_product`` gathers: a 4 MiB float32 block
CHUNK_FLOATS = 2 ** 20


def _chunk_bounds(n: int, width: int, floats: int, dtype) -> list:
    """Row bounds ``[0, ..., n]`` of the chunks a pass over n rows of
    ``width`` floats, whose products are of ``dtype``, takes.

    A float32 pass takes chunks of ``floats // width`` rows (at least
    one), and a short tail joins the last chunk, which is the largest; it
    is one chunk when n is below two chunks' rows. Any other pass is one
    chunk: above its small-kernel switch OpenBLAS's sgemm gives a row the
    same bits in a call of any row count, but its dgemm does not (seen at
    0.3.31 on AVX-512 in float64 products 260 or more columns wide, where
    a row's bits depend on where it falls among the call's rows).
    """
    if np.dtype(dtype) != np.float32:
        return [0, n]
    size = max(1, floats // width)
    return [*range(0, max(n - size, 0) + 1, size), n]


def _rows_product(X: np.ndarray, rows, w: np.ndarray) -> np.ndarray:
    """``X[rows] @ w``, made without a copy of ``X[rows]``.

    The rows are gathered in ``_chunk_bounds``'s chunks (of
    ``CHUNK_FLOATS // d`` rows when the product is float32) into one
    reused buffer, and each chunk's product is written into its rows of
    the result. OpenBLAS picks its sgemm kernel by the product's size
    (0.3.31 switches at 10**6 multiply-adds), so a row's bits depend on
    how many rows share its call.
    A chunk this size holds over 10**6 multiply-adds at any width, as does
    a whole pass of more than one chunk, and a pass of one chunk is one
    call as before. That is why only the first layer, the one that reads
    X, is chunked.
    """
    rows = np.asarray(rows)
    n = len(rows)
    # "clip" below skips numpy's own check: make it here, once
    if n and (rows.min() < 0 or rows.max() >= X.shape[0]):
        raise IndexError(f"rows out of range for {X.shape[0]} rows")
    out = np.empty((n, w.shape[1]), np.result_type(X.dtype, w.dtype))
    bounds = _chunk_bounds(n, X.shape[1], CHUNK_FLOATS, out.dtype)
    buf = np.empty((n - bounds[-2], X.shape[1]), X.dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = buf[:hi - lo]
        np.take(X, rows[lo:hi], axis=0, out=chunk, mode="clip")
        np.matmul(chunk, w, out=out[lo:hi])
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax of (n, k) logits, stabilized by max subtraction.

    The row max is a chain of ``np.maximum`` over the columns: numpy reduces
    a short last axis many times slower. A max is exact in any order, NaN
    included, and a +-0 tie only flips the sign of a zero that ``exp``
    maps to 1, so the output bits are those of the ``z.max(axis=1)`` form.
    The exp and the division run in place in the one (n, k) array the
    subtraction made, the same operations in the same order.
    """
    z = np.asarray(logits)
    top = z[:, :1].copy()
    for j in range(1, z.shape[1]):
        np.maximum(top, z[:, j:j + 1], out=top)
    e = z - top
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


# ---------------------------------------------------------------------------
# loss gradient (dtype-generic; float32 in training, float64 in the checks)


def _dlogits_work(rows: int, k: int, dtype):
    """Scratch for ``_batch_dlogits`` on batches of exactly ``rows`` rows.

    (d, e, labelled, top, total, size): two (rows, k) arrays, a (rows, k)
    bool mask, the (rows, 1) row-max and row-sum columns, and the batch size
    as a 0-d array of ``dtype``.
    """
    d = np.empty((rows, k), dtype)
    column = np.empty((rows, 1), dtype)
    return (d, np.empty_like(d), np.empty(d.shape, bool), column,
            np.empty_like(column), np.asarray(rows, dtype=dtype))


def _batch_dlogits(logits: np.ndarray, Yb: np.ndarray, kind: str, work):
    """d(mean batch loss)/dlogits, the gradient backprop starts from.

    ``Yb`` holds the one-hot targets, one row per logits row. Only the
    gradient checks compute the loss itself (``batch_loss`` in
    ``tests/oracles.py``).

    The result is ``exp(log_softmax(logits)) - Yb``, plus for squentropy
    ``2 / (k - 1) * logits`` with each label entry zeroed, all divided by
    the batch size. It is built in ``work`` (from ``_dlogits_work`` for
    ``logits``' shape and dtype) and is its first array; ``logits`` and
    ``Yb`` are only read. Each element sees the float operations of the
    expression form in the same order: the row max and row sum are the
    reductions ``max`` and ``sum`` run, and subtracting a 0 target leaves
    an ``exp`` unchanged, so the bits are those of the expression.
    """
    k = logits.shape[1]
    d, e, labelled, top, total, size = work
    np.maximum.reduce(logits, axis=1, keepdims=True, out=top)
    np.subtract(logits, top, out=d)
    np.exp(d, out=e)
    np.add.reduce(e, axis=1, keepdims=True, out=total)
    np.log(total, out=total)
    np.subtract(d, total, out=d)
    np.exp(d, out=d)
    np.subtract(d, Yb, out=d)
    if kind == "squentropy":
        # zeroed, not multiplied by 1 - Yb: an infinite logit times 0 is NaN
        np.multiply(2.0 / (k - 1), logits, out=e)
        np.not_equal(Yb, 0, out=labelled)
        np.copyto(e, 0.0, where=labelled)
        d += e
    np.divide(d, size, out=d)
    return d


# ---------------------------------------------------------------------------
# training


def init_mlp(dims, seed: int) -> MlpClassifier:
    """Fresh model, each layer U[-1/sqrt(fan_in), +1/sqrt(fan_in)], float32."""
    rng = stream(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(
            rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
        )
        biases.append(rng.uniform(-bound, bound, size=fan_out).astype(np.float32))
    return MlpClassifier(weights, biases)


def _flat_views(buf: np.ndarray, shapes) -> "list[np.ndarray]":
    """Consecutive views of the 1-D buffer ``buf``, one per shape, in order."""
    views, lo = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(buf[lo:lo + size].reshape(shape))
        lo += size
    return views


def _epoch_batches(arrays, batch_size: int, epochs: int, seed: int):
    """Each batch of ``epochs`` shuffled passes over ``arrays`` (which share
    their row count n), as one view per array.

    Epoch e copies each array in the order
    ``stream(seed, "shuffle", e).permutation(n)`` into a buffer made once
    and yields its batches of ``batch_size`` rows (the last may be short).
    The views are made once too, so a batch holds its rows only until the
    next epoch starts.
    """
    n = len(arrays[0])
    bufs = [np.empty(a.shape, a.dtype) for a in arrays]
    batches = [tuple(b[lo:lo + batch_size] for b in bufs)
               for lo in range(0, n, batch_size)]
    for epoch in range(epochs):
        order = stream(seed, "shuffle", epoch).permutation(n)
        for a, b in zip(arrays, bufs):
            # a permutation is in range: "clip" skips the checking copy
            np.take(a, order, axis=0, out=b, mode="clip")
        yield from batches


def train_model(config: TrainConfig, train_set: LabeledSet, hidden,
                seed: int) -> MlpClassifier:
    """Mini-batch SGD with momentum and decoupled weight decay.

    ``hidden`` lists the hidden widths; the network's widths are
    [d_in, *hidden, k], with the input width and the class count read from
    ``train_set``'s dataset. The initial weights and each epoch's reshuffle
    are drawn from ``seed``'s streams; the final-epoch model is returned.

    The update per step, with velocity v and gradient grad:

        v   <- momentum * v + grad
        w   <- w - lr * v - lr * weight_decay * w

    so weight_decay=0 is exactly plain SGD with momentum, and the decay is
    never folded into the gradient (decoupled). Weights, biases, velocities
    and gradients each live in one flat float32 buffer, and the step is
    written over the gradient once the velocity has taken it. The targets
    are float32 one-hot rows, made once per fit, and ``_epoch_batches``
    gives the shuffled batches of features and targets. Each batch size
    has its plan (``_backprop_plan``; full batches share one, a short last
    batch has its own), made once per fit, so a step only runs numpy calls
    on arrays and argument tuples it already has. Each element sees the
    float32 operations of a per-layer update in the same order, so the
    result is bit-identical. The decay
    term is computed only when weight_decay > 0. Leaving it out is exact:
    float addition is commutative, and for a finite weight adding
    0 * w = +-0 changes at most the sign of a zero step, which subtracting
    the step cancels.
    """
    if len(train_set) < 1:
        raise ValueError("empty training set")
    data = train_set.dataset
    init = init_mlp([data.dim, *(int(w) for w in hidden), data.num_classes],
                    seed)
    tensors = [a for pair in zip(init.weights, init.biases) for a in pair]
    shapes = [a.shape for a in tensors]
    params = np.concatenate([a.ravel() for a in tensors])
    grad = np.empty_like(params)
    vel = np.zeros_like(params)
    decay = np.empty_like(params)
    layers = _flat_views(params, shapes)
    model = MlpClassifier(layers[0::2], layers[1::2])
    grad_views = _flat_views(grad, shapes)
    grads = (grad_views[0::2], grad_views[1::2])
    X = np.ascontiguousarray(train_set.features, dtype=np.float32)
    onehot = np.eye(data.num_classes, dtype=params.dtype)[train_set.labels]
    m, size = X.shape[0], config.batch_size
    plans = {rows: _backprop_plan(model, grads, rows, params.dtype)
             for rows in {min(size, m - lo) for lo in range(0, m, size)}}
    kind = config.loss
    lr = np.float32(config.learning_rate)
    mu = np.float32(config.momentum)
    lr_wd = lr * np.float32(config.weight_decay)
    for Xb, Yb in _epoch_batches((X, onehot), size, config.max_epochs, seed):
        _backprop(Xb, Yb, kind, plans[len(Xb)])
        vel *= mu
        vel += grad
        np.multiply(lr, vel, out=grad)
        if lr_wd > 0:
            np.multiply(lr_wd, params, out=decay)
            grad += decay
        params -= grad
    return MlpClassifier([w.copy() for w in model.weights],
                         [b.copy() for b in model.biases])


def _product(out: np.ndarray):
    """np.matmul for an ``out`` of 2**14 elements or more, else np.dot: the
    same BLAS call and bits, but dot dispatches faster and matmul writes a
    large output faster (one thread: a 64 x 64 output 3.0 against 3.5 us,
    a 784 x 128 one 118 against 106 us)."""
    return np.matmul if out.size >= 2 ** 14 else np.dot


def _backprop_plan(model: MlpClassifier, grads, rows: int, dtype):
    """What ``_backprop`` steps through on batches of exactly ``rows`` rows.

    ``grads`` is (grads_w, grads_b), two lists of arrays shaped like the
    model's weights and biases, which the step writes. The plan is
    (hidden, last, backward, first, dlogits_work, grads), where each
    product is ``_product`` of the array it writes:

    hidden   : per hidden layer, (product, w, b, out) with out its
               (rows, width) output, in ``dtype`` like all scratch here
    last     : (product, w, b, logits) of the output layer
    backward : per layer from the last down to the second, (product_w,
               a_T, grad_w, grad_b, a, product_d, w_T, delta): its input
               activation a and a's transpose, its gradients, its
               transposed weights, and the loss gradient at a
    first    : (product_w, grad_w, grad_b) of the first layer, whose input
               is the batch
    dlogits_work : ``_dlogits_work`` for the logits

    The weights are the model's arrays, not copies, so a plan stays valid
    while a fit updates them in place.
    """
    grads_w, grads_b = grads
    outputs = [np.empty((rows, w.shape[1]), dtype) for w in model.weights]
    layers = [(_product(out), w, b, out)
              for w, b, out in zip(model.weights, model.biases, outputs)]
    backward = tuple((_product(gw), a.T, gw, gb, a, _product(a), w.T,
                      np.empty_like(a))
                     for a, gw, gb, w in zip(outputs[-2::-1], grads_w[:0:-1],
                                             grads_b[:0:-1],
                                             model.weights[:0:-1]))
    first = (_product(grads_w[0]), grads_w[0], grads_b[0])
    return (tuple(layers[:-1]), layers[-1], backward, first,
            _dlogits_work(rows, model.num_classes, dtype), grads)


def _backprop(Xb: np.ndarray, Yb: np.ndarray, kind: str, plan):
    """Gradients of the mean batch loss w.r.t. every weight and bias.

    ``Yb`` holds the batch's one-hot targets, and ``plan`` is
    ``_backprop_plan`` of the model for ``len(Xb)`` rows. Returns the
    plan's (grads_w, grads_b), which the step writes.

    The forward pass writes a layer's product, adds the bias and takes the
    tanh in its output buffer; the backward pass overwrites each hidden
    activation a with 1 - a**2 once its weight gradient is taken, and
    multiplies it into the gradient flowing back. Each element sees the
    operations of ``tanh(A @ w + b)`` and ``(dZ @ w.T) * (1 - a**2)`` in
    that order, so the result does not depend on the scratch's prior
    contents. Each product into the scratch (``np.dot`` or ``np.matmul``)
    runs the BLAS call ``@`` runs, with the same bits and less dispatch.
    ``Xb``, ``Yb`` and the weights are only read.
    """
    hidden, (mul, w, b, logits), backward, first, work, grads = plan
    A = Xb
    for mul_l, w_l, b_l, out in hidden:
        mul_l(A, w_l, out=out)
        out += b_l
        A = np.tanh(out, out=out)
    mul(A, w, out=logits)
    logits += b
    dZ = _batch_dlogits(logits, Yb, kind, work)
    for mul_w, a_T, gw, gb, a, mul_d, w_T, delta in backward:
        mul_w(a_T, dZ, out=gw)
        np.add.reduce(dZ, axis=0, out=gb)
        np.square(a, out=a)
        np.subtract(1.0, a, out=a)
        mul_d(dZ, w_T, out=delta)
        delta *= a
        dZ = delta
    mul_w, grad_w, grad_b = first
    mul_w(Xb.T, dZ, out=grad_w)
    np.add.reduce(dZ, axis=0, out=grad_b)
    return grads


# ---------------------------------------------------------------------------
# margins


def margin_scores(probs: np.ndarray) -> np.ndarray:
    """Per-row top-1 minus top-2 probability; small margin = uncertain point."""
    p = np.asarray(probs)
    if p.ndim != 2 or p.shape[1] < 2:
        raise ValueError("expected (n, k>=2) probabilities")
    top2 = np.partition(p, -2, axis=1)[:, -2:]
    return top2[:, 1] - top2[:, 0]

