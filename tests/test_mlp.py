import hashlib
import itertools
import tracemalloc

import numpy as np
import pytest

import autolabel as al
from autolabel.mlp import (
    CHUNK_FLOATS,
    _backprop,
    _backprop_plan,
    _batch_dlogits,
    _dlogits_work,
    _epoch_batches,
    init_mlp,
)
from autolabel.rng import stream
from numcheck import backprop_plan, central_difference, relative_error

from conftest import four_blobs, label_everything, scored
from oracles import batch_loss


def tiny_model(dims=(3, 5, 4), seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    weights = [rng.normal(0, 0.5, size=(a, b)).astype(dtype)
               for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0, 0.5, size=b).astype(dtype) for b in dims[1:]]
    return al.MlpClassifier(weights, biases)


# ---------------------------------------------------------------------------
# forward


def test_forward_zero_weights_uniform():
    k = 4
    weights = [np.zeros((3, 6)), np.zeros((6, k))]
    biases = [np.zeros(6), np.zeros(k)]
    model = al.MlpClassifier(weights, biases)
    x = np.array([[1.0, -2.0, 0.5]])
    logits, penultimate = model.representations(x)
    assert logits.shape == (1, k) and penultimate.shape == (1, 6)
    assert np.allclose(al.softmax(logits), 1 / k)
    _, preds = scored(al.TemperatureConfidence(1.0), model, x)
    assert np.array_equal(preds, [0])  # ties go to the lowest index


def test_forward_probs_normalized_and_argmax_consistent():
    model = tiny_model()
    rng = np.random.default_rng(1)
    X = rng.normal(0, 3, size=(1000, 3))
    logits = model.representations(X)[0]
    probs = al.softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.array_equal(np.argmax(probs, axis=1), np.argmax(logits, axis=1))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def reference_representations(model, X):
    """The expression form the forward pass computes in place, frozen."""
    A = np.asarray(X)
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        A = np.tanh(A @ w + b)
    return A @ model.weights[-1] + model.biases[-1], A


@pytest.mark.parametrize("dims", [[7, 12, 4], [7, 12, 9, 10]])
@pytest.mark.parametrize("x_dtype", [np.float32, np.float64])
def test_representations_match_the_expression_form_bit_for_bit(dims, x_dtype):
    model = init_mlp(dims, seed=len(dims))
    X = np.random.default_rng(3).normal(0, 2, size=(57, dims[0]))
    X = X.astype(x_dtype)
    X_before = X.copy()
    params_before = [a.copy() for a in model.weights + model.biases]
    logits, penultimate = model.representations(X)
    want_logits, want_pen = reference_representations(model, X)
    assert logits.dtype == np.result_type(x_dtype, np.float32)
    assert same_bits(logits, want_logits)
    assert same_bits(penultimate, want_pen)
    assert not np.shares_memory(penultimate, X)
    assert same_bits(X, X_before)
    for a, b in zip(model.weights + model.biases, params_before):
        assert same_bits(a, b)


def reference_softmax(logits):
    """softmax with the row max taken by ``max(axis=1)``, frozen."""
    z = np.asarray(logits)
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("k", [2, 4, 10, 13])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_row_max_chain_gives_the_same_bits(k, dtype):
    rng = np.random.default_rng(k)
    z = rng.normal(0, 4, size=(40, k)).astype(dtype)
    z[1] = 0.0
    z[2] = -np.abs(z[2])                   # +-0 ties at the row max,
    z[2, 0], z[2, 1] = -0.0, 0.0           # in both orders
    z[8] = -np.abs(z[8])
    z[8, 0], z[8, -1] = 0.0, -0.0
    z[3, :] = -1.5                         # all maxima equal
    z[4, : k // 2] = 2.5                   # several equal maxima
    z[5, 1] = np.nan                       # NaN rows
    z[6, :] = np.nan
    z[7, -1] = -np.inf
    before = z.copy()
    got = al.softmax(z)
    assert same_bits(got, reference_softmax(z))
    assert np.isnan(got[5]).all() and np.isnan(got[6]).all()
    assert same_bits(z, before)
    for row in (0, 2, 5, 8):
        one = z[row:row + 1]
        assert same_bits(al.softmax(one), reference_softmax(one))


def test_forward_dimension_mismatch():
    model = tiny_model()
    with pytest.raises(ValueError):
        model.representations(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        model.representations(np.zeros(3))  # one point is a (1, d) batch


# ---------------------------------------------------------------------------
# forward passes over rows of a dataset

# the benchmark's two networks, then first layers whose products sit near
# the sizes where OpenBLAS changes its sgemm kernel
PASS_DIMS = [[784, 128, 10], [2, 64, 4], [784, 8, 2], [784, 2, 2], [64, 4, 3]]


def pass_row_count(d: int, count: str) -> int:
    size = CHUNK_FLOATS // d
    return {"0": 0, "1": 1, "chunk-1": size - 1, "2chunks-1": 2 * size - 1,
            "2chunks": 2 * size, "2chunks+1": 2 * size + 1,
            "30000": 30000}[count]


def digests(arrays):
    return [(a.dtype, a.shape, hashlib.sha256(a).hexdigest()) for a in arrays]


@pytest.mark.parametrize("count", ["0", "1", "chunk-1", "2chunks-1",
                                   "2chunks", "2chunks+1", "30000"])
@pytest.mark.parametrize("dims", PASS_DIMS, ids=lambda d: "-".join(map(str, d)))
def test_a_pass_over_rows_equals_the_pass_over_the_gathered_rows(dims, count):
    # the chunked first layer must give every row the bits the one product
    # over X[rows] gives it; rows may repeat, so a small X serves every count
    # (the 30,000 rows are sorted, as a pool's are). Compared by digest: at
    # d = 2 two chunks are a million rows.
    n = pass_row_count(dims[0], count)
    model = init_mlp(dims, 5)
    rng = np.random.default_rng(n)
    X = rng.standard_normal((3000, dims[0]), dtype=np.float32)
    rows = rng.integers(0, len(X), n)
    if count == "30000":
        rows.sort()
    want = digests(model.representations(X[rows]))
    assert digests(model.representations(X, rows)) == want


@pytest.mark.parametrize("count", ["chunk-1", "2chunks-1", "2chunks",
                                   "2chunks+1"])
def test_a_float64_pass_over_rows_equals_the_pass_over_the_gathered_rows(
        count):
    # float64 rows make float64 products, in which OpenBLAS's dgemm makes a
    # row's bits depend on its place among the call's rows (seen in products
    # 260 or more columns wide): such a pass must be one product
    n = pass_row_count(784, count)
    model = init_mlp([784, 300, 3], 5)
    rng = np.random.default_rng(n)
    X = rng.standard_normal((3000, 784))
    rows = rng.integers(0, len(X), n)
    want = digests(model.representations(X[rows]))
    assert digests(model.representations(X, rows)) == want


@pytest.mark.parametrize("bad", [-1, 3000, -3001])
def test_a_pass_refuses_rows_outside_the_data(bad):
    # the gathers skip numpy's index check, so the pass makes its own: a
    # negative row is refused too, though X[-1] would be the last row
    model = init_mlp([784, 8, 2], 0)
    X = np.zeros((3000, 784), dtype=np.float32)
    with pytest.raises(IndexError, match="out of range"):
        model.representations(X, np.array([0, bad, 1]))


def test_a_30000_row_pass_over_784_features_peaks_below_40_mb():
    # the rows gathered at once would be 94 MB; the pass holds its layer
    # outputs (16.6 MB) and a chunk buffer of at most two chunks (8.4 MB)
    model = init_mlp([784, 128, 10], 0)
    rng = np.random.default_rng(2)
    X = rng.standard_normal((3000, 784), dtype=np.float32)
    rows = np.sort(rng.integers(0, len(X), 30000))
    tracemalloc.start()
    try:
        model.representations(X, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_model_shape_validation():
    with pytest.raises(ValueError):
        al.MlpClassifier([np.zeros((3, 4))], [np.zeros(4)])  # single layer
    with pytest.raises(ValueError):
        al.MlpClassifier([np.zeros((3, 4)), np.zeros((5, 2))],
                         [np.zeros(4), np.zeros(2)])


# ---------------------------------------------------------------------------
# losses


def one_row_loss(logits, y, kind="vanilla"):
    return batch_loss(np.asarray(logits)[None, :], [y], kind)


def test_loss_vanilla_uniform_case():
    assert one_row_loss(np.zeros(10), 3) == pytest.approx(np.log(10), rel=1e-12)


def test_loss_vanilla_saturated():
    logits = np.zeros(5)
    logits[2] = 1000.0
    assert one_row_loss(logits, 2) == pytest.approx(0.0, abs=1e-12)
    # and the stabilized form survives the hopeless case too
    assert one_row_loss(logits, 0) == pytest.approx(1000.0, rel=1e-9)


def test_loss_vanilla_matches_high_precision_reference():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 60
    rng = np.random.default_rng(7)
    for _ in range(20):
        k = int(rng.integers(2, 8))
        logits = rng.normal(0, 5, size=k)
        y = int(rng.integers(k))
        denom = sum(mp.e ** mp.mpf(v) for v in logits)
        expected = float(-mp.log(mp.e ** mp.mpf(logits[y]) / denom))
        assert one_row_loss(logits, y) == pytest.approx(expected, rel=1e-12)


def test_loss_squentropy_examples():
    assert one_row_loss(np.zeros(10), 4, "squentropy") == pytest.approx(
        np.log(10))
    logits = np.zeros(10)
    logits[0] = 2.0
    assert one_row_loss(logits, 0, "squentropy") == pytest.approx(
        one_row_loss(logits, 0))
    logits = np.zeros(10)
    logits[1] = 3.0
    expected = one_row_loss(logits, 0) + 9.0 / 9.0
    assert one_row_loss(logits, 0, "squentropy") == pytest.approx(
        expected, rel=1e-12)


def test_loss_squentropy_dominates_vanilla():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = int(rng.integers(2, 9))
        logits = rng.normal(0, 4, size=k)
        y = int(rng.integers(k))
        assert one_row_loss(logits, y, "squentropy") >= \
            one_row_loss(logits, y) - 1e-12


# ---------------------------------------------------------------------------
# gradients


def test_backprop_matches_finite_differences_through_network():
    rng = np.random.default_rng(5)
    for trial in range(10):
        model = tiny_model(dims=(3, 4, 3), seed=trial)
        X = rng.normal(0, 1, size=(6, 3))
        y = rng.integers(0, 3, size=6)
        kind = "squentropy" if trial % 2 else "vanilla"
        grads_w, grads_b = _backprop(X, np.eye(3)[y], kind,
                                     backprop_plan(model, X))
        for li in range(2):
            def f_w(w, li=li):
                trial_model = al.MlpClassifier(
                    [w if i == li else model.weights[i] for i in range(2)],
                    model.biases)
                return batch_loss(trial_model.representations(X)[0], y, kind)
            numeric = central_difference(f_w, model.weights[li].copy())
            assert relative_error(grads_w[li], numeric) <= 1e-4

            def f_b(b, li=li):
                trial_model = al.MlpClassifier(
                    model.weights,
                    [b if i == li else model.biases[i] for i in range(2)])
                return batch_loss(trial_model.representations(X)[0], y, kind)
            numeric_b = central_difference(f_b, model.biases[li].copy())
            assert relative_error(grads_b[li], numeric_b) <= 1e-4


def test_backprop_work_buffers_give_the_same_bits():
    # float32 as in training; a batch of 16 and a short one of 5, each with
    # scratch made for its size, as in a fit's batch plan, and reused for a
    # second batch as over a fit's steps: the bits are those of fresh scratch
    rng = np.random.default_rng(11)
    for kind, dims in itertools.product(("vanilla", "squentropy"),
                                        ([3, 7, 4], [6, 9, 5, 3])):
        model = init_mlp(dims, seed=len(dims))
        for mb in (16, 5):
            out = ([np.empty_like(w) for w in model.weights],
                   [np.empty_like(b) for b in model.biases])
            plan = _backprop_plan(model, out, mb, np.float32)
            for step in range(2):
                X = rng.normal(0, 1, size=(mb, dims[0])).astype(np.float32)
                Y = np.eye(dims[-1], dtype=np.float32)[
                    rng.integers(0, dims[-1], size=mb)]
                X_before, Y_before = X.copy(), Y.copy()
                params_before = [a.copy()
                                 for a in model.weights + model.biases]
                want_w, want_b = _backprop(X, Y, kind,
                                           backprop_plan(model, X))
                got = _backprop(X, Y, kind, plan)
                assert got[0] is out[0] and got[1] is out[1]
                for a, b in zip(got[0] + got[1], want_w + want_b):
                    assert a.dtype == b.dtype == np.float32
                    assert np.array_equal(a, b), (kind, dims, mb, step)
                assert np.array_equal(X, X_before)
                assert np.array_equal(Y, Y_before)
                for a, b in zip(model.weights + model.biases, params_before):
                    assert np.array_equal(a, b)


def test_batch_dlogits_leaves_its_logits_untouched():
    rng = np.random.default_rng(12)
    for kind, dtype in itertools.product(("vanilla", "squentropy"),
                                         (np.float32, np.float64)):
        logits = rng.normal(0, 3, size=(9, 4)).astype(dtype)
        Y = np.eye(4, dtype=dtype)[rng.integers(0, 4, size=9)]
        before, Y_before = logits.copy(), Y.copy()
        d = _batch_dlogits(logits, Y, kind, _dlogits_work(9, 4, dtype))
        assert d.dtype == dtype and not np.shares_memory(d, logits)
        assert np.array_equal(logits, before)
        assert np.array_equal(Y, Y_before)


# ---------------------------------------------------------------------------
# training


@pytest.mark.parametrize("n", [5, 8, 17])
def test_epoch_batches_follow_each_epochs_shuffle(n):
    # batch 8: fewer rows than a batch, exactly one batch, and two batches
    # and a one-row tail; every array is cut the same way
    batch, epochs, seed = 8, 2, 23
    arrays = (np.arange(n * 3, dtype=np.float32).reshape(n, 3),
              np.arange(n) * 10, np.arange(n) % 2 == 0)
    # a batch holds its rows only until the next epoch starts: copy it
    got = [[v.copy() for v in views]
           for views in _epoch_batches(arrays, batch, epochs, seed)]
    sizes = [min(batch, n - lo) for lo in range(0, n, batch)]
    assert len(got) == epochs * len(sizes)
    for epoch in range(epochs):
        mine = got[epoch * len(sizes):(epoch + 1) * len(sizes)]
        assert [len(views[0]) for views in mine] == sizes
        order = stream(seed, "shuffle", epoch).permutation(n)
        for j, a in enumerate(arrays):
            joined = np.concatenate([views[j] for views in mine])
            assert joined.dtype == a.dtype
            assert np.array_equal(joined, a[order])
    assert list(_epoch_batches(arrays, batch, 0, seed)) == []


def test_train_separable_reaches_full_accuracy():
    means = np.array([[-10.0], [10.0]])
    ds = al.synth_gaussian_mixture(2, 1, means, 1.0, 60, seed=2)
    labeled = label_everything(ds)
    cfg = al.TrainConfig(max_epochs=50, learning_rate=0.05)
    model = al.train_model(cfg, labeled, [8], 3)
    acc = np.mean(np.argmax(model.representations(ds.features)[0], axis=1)
                  == ds.hidden_labels)
    assert acc == 1.0


def test_train_single_point_loss_decreases():
    ds = four_blobs(n=8)
    labeled = label_everything(ds).take([0])
    losses = []
    for epochs in range(6):
        cfg = al.TrainConfig(max_epochs=epochs, learning_rate=0.01,
                             momentum=0.0)
        model = al.train_model(cfg, labeled, [8], 4)
        losses.append(batch_loss(model.representations(labeled.features)[0],
                                 labeled.labels))
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_train_determinism():
    ds = four_blobs(n=60)
    labeled = label_everything(ds)
    cfg = al.TrainConfig(max_epochs=10)
    m1 = al.train_model(cfg, labeled, [8], 9)
    m2 = al.train_model(cfg, labeled, [8], 9)
    for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
        assert np.array_equal(a, b)
    # the returned model owns its arrays; none is a view of training buffers
    shapes = [(2, 8), (8, 4), (8,), (4,)]
    tensors = m1.weights + m1.biases
    for a, shape in zip(tensors, shapes):
        assert a.shape == shape and a.dtype == np.float32
        assert a.flags.c_contiguous and a.flags.owndata
    for a, b in itertools.combinations(tensors + m2.weights + m2.biases, 2):
        assert not np.shares_memory(a, b)


def test_train_zero_decay_is_plain_momentum_sgd():
    # decoupled decay multiplies weights by (1 - lr*wd) besides the step;
    # with wd=0 the update must be bit-for-bit plain SGD+momentum
    ds = four_blobs(n=40)
    labeled = label_everything(ds)
    a = al.train_model(al.TrainConfig(max_epochs=5, weight_decay=0.0),
                       labeled, [6], 1)
    b = al.train_model(al.TrainConfig(max_epochs=5), labeled, [6], 1)
    for wa, wb in zip(a.weights + a.biases, b.weights + b.biases):
        assert np.array_equal(wa, wb)


def test_train_weight_decay_shrinks_norms():
    ds = four_blobs(n=40)
    labeled = label_everything(ds)
    free = al.train_model(al.TrainConfig(max_epochs=20), labeled, [6], 1)
    decayed = al.train_model(al.TrainConfig(max_epochs=20, weight_decay=0.1),
                             labeled, [6], 1)
    assert np.linalg.norm(decayed.weights[0]) < np.linalg.norm(free.weights[0])


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ("momentum", float("nan")), ("weight_decay", float("inf")),
    ("weight_decay", float("nan")), ("batch_size", 2.5),
    ("max_epochs", 2.5), ("batch_size", 32.0), ("max_epochs", True),
    ("batch_size", True), ("weight_decay", True), ("learning_rate", True),
    ("momentum", np.False_),
])
def test_train_config_rejects_non_finite_and_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=field):
        al.TrainConfig(**{field: value})


@pytest.mark.parametrize("seed", [2.5, True])
def test_train_model_rejects_a_seed_that_is_not_an_integer(seed):
    labeled = label_everything(four_blobs(n=10))
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        al.train_model(al.TrainConfig(max_epochs=1), labeled, [8], seed)


def test_train_reads_input_width_and_class_count_from_the_data():
    # a 3-d, 5-class set: only the hidden widths are passed
    ds = al.synth_gaussian_mixture(5, 3, np.eye(5, 3) * 4.0, 1.0, 20, seed=0)
    model = al.train_model(al.TrainConfig(max_epochs=1),
                           label_everything(ds), [7, 6], 0)
    assert [w.shape for w in model.weights] == [(3, 7), (7, 6), (6, 5)]
    assert (model.input_dim, model.num_classes) == (3, 5)
    with pytest.raises(ValueError, match="hidden"):
        al.train_model(al.TrainConfig(), label_everything(ds), [], 0)


def test_train_rejects_empty_set():
    ds = four_blobs(n=10)
    with pytest.raises(ValueError):
        al.train_model(al.TrainConfig(), al.LabeledSet.empty(ds), [8], 0)


# ---------------------------------------------------------------------------
# margins


def one_row_margin(probs):
    return al.margin_scores(np.asarray(probs, dtype=np.float64)[None, :])[0]


def test_margin_score_examples():
    assert one_row_margin(np.full(4, 0.25)) == pytest.approx(0.0)
    one_hot = np.zeros(5)
    one_hot[2] = 1.0
    assert one_row_margin(one_hot) == pytest.approx(1.0)
    assert one_row_margin([0.5, 0.3, 0.2]) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        one_row_margin([1.0])
    with pytest.raises(ValueError):
        al.margin_scores(np.array([0.5, 0.5]))  # rows, not a single vector


def test_margin_scores_batch_matches_scalar():
    # each row's margin is the same whether scored in a batch or alone
    rng = np.random.default_rng(0)
    P = al.softmax(rng.normal(0, 2, size=(50, 6)))
    batch = al.margin_scores(P)
    ranked = np.sort(P, axis=1)
    assert np.array_equal(batch, ranked[:, -1] - ranked[:, -2])
    for i in range(50):
        assert batch[i] == one_row_margin(P[i])
