"""Oracles for the fits.

Training steps over flat parameter buffers, but each float operation runs in
the same order as in the straightforward loops (the confidence net's below,
the classifier's ``sgd_reference`` in ``oracles.py``), so every fitted
parameter must be equal bit for bit, not merely close. The loops are frozen
reference copies; they are not the library's code and must not be "fixed"
to match it. The temperature fit bisects log T; its NLL is checked against
scipy's ``minimize_scalar(method="bounded")`` answer and against the best of
a dense grid over the same interval, and its T against scipy's on trained
classifiers' calibration logits.
"""

import itertools

import numpy as np
from scipy.optimize import minimize_scalar

import autolabel as al
from autolabel.confidence import (
    ConfidenceNet,
    ConfidenceNetConfig,
    LOG_T_BOUNDS,
    TemperatureConfig,
    init_confidence_net,
    objective_grad,
)
from autolabel.mlp import _batch_dlogits, _dlogits_work, init_mlp
from autolabel.rng import stream

from conftest import label_everything
from numcheck import objective_scratch
from oracles import batch_dlogits, sgd_reference

CLASS_COUNTS = (2, 4, 10, 13)
# the bisection stops within 3e-7 of the best log T, or of the interval's end
# beyond which it lies, and scipy's bounded search within its default xatol
# of 1e-5; at an end the NLL's slope in log T is below 1 in these cases, so
# the fit's NLL is within 1e-5 of the grid's best
LOG_T_TOL = 1e-5
NLL_TOL = 1e-5


# ---------------------------------------------------------------------------
# frozen reference loops


def ref_nll(logits, labels, temperature):
    """Mean NLL of softmax(logits / T), in float64 from the definition."""
    z = np.asarray(logits, dtype=np.float64) / temperature
    z_max = z.max(axis=1)
    lse = np.log(np.exp(z - z_max[:, None]).sum(axis=1)) + z_max
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def ref_fit_confidence_net(h, d_cal, cfg, seed):
    k = h.num_classes
    z1, z2 = h.representations(d_cal.features)
    Z = np.asarray(np.concatenate([z1, z2], axis=1), dtype=np.float32)
    preds = np.argmax(z1, axis=1)
    wrong = (preds != d_cal.labels)
    params = init_confidence_net(k, z2.shape[1], seed)
    mom = ConfidenceNet(np.zeros_like(params.W1),
                        np.zeros_like(params.W2),
                        np.zeros_like(params.t_raw))
    sec = ConfidenceNet(np.zeros_like(params.W1),
                        np.zeros_like(params.W2),
                        np.zeros_like(params.t_raw))
    b1, b2, adam_eps = 0.9, 0.999, 1e-8
    lr = np.float32(cfg.learning_rate)
    wd = np.float32(cfg.weight_decay)
    n = Z.shape[0]
    step = 0
    for epoch in range(cfg.max_epochs):
        order = stream(seed, "shuffle", epoch).permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            g = objective_grad(params, Z[batch], preds[batch], wrong[batch],
                               cfg.lam, cfg.alpha, cfg.denom_epsilon,
                               *objective_scratch(params, Z[batch]))
            step += 1
            c1 = np.float32(1.0 - b1 ** step)
            c2 = np.float32(1.0 - b2 ** step)
            for name in ("W1", "W2", "t_raw"):
                p = getattr(params, name)
                gr = getattr(g, name)
                mo = getattr(mom, name)
                se = getattr(sec, name)
                mo *= np.float32(b1)
                mo += np.float32(1 - b1) * gr
                se *= np.float32(b2)
                se += np.float32(1 - b2) * gr * gr
                p -= lr * (mo / c1) / (np.sqrt(se / c2) + np.float32(adam_eps))
                if name != "t_raw" and wd > 0:
                    p -= lr * wd * p
    return params


# ---------------------------------------------------------------------------
# seeded worlds


def mixture_set(k, n, seed, dim=3):
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 2.0, size=(k, dim))
    return label_everything(al.synth_gaussian_mixture(k, dim, means, 1.0, n,
                                                      seed))


def sharp_classifier(k, seed, hidden=(6,), scale=3.0, dim=3):
    """Untrained model with large weights, so logits spread over a wide range."""
    base = init_mlp([dim, *hidden, k], seed)
    return al.MlpClassifier([w * np.float32(scale) for w in base.weights],
                            base.biases)


# ---------------------------------------------------------------------------
# oracles


def scipy_log_t(logits, labels):
    """(log T, NLL) at the minimum scipy's bounded search finds, with its
    default xatol of 1e-5."""
    best = minimize_scalar(lambda th: ref_nll(logits, labels, np.exp(th)),
                           bounds=LOG_T_BOUNDS, method="bounded")
    return best.x, best.fun


def test_fit_temperature_nll_is_at_most_scipys():
    # label rules: random, every label the predicted class (NLL falls
    # towards small T), and one class for every row; n = 1 and near-flat
    # NLLs included, where scipy stops far from the best log T
    rng = np.random.default_rng(26)
    for i in range(300):
        k = CLASS_COUNTS[i % len(CLASS_COUNTS)]
        n = int(rng.integers(1, 120))
        scale = 10.0 ** rng.uniform(-2.0, np.log10(300.0))
        logits = (rng.normal(size=(n, k)) * scale).astype(np.float32)
        rule = i // len(CLASS_COUNTS) % 3
        if rule == 0:
            labels = rng.integers(0, k, size=n)
        elif rule == 1:
            labels = np.argmax(logits, axis=1)
        else:
            labels = np.full(n, rng.integers(0, k))
        fit, _ = TemperatureConfig().fit(logits, None, labels, 0)
        got = ref_nll(logits, labels, fit.temperature)
        assert got <= scipy_log_t(logits, labels)[1] + 1e-12, (i, k, n, rule)


def test_fit_temperature_finds_scipys_log_t_on_trained_classifiers():
    # calibration logits of classifiers trained on seeded mixtures, whose
    # best T lies inside the interval: both searches find it to 1e-5
    for i, (k, sigma) in enumerate(itertools.product(CLASS_COUNTS,
                                                     (0.6, 1.0, 1.6))):
        rng = np.random.default_rng(700 + i)
        means = rng.normal(0, 2.0, size=(k, 3))
        data = label_everything(al.synth_gaussian_mixture(
            k, 3, means, sigma, 150 + 400, 700 + i))
        train, cal = data.take(np.arange(150)), data.take(np.arange(150, 550))
        h = al.train_model(al.TrainConfig(learning_rate=0.1, max_epochs=20),
                           train, [16], i)
        logits = h.representations(cal.features)[0]
        fit, _ = TemperatureConfig().fit(logits, None, cal.labels, 0)
        want, _ = scipy_log_t(logits, cal.labels)
        assert LOG_T_BOUNDS[0] + 0.1 < want < LOG_T_BOUNDS[1] - 0.1, i
        assert abs(np.log(fit.temperature) - want) <= 1e-5, (k, sigma)


def test_fit_temperature_reaches_the_grid_nll_minimum():
    # seeded logits whose best temperature lies inside the interval (labels
    # get a logit bonus) or beyond either end (the label's logit is always
    # the row's largest, or always its smallest: the NLL is monotone in T)
    grid = np.linspace(*LOG_T_BOUNDS, 2001)
    cases = [(k, scale, rule) for k in CLASS_COUNTS
             for scale, rule in ((0.02, "bonus"), (1.0, "bonus"),
                                 (30.0, "bonus"), (0.02, "top"),
                                 (1.0, "bottom"))]
    for i, (k, scale, rule) in enumerate(cases):
        rng = np.random.default_rng(900 + i)
        n = 60 + 11 * i
        labels = rng.integers(0, k, size=n)
        z = rng.normal(size=(n, k))
        rows = np.arange(n)
        if rule == "bonus":
            z[rows, labels] += 1.5
        elif rule == "top":
            z[rows, labels] = z.max(axis=1) + 0.5
        else:
            z[rows, labels] = z.min(axis=1) - 0.5
        logits = (z * scale).astype(np.float32)
        fit, _ = TemperatureConfig().fit(logits, None, labels, 0)
        got = ref_nll(logits, labels, fit.temperature)
        best = min(ref_nll(logits, labels, np.exp(theta)) for theta in grid)
        assert got <= best + NLL_TOL, (k, scale, rule, got, best)
        assert got <= ref_nll(logits, labels, 1.0), (k, scale, rule)
        if rule != "bonus":
            end = LOG_T_BOUNDS[0] if rule == "top" else LOG_T_BOUNDS[1]
            assert abs(np.log(fit.temperature) - end) <= LOG_T_TOL, \
                (k, scale, rule, fit.temperature)


def test_fit_temperature_keeps_one_at_its_optimum():
    # logits rescaled so that T = 1 is the NLL minimum to ~1e-12 in log T:
    # the solver stops near, not at, 0, and T = 1 is returned unchanged
    for k in CLASS_COUNTS:
        rng = np.random.default_rng(0)
        labels = rng.integers(0, k, size=200)
        z = rng.normal(size=(200, k))
        z[np.arange(200), labels] += 1.5
        best = minimize_scalar(lambda th: ref_nll(z, labels, np.exp(th)),
                               bounds=LOG_T_BOUNDS, method="bounded",
                               options={"xatol": 1e-12})
        logits = z / np.exp(best.x)
        fit, _ = TemperatureConfig().fit(logits, None, labels, 0)
        assert fit.temperature == 1.0, k


def test_train_model_equals_reference_sgd_bit_for_bit():
    # n = 50: batches of 10 divide it, 7 and 16 leave a short last batch each
    # epoch (of 1 and 2 rows), and 64 puts the whole set in one batch
    cases = itertools.product(("vanilla", "squentropy"), (0.0, 0.01, 0.1, 0.3),
                              ((6,), (6, 5), (4, 4, 4)), (10, 7, 16, 64))
    for i, (loss, wd, hidden, size) in enumerate(cases):
        k = CLASS_COUNTS[i % len(CLASS_COUNTS)]
        train = mixture_set(k, 50, seed=200 + i)
        cfg = al.TrainConfig(loss=loss, learning_rate=0.05,
                             momentum=(0.9, 0.0)[i % 5 == 4], weight_decay=wd,
                             batch_size=size, max_epochs=6)
        got = al.train_model(cfg, train, hidden, i)
        want = sgd_reference(cfg, train, hidden, i)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b), (k, loss, wd, hidden, size)


def test_train_model_equals_reference_sgd_bit_for_bit_at_a_wider_input():
    # a 40-d input and wider layers than the cases above; n = 100 with batch
    # size 32 leaves a short last batch of 4 rows
    cases = itertools.product((0.0, 0.01), ("vanilla", "squentropy"))
    for i, (wd, loss) in enumerate(cases):
        train = mixture_set(10, 100, seed=400 + i, dim=40)
        cfg = al.TrainConfig(loss=loss, learning_rate=0.05, weight_decay=wd,
                             batch_size=32, max_epochs=4)
        got = al.train_model(cfg, train, [24], i)
        want = sgd_reference(cfg, train, [24], i)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b), (wd, loss)


def test_train_model_equals_reference_sgd_bit_for_bit_at_the_benchmark_shapes():
    # the gated workloads' classifiers: [2, 64, 4] on 150 rows at lr 0.1,
    # batches of 32 with a short last one of 22; [784, 128, 10] on 300 rows
    # at the default lr, a short last batch of 12
    cases = itertools.product(
        (([2, 64, 4], 150, 0.1, 5), ([784, 128, 10], 300, 0.01, 2)),
        ("vanilla", "squentropy"))
    for i, ((dims, n, lr, epochs), loss) in enumerate(cases):
        train = mixture_set(dims[-1], n, seed=500 + i, dim=dims[0])
        cfg = al.TrainConfig(loss=loss, learning_rate=lr, batch_size=32,
                             max_epochs=epochs)
        got = al.train_model(cfg, train, dims[1:-1], i)
        want = sgd_reference(cfg, train, dims[1:-1], i)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert a.shape == b.shape and a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b), (dims, loss)


def dlogits_edge_cases(dtype):
    """(name, logits, labels) at the edges of the loss gradient."""
    rng = np.random.default_rng(31)
    yield "one row", rng.normal(0, 3, size=(1, 4)), np.array([2])
    yield "k = 2", rng.normal(0, 3, size=(9, 2)), rng.integers(0, 2, 9)
    # every off-label exp underflows to 0, and in the second half so does
    # the label's own
    labels = rng.integers(0, 5, 8)
    z = rng.normal(0, 1, size=(8, 5))
    z[np.arange(8), labels] += 2000.0
    z[4:] *= -1.0
    yield "underflow", z, labels
    # 2 / (k - 1) times the largest finite logit overflows to inf at k = 2
    # and k = 3; the label entries of that term must still be exactly 0
    big = np.finfo(dtype).max
    for k in (2, 3):
        labels = rng.integers(0, k, 6)
        z = rng.choice([-big, big, 0.5 * big, 1.0], size=(6, k))
        z[np.arange(6), labels] = big
        yield f"large logits, k = {k}", z, labels


def test_batch_dlogits_equals_reference_bit_for_bit_at_its_edges():
    for dtype, kind in itertools.product((np.float32, np.float64),
                                         ("vanilla", "squentropy")):
        for name, z, labels in dlogits_edge_cases(dtype):
            logits = z.astype(dtype)
            k = logits.shape[1]
            with np.errstate(over="ignore", invalid="ignore"):
                got = _batch_dlogits(logits, np.eye(k, dtype=dtype)[labels],
                                     kind, _dlogits_work(*logits.shape, dtype))
                want = batch_dlogits(logits, labels, kind)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (name, dtype, kind)


def test_fit_confidence_net_equals_reference_adam_bit_for_bit():
    # n = 70 with batch size 16 leaves a short last batch each epoch
    cases = itertools.product(CLASS_COUNTS, (0.0, 0.01, 0.3), ((6,), (6, 4)))
    for i, (k, wd, hidden) in enumerate(cases):
        cal = mixture_set(k, 70, seed=300 + i)
        h = sharp_classifier(k, seed=i, hidden=hidden, scale=1.5)
        cfg = ConfidenceNetConfig(lam=(100.0, 10.0)[i % 2],
                                  alpha=(1.0, 4.0)[i % 3 == 0],
                                  weight_decay=wd, batch_size=16,
                                  max_epochs=5)
        net, _ = cfg.fit(*h.representations(cal.features), cal.labels, i)
        want = ref_fit_confidence_net(h, cal, cfg, i)
        for name in ("W1", "W2", "t_raw"):
            a, b = getattr(net, name), getattr(want, name)
            assert a.shape == b.shape and a.dtype == b.dtype == np.float32
            assert np.array_equal(a, b), (k, wd, hidden, name)
