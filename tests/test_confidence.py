import csv
import hashlib
import io
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import autolabel as al
from autolabel.confidence import (
    NET_CHUNK_FLOATS,
    ConfidenceNet,
    ConfidenceNetConfig,
    TemperatureConfidence,
    TemperatureConfig,
    TopLabelBinningConfig,
    init_confidence_net,
    objective_grad,
    TopLabelHistogramConfidence,
    sigmoid,
    write_score_dump,
)
from autolabel.mlp import _flat_views
from autolabel.thresholds import predicted_scores
from numcheck import central_difference, objective_scratch, relative_error

from conftest import (
    FixedModel,
    indexed_set,
    label_everything,
    metrics_on,
    scored,
    single_class_instance,
    uniform_thresholds,
)
from oracles import (
    net_scores,
    objective_value,
    patched_histogram_scores,
    surrogate_metrics,
)


def mixture_1d(means, n, seed, train_seed, epochs=40):
    ds = al.synth_gaussian_mixture(2, 1, np.array(means), 1.0, n, seed=seed)
    cal = label_everything(ds)
    h = al.train_model(al.TrainConfig(max_epochs=epochs, learning_rate=0.05),
                       cal, [8], train_seed)
    return ds, cal, h


# ---------------------------------------------------------------------------
# sigmoid


def test_sigmoid_fixed_points():
    for alpha in (0.01, 1.0, 100.0):
        assert sigmoid(alpha, 0.0) == pytest.approx(0.5)
    assert sigmoid(100.0, 0.1) >= 0.9999
    z = np.linspace(-3, 3, 50)
    assert np.allclose(sigmoid(1.0, z) + sigmoid(1.0, -z), 1.0, atol=1e-12)


def test_sigmoid_extremes_and_types():
    assert sigmoid(1.0, -1e6) == 0.0  # no overflow warnings either
    assert sigmoid(1.0, 1e6) == 1.0
    out = sigmoid(2.0, np.array([0.5, -0.5], dtype=np.float32))
    assert out.dtype == np.float32
    with pytest.raises(ValueError):
        sigmoid(0.0, 0.5)
    for alpha in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="alpha"):
            sigmoid(alpha, 0.5)


def test_sigmoid_monotone():
    z = np.linspace(-5, 5, 200)
    v = sigmoid(3.0, z)
    assert np.all(np.diff(v) > 0)


# ---------------------------------------------------------------------------
# softmax / temperature variants


def test_softmax_confidence_equals_model_probs(blob_model, blobs):
    logits, penultimate = blob_model.representations(blobs.features)
    s = TemperatureConfidence(1.0).scores(logits, penultimate)
    assert np.array_equal(s, al.softmax(logits))
    assert s.shape == (blobs.n, 4)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-6)


def test_temperature_one_is_identity(blob_model):
    # x / 1.0 is exact, so T = 1 gives the raw softmax's bits, at the
    # extremes of either float type as well as on a trained net's logits
    rng = np.random.default_rng(0)
    X = rng.normal(0, 3, size=(1000, 2)).astype(np.float32)
    trained = blob_model.representations(X)[0]
    for dtype in (np.float32, np.float64):
        info = np.finfo(dtype)
        special = [0.0, -0.0, info.max, -info.max, info.smallest_subnormal,
                   -info.smallest_subnormal, np.inf, -np.inf, 1.5]
        rows = np.array(list(itertools.product(special, repeat=3)), dtype)
        for logits in (rows, trained.astype(dtype)):
            with np.errstate(all="ignore"):
                got = TemperatureConfidence(1.0).scores(logits, None)
                want = al.softmax(logits)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


def test_temperature_huge_is_uniform(blob_model):
    rng = np.random.default_rng(1)
    X = rng.normal(0, 3, size=(50, 2)).astype(np.float32)
    s = TemperatureConfidence(1e6).scores(*blob_model.representations(X))
    assert float((s.max(axis=1) - s.min(axis=1)).max()) <= 1e-4


def test_temperature_preserves_argmax(blob_model):
    rng = np.random.default_rng(2)
    X = rng.normal(0, 3, size=(300, 2)).astype(np.float32)
    reps = blob_model.representations(X)
    base = np.argmax(TemperatureConfidence(1.0).scores(*reps), axis=1)
    for T in (0.05, 0.7, 3.0, 40.0):
        assert np.array_equal(
            np.argmax(TemperatureConfidence(T).scores(*reps), axis=1), base)


def test_temperature_requires_positive():
    with pytest.raises(ValueError):
        TemperatureConfidence(0.0)


def nll_at(h, T, labeled):
    z = h.representations(labeled.features)[0] / T
    sh = z - z.max(axis=1, keepdims=True)
    lse = np.log(np.exp(sh).sum(axis=1))
    return float(np.mean(lse - sh[np.arange(len(labeled)), labeled.labels]))


def test_fit_temperature_never_worse_than_identity(blob_model, blobs):
    cal = label_everything(blobs)
    tm, _ = TemperatureConfig().fit(*blob_model.representations(cal.features),
                                     cal.labels, 0)
    assert 0.5 <= tm.temperature <= 2.0
    assert nll_at(blob_model, tm.temperature, cal) <= nll_at(blob_model, 1.0,
                                                             cal) + 1e-12


def test_fit_temperature_detects_overconfidence(blob_model, blobs):
    rng = np.random.default_rng(7)
    shuffled = al.LabeledSet(blobs, np.arange(blobs.n),
                             rng.integers(0, 4, size=blobs.n))
    tm, _ = TemperatureConfig().fit(
        *blob_model.representations(shuffled.features), shuffled.labels, 0)
    assert tm.temperature > 1.0
    # brute-force grid oracle agrees on the direction
    grid = [0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 10.0]
    best = min(grid, key=lambda T: nll_at(blob_model, T, shuffled))
    assert best > 1.0


def test_fit_temperature_empty_set(blob_model, blobs):
    with pytest.raises(ValueError):
        TemperatureConfig().fit(
            *blob_model.representations(blobs.features[:0]),
            np.zeros(0, np.int64), 0)


@pytest.mark.parametrize("scale", [3.0, 0.3])
def test_fit_temperature_weighs_a_minus_inf_logit_as_a_huge_negative_one(
        scale):
    # both sets give the same softmax weights, so the same T; the optimum
    # is interior, above 1 at scale 3 and below 1 at scale 0.3
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 4, size=200)
    logits = rng.normal(size=(200, 4)) * scale
    logits[np.arange(200), labels] += scale
    fits = []
    for low in (-np.inf, -3e38):
        z = logits.copy()
        z[0, (labels[0] + 1) % 4] = low
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fits.append(TemperatureConfig().fit(z, None, labels, 0)[0])
    assert fits[0].temperature == fits[1].temperature
    assert 1.0 < abs(np.log(fits[1].temperature)) < 4.0


# ---------------------------------------------------------------------------
# top-label histogram binning


def test_hb_all_correct_gives_unit_bins(blob_model, blobs):
    cal = label_everything(blobs)
    preds = np.argmax(blob_model.representations(blobs.features)[0], axis=1)
    right = cal.take(np.where(preds == blobs.hidden_labels)[0])
    g, _ = TopLabelBinningConfig(points_per_bin=25).fit(
        *blob_model.representations(right.features), right.labels, 0)
    for y, vals in g.values.items():
        assert np.all(vals == 1.0)


def test_hb_two_bin_hand_example(blob_model, blobs):
    # four points predicted as the same class; correctness in ascending
    # score order is (1, 0, 1, 1) -> two bins valued 0.5 and 1.0
    probs = al.softmax(blob_model.representations(blobs.features)[0])
    preds = np.argmax(probs, axis=1)
    cls = np.bincount(preds).argmax()
    pos = np.where(preds == cls)[0]
    tops = probs[pos, cls]
    pos = pos[np.argsort(tops)][:4]  # four lowest-score points of that class
    want_correct = [True, False, True, True]
    labels = np.where(want_correct, cls, (cls + 1) % 4)
    cal = al.LabeledSet(blobs, pos, labels)
    g, _ = TopLabelBinningConfig(points_per_bin=2).fit(
        *blob_model.representations(cal.features), cal.labels, 0)
    assert np.allclose(g.values[cls], [0.5, 1.0])
    # the other classes had no calibration points and fall back to softmax
    assert set(g.values) == {cls}
    # scoring the calibration points returns their own bin's value
    got = g.scores(*blob_model.representations(blobs.features[pos]))
    got = got[np.arange(4), cls]
    assert np.allclose(got, [0.5, 0.5, 1.0, 1.0])


def test_hb_bin_values_bounded(blob_model, blobs):
    cal = label_everything(blobs)
    g, _ = TopLabelBinningConfig(points_per_bin=10).fit(
        *blob_model.representations(cal.features), cal.labels, 0)
    for vals in g.values.values():
        assert np.all((0.0 <= vals) & (vals <= 1.0))


def test_hb_fallback_class_scores_raw_softmax(blob_model, blobs):
    probs = al.softmax(blob_model.representations(blobs.features)[0])
    preds = np.argmax(probs, axis=1)
    cls = np.bincount(preds).argmax()
    other = (cls + 1) % 4
    pos = np.where(preds == cls)[0][:6]
    cal = al.LabeledSet(blobs, pos, np.full(6, cls))
    g, _ = TopLabelBinningConfig(points_per_bin=3).fit(
        *blob_model.representations(cal.features), cal.labels, 0)
    assert other not in g.values
    qpos = np.where(preds == other)[0][:5]
    if qpos.size:
        got = g.scores(*blob_model.representations(blobs.features[qpos]))
        assert np.allclose(got[np.arange(qpos.size), other],
                           probs[qpos, other])


def test_hb_needs_enough_points(blob_model, blobs):
    # fewer calibration points than one bin holds: raw softmax and a warning
    cal = label_everything(blobs).take(range(10))
    g, warning = TopLabelBinningConfig(points_per_bin=25).fit(
        *blob_model.representations(cal.features), cal.labels, 0)
    assert isinstance(g, TemperatureConfidence) and g.temperature == 1.0
    assert warning == ("calibration set (10) smaller than points_per_bin "
                       "(25); using raw softmax this round")


@pytest.mark.parametrize("value, message", [
    (0, ">= 1"), (2.5, "an integer"), (True, "an integer"),
    (float("nan"), "an integer"),
], ids=["0", "2.5", "True", "nan"])
def test_top_label_binning_config_rejects_bad_points_per_bin(value, message):
    # 2.5 and True used to fit without complaint, NaN to fail inside the round
    with pytest.raises(ValueError, match=rf"^points_per_bin must be {message}"):
        al.TopLabelBinningConfig(points_per_bin=value)


def test_hb_bins_the_predicted_class_on_float32_softmax_ties():
    # float32 softmax rounds [0, 1e-8] to [0.5, 0.5]; the prediction is the
    # logits' argmax, class 1, and both the fit and the scores must bin
    # class 1's entry, not the probabilities' argmax, class 0
    tied = np.array([[0.0, 1e-8]], dtype=np.float32)
    assert np.argmax(al.softmax(tied)) == 0

    class TiedModel:
        def representations(self, X):
            return np.repeat(tied, len(X), axis=0), X

    fitted, _ = TopLabelBinningConfig(points_per_bin=1).fit(
        tied, None, np.array([1]), 0)
    assert set(fitted.values) == {1}
    g = TopLabelHistogramConfidence({0: np.array([]), 1: np.array([])},
                                    {0: np.array([0.9]), 1: np.array([0.1])})
    top, preds = scored(g, TiedModel(), np.zeros((1, 1)))
    assert preds.tolist() == [1]
    assert top[0] == np.float32(0.1)


def test_hb_predicted_scores_equal_the_patch_only_scorer_bit_for_bit():
    # binning whole columns leaves every predicted entry as patching only
    # that entry did: on exact ties, on the [0, 1e-8] float32 near-tie, on
    # scores equal to a bin edge, and for classes without bins
    rng = np.random.default_rng(27)
    for k, n, per_bin in ((2, 40, 3), (3, 200, 7), (4, 120, 25), (10, 500, 4)):
        cal = rng.normal(0, 2.0, size=(n, k)).astype(np.float32)
        cal[:, -1] -= 100.0  # the last class is never predicted: fallback
        labels = rng.integers(0, k, size=n)
        g, _ = TopLabelBinningConfig(points_per_bin=per_bin).fit(
            cal, None, labels, 0)
        assert k - 1 not in g.values
        logits = rng.normal(0, 2.0, size=(300, k)).astype(np.float32)
        logits[:20, 1] = logits[:20, 0]  # exact ties in the first two
        logits[20:40] = logits[20:40, :1]  # every class tied
        logits[40] = 0.0
        logits[40, 1] = 1e-8
        logits[41:51, -1] += 20.0  # rows predicting the fallback class
        logits = np.concatenate([logits, cal])  # scores on the bin edges
        assert np.argmax(al.softmax(logits[40:41])) == 0
        top, preds = predicted_scores(g, logits, None)
        want = patched_histogram_scores(g, logits)
        assert np.array_equal(preds, np.argmax(logits, axis=1))
        assert np.isin(k - 1, preds) and preds[40] == 1
        want_top = want[np.arange(len(preds)), preds]
        assert top.dtype == want_top.dtype == np.float32
        assert top.tobytes() == want_top.tobytes(), k


# ---------------------------------------------------------------------------
# surrogates


def test_surrogate_coverage_at_threshold_is_half():
    labeled, h, g = single_class_instance([0.4, 0.4, 0.4], [True, True, True])
    for alpha in (0.5, 1.0, 20.0):
        cov, _ = surrogate_metrics(g, uniform_thresholds(0.4), h, labeled, alpha)
        assert cov == pytest.approx(0.5)


def test_surrogate_coverage_sharp_alpha_saturates():
    labeled, h, g = single_class_instance([0.51, 0.6, 0.9], [True] * 3)
    v, _ = surrogate_metrics(g, uniform_thresholds(0.5), h, labeled, alpha=1e4)
    assert v >= 1.0 - np.exp(-100)


def test_surrogate_tracks_empirical_within_exponential_bound():
    rng = np.random.default_rng(8)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        tops = rng.uniform(0, 1, size=n)
        t = float(rng.uniform(0.2, 0.8))
        delta = 0.05
        tops = np.where(np.abs(tops - t) < delta,
                        t + delta * np.sign(tops - t + 1e-12), tops)
        tops = np.clip(tops, 0, 1)
        keep = np.abs(tops - t) >= delta
        tops, n = tops[keep], int(keep.sum())
        if n == 0:
            continue
        labeled, h, g = single_class_instance(tops, rng.uniform(size=n) < 0.5)
        alpha = float(rng.choice([50.0, 100.0, 500.0]))
        sur, _ = surrogate_metrics(g, uniform_thresholds(t), h, labeled, alpha)
        emp, _ = metrics_on(g, uniform_thresholds(t), h, labeled)
        assert abs(sur - emp) <= np.exp(-alpha * delta) + 1e-12


def test_surrogate_error_corners():
    t = uniform_thresholds(0.5)
    ok, h1, g1 = single_class_instance([0.9, 0.7], [True, True])
    assert surrogate_metrics(g1, t, h1, ok, alpha=5.0)[1] == 0.0
    bad, h2, g2 = single_class_instance([0.9, 0.7], [False, False])
    assert surrogate_metrics(g2, t, h2, bad, alpha=5.0)[1] >= 1.0 - 1e-6
    half, h3, g3 = single_class_instance([0.8, 0.8], [True, False])
    assert surrogate_metrics(g3, t, h3, half, alpha=5.0)[1] == pytest.approx(
        0.5, abs=1e-6)


def test_surrogate_error_components_near_indicators():
    labeled, h, g = single_class_instance([0.9, 0.8, 0.3, 0.2],
                                          [True, False, True, False])
    alpha, t, delta = 200.0, 0.5, 0.3
    top = np.array([0.9, 0.8, 0.3, 0.2])
    u = sigmoid(alpha, top - t)
    assert abs(u.sum() - 2.0) <= 4 * np.exp(-alpha * delta)
    assert abs((u * np.array([0, 1, 0, 1])).sum() - 1.0) \
        <= 4 * np.exp(-alpha * delta)


def test_surrogates_reject_empty():
    labeled, h, g = single_class_instance([0.9], [True])
    empty = labeled.take([])
    with pytest.raises(ValueError):
        surrogate_metrics(g, uniform_thresholds(0.5), h, empty, alpha=1.0)


# ---------------------------------------------------------------------------
# confidence net


def test_confidence_net_zero_weights_uniform(blob_model, blobs):
    p = 4 + blob_model.weights[-1].shape[0]
    net = ConfidenceNet(np.zeros((p, 2 * p)), np.zeros((2 * p, 4)),
                        np.zeros(4))
    s = net.scores(*blob_model.representations(blobs.features[:10]))
    assert np.allclose(s, 0.25)


def test_confidence_net_shape_validation(blob_model):
    p = 4 + blob_model.weights[-1].shape[0]
    good = init_confidence_net(4, blob_model.weights[-1].shape[0], 0)
    ConfidenceNet(good.W1, good.W2, good.t_raw)
    with pytest.raises(ValueError):
        ConfidenceNet(np.zeros((p + 1, 2 * p)), good.W2, good.t_raw)
    with pytest.raises(ValueError):
        ConfidenceNet(good.W1, np.zeros((2 * p, 5)), good.t_raw)
    with pytest.raises(ValueError):
        ConfidenceNet(good.W1, good.W2, np.zeros(5))
    with pytest.raises(ValueError):
        ConfidenceNet(good.W1, good.W2, np.zeros((4, 1)))


def test_confidence_net_scores_concatenate_representations(blob_model, blobs):
    net = init_confidence_net(4, blob_model.weights[-1].shape[0], 0)
    z1, z2 = blob_model.representations(blobs.features[:7])
    Z = np.concatenate([z1, z2], axis=1)
    assert Z.shape == (7, 4 + blob_model.weights[-1].shape[0])
    want = al.softmax(np.tanh(Z @ net.W1) @ net.W2)
    assert np.array_equal(net.scores(z1, z2), want)


def net_row_count(p: int, count: str) -> int:
    c = NET_CHUNK_FLOATS // (2 * p)
    return {"1": 1, "c-1": c - 1, "c": c, "c+1": c + 1, "2c-1": 2 * c - 1,
            "2c": 2 * c, "2c+1": 2 * c + 1, "30000": 30000}[count]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", ["1", "c-1", "c", "c+1", "2c-1", "2c",
                                   "2c+1", "30000"])
@pytest.mark.parametrize("d2", [8, 64, 128, 200])
@pytest.mark.parametrize("k", [2, 4, 10, 13])
def test_chunked_net_scores_equal_the_whole_set_expression(k, d2, count,
                                                           dtype):
    # the chunked pass must give every row the bits and the dtype of
    # softmax(tanh(Z @ W1) @ W2) over the whole set, at row counts on each
    # side of one and two chunks; compared by digest, as the sets are large
    n = net_row_count(k + d2, count)
    net = init_confidence_net(k, d2, seed=k * d2)
    rng = np.random.default_rng(n)
    logits = (3.0 * rng.standard_normal((n, k))).astype(dtype)
    penultimate = np.tanh(rng.standard_normal((n, d2))).astype(dtype)
    got = net.scores(logits, penultimate)
    want = net_scores(net, logits, penultimate)
    assert got.dtype == want.dtype == np.result_type(dtype, np.float32)
    assert got.shape == want.shape == (n, k)
    assert hashlib.sha256(got).digest() == hashlib.sha256(want).digest()


def test_net_scores_over_30000_rows_peak_below_10_mb():
    # the whole-set expression allocates 82.8 MB at this shape; the chunked
    # pass holds a chunk's rows and hidden activations of at most two
    # chunks (5.6 MB) and the (n, k) products and softmax (2.4 MB)
    net = init_confidence_net(10, 128, seed=0)
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((30000, 10), dtype=np.float32)
    penultimate = np.tanh(rng.standard_normal((30000, 128), dtype=np.float32))
    tracemalloc.start()
    try:
        net.scores(logits, penultimate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_confidence_net_config_validation():
    ConfidenceNetConfig()
    for bad in (dict(lam=0.0), dict(alpha=-1.0), dict(learning_rate=0.0),
                dict(batch_size=0), dict(weight_decay=-0.1),
                dict(denom_epsilon=0.0)):
        with pytest.raises(ValueError):
            ConfidenceNetConfig(**bad)


@pytest.mark.parametrize("field, value", [
    ("lam", float("nan")), ("lam", float("inf")), ("alpha", float("inf")),
    ("alpha", float("nan")), ("learning_rate", float("nan")),
    ("weight_decay", float("inf")), ("denom_epsilon", float("nan")),
    ("batch_size", 2.5), ("max_epochs", 2.5),
    ("max_epochs", True), ("lam", True),
])
def test_confidence_net_config_rejects_non_finite_and_non_integer_fields(
        field, value):
    with pytest.raises(ValueError, match=field):
        ConfidenceNetConfig(**{field: value})


@pytest.mark.parametrize("seed", [1.0, True])
def test_fit_confidence_net_rejects_a_seed_that_is_not_an_integer(
        blob_model, blobs, seed):
    labels = label_everything(blobs).labels
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        ConfidenceNetConfig(max_epochs=1).fit(
            *blob_model.representations(blobs.features), labels, seed)


def test_objective_grad_writes_the_same_bits_into_out():
    # float32 as in the fit: out holds views of one flat buffer, as there,
    # and the scratch has more rows than the batch, as for a short last one;
    # both are reused for a second batch, as over a fit's steps, and give
    # the bits of fresh scratch
    rng = np.random.default_rng(22)
    for k, d2, m in ((2, 3, 1), (3, 5, 17), (10, 8, 64)):
        params = init_confidence_net(k, d2, seed=m)
        params.t_raw[:] = rng.normal(0, 0.8, size=k)
        flat = np.empty(params.W1.size + params.W2.size + k, np.float32)
        out = ConfidenceNet(*_flat_views(
            flat, (params.W1.shape, params.W2.shape, (k,))))
        width = 2 * (k + d2)
        work = (np.empty((m + 3, width), np.float32),
                np.empty((m + 3, width), np.float32))
        for step in range(2):
            Z = rng.normal(0, 1.0, size=(m, k + d2)).astype(np.float32)
            yhat = rng.integers(0, k, size=m)
            wrong = rng.uniform(size=m) < 0.4
            args = (Z, yhat, wrong, 10.0, 4.0, 1e-8)
            before = [a.copy()
                      for a in (Z, params.W1, params.W2, params.t_raw)]
            want = objective_grad(params, *args,
                                  *objective_scratch(params, Z))
            got = objective_grad(params, *args, out=out, work=work)
            assert got is out
            for name in ("W1", "W2", "t_raw"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype == np.float32
                assert np.array_equal(a, b), (k, d2, m, step, name)
            for a, b in zip((Z, params.W1, params.W2, params.t_raw), before):
                assert np.array_equal(a, b)


def test_objective_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    checked = 0
    while checked < 100:
        k = int(rng.integers(2, 4))
        d2 = int(rng.integers(2, 9))
        m = int(rng.integers(2, 33))
        p = k + d2
        params = ConfidenceNet(
            rng.normal(0, 0.6, size=(p, 2 * p)),
            rng.normal(0, 0.6, size=(2 * p, k)),
            rng.normal(0, 0.8, size=k))
        Z = rng.normal(0, 1.0, size=(m, p))
        yhat = rng.integers(0, k, size=m)
        wrong = rng.uniform(size=m) < 0.4
        lam = float(rng.choice([1.0, 10.0, 100.0]))
        alpha = float(rng.choice([0.1, 1.0, 4.0]))
        args = (Z, yhat, wrong, lam, alpha, 1e-8)
        g = objective_grad(params, *args, *objective_scratch(params, Z))

        def repack(flat):
            a = p * 2 * p
            b = a + 2 * p * k
            return ConfidenceNet(flat[:a].reshape(p, 2 * p),
                                 flat[a:b].reshape(2 * p, k),
                                 flat[b:])

        flat = np.concatenate([params.W1.ravel(), params.W2.ravel(),
                               params.t_raw])
        numeric = central_difference(
            lambda v: objective_value(repack(v), *args), flat.copy())
        analytic = np.concatenate([g.W1.ravel(), g.W2.ravel(), g.t_raw])
        assert relative_error(analytic, numeric) <= 1e-4
        checked += 1


def test_fit_confidence_net_on_perfect_classifier():
    ds, cal, h = mixture_1d([[-10.0], [10.0]], 80, seed=2, train_seed=3,
                            epochs=50)
    assert np.mean(np.argmax(h.representations(ds.features)[0], axis=1)
                   == ds.hidden_labels) == 1.0
    cfg = ConfidenceNetConfig(lam=100.0, alpha=1.0, batch_size=128,
                              max_epochs=200)
    before = [w.copy() for w in h.weights] + [b.copy() for b in h.biases]
    net, _ = cfg.fit(*h.representations(cal.features), cal.labels, 7)
    after = list(h.weights) + list(h.biases)
    for a, b in zip(before, after):
        assert np.array_equal(a, b)  # classifier frozen
    t_prime = al.ThresholdVector(sigmoid(1.0, net.t_raw))
    cov1, err1 = surrogate_metrics(net, t_prime, h, cal, cfg.alpha)
    assert err1 == 0.0
    init = init_confidence_net(2, h.weights[-1].shape[0], 7)
    cov0, _ = surrogate_metrics(init, uniform_thresholds(0.5), h, cal,
                                cfg.alpha)
    assert cov1 > cov0


def test_fit_confidence_net_deterministic():
    ds, cal, h = mixture_1d([[-1.0], [1.0]], 60, seed=4, train_seed=5)
    cfg = ConfidenceNetConfig(max_epochs=40)
    n1, _ = cfg.fit(*h.representations(cal.features), cal.labels, 9)
    n2, _ = cfg.fit(*h.representations(cal.features), cal.labels, 9)
    assert np.array_equal(n1.W1, n2.W1)
    assert np.array_equal(n1.W2, n2.W2)
    assert np.array_equal(n1.t_raw, n2.t_raw)
    # the fitted net owns its arrays; none is a view of the optimizer buffer
    p = 2 + 8
    params = [n1.W1, n1.W2, n1.t_raw]
    for a, shape in zip(params, [(p, 2 * p), (2 * p, 2), (2,)]):
        assert a.shape == shape and a.dtype == np.float32
        assert a.flags.c_contiguous and a.flags.owndata
    others = [n2.W1, n2.W2, n2.t_raw]
    for a, b in itertools.combinations(params + others, 2):
        assert not np.shares_memory(a, b)


def test_fit_confidence_net_beats_softmax_sweep_on_overlap():
    # overlapping classes: the learned scorer should cover at least as much
    # as the best raw-softmax threshold does at the same achieved error
    ds, cal, h = mixture_1d([[-1.0], [1.0]], 200, seed=5, train_seed=1)
    net, _ = ConfidenceNetConfig(lam=100.0, alpha=1.0).fit(
        *h.representations(cal.features), cal.labels, 3)
    tv = al.ThresholdVector(sigmoid(1.0, net.t_raw))
    cov_f, err_f = metrics_on(net, tv, h, cal)
    err_cap = 0.0 if err_f is None else err_f
    sm = TemperatureConfidence(1.0)
    tops, _ = scored(sm, h, ds.features)
    best = 0.0
    for tau in np.concatenate([[0.0], np.unique(tops)]):
        cov, err = metrics_on(sm, uniform_thresholds(float(tau)), h, cal)
        if (0.0 if err is None else err) <= err_cap + 1e-12 and cov > best:
            best = cov
    assert cov_f >= best - 0.05


def test_fit_confidence_net_empty_cal(blob_model, blobs):
    with pytest.raises(ValueError):
        ConfidenceNetConfig().fit(
            *blob_model.representations(blobs.features[:0]),
            np.zeros(0, np.int64), 0)


# ---------------------------------------------------------------------------
# score dump


def test_write_score_dump_roundtrip(tmp_path, blob_model, blobs):
    cal = label_everything(blobs).take(range(25))
    g = TemperatureConfidence(1.0)
    out = tmp_path / "scores.csv"
    write_score_dump(str(out), cal, *scored(g, blob_model, cal.features))
    with open(out, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["point_id", "true_label", "predicted_label",
                       "score_of_predicted", "correct_flag"]
    assert len(rows) == 26
    preds = np.argmax(blob_model.representations(cal.features)[0], axis=1)
    scores = g.scores(*blob_model.representations(cal.features))
    for i, row in enumerate(rows[1:]):
        assert int(row[0]) == cal.indices[i]
        assert int(row[1]) == cal.labels[i]
        assert int(row[2]) == preds[i]
        assert float(row[3]) == scores[i, preds[i]]  # repr round-trips exactly
        assert int(row[4]) == int(cal.labels[i] == preds[i])


class ScoresAs:
    """Confidence stub returning fixed (n, k) scores in their own dtype."""

    def __init__(self, scores):
        self._scores = scores

    def scores(self, logits, penultimate):
        return self._scores[np.asarray(penultimate[:, 0], dtype=np.int64)]


def csv_writer_dump(labeled, preds, top) -> bytes:
    """The score dump as a row-by-row ``csv.writer`` writes it."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["point_id", "true_label", "predicted_label",
                "score_of_predicted", "correct_flag"])
    for pid, lab, pred, sc in zip(labeled.indices, labeled.labels, preds,
                                  top):
        w.writerow([int(pid), int(lab), int(pred), repr(float(sc)),
                    int(lab == pred)])
    return buf.getvalue().encode()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_write_score_dump_bytes_equal_csv_writer(tmp_path, dtype):
    rng = np.random.default_rng(17)
    n, k = 600, 3
    preds = rng.integers(0, k, size=n)
    scores = rng.uniform(0, 1, size=(n, k)).astype(dtype)
    specials = [0.0, 1.0, 0.1, 1e-7, 5e-324, np.nan, np.inf, 123456789.0]
    scores[:len(specials), :] = np.array(specials, dtype=dtype)[:, None]
    # a shuffled subset, so point ids differ from row positions
    labeled = indexed_set(rng.integers(0, k, size=n), k).take(
        rng.permutation(n)[:500])
    h = FixedModel(preds)
    out = tmp_path / "scores.csv"
    top, got_preds = scored(ScoresAs(scores), h, labeled.features)
    write_score_dump(str(out), labeled, top, got_preds)
    assert top.dtype == dtype
    assert out.read_bytes() == csv_writer_dump(labeled, got_preds, top)
