import dataclasses
import json

import numpy as np
import pytest

import autolabel as al
from autolabel.confidence import ConfidenceNetConfig, TopLabelBinningConfig
from autolabel.loop import dump_report, dump_round_log, fit_round, train_round
from autolabel.rng import child_seed

from conftest import (
    CROSS_MEANS,
    FixedModel,
    FixedScores,
    indexed_set,
    label_everything,
    metrics_on,
    scored,
    uniform_thresholds,
    whole_pool,
)
from oracles import thresholds_from_jsonable


def overlapping_world(n_pool=300, n_val=120, sigma=2.2, seed=3):
    ds = al.synth_gaussian_mixture(4, 2, CROSS_MEANS, sigma, n_pool + n_val,
                                   seed)
    pool_rows, val_rows = al.carve(ds.n, [n_pool, n_val], seed=seed + 1)
    return al.Pool(ds, pool_rows), al.LabeledSet.from_oracle(ds, val_rows)


def first_of(pool, m):
    """Human labels for the first ``m`` rows of ``pool``."""
    return al.LabeledSet.from_oracle(pool.dataset, pool.active[:m])


THRESHOLD_FIELDS = {f.name for f in dataclasses.fields(al.ThresholdConfig)}

# the run seed of the tests that do not vary it
SEED = 5


def base_config(**kw):
    """A small TbalConfig; the ThresholdConfig fields among ``kw`` build its
    ``thresholds``."""
    thresholds = {k: kw.pop(k) for k in list(kw) if k in THRESHOLD_FIELDS}
    defaults = dict(train_budget=60, seed_size=30, query_batch=15,
                    thresholds=al.ThresholdConfig(**thresholds),
                    train=al.TrainConfig(max_epochs=15))
    defaults.update(kw)
    return al.TbalConfig(**defaults)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(seed_size=100)         # exceeds budget
    with pytest.raises(ValueError):
        base_config(seed_size=0)
    with pytest.raises(ValueError):
        base_config(query_batch=0)
    with pytest.raises(ValueError):
        base_config(eps_a=1.5)
    with pytest.raises(ValueError):
        base_config(cal_fraction=1.0)
    with pytest.raises(ValueError):
        base_config(active_multiplier=0.5)
    with pytest.raises(ValueError):
        base_config(posthoc="platt")
    with pytest.raises(ValueError):
        base_config(posthoc=None)
    with pytest.raises(ValueError):
        base_config(hidden=(0,))
    with pytest.raises(ValueError):
        base_config(hidden=(16, -3))
    # the config's class names the method
    assert base_config().posthoc == al.SoftmaxConfig()
    base_config(posthoc=al.TemperatureConfig())
    base_config(posthoc=TopLabelBinningConfig())
    base_config(posthoc=ConfidenceNetConfig())


@pytest.mark.parametrize("field, value", [
    ("c1", float("nan")), ("c1", float("inf")),
    ("active_multiplier", float("inf")), ("active_multiplier", float("nan")),
    ("eps_a", float("nan")), ("coverage_floor", float("nan")),
    ("train_budget", 60.0), ("seed_size", 2.5), ("query_batch", 15.5),
    ("cal_fraction", float("nan")), ("hidden", (8.5,)),
    ("seed_size", True), ("query_batch", True), ("hidden", (True,)),
    ("active_multiplier", True), ("train_budget", True),
])
def test_config_rejects_non_finite_and_non_integer_fields(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        base_config(**{field: value})


@pytest.mark.parametrize("seed", [5.5, False])
def test_run_tbal_rejects_a_seed_that_is_not_an_integer(seed):
    pool, val = overlapping_world(n_pool=60, n_val=20)
    with pytest.raises(ValueError, match=r"^seed must be an integer"):
        al.run_tbal(base_config(), pool, val, seed)


# ---------------------------------------------------------------------------
# round pieces on stubs


def piece_fixture():
    labeled = indexed_set([0, 0, 1, 1, 0], 2)
    preds = [0, 1, 1, 0, 0]
    tops = [0.9, 0.6, 0.8, 0.3, 0.5]
    scores = np.zeros((5, 2))
    scores[np.arange(5), preds] = tops
    return labeled, whole_pool(labeled.dataset), FixedModel(preds), \
        FixedScores(scores), np.array(tops), np.array(preds)


def test_auto_label_select_sentinels():
    labeled, pool, h, g, tops, preds = piece_fixture()
    nothing, pool2, _ = al.auto_label_select(
        uniform_thresholds(np.inf), pool, *scored(g, h, pool.features))
    assert len(nothing) == 0
    assert np.array_equal(pool2.active, pool.active)
    everything, pool3, _ = al.auto_label_select(
        al.ThresholdVector(np.zeros(2)), pool, *scored(g, h, pool.features))
    assert len(everything) == 5
    assert pool3.size == 0
    assert np.array_equal(everything.labels, preds)


def test_auto_label_select_matches_coverage():
    labeled, pool, h, g, tops, preds = piece_fixture()
    tv = al.ThresholdVector(np.array([0.5, 0.7]))
    chosen, pool2, left = al.auto_label_select(
        tv, pool, *scored(g, h, pool.features))
    cov, _ = metrics_on(g, tv, h, labeled)
    assert len(chosen) == int(round(cov * 5))
    assert pool2.size == 5 - len(chosen)
    sel = tops >= tv.values[preds]
    assert np.array_equal(chosen.indices, np.flatnonzero(sel))
    # the mask of rows left lines the selection's pass up with the pool left
    assert np.array_equal(pool.active[left], pool2.active)


def test_filter_validation_partition():
    labeled, pool, h, g, tops, preds = piece_fixture()
    tv = al.ThresholdVector(np.array([0.5, 0.7]))
    got_top, got_preds = scored(g, h, labeled.features)
    kept = al.filter_validation(tv, labeled, got_top, got_preds)
    dropped = tops >= tv.values[preds]
    assert np.array_equal(np.sort(kept.indices), np.flatnonzero(~dropped))
    # labels of kept points are the original true labels
    assert np.array_equal(kept.labels, labeled.labels[~dropped])
    untouched = al.filter_validation(uniform_thresholds(np.inf),
                                     labeled, got_top, got_preds)
    assert np.array_equal(untouched.indices, labeled.indices)
    emptied = al.filter_validation(al.ThresholdVector(np.zeros(2)), labeled,
                                   got_top, got_preds)
    assert len(emptied) == 0


# ---------------------------------------------------------------------------
# active query


def margins_to_logits(margins):
    m = np.asarray(margins, dtype=np.float64)
    a = np.log((1 + m) / (1 - m))
    return np.stack([a, np.zeros_like(a)], axis=1)


def test_active_query_candidate_set():
    margins = [0.9, 0.1, 0.8, 0.2, 0.05, 0.7]
    labeled = indexed_set([0] * 6, 2)
    logits = margins_to_logits(margins)
    allowed = {4, 1, 3, 5}  # indices of the four smallest margins
    for seed in range(30):
        chosen, pool2 = al.active_query(
            logits, whole_pool(labeled.dataset), 2, 2.0, seed)
        assert len(chosen) == 2
        assert set(chosen.indices) <= allowed
        assert pool2.size == 4
    # every pair drawn over seeds stays inside the candidate set, and the
    # randomization actually varies the picks
    picks = {tuple(al.active_query(logits, whole_pool(labeled.dataset), 2,
                                   2.0, s)[0].indices) for s in range(30)}
    assert len(picks) > 1


def test_active_query_small_pool_clamps():
    margins = [0.5, 0.4, 0.3]
    labeled = indexed_set([0] * 3, 2)
    logits = margins_to_logits(margins)
    chosen, pool2 = al.active_query(logits, whole_pool(labeled.dataset), 5,
                                    2.0, 0)
    assert len(chosen) == 3
    assert pool2.size == 0


def test_active_query_determinism_and_empty_pool():
    margins = [0.5, 0.4, 0.3, 0.2]
    labeled = indexed_set([0] * 4, 2)
    logits = margins_to_logits(margins)
    pool = whole_pool(labeled.dataset)
    a, _ = al.active_query(logits, pool, 2, 2.0, 9)
    b, _ = al.active_query(logits, pool, 2, 2.0, 9)
    assert np.array_equal(a.indices, b.indices)
    empty = whole_pool(labeled.dataset).without(np.arange(4))
    with pytest.raises(ValueError):
        al.active_query(logits[:0], empty, 1, 2.0, 0)


def test_active_query_uses_raw_softmax_margins():
    # oracle: re-derive the candidate set from the stub's own probabilities
    rng = np.random.default_rng(0)
    margins = rng.uniform(0.01, 0.99, size=20)
    labeled = indexed_set([0] * 20, 2)
    logits = margins_to_logits(margins)
    want = set(np.argsort(margins, kind="stable")[:8])
    chosen, _ = al.active_query(logits, whole_pool(labeled.dataset), 4, 2.0,
                                3)
    assert set(chosen.indices) <= want


# ---------------------------------------------------------------------------
# train_round + fit_round


def test_fit_round_zero_tolerance_thresholds_have_zero_group_error():
    pool, val = overlapping_world()
    cfg = base_config(eps_a=0.0, c1=0.0, coverage_floor=0.01)
    model = train_round(cfg, first_of(pool, 40), 1, SEED)
    fit = fit_round(cfg, model, val, 1, SEED)
    th = fit.th
    d_th = val.take(th)
    tops, preds = fit.top[th], fit.preds[th]
    wrong = d_th.labels != preds
    for y in range(4):
        t = fit.thresholds.values[y]
        if not np.isfinite(t):
            continue
        sel = (preds == y) & (tops >= t)
        assert sel.sum() >= 1
        assert wrong[sel].sum() == 0


@pytest.mark.parametrize("method", tuple(al.confidence.POSTHOC_CONFIGS))
def test_round_runs_the_classifier_once_per_set(monkeypatch, method):
    pool, val = overlapping_world()
    cfg = base_config(posthoc=al.confidence.POSTHOC_CONFIGS[method]())
    calls = []
    original = al.MlpClassifier.representations

    def counted(self, X, rows=None):
        calls.append(np.array(X if rows is None else X[rows], copy=True))
        return original(self, X, rows)

    def same(a, b):
        return a.shape == b.shape and np.array_equal(a, b)

    monkeypatch.setattr(al.MlpClassifier, "representations", counted)
    report = al.run_tbal(cfg, pool, val, SEED)
    assert len(report.rounds) >= 2
    assert any(rec.n_auto for rec in report.rounds)
    # the passes come in round order: validation, then pool, nothing else
    assert len(calls) == 2 * len(report.rounds)
    out, stamps = report.output, report.output_rounds
    for i, rec in enumerate(report.rounds, start=1):
        round_val = rec.fit.val
        pool_rows = np.setdiff1d(pool.active, out.indices[stamps < i])
        auto = out.indices[(stamps == i) & (report.output_sources == "auto")]
        cal, th = al.random_split(len(round_val), cfg.cal_fraction,
                                  child_seed(SEED, i, "split"))
        assert np.array_equal(rec.fit.cal, cal)
        assert np.array_equal(rec.fit.th, th)
        logged = rec.to_jsonable()
        assert (logged["n_cal"], logged["n_th"]) == (len(cal), len(th))
        assert same(calls[2 * i - 2], round_val.features)
        assert same(calls[2 * i - 1], pool.dataset.features[pool_rows])
        unrun = [round_val.take(cal).features, round_val.take(th).features]
        if len(auto):  # with nothing auto-labeled the pool left is the pool
            unrun.append(
                pool.dataset.features[np.setdiff1d(pool_rows, auto)])
        for rows in unrun:
            assert not any(same(c, rows) for c in calls)


def test_a_run_copies_no_pool_or_validation_features(monkeypatch):
    # the passes read their rows from the dataset: the pool's features are
    # never gathered, and the only labeled sets gathered are training sets
    pool, val = overlapping_world()
    cfg = base_config()
    assert len(val) > cfg.train_budget
    read = []
    original = al.LabeledSet.features

    def refused(self):
        raise AssertionError("Pool.features was read")

    def recorded(self):
        read.append(len(self))
        return original.fget(self)

    monkeypatch.setattr(al.Pool, "features", property(refused))
    monkeypatch.setattr(al.LabeledSet, "features", property(recorded))
    report = al.run_tbal(cfg, pool, val, SEED)
    assert len(report.rounds) >= 2
    assert read and max(read) <= cfg.train_budget


def test_fit_round_deterministic():
    pool, val = overlapping_world()
    cfg = base_config()
    seed_set = first_of(pool, 30)
    m1, m2 = (train_round(cfg, seed_set, 1, SEED) for _ in range(2))
    f1, f2 = fit_round(cfg, m1, val, 1, SEED), fit_round(cfg, m2, val, 1, SEED)
    assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))
    assert np.array_equal(f1.thresholds.values, f2.thresholds.values)
    assert np.array_equal(f1.cal, f2.cal)
    assert np.array_equal(f1.th, f2.th)


def test_fit_round_derives_each_seed_from_the_run_seed():
    # round i trains, splits and fits the post-hoc net on the run seed's
    # children for (i, purpose), and on nothing else
    pool, val = overlapping_world()
    cfg = base_config(posthoc=ConfidenceNetConfig(max_epochs=5))
    d_train = first_of(pool, 30)
    seed, i = 8, 2
    model = train_round(cfg, d_train, i, seed)
    fit = fit_round(cfg, model, val, i, seed)
    g, cal, th = fit.g, fit.cal, fit.th
    want = al.train_model(cfg.train, d_train, cfg.hidden,
                          child_seed(seed, i, "train"))
    for a, b in zip(model.weights + model.biases, want.weights + want.biases):
        assert a.tobytes() == b.tobytes()
    want_cal, want_th = al.random_split(len(val), cfg.cal_fraction,
                                        child_seed(seed, i, "split"))
    assert np.array_equal(cal, want_cal) and np.array_equal(th, want_th)
    logits, penultimate = want.representations(val.features)
    net, _ = cfg.posthoc.fit(logits[cal], penultimate[cal], val.labels[cal],
                             child_seed(seed, i, "posthoc"))
    for name in ("W1", "W2", "t_raw"):
        assert (getattr(g, name).tobytes()
                == getattr(net, name).tobytes())


# ---------------------------------------------------------------------------
# the full loop


def test_run_preconditions():
    pool, val = overlapping_world(n_pool=20, n_val=10)
    with pytest.raises(ValueError):
        al.run_tbal(base_config(train_budget=60, seed_size=30), pool,
                    val.take([0]), SEED)
    with pytest.raises(ValueError):
        al.run_tbal(base_config(train_budget=60, seed_size=30), pool, val,
                    SEED)


def test_seed_query_taking_the_whole_pool_warns():
    # a seed set as large as the pool leaves nothing to auto-label: the run
    # makes no round, and says so
    pool, val = overlapping_world(n_pool=20, n_val=10)
    report = al.run_tbal(base_config(train_budget=60, seed_size=20), pool,
                         val, SEED)
    assert report.rounds == []
    assert report.warnings == [
        "round 1: the seed query took the whole pool; no round ran"]
    assert report.final_coverage == 0.0 and report.final_error is None
    assert len(report.output) == 20


def test_single_round_on_separable_world():
    means = np.array([[-8.0, 0.0], [8.0, 0.0]])
    ds = al.synth_gaussian_mixture(2, 2, means, 0.5, 260, seed=7)
    pool_rows, val_rows = al.carve(ds.n, [200, 60], seed=8)
    cfg = al.TbalConfig(train_budget=40, seed_size=40, query_batch=10,
                        train=al.TrainConfig(max_epochs=30, learning_rate=0.05))
    report = al.run_tbal(cfg, al.Pool(ds, pool_rows),
                         al.LabeledSet.from_oracle(ds, val_rows), 1)
    assert len(report.rounds) == 1
    # the budget is spent on the seed set: the round buys nothing
    assert report.rounds[0].n_queried == 0
    assert report.final_error == 0.0
    assert report.final_coverage >= 0.7
    # auto labels agree with the hidden truth, point by point
    auto = report.output_sources == "auto"
    truth = ds.hidden_labels[report.output.indices[auto]]
    assert np.array_equal(report.output.labels[auto], truth)


def test_loop_accounting_and_budget():
    pool, val = overlapping_world()
    cfg = base_config(train_budget=70, seed_size=30, query_batch=15)
    report = al.run_tbal(cfg, pool, val, SEED)
    seen_vals = [set(rec.fit.val.indices.tolist()) for rec in report.rounds]
    assert len(report.rounds) >= 2
    # pool deltas chain exactly, and each round logs the size it trained on
    remaining = pool.size - cfg.seed_size
    n_train = cfg.seed_size
    for rec in report.rounds:
        remaining = remaining - rec.n_auto - rec.n_queried
        assert rec.n_pool_remaining == remaining
        assert rec.n_train == n_train
        n_train += rec.n_queried
    # output holds every labeled point exactly once
    out = report.output
    assert len(np.unique(out.indices)) == len(out)
    n_auto = int((report.output_sources == "auto").sum())
    n_human = int((report.output_sources == "human").sum())
    assert n_auto == sum(r.n_auto for r in report.rounds)
    assert n_human == cfg.seed_size + sum(r.n_queried for r in report.rounds)
    # every human label is trained on, within the budget; the last round
    # buys nothing, since no round would train on it
    assert n_human - sum(r.n_queried for r in report.rounds) == cfg.seed_size
    assert cfg.seed_size + sum(r.n_queried for r in report.rounds) \
        <= cfg.train_budget
    assert report.rounds[-1].n_queried == 0
    # validation only ever shrinks, as a set
    for earlier, later in zip(seen_vals, seen_vals[1:]):
        assert later <= earlier
    # coverage consistent with the output
    assert report.final_coverage == pytest.approx(n_auto / pool.size)


def test_final_error_is_the_auto_label_mismatch_rate():
    # a loose tolerance on overlapping data lets wrong auto-labels through;
    # the report's error must be their mismatch rate against the hidden
    # labels, looked up by point id
    pool, val = overlapping_world()
    report = al.run_tbal(base_config(eps_a=0.3), pool, val, SEED)
    out = report.output
    auto = report.output_sources == "auto"
    truth = pool.dataset.hidden_labels[out.indices[auto]]
    mistakes = int(np.sum(out.labels[auto] != truth))
    assert mistakes > 0
    assert report.final_error == mistakes / int(auto.sum())


def test_report_stamps_each_label_with_its_source_and_round():
    # the output lists the seed set, then each round's auto set and its
    # query, in labeling order; each entry's source and round say which
    pool, val = overlapping_world()
    cfg = base_config(eps_a=0.3, train_budget=75, seed_size=30,
                      query_batch=15)
    report = al.run_tbal(cfg, pool, val, SEED)
    assert len(report.rounds) >= 3
    assert any(rec.n_auto for rec in report.rounds)
    sources, stamps = report.output_sources, report.output_rounds
    assert sources.shape == stamps.shape == (len(report.output),)
    want_sources = ["human"] * cfg.seed_size
    want_stamps = [0] * cfg.seed_size
    for rec in report.rounds:
        want_sources += ["auto"] * rec.n_auto + ["human"] * rec.n_queried
        want_stamps += [rec.round_index] * (rec.n_auto + rec.n_queried)
    assert sources.tolist() == want_sources
    assert stamps.tolist() == want_stamps
    # every human entry carries the truth; the error is the auto entries'
    out = report.output
    truth = pool.dataset.hidden_labels[out.indices]
    human = sources == "human"
    assert np.array_equal(out.labels[human], truth[human])
    assert report.final_error == float(np.mean(out.labels[~human]
                                               != truth[~human]))
    assert report.final_coverage == (~human).sum() / pool.size


def test_loop_deterministic_reports():
    pool, val = overlapping_world()
    cfg = base_config(posthoc=al.TemperatureConfig())
    r1 = al.run_tbal(cfg, pool, val, 17)
    r2 = al.run_tbal(cfg, pool, val, 17)
    assert r1.to_jsonable() == r2.to_jsonable()


def test_seed_query_independent_of_posthoc_method():
    pool, val = overlapping_world()
    reports = {}
    for method in ("softmax", "temperature"):
        cfg = base_config(posthoc=al.confidence.POSTHOC_CONFIGS[method]())
        rep = al.run_tbal(cfg, pool, val, 23)
        seed_ids = rep.output.indices[(rep.output_sources == "human")
                                      & (rep.output_rounds == 0)]
        reports[method] = np.sort(seed_ids)
    assert np.array_equal(reports["softmax"], reports["temperature"])


def test_validation_exhaustion_stops_with_warning():
    rng = np.random.default_rng(0)
    left = rng.normal(-10.0, 0.5, size=(30, 1))
    right = rng.normal(10.0, 0.5, size=(30, 1))
    fuzzy = np.array([[0.01], [-0.02], [0.03], [-0.04]])
    X = np.vstack([left, right, fuzzy]).astype(np.float32)
    y = (X[:, 0] > 0).astype(np.int64)
    pool_ds = al.Dataset(X, y, 2)
    val_ds = al.Dataset(np.array([[-10.0], [10.0]], dtype=np.float32),
                        np.array([0, 1]), 2)
    cfg = al.TbalConfig(
        train_budget=50, seed_size=40, query_batch=1,
        thresholds=al.ThresholdConfig(eps_a=1.0, coverage_floor=0.01, c1=0.0,
                                      grid=np.array([0.9])),
        train=al.TrainConfig(max_epochs=40, learning_rate=0.05))
    report = al.run_tbal(cfg, whole_pool(pool_ds), label_everything(val_ds), 2)
    assert any("validation" in w for w in report.warnings)
    # the loop stopped early: unlabeled points remain
    assert report.rounds[-1].n_pool_remaining > 0
    assert len(report.output) < pool_ds.n


def test_a_small_calibration_set_bins_nothing_and_scores_raw_softmax():
    # 40 validation points split into 20 for calibration, fewer than one
    # bin's 25: the round scores with raw softmax and says so
    pool, val = overlapping_world(n_val=40)
    binned, raw = (al.run_tbal(base_config(train_budget=30, seed_size=30,
                                           posthoc=posthoc), pool, val, SEED)
                   for posthoc in (TopLabelBinningConfig(points_per_bin=25),
                                   al.SoftmaxConfig()))
    assert binned.warnings == [
        "round 1: calibration set (20) smaller than points_per_bin (25); "
        "using raw softmax this round"]
    assert len(binned.rounds) == len(raw.rounds) == 1
    assert binned.rounds[0].to_jsonable() == raw.rounds[0].to_jsonable()
    assert np.array_equal(binned.rounds[0].fit.top, raw.rounds[0].fit.top)

def test_all_infinite_round_still_queries():
    # demanding full-group coverage at a near-unit threshold is infeasible on
    # overlapping data, so every threshold comes out infinite; the loop must
    # keep buying labels rather than stall, until the budget is spent
    pool, val = overlapping_world(n_pool=80, n_val=40)
    cfg = base_config(train_budget=45, seed_size=15, query_batch=15,
                      coverage_floor=1.0, grid=np.array([0.999999]))
    report = al.run_tbal(cfg, pool, val, SEED)
    assert len(report.rounds) >= 2
    for rec in report.rounds:
        assert rec.n_auto == 0
        assert np.all(np.isinf(rec.fit.thresholds.values))
    for rec in report.rounds[:-1]:
        assert rec.n_queried > 0
    assert report.rounds[-1].n_queried == 0
    assert report.final_coverage == 0.0
    assert report.final_error is None


# ---------------------------------------------------------------------------
# serialization


def test_round_log_and_report_serialization(tmp_path):
    pool, val = overlapping_world()
    cfg = base_config()
    report = al.run_tbal(cfg, pool, val, SEED)
    log1 = tmp_path / "rounds1.jsonl"
    log2 = tmp_path / "rounds2.jsonl"
    dump_round_log(report, str(log1))
    dump_round_log(al.run_tbal(cfg, pool, val, SEED), str(log2))
    assert log1.read_bytes() == log2.read_bytes()
    lines = log1.read_text().splitlines()
    assert len(lines) == len(report.rounds)
    first = json.loads(lines[0])
    assert set(first) == {"round_index", "n_train", "n_val", "n_cal", "n_th",
                          "thresholds", "n_auto", "n_queried",
                          "n_pool_remaining", "auto_error", "auto_coverage"}
    assert "wall_time" not in log1.read_text()
    rep_path = tmp_path / "report.json"
    dump_report(report, str(rep_path))
    doc = json.loads(rep_path.read_text())
    assert doc["n_initial_pool"] == pool.size
    assert doc["n_rounds"] == len(report.rounds)
    assert len(doc["output"]["ids"]) == len(report.output)
    # infinite thresholds serialize as nulls and come back as inf
    tv = thresholds_from_jsonable(doc["rounds"][0]["thresholds"])
    assert tv.values.shape == (4,)


@pytest.mark.parametrize("kw", [{}, {"eps_a": 0.3, "c1": 0.0}])
def test_round_log_statistics_recount_from_the_output(kw):
    # each round's coverage is its auto-labels over the pool it started
    # with, and its error their mismatch rate against the hidden labels,
    # recounted from the output rows that round stamped "auto"
    pool, val = overlapping_world()
    cfg = base_config(**kw)
    report = al.run_tbal(cfg, pool, val, SEED)
    assert len(report.rounds) >= 3
    out = report.output
    truth = pool.dataset.hidden_labels[out.indices]
    pool_before = pool.size - cfg.seed_size
    for rec in report.rounds:
        assert rec.auto_coverage == rec.n_auto / pool_before
        assert round(rec.auto_coverage * pool_before) == rec.n_auto
        mine = (report.output_sources == "auto") & (
            report.output_rounds == rec.round_index)
        assert int(mine.sum()) == rec.n_auto
        if rec.n_auto:
            wrong = int(np.sum(out.labels[mine] != truth[mine]))
            assert rec.auto_error == wrong / rec.n_auto
        else:
            assert rec.auto_error is None
        pool_before -= rec.n_auto + rec.n_queried
        assert rec.n_pool_remaining == pool_before
    assert any(rec.auto_error for rec in report.rounds)
    if kw:
        assert any(rec.auto_error is None for rec in report.rounds)


def reference_dump_report(report, path):
    """The writer ``dump_report`` replaces, frozen: the whole document
    through json's indenting encoder."""
    with open(path, "w") as f:
        json.dump(report.to_jsonable(), f, sort_keys=True, indent=2)
        f.write("\n")


@pytest.fixture(scope="module")
def reports():
    pool, val = overlapping_world()
    run = al.run_tbal(base_config(), pool, val, SEED)
    assert len(run.rounds) >= 2
    empty = dict(output=al.LabeledSet.empty(pool.dataset),
                 output_sources=np.zeros(0, "<U5"),
                 output_rounds=np.zeros(0, np.int64))
    cases = {"run": run}
    cases["empty"] = al.TbalReport(
        rounds=[], **empty, n_initial_pool=pool.size, final_error=None,
        final_coverage=0.0, warnings=[])
    cases["warnings"] = al.TbalReport(
        rounds=run.rounds[:1], **empty, n_initial_pool=pool.size,
        final_error=None, final_coverage=0.0,
        warnings=['say "no"', "back\\slash \\n", "naïve — ü 漢", "two\nlines",
                  '\n  "output": {}', "tab\there"])
    # glyph scale: 30,000 labeled points stamped with rounds 0 to 5, their
    # ids scattered over ten times as many rows
    n = 30_000
    rng = np.random.default_rng(5)
    big = al.Dataset(np.zeros((10 * n, 1), np.float32),
                     rng.integers(0, 10, size=10 * n), 10)
    human = rng.random(n) < 0.05
    output = al.LabeledSet(
        big, rng.permutation(10 * n)[:n], rng.integers(0, 10, size=n))
    cases["glyph_scale"] = al.TbalReport(
        rounds=run.rounds, output=output,
        output_sources=np.where(human, "human", "auto"),
        output_rounds=rng.integers(0, 6, size=n), n_initial_pool=n,
        final_error=0.0625,
        final_coverage=0.95, warnings=["round 3: a warning"])
    return cases


@pytest.mark.parametrize("name", ["run", "empty", "warnings", "glyph_scale"])
def test_dump_report_matches_the_indenting_json_encoder(tmp_path, reports,
                                                        name):
    report = reports[name]
    got, want = tmp_path / "got.json", tmp_path / "want.json"
    dump_report(report, str(got))
    reference_dump_report(report, str(want))
    assert got.read_bytes() == want.read_bytes()


def test_report_output_lists_hold_python_ints_and_strs(reports):
    report = reports["run"]
    out = report.to_jsonable()["output"]
    for key, arr in (("ids", report.output.indices),
                     ("labels", report.output.labels),
                     ("rounds", report.output_rounds)):
        assert all(type(v) is int for v in out[key])
        assert out[key] == [int(v) for v in arr]
    assert all(type(v) is str for v in out["sources"])
    assert out["sources"] == [str(v) for v in report.output_sources]
