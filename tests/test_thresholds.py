import numpy as np
import pytest

import autolabel as al
from autolabel import thresholds
from autolabel.thresholds import _padded_error, select_class_threshold

from conftest import (
    FixedModel,
    FixedScores,
    indexed_set,
    metrics_on,
    single_class_instance,
    thresholds_on,
    uniform_thresholds,
)
from oracles import thresholds_from_jsonable


# ---------------------------------------------------------------------------
# ThresholdVector / ThresholdConfig


def test_threshold_vector_accepts_inf_rejects_out_of_range():
    tv = al.ThresholdVector(np.array([0.5, np.inf, 0.0, 1.0]))
    assert tv.values.shape == (4,)
    with pytest.raises(ValueError):
        al.ThresholdVector(np.array([-0.1, 0.5]))
    with pytest.raises(ValueError):
        al.ThresholdVector(np.array([0.5, 1.5]))
    # -inf would select every point of its class, and both log as null
    with pytest.raises(ValueError):
        al.ThresholdVector(np.array([-np.inf, 0.5]))
    with pytest.raises(ValueError):
        al.ThresholdVector(np.array([np.nan, 0.5]))
    with pytest.raises(ValueError):
        al.ThresholdVector(np.array([]))


def test_threshold_vector_per_point_and_json():
    tv = al.ThresholdVector(np.array([0.2, np.inf, 0.8]))
    # ties select; an +inf class selects nothing, not even a score of 1
    assert np.array_equal(
        tv.selects(np.array([0.8, 0.1, 0.79, 1.0, 0.2]),
                   np.array([2, 0, 2, 1, 0])),
        np.array([True, False, False, False, True]))
    as_json = tv.to_jsonable()
    assert as_json == [0.2, None, 0.8]
    back = thresholds_from_jsonable(as_json)
    assert np.array_equal(back.values, tv.values)


def test_threshold_config_validation():
    al.ThresholdConfig()  # defaults fine
    with pytest.raises(ValueError):
        al.ThresholdConfig(grid=np.array([0.5, 0.5, 0.6]))
    with pytest.raises(ValueError):
        al.ThresholdConfig(grid=np.array([0.9, 0.1]))
    with pytest.raises(ValueError):
        al.ThresholdConfig(grid=np.array([]))
    with pytest.raises(ValueError):
        al.ThresholdConfig(coverage_floor=0.0)
    with pytest.raises(ValueError):
        al.ThresholdConfig(c1=-0.1)
    with pytest.raises(ValueError):
        al.ThresholdConfig(eps_a=1.2)


@pytest.mark.parametrize("kw", [
    dict(grid=[0.1, float("nan"), 0.5]), dict(grid=[0.1, 0.5, float("nan")]),
    dict(grid=[float("nan")]), dict(grid=[0.1, float("inf")]),
    dict(c1=float("nan")), dict(c1=float("inf")),
    dict(eps_a=float("nan")), dict(coverage_floor=float("nan")),
])
def test_threshold_config_rejects_non_finite_values(kw):
    field = next(iter(kw))
    with pytest.raises(ValueError, match=field):
        al.ThresholdConfig(**kw)


def test_default_grid_shape():
    g = al.uniform_grid(200)
    assert g.shape == (200,)
    assert g[0] == pytest.approx(0.005)
    assert g[-1] == pytest.approx(1.0)
    assert np.all(np.diff(g) > 0)
    assert np.array_equal(al.uniform_grid(4), [0.25, 0.5, 0.75, 1.0])
    assert np.array_equal(al.ThresholdConfig().grid,
                          np.linspace(0.005, 1.0, 200))


# ---------------------------------------------------------------------------
# estimators


def test_coverage_extremes():
    labeled, h, g = single_class_instance([0.9, 0.8, 0.7, 0.4],
                                          [True, True, True, True])
    assert metrics_on(g, uniform_thresholds(0.0), h, labeled)[0] == 1.0
    assert metrics_on(g, uniform_thresholds(np.inf), h, labeled)[0] == 0.0


def test_coverage_hand_example():
    labeled, h, g = single_class_instance([0.9, 0.8, 0.7, 0.4],
                                          [True, True, True, True])
    assert metrics_on(g, uniform_thresholds(0.75), h,
                      labeled)[0] == pytest.approx(0.5)


def test_error_hand_example():
    labeled, h, g = single_class_instance([0.9, 0.8, 0.7, 0.4],
                                          [True, False, True, False])
    assert metrics_on(g, uniform_thresholds(0.75), h,
                      labeled)[1] == pytest.approx(0.5)
    assert metrics_on(g, uniform_thresholds(np.inf), h, labeled) == (0.0, None)
    all_good, h2, g2 = single_class_instance([0.9, 0.8], [True, True])
    assert metrics_on(g2, uniform_thresholds(0.5), h2, all_good) == (1.0, 0.0)


def test_estimators_reject_empty_set():
    labeled, h, g = single_class_instance([0.9], [True])
    empty = labeled.take([])
    with pytest.raises(ValueError):
        metrics_on(g, uniform_thresholds(0.5), h, empty)


def test_coverage_selection_is_inclusive_at_the_threshold():
    labeled, h, g = single_class_instance([0.75, 0.5], [True, True])
    assert metrics_on(g, uniform_thresholds(0.75), h,
                      labeled)[0] == pytest.approx(0.5)


def test_coverage_monotone_in_threshold():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        tops = rng.uniform(0, 1, size=n)
        labeled, h, g = single_class_instance(tops, rng.uniform(size=n) < 0.7)
        grid = np.sort(rng.uniform(0, 1, size=10))
        covs = [metrics_on(g, uniform_thresholds(t), h, labeled)[0]
                for t in grid]
        assert all(b <= a for a, b in zip(covs, covs[1:]))


def test_estimators_match_bruteforce_enumeration():
    rng = np.random.default_rng(44)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        k = int(rng.integers(2, 5))
        true = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        scores = rng.uniform(0, 1, size=(n, k))
        labeled = indexed_set(true, k)
        h, g = FixedModel(preds), FixedScores(scores)
        tvec = al.ThresholdVector(rng.uniform(0, 1, size=k))
        selected = [scores[i, preds[i]] >= tvec.values[preds[i]]
                    for i in range(n)]
        cov, got = metrics_on(g, tvec, h, labeled)
        assert cov == pytest.approx(sum(selected) / n)
        wrong_sel = [s and preds[i] != true[i] for i, s in enumerate(selected)]
        if sum(selected) == 0:
            assert got is None
        else:
            assert got == pytest.approx(sum(wrong_sel) / sum(selected))


def test_padded_error_closed_forms():
    wrong, m = np.array([0, 5, 20, 7]), np.array([10, 25, 100, 7])
    assert np.array_equal(_padded_error(wrong, m, 0.0), wrong / m)
    for c1 in (0.25, 1.0, 3.0):
        got = _padded_error(wrong, m, c1)
        # no mistakes or all mistakes: no spread, the estimate alone
        assert got[0] == 0.0 and got[3] == 1.0
        assert got[1] == pytest.approx(0.2 + c1 * 0.08)
        assert got[2] == pytest.approx(0.2 + c1 * 0.04)
        # elementwise: each entry is its own scalar call, bit for bit
        assert list(got) == [_padded_error(w, k, c1)
                             for w, k in zip(wrong, m)]


# ---------------------------------------------------------------------------
# threshold selection


def test_selection_worked_example():
    tops = [0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.55, 0.4, 0.3, 0.2]
    correct = [True, True, True, True, False, True, True, False, False, False]
    labeled, h, g = single_class_instance(tops, correct)
    cfg = al.ThresholdConfig(grid=np.array([0.0, 0.25, 0.5, 0.75]),
                             coverage_floor=0.2, c1=0.25, eps_a=0.1)
    t_hat = thresholds_on(g, h, labeled, cfg)
    assert t_hat.values[0] == pytest.approx(0.75)
    assert np.isinf(t_hat.values[1])  # no point is predicted as class 1


def test_selection_zero_error_takes_smallest_covering_threshold():
    tops = [0.9, 0.6, 0.3]
    labeled, h, g = single_class_instance(tops, [True, True, True])
    cfg = al.ThresholdConfig(grid=np.array([0.1, 0.5, 0.8]),
                             coverage_floor=0.05, c1=0.25, eps_a=0.05)
    t_hat = thresholds_on(g, h, labeled, cfg)
    assert t_hat.values[0] == pytest.approx(0.1)


def test_selection_empty_group_is_infinite():
    assert select_class_threshold(np.array([]), np.array([], dtype=bool),
                                  al.ThresholdConfig()) == np.inf


def test_selection_infeasible_is_infinite():
    # every candidate either misses the coverage floor or busts the tolerance
    tops = [0.9, 0.8]
    labeled, h, g = single_class_instance(tops, [False, False])
    cfg = al.ThresholdConfig(grid=np.array([0.1, 0.95]), coverage_floor=0.5,
                             c1=0.25, eps_a=0.05)
    t_hat = thresholds_on(g, h, labeled, cfg)
    assert np.isinf(t_hat.values[0])


def test_selection_coverage_floor_can_force_larger_error():
    # with coverage_floor=0.9 the small clean tail is not allowed; only full
    # selection qualifies on coverage and its error is too high -> infinity
    tops = [0.95, 0.9, 0.2, 0.15]
    labeled, h, g = single_class_instance(tops, [True, True, False, False])
    cfg = al.ThresholdConfig(grid=np.array([0.1, 0.5]), coverage_floor=0.9,
                             c1=0.0, eps_a=0.1)
    assert np.isinf(thresholds_on(g, h, labeled, cfg).values[0])
    # relaxing the floor lets the clean prefix through
    cfg2 = al.ThresholdConfig(grid=np.array([0.1, 0.5]), coverage_floor=0.25,
                              c1=0.0, eps_a=0.1)
    assert thresholds_on(g, h, labeled, cfg2).values[0] == 0.5


def scan_oracle(top, wrong, grid, coverage_floor, c1, eps_a):
    """Independent exhaustive re-derivation of the per-class selection rule."""
    n = len(top)
    if n == 0:
        return float("inf")
    feasible = []
    for t in grid:
        chosen = [i for i in range(n) if top[i] >= t]
        if len(chosen) / n < coverage_floor or not chosen:
            continue
        err = sum(1 for i in chosen if wrong[i]) / len(chosen)
        pad = c1 * (err * (1 - err) / len(chosen)) ** 0.5
        if err + pad <= eps_a:
            feasible.append(t)
    return min(feasible) if feasible else float("inf")


def test_selection_matches_scan_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(0, 51))
        top = rng.uniform(0, 1, size=n)
        wrong = rng.uniform(size=n) < rng.uniform(0, 0.6)
        grid = np.unique(rng.uniform(0, 1, size=int(rng.integers(1, 21))))
        floor = float(rng.uniform(0.01, 0.8))
        c1 = float(rng.choice([0.0, 0.25, 1.0]))
        eps_a = float(rng.uniform(0, 0.4))
        cfg = al.ThresholdConfig(grid=grid, coverage_floor=floor, c1=c1,
                                 eps_a=eps_a)
        got = select_class_threshold(top, wrong, cfg)
        want = scan_oracle(list(top), list(wrong), list(grid), floor, c1,
                           eps_a)
        assert got == want or (np.isinf(got) and np.isinf(want))


def test_selection_matches_scan_oracle_on_ties_float32_nan_and_dense_grids():
    # grid-aligned scores make ties between scores and grid values common,
    # so selecting "top > t" instead of "top >= t" would show
    rng = np.random.default_rng(2024)
    ties = 0
    for i in range(2000):
        kind = i % 4
        n = int(rng.integers(0, 61))
        top = rng.uniform(0, 1, size=n)
        if kind == 0:
            step = float(rng.choice([0.05, 0.1]))
            top = np.round(top / step) * step
            grid = np.linspace(0, 1, int(round(1 / step)) + 1)
        else:
            grid = np.unique(rng.uniform(0, 1, size=int(rng.integers(1, 21))))
        if kind == 1:
            top = top.astype(np.float32)
        elif kind == 2:
            top[rng.uniform(size=n) < rng.uniform(0, 0.5)] = np.nan
        ties += bool(np.isin(top, grid).any())
        wrong = rng.uniform(size=n) < rng.uniform(0, 0.6)
        floor = float(rng.uniform(0.01, 0.8))
        c1 = float(rng.choice([0.0, 0.25, 1.0]))
        eps_a = float(rng.uniform(0, 0.4))
        cfg = al.ThresholdConfig(grid=grid, coverage_floor=floor, c1=c1,
                                 eps_a=eps_a)
        got = select_class_threshold(top, wrong, cfg)
        want = scan_oracle(top.tolist(), wrong.tolist(), grid.tolist(),
                           floor, c1, eps_a)
        assert got == want or (np.isinf(got) and np.isinf(want))
    assert ties >= 400
    dense = np.linspace(0, 1, 20001)
    for n in (300, 900, 2000):
        top = dense[np.round(rng.beta(5, 1, size=n) * 20000).astype(int)]
        wrong = rng.uniform(size=n) < 0.6 * (1 - top)
        cfg = al.ThresholdConfig(grid=dense, coverage_floor=0.05, c1=0.25,
                                 eps_a=0.05)
        got = select_class_threshold(top, wrong, cfg)
        want = scan_oracle(top.tolist(), wrong.tolist(), dense.tolist(),
                           0.05, 0.25, 0.05)
        assert got == want


def test_selection_evaluates_at_most_one_candidate_per_score(monkeypatch):
    # a class of n points has at most n + 1 distinct selections, so a dense
    # grid must not cost a bound per grid value
    sizes = []

    def counted(wrong, m, c1):
        sizes.append(np.size(m))
        return _padded_error(wrong, m, c1)

    monkeypatch.setattr(thresholds, "_padded_error", counted)
    rng = np.random.default_rng(35)
    k, n = 4, 1000
    preds = np.repeat(np.arange(k), n)
    labels = np.where(rng.uniform(size=k * n) < 0.03, (preds + 1) % k, preds)
    al.estimate_thresholds(rng.uniform(size=k * n), preds, labels, k,
                           al.ThresholdConfig(grid=al.uniform_grid(20001)))
    assert len(sizes) == k and max(sizes) <= n + 1


def test_selection_never_selects_nan_but_counts_it_in_the_group():
    grid = np.array([0.1, 0.5])
    # the NaN point is wrong; selecting it would break eps_a at every t
    top = np.array([0.9, np.nan])
    wrong = np.array([False, True])
    cfg = al.ThresholdConfig(grid=grid, coverage_floor=0.5, c1=0.0, eps_a=0.05)
    assert select_class_threshold(top, wrong, cfg) == 0.1
    # two real points of four reach coverage 0.5, not 2/2, under the floor
    top = np.array([0.9, 0.8, np.nan, np.nan])
    wrong = np.zeros(4, dtype=bool)
    cfg = al.ThresholdConfig(grid=grid, coverage_floor=0.6, c1=0.0, eps_a=0.05)
    assert np.isinf(select_class_threshold(top, wrong, cfg))
    cfg = al.ThresholdConfig(grid=grid, coverage_floor=0.5, c1=0.0, eps_a=0.05)
    assert select_class_threshold(top, wrong, cfg) == 0.1
    all_nan = np.full(3, np.nan)
    assert np.isinf(select_class_threshold(all_nan, wrong[:3], cfg))


def test_returned_thresholds_are_safe_on_their_groups():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(4, 60))
        k = int(rng.integers(2, 5))
        true = rng.integers(0, k, size=n)
        preds = np.where(rng.uniform(size=n) < 0.8, true,
                         rng.integers(0, k, size=n))
        scores = rng.uniform(0, 1, size=(n, k))
        labeled = indexed_set(true, k)
        h, g = FixedModel(preds), FixedScores(scores)
        cfg = al.ThresholdConfig(coverage_floor=0.05,
                                 eps_a=float(rng.uniform(0.05, 0.3)))
        t_hat = thresholds_on(g, h, labeled, cfg)
        tops = scores[np.arange(n), preds]
        wrong = preds != true
        for y in range(k):
            t = t_hat.values[y]
            if not np.isfinite(t):
                continue
            sel = (preds == y) & (tops >= t)
            m = int(sel.sum())
            assert m >= 1
            err = wrong[sel].sum() / m
            pad = cfg.c1 * (err * (1 - err) / m) ** 0.5
            assert err + pad <= cfg.eps_a + 1e-12


def test_group_by_predicted_label_switch():
    # one point whose true label is 0 but prediction is 1 lands in the group
    # of its prediction, class 1; class 0's group is empty
    labeled = indexed_set([0], 2)
    h = FixedModel([1])
    g = FixedScores([[0.1, 0.9]])
    cfg = al.ThresholdConfig(grid=np.array([0.5]), coverage_floor=0.05,
                             c1=0.0, eps_a=1.0)
    by_pred = thresholds_on(g, h, labeled, cfg)
    assert np.isinf(by_pred.values[0]) and by_pred.values[1] == 0.5
