import numpy as np
import pytest

from conftest import uniform_thresholds
from oracles import (
    TOY_ALPHAS,
    TOY_T_SWEEP,
    TOY_W_SWEEP,
    McMetrics,
    Toy1DWorld,
    ToyWorldModel,
    mc_population_metrics,
    sweep_grid,
    toy_1d_metrics,
)


# ---------------------------------------------------------------------------
# Monte-Carlo population metrics


def test_mc_point_mass():
    def sampler(rng, n):
        return np.full((n, 1), 0.9, dtype=np.float64), np.ones(n, dtype=np.int64)

    world = ToyWorldModel(w=0.0)
    m = mc_population_metrics(world, uniform_thresholds(0.5), world, sampler,
                              500, seed=1)
    assert m.coverage == 1.0 and m.coverage_se == 0.0
    assert m.error == 0.0 and m.error_se == 0.0
    assert m.n_selected == 500


def test_mc_infinite_threshold():
    world = ToyWorldModel(w=0.0)
    m = mc_population_metrics(world, uniform_thresholds(np.inf), world,
                              world.sample_side, 200, seed=2)
    assert m.coverage == 0.0
    assert m.error is None and m.error_se is None


def test_mc_determinism_and_n_validation():
    world = ToyWorldModel(w=0.3)
    t = uniform_thresholds(0.2)
    a = mc_population_metrics(world, t, world, world.sample_side, 1000, 7)
    b = mc_population_metrics(world, t, world, world.sample_side, 1000, 7)
    assert a == b
    with pytest.raises(ValueError):
        mc_population_metrics(world, t, world, world.sample_side, 0, 7)


def test_mc_agrees_with_closed_form():
    for w, t in [(0.0, 0.3), (0.8, 0.2), (0.4, 0.1)]:
        world = ToyWorldModel(w=w)
        exact = toy_1d_metrics(world, t, alpha=1.0)
        m = mc_population_metrics(world, uniform_thresholds(t), world,
                                  world.sample_side, 100_000, seed=11)
        assert abs(m.coverage - exact.actual_coverage) <= 3 * max(m.coverage_se,
                                                                  1e-4)
        if exact.actual_error is not None:
            assert abs(m.error - exact.actual_error) <= 3 * max(m.error_se,
                                                                 1e-4)


def test_mc_unbiased_over_repetitions():
    world = ToyWorldModel(w=0.8)
    t = 0.2
    exact = toy_1d_metrics(world, t, alpha=1.0)
    covs, errs = [], []
    for rep in range(200):
        m = mc_population_metrics(world, uniform_thresholds(t), world,
                                  world.sample_side, 10_000, seed=1000 + rep)
        covs.append(m.coverage)
        errs.append(m.error)
    covs, errs = np.array(covs), np.array(errs, dtype=np.float64)
    se_cov = covs.std(ddof=1) / np.sqrt(len(covs))
    se_err = errs.std(ddof=1) / np.sqrt(len(errs))
    assert abs(covs.mean() - exact.actual_coverage) <= 3 * se_cov
    assert abs(errs.mean() - exact.actual_error) <= 3 * se_err


# ---------------------------------------------------------------------------
# the exact toy world


def test_toy_world_geometry():
    world = ToyWorldModel(w=0.1)
    assert world.side == (0.25, 1.0)
    assert np.allclose(world.confidence([0.1, 0.4]), [0.0, 0.3])
    assert np.array_equal(world.predict(np.array([[0.1], [0.3], [0.25]])),
                          [0, 1, 1])
    X, y = world.sample_side(np.random.default_rng(0), 500)
    assert X.shape == (500, 1)
    assert X.min() >= 0.25 and X.max() <= 1.0
    assert np.array_equal(y, (X[:, 0] >= 0.5).astype(np.int64))


def test_toy_metrics_worked_example():
    got = toy_1d_metrics(Toy1DWorld(w=0.0), t=0.3, alpha=1.0)
    assert got.actual_coverage == pytest.approx(14 / 15, rel=1e-12)
    assert got.actual_error == pytest.approx(2 / 7, rel=1e-12)


def test_toy_metrics_smoothed_worked_example():
    # w = 0.26, t = 0.1: the selected part of the side [0.25, 1] is
    # [0.36, 1], of which [0.36, 0.5) is wrong. The smoothed masses are
    # integrals of sigmoid(alpha, z) over z = |w - x| - t, whose
    # antiderivative is softplus(alpha * z) / alpha; z runs from -0.09 down
    # to -0.1 left of w and from -0.1 up to x - 0.36 right of it.
    alpha = 10.0

    def F(z):
        return np.logaddexp(0.0, alpha * z) / alpha

    def mass(z_hi):
        return F(-0.09) - F(-0.1) + F(z_hi) - F(-0.1)

    got = toy_1d_metrics(Toy1DWorld(w=0.26), t=0.1, alpha=alpha)
    assert got.actual_coverage == pytest.approx(0.64 / 0.75, rel=1e-12)
    assert got.actual_error == pytest.approx(0.14 / 0.64, rel=1e-12)
    assert got.surrogate_coverage == pytest.approx(mass(0.64) / 0.75,
                                                   abs=1e-8)
    assert got.surrogate_error == pytest.approx(mass(0.14) / mass(0.64),
                                                abs=1e-8)


def test_toy_metrics_zero_threshold():
    got = toy_1d_metrics(Toy1DWorld(w=0.0), t=0.0, alpha=1.0)
    assert got.actual_coverage == pytest.approx(1.0)
    assert got.actual_error == pytest.approx(1 / 3, rel=1e-12)


def test_toy_metrics_empty_selection():
    # w in the middle with a huge t selects nothing on the side
    got = toy_1d_metrics(Toy1DWorld(w=0.6), t=0.9, alpha=1.0)
    assert got.actual_coverage == 0.0
    assert got.actual_error is None


def test_toy_metrics_threshold_validation():
    with pytest.raises(ValueError):
        toy_1d_metrics(Toy1DWorld(w=0.0), t=1.5, alpha=1.0)


def test_toy_actuals_match_dense_grid_oracle():
    rng = np.random.default_rng(6)
    x = np.linspace(0.25, 1.0, 400_001)
    for _ in range(25):
        w = float(rng.uniform(0, 1))
        t = float(rng.uniform(0, 1))
        got = toy_1d_metrics(Toy1DWorld(w=w), t, alpha=1.0)
        sel = np.abs(w - x) >= t
        cov = sel.mean()
        assert got.actual_coverage == pytest.approx(cov, abs=2e-3)
        if sel.sum() > 400:
            err = (x[sel] < 0.5).mean()
            assert got.actual_error == pytest.approx(err, abs=5e-3)


def test_toy_surrogate_gap_shrinks_with_alpha():
    # pointwise, the coverage gap shrinks monotonically with alpha; the error
    # RATIO's numerator and denominator biases can cancel at small alpha
    # (they do at this very point), so for it only the sharp-alpha ordering
    # is asserted pointwise. Grid-level max gaps decrease for both; see the
    # acceptance suite.
    world = Toy1DWorld(w=0.0)
    cov_gaps, err_gaps = [], []
    for alpha in TOY_ALPHAS:
        m = toy_1d_metrics(world, 0.3, alpha)
        cov_gaps.append(abs(m.surrogate_coverage - m.actual_coverage))
        err_gaps.append(abs(m.surrogate_error - m.actual_error))
    assert cov_gaps[0] > cov_gaps[1] > cov_gaps[2]
    assert err_gaps[2] < err_gaps[1]
    assert err_gaps[2] <= 0.001


def test_default_toy_sweep_shape():
    ws, ts = sweep_grid(*TOY_W_SWEEP), sweep_grid(*TOY_T_SWEEP)
    assert ws.shape == (51,) and ts.shape == (6,)
    assert ws[0] == 0.0 and ws[-1] == 1.0
    assert ts[0] == 0.0 and ts[-1] == 0.25
    assert np.allclose(np.diff(ws), 0.02) and np.allclose(np.diff(ts), 0.05)


def test_toy_surrogate_tight_at_alpha_100_over_w_grid():
    for w in np.linspace(0.0, 1.0, 50):
        m = toy_1d_metrics(Toy1DWorld(w=float(w)), 0.3, alpha=100.0)
        assert m.actual_error is not None
        assert abs(m.surrogate_coverage - m.actual_coverage) <= 0.05
        assert abs(m.surrogate_error - m.actual_error) <= 0.05


def test_mc_metrics_is_a_plain_record():
    m = McMetrics(0.5, 0.01, None, None, 0)
    assert m.coverage == 0.5 and m.error is None
