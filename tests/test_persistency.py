import math

import numpy as np
import pytest
from scipy.stats import t as student_t

from excursions.errors import DomainError, FitError
from excursions.persistency import (SurvivalFit, aggregate_fits, batch_ci,
                                    empirical_survival, fit_persistency)


def _step_value(surv, t):
    idx = np.searchsorted(surv.points, t, side="right") - 1
    return 1.0 if idx < 0 else surv.values[idx]


def test_empirical_survival_counting():
    samples = np.concatenate([np.array([1.0, 2.0, 3.0, 4.0])] * 25)
    surv = empirical_survival(samples)
    assert _step_value(surv, 2.5) == pytest.approx(0.5)
    assert _step_value(surv, 0.5) == 1.0       # S just left of the data
    assert surv.values[-1] == 0.0              # S(max) = 0
    assert surv.values[0] == pytest.approx(0.75)


def test_empirical_survival_dkw():
    rng = np.random.default_rng(3)
    x = rng.exponential(1.0, 1_000_000)
    surv = empirical_survival(x)
    dev = np.abs(surv.values - np.exp(-surv.points))
    assert dev.max() < 0.002


def test_empirical_survival_domain():
    with pytest.raises(DomainError):
        empirical_survival(np.ones(50))
    with pytest.raises(DomainError):
        empirical_survival(np.concatenate([np.ones(200), [-1.0]]))


def test_fit_exponential_oracle():
    rng = np.random.default_rng(4)
    x = rng.exponential(2.0, 1_000_000)      # theta = 0.5
    fit = fit_persistency(x)
    assert fit.theta == pytest.approx(0.5, abs=0.005)
    assert fit.n_points >= 10
    assert fit.r_squared > 0.99


def test_fit_exactness_on_synthetic_survival():
    # n samples placed so the empirical survival at the i-th sorted point
    # is exactly e^{-theta t}; the top point never enters the fit window
    theta = 0.37
    n = 10_000
    i = np.arange(1, n)
    body = -np.log((n - i) / n) / theta
    samples = np.concatenate([body, [body[-1] + 1.0]])
    fit = fit_persistency(samples)
    assert fit.theta == pytest.approx(theta, abs=1e-12)


def test_fit_scale_equivariance():
    rng = np.random.default_rng(5)
    x = rng.exponential(1.0, 200_000)
    base = fit_persistency(x).theta
    scaled = fit_persistency(3.0 * x).theta
    assert scaled == pytest.approx(base / 3.0, abs=1e-10 * base)


def test_fit_window_respects_half_rule():
    rng = np.random.default_rng(6)
    x = rng.exponential(1.0, 100_000)
    fit = fit_persistency(x)
    median = np.median(x)
    assert fit.fit_window[0] >= median * 0.99
    assert fit.fit_window[1] <= np.sort(x)[-50]


def test_fit_error_on_tiny_window():
    x = np.linspace(1.0, 2.0, 100)
    with pytest.raises(FitError):
        fit_persistency(x, min_tail_count=49)


def test_batch_ci_exponential():
    rng = np.random.default_rng(7)

    def runner(i):
        return rng.exponential(1.0, 200_000)

    est = batch_ci(runner, reps=10)
    assert abs(est.mean_theta - 1.0) < 0.01
    assert 0.0 < est.half_width < 0.01
    assert len(est.replicates) == 10


def test_batch_ci_uses_t_quantile():
    # two replicates: the half-width uses the 12.706 quantile of t with 1 df
    samples = []
    n = 10_000
    i = np.arange(1, n)
    for th in (0.9, 1.1):
        samples.append(-np.log((n - i) / n) / th)
    est = batch_ci(lambda k: samples[k], reps=2)
    sd = np.std([f.theta for f in est.replicates], ddof=1)
    assert est.half_width == pytest.approx(12.706 * sd / math.sqrt(2), rel=1e-4)


def test_batch_ci_propagates_fit_error_with_index():
    good = np.random.default_rng(8).exponential(1.0, 10_000)

    def runner(i):
        if i == 3:
            return np.linspace(1.0, 2.0, 100)
        return good

    with pytest.raises(FitError) as err:
        batch_ci(runner, reps=5)
    assert "replicate 3" in str(err.value)


def test_batch_ci_needs_two_reps():
    with pytest.raises(DomainError):
        batch_ci(lambda i: np.ones(1000), reps=1)


def test_variance_shrinks_with_sample_size():
    rng = np.random.default_rng(9)
    small, large = [], []
    for _ in range(5):
        small.append(fit_persistency(rng.exponential(1.0, 10_000)).theta)
        large.append(fit_persistency(rng.exponential(1.0, 100_000)).theta)
    assert np.std(large) < np.std(small)


def test_aggregate_half_width_is_the_t_quantile_bitwise():
    rng = np.random.default_rng(12)
    for k in range(2, 61):
        fits = [SurvivalFit(theta=float(th), intercept=0.0, fit_window=(1.0, 2.0),
                            n_points=10, r_squared=1.0)
                for th in rng.uniform(0.1, 0.5, k)]
        est = aggregate_fits(fits)
        sd = float(np.std([f.theta for f in fits], ddof=1))
        assert est.half_width == float(student_t.ppf(0.975, k - 1)) * sd / math.sqrt(k)
