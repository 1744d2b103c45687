import math
import time
import warnings

import numpy as np
import pytest
from scipy.special import stdtrit

from excursions.errors import DomainError, FitError
from excursions.persistency import (SurvivalFit, _fit_window, _parallel_map, _tail_ranks,
                                    aggregate_fits, fit_persistency, labelled_fit,
                                    replicate_estimates, t_quantile)


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


def test_aggregate_fits_exponential():
    rng = np.random.default_rng(7)
    fits = [labelled_fit(rng.exponential(1.0, 200_000), f"replicate {i}")
            for i in range(10)]
    est = aggregate_fits(fits)
    assert abs(est.mean_theta - 1.0) < 0.01
    assert 0.0 < est.half_width < 0.01
    assert len(est.replicates) == 10


def test_aggregate_fits_uses_t_quantile():
    # two replicates: the half-width uses the 12.706 quantile of t with 1 df
    samples = []
    n = 10_000
    i = np.arange(1, n)
    for th in (0.9, 1.1):
        samples.append(-np.log((n - i) / n) / th)
    est = aggregate_fits([fit_persistency(x) for x in samples])
    sd = np.std([f.theta for f in est.replicates], ddof=1)
    assert est.half_width == pytest.approx(12.706 * sd / math.sqrt(2), rel=1e-4)


def _runner(i):
    # replicate 3 has too short a tail to fit
    if i == 3:
        return np.linspace(1.0, 2.0, 100)
    return np.random.default_rng(8).exponential(1.0, 10_000)


def test_labelled_fit_names_the_replicate():
    with pytest.raises(FitError) as err:
        aggregate_fits([labelled_fit(_runner(i), f"replicate {i}") for i in range(5)])
    assert str(err.value).startswith("replicate 3: ")
    with pytest.raises(DomainError, match="^replicate 0: need at least 100 samples$"):
        labelled_fit(np.ones(10), "replicate 0")


def test_replicate_estimates_label_each_fit_error():
    # replicate i of a group draws from the i-th seed spawned from the group's
    def draw(context, seed):
        return (_runner(seed.spawn_key[-1]),)

    with pytest.raises(FitError) as err:
        replicate_estimates(draw, [(None, 5, ("u = 0, above side",))], reps=5)
    assert str(err.value).startswith("u = 0, above side, replicate 3: ")


def test_replicate_estimates_start_replicate_zero_of_every_group_first(monkeypatch):
    # the tasks run replicate-major, and each group's estimate is still that
    # of its own replicates, whatever the pool
    started = []

    def draw(rate, seed):
        started.append((rate, seed.spawn_key[-1]))
        return (np.random.default_rng(seed).exponential(1.0 / rate, 2000),)

    groups = [(rate, seed, (f"rate {rate}",)) for rate, seed in ((0.5, 1), (1.0, 2), (2.0, 3))]
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "1")     # tasks start one at a time
    serial = replicate_estimates(draw, groups, reps=4)
    assert started == [(rate, i) for i in range(4) for rate in (0.5, 1.0, 2.0)]
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "3")
    pooled = replicate_estimates(draw, groups, reps=4)
    for (rate, seed, _), *estimates in zip(groups, serial, pooled):
        want = aggregate_fits([fit_persistency(draw(rate, s)[0])
                               for s in np.random.SeedSequence(seed).spawn(4)])
        for [got] in estimates:
            assert got.replicates == want.replicates
            assert (got.mean_theta, got.half_width) == (want.mean_theta, want.half_width)


@pytest.mark.parametrize("first_delay", [0.0, 0.3])
def test_a_failing_pool_starts_no_more_tasks(monkeypatch, first_delay):
    # items 0 and 1 fail, item 0 at once or well after item 1: no further item
    # starts, and item 0's failure, the first in item order, is raised
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "2")
    calls = []

    def task(i):
        calls.append(i)
        if i < 2:
            time.sleep(first_delay * (i == 0))
            raise FitError(f"item {i}")
        time.sleep(0.01)
        return i

    with pytest.raises(FitError, match="item 0"):
        _parallel_map(task, list(range(50)))
    assert len(calls) < 10


def test_aggregate_fits_needs_two_reps():
    fit = fit_persistency(np.random.default_rng(8).exponential(1.0, 1000))
    with pytest.raises(DomainError):
        aggregate_fits([fit])
    with pytest.raises(DomainError):
        replicate_estimates(lambda context, seed: (np.ones(1000),),
                            [(None, 1, ("x",))], reps=1)


def test_fit_rejects_non_finite_samples_and_empty_tail():
    x = np.random.default_rng(10).exponential(1.0, 1000)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="positive and finite"):
            fit_persistency(np.append(x, bad))
    for count in (0, -1):
        with pytest.raises(DomainError, match="min_tail_count"):
            fit_persistency(x, min_tail_count=count)


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
        assert est.half_width == t_quantile(k - 1, 0.975) * sd / math.sqrt(k)


@pytest.mark.parametrize("p", [0.6, 0.9, 0.975, 0.995])
def test_t_quantile_matches_stdtrit(p):
    # scipy's quantile inverts the incomplete beta function, an independent route
    df = np.arange(1, 201)
    upper = np.array([t_quantile(int(k), p) for k in df])
    lower = np.array([t_quantile(int(k), 1.0 - p) for k in df])
    np.testing.assert_allclose(upper, stdtrit(df, p), rtol=3e-14, atol=0)
    np.testing.assert_allclose(lower, stdtrit(df, 1.0 - p), rtol=3e-14, atol=0)


def test_t_quantile_closed_forms():
    # df = 1 is the Cauchy law and df = 2 has t = (2p - 1) sqrt(2 / (4 p (1 - p)))
    assert t_quantile(1, 0.975) == pytest.approx(math.tan(0.475 * math.pi), rel=1e-14)
    assert t_quantile(2, 0.9) == pytest.approx(0.8 * math.sqrt(2.0 / 0.36), rel=1e-14)
    assert t_quantile(7, 0.5) == 0.0


def _lstsq_fit(samples, min_tail_count=50):
    # the least-squares fit by np.linalg.lstsq, as a reference
    x = np.sort(samples)
    n = len(x)
    lo, hi = n - 1 - n // 2, n - min_tail_count
    tt = x[lo:hi]
    ls = np.log((n - 1 - np.arange(lo, hi)) / n)
    design = np.column_stack((tt, np.ones_like(tt)))
    (slope, intercept), res, *_ = np.linalg.lstsq(design, ls, rcond=None)
    return -slope, intercept, 1.0 - res[0] / np.sum((ls - ls.mean()) ** 2)


def test_closed_form_fit_equals_an_lstsq_reference():
    rng = np.random.default_rng(13)
    n = 10_000
    body = -np.log((n - np.arange(1, n)) / n) / 0.37
    cases = [(rng.exponential(2.0, 200_000), 50), (rng.gamma(2.5, 1.3, 50_000), 20),
             (np.concatenate([body, [body[-1] + 1.0]]), 50)]
    for x, count in cases:
        fit = fit_persistency(x, count)
        ref = _lstsq_fit(x, count)
        for got, want in zip((fit.theta, fit.intercept, fit.r_squared), ref):
            assert got == pytest.approx(want, rel=1e-12)


def test_sorted_and_shuffled_samples_fit_alike():
    x = np.random.default_rng(14).exponential(1.0, 50_000)
    assert fit_persistency(x) == fit_persistency(np.sort(x))


def test_nan_at_the_end_of_sorted_samples_is_a_domain_error():
    x = np.append(np.sort(np.random.default_rng(15).exponential(1.0, 1000)), np.nan)
    with pytest.raises(DomainError, match="positive and finite"):
        fit_persistency(x)


def test_fit_error_when_the_tail_window_holds_one_value():
    # lstsq's minimum-norm answer gave theta = 0.4003 with r^2 = 0 here
    x = np.concatenate((np.linspace(0.1, 0.5, 50), np.full(150, 2.0)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FitError, match="one distinct value"):
            fit_persistency(x)


def _fit_or_error(fit, *args):
    try:
        return fit(*args)
    except (DomainError, FitError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("min_tail_count", [1, 50, 60])
@pytest.mark.parametrize("n", [99, 118, 2000, 20_001, 200_000])
def test_window_fit_equals_the_whole_sample_fit_bitwise(n, min_tail_count):
    # the window alone and the log survival of its size fit as the whole
    # sample does; n = 99 and (118, 60) fail, and must fail alike
    x = np.random.default_rng(n).exponential(2.0, n)
    ranks = _tail_ranks(n, min_tail_count)
    whole = _fit_or_error(fit_persistency, x, min_tail_count)
    part = _fit_or_error(_fit_window, np.sort(x)[ranks.lo:ranks.hi], ranks)
    if n == 99 or (n, min_tail_count) == (118, 60):
        assert part == whole and whole[0] in (DomainError, FitError)
        return

    def bits(fit):
        floats = (fit.theta, fit.intercept, fit.r_squared, *fit.fit_window)
        return np.array(floats).view(np.int64).tolist(), fit.n_points

    assert isinstance(part, SurvivalFit)
    assert bits(part) == bits(whole)
