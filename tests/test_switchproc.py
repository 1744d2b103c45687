import math

import numpy as np
import pytest
from scipy.stats import kstest

from excursions.errors import DomainError, NumericalError
from excursions.numerics import gaver_stehfest_invert
from excursions.switchproc import (deterministic_interval, erlang_interval,
                                   estimate_characteristics, exponential_interval,
                                   interval_from_spec, laplace_A_less,
                                   laplace_E_delta, laplace_E_prime,
                                   laplace_N_greater, laplace_N_less,
                                   laplace_P_delta, laplace_stationary_P,
                                   laplace_stationary_cov, recover_psi,
                                   simulate_stationary_switch, simulate_switch,
                                   simulate_switch_paths, switch_count_distribution)

EXP1 = exponential_interval(1.0)
EXP2 = exponential_interval(2.0)
S_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)


# ------------------------------------------------------ interval distributions

def test_exponential_interval_consistency():
    assert EXP1.psi(1.0) == pytest.approx(0.5)
    assert EXP2.mean == 0.5
    rng = np.random.default_rng(1)
    draws = EXP1.sampler(rng, 1_000_000)
    assert abs(draws.mean() - 1.0) < 0.004
    assert EXP1.cdf(0.7) == pytest.approx(1 - math.exp(-0.7))


def test_erlang_interval_consistency():
    er = erlang_interval(2, 1.0)
    assert er.mean == 2.0
    assert er.psi(1.0) == pytest.approx(0.25)
    rng = np.random.default_rng(2)
    assert abs(er.sampler(rng, 200_000).mean() - 2.0) < 0.02


def test_deterministic_interval():
    det = deterministic_interval(1.0)
    assert det.psi(2.0) == pytest.approx(math.exp(-2.0))
    assert det.cdf(0.5) == 0.0 and det.cdf(1.5) == 1.0


def test_interval_from_spec():
    assert interval_from_spec("exp:2.0").mean == 0.5
    assert interval_from_spec("erlang:3:1.5").mean == 2.0
    assert interval_from_spec("det:0.7").mean == 0.7
    with pytest.raises(DomainError):
        interval_from_spec("weibull:1")
    with pytest.raises(DomainError):
        interval_from_spec("exp:-1")


# ------------------------------------------------------------ Laplace identities

def test_telegraph_E_transform():
    # symmetric exponential: E_delta(t) = delta exp(-2 lam t)
    for lam in (0.5, 1.0, 2.0):
        dist = exponential_interval(lam)
        for s in S_GRID:
            expect = 1.0 / (2.0 * lam + s)
            assert laplace_E_delta(dist, dist, +1, s) == pytest.approx(
                expect, abs=1e-12)
            assert laplace_E_delta(dist, dist, -1, s) == pytest.approx(
                -expect, abs=1e-12)


def test_E_transform_initial_value():
    # s L(E)(s) -> delta as s -> infinity
    for delta in (+1, -1):
        val = 1e3 * laplace_E_delta(EXP1, EXP2, delta, 1e3)
        assert val == pytest.approx(delta, rel=0.01)


def test_P_transform_telegraph():
    # P_+(t) = (1 + exp(-2 lam t))/2 for the symmetric case
    lam = 1.0
    for s in S_GRID:
        expect = 0.5 * (1.0 / s + 1.0 / (2.0 * lam + s))
        assert laplace_P_delta(EXP1, EXP1, +1, s) == pytest.approx(expect, abs=1e-12)


def test_stationary_cov_telegraph():
    for lam in (0.5, 1.0, 2.0):
        dist = exponential_interval(lam)
        for s in S_GRID:
            assert laplace_stationary_cov(dist, dist, s) == pytest.approx(
                1.0 / (2.0 * lam + s), abs=1e-12)


def test_stationary_cov_initial_value():
    # s L(R)(s) -> R(0) = 4 mu+ mu- / (mu+ + mu-)^2
    r0 = 4.0 * EXP1.mean * EXP2.mean / (EXP1.mean + EXP2.mean) ** 2
    assert 1e3 * laplace_stationary_cov(EXP1, EXP2, 1e3) == pytest.approx(
        r0, rel=0.01)


def test_stationary_P_rows_sum_consistently():
    # mu+ L(P|+) + mu- L(P|-) = (mu+ / s) by stationarity of the marginal
    for s in S_GRID:
        lhs = (EXP1.mean * laplace_stationary_P(EXP1, EXP2, +1, s)
               + EXP2.mean * laplace_stationary_P(EXP1, EXP2, -1, s))
        assert lhs == pytest.approx(EXP1.mean / s, abs=1e-12)


def test_cov_expectation_link():
    # s L(R) - R(0) = 2 (L(E_-) - L(E_+)) / (mu+ + mu-)
    r0 = 4.0 * EXP1.mean * EXP2.mean / (EXP1.mean + EXP2.mean) ** 2
    for s in (0.2, 0.7, 1.0, 3.0, 8.0):
        lhs = s * laplace_stationary_cov(EXP1, EXP2, s) - r0
        rhs = 2.0 * (laplace_E_delta(EXP1, EXP2, -1, s)
                     - laplace_E_delta(EXP1, EXP2, +1, s)) / (EXP1.mean + EXP2.mean)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_recover_psi_symmetric_exponential():
    lam = 1.0
    lep = laplace_E_prime(EXP1, EXP1, +1)
    lem = laplace_E_prime(EXP1, EXP1, -1)
    for s in S_GRID:
        assert lep(s) == pytest.approx(-2.0 * lam / (2.0 * lam + s), abs=1e-12)
        psi_p, psi_m = recover_psi(lep, lem, s)
        assert psi_p == pytest.approx(lam / (lam + s), abs=1e-12)
        assert psi_m == pytest.approx(lam / (lam + s), abs=1e-12)


def test_recover_psi_asymmetric_exponential():
    lep = laplace_E_prime(EXP1, EXP2, +1)
    lem = laplace_E_prime(EXP1, EXP2, -1)
    for s in (0.5, 1.0, 2.0, 5.0):
        psi_p, psi_m = recover_psi(lep, lem, s)
        assert psi_p == pytest.approx(1.0 / (1.0 + s), abs=1e-10)
        assert psi_m == pytest.approx(2.0 / (2.0 + s), abs=1e-10)


def test_recover_psi_erlang():
    er = erlang_interval(2, 1.0)
    lep = laplace_E_prime(er, EXP2, +1)
    lem = laplace_E_prime(er, EXP2, -1)
    for s in (0.5, 1.0, 2.0):
        psi_p, psi_m = recover_psi(lep, lem, s)
        assert psi_p == pytest.approx((1.0 / (1.0 + s)) ** 2, abs=1e-10)
        assert psi_m == pytest.approx(2.0 / (2.0 + s), abs=1e-10)


def test_recover_psi_small_s_limit():
    lep = laplace_E_prime(EXP1, EXP2, +1)
    lem = laplace_E_prime(EXP1, EXP2, -1)
    psi_p, psi_m = recover_psi(lep, lem, 1e-4)
    assert psi_p == pytest.approx(1.0, abs=1e-3)
    assert psi_m == pytest.approx(1.0, abs=1e-3)


def test_N_less_telegraph_is_linear():
    # (1+Psi)(1-Psi)/(1-Psi^2) = 1, so L(N_<) = lam / s^2, N_<(t) = lam t
    for lam in (0.5, 1.0, 2.0):
        dist = exponential_interval(lam)
        for s in S_GRID:
            assert laplace_N_less(dist, dist, s) == pytest.approx(
                lam / s ** 2, abs=1e-12)
    for t in (1.0, 5.0):
        inv = gaver_stehfest_invert(
            lambda s: laplace_N_less(EXP1, EXP1, s), t)
        assert inv == pytest.approx(t, abs=1e-5)


def test_A_less_identity_with_covariance():
    # A_<(t) = R(t)/4 + mu-^2/(mu+ + mu-)^2
    mu_p, mu_m = EXP1.mean, EXP2.mean
    const = mu_m ** 2 / (mu_p + mu_m) ** 2
    for s in (0.5, 1.0, 2.0):
        lhs = laplace_A_less(EXP1, EXP2, s)
        rhs = laplace_stationary_cov(EXP1, EXP2, s) / 4.0 + const / s
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_N_greater_swaps_roles():
    for s in (0.5, 2.0):
        assert laplace_N_greater(EXP1, EXP2, s) == pytest.approx(
            laplace_N_less(EXP2, EXP1, s), abs=1e-14)


def test_laplace_domain_checks():
    with pytest.raises(DomainError):
        laplace_E_delta(EXP1, EXP1, +1, 0.0)
    with pytest.raises(DomainError):
        laplace_stationary_cov(EXP1, EXP1, -1.0)
    with pytest.raises(DomainError):
        laplace_N_less(EXP1, EXP1, 0.0)


# ------------------------------------------------------------- switch counts

def test_switch_count_matches_poisson():
    # stationary symmetric exponential: the switch epochs form a Poisson
    # stream of rate lam
    lam = 1.0
    for t in (0.5, 1.0, 2.0):
        dist = switch_count_distribution(EXP1, EXP1, -1, t)
        assert abs(dist.sum() - 1.0) < 1e-3
        for k in range(4):
            pois = math.exp(-lam * t) * (lam * t) ** k / math.factorial(k)
            assert dist[k] == pytest.approx(pois, abs=1e-3)


def test_switch_count_k0_is_delay_survival():
    # k = 0 is exactly the survival of the stationary delay; the delay CDF
    # itself is tabulated by trapezoid, so the tolerance is its O(h^2) error
    t = 0.8
    p0 = switch_count_distribution(EXP1, EXP1, -1, t)[0]
    assert p0 == pytest.approx(math.exp(-t), abs=1e-5)


def test_switch_count_pmf_asymmetric_normalizes():
    dist = switch_count_distribution(EXP1, EXP2, +1, 1.5)
    assert abs(dist.sum() - 1.0) < 1e-3
    assert np.all(dist >= 0.0)


def test_switch_count_domain():
    with pytest.raises(DomainError):
        switch_count_distribution(EXP1, EXP1, 0, 1.0)
    with pytest.raises(DomainError):
        switch_count_distribution(EXP1, EXP1, +1, 0.0)


# --------------------------------------------------------------- simulation

def test_deterministic_intervals_epoch_pattern():
    det = deterministic_interval(1.0)
    path = simulate_switch(det, det, 1.0, 5.5, seed=3)
    assert np.allclose(path.switch_epochs, [1.0, 2.0, 3.0, 4.0, 5.0])
    assert path.initial_state == 1


def test_initial_state_probability():
    path = simulate_switch(EXP1, EXP1, 1.0, 1.0, seed=4)
    assert path.initial_state == 1
    path = simulate_switch(EXP1, EXP1, 0.0, 1.0, seed=4)
    assert path.initial_state == -1


def test_symmetric_exponential_epoch_count():
    # switches of the pinned symmetric process arrive at rate lam
    lam = 1.0
    horizon = 50.0
    paths = simulate_switch_paths(EXP1, EXP1, 2000, horizon, seed=5)
    counts = np.array([len(p.switch_epochs) for p in paths])
    expect = lam * horizon
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expect) < 3.0 * se


def test_stationary_delay_memoryless():
    # symmetric exponential: the integrated-tail delay is again exponential
    paths = simulate_switch_paths(EXP1, EXP1, 100_000, 1.0, seed=6,
                                  stationary=True)
    delays = np.array([p.stationary_delay for p in paths])
    assert kstest(delays, "expon").statistic < 0.005


def test_stationary_state_probability():
    mu_p, mu_m = 2.0, 1.0
    paths = simulate_switch_paths(exponential_interval(1 / mu_p),
                                  exponential_interval(1 / mu_m),
                                  100_000, 0.5, seed=7, stationary=True)
    frac = np.mean([p.initial_state == 1 for p in paths])
    se = math.sqrt(frac * (1 - frac) / len(paths))
    assert abs(frac - mu_p / (mu_p + mu_m)) < 3.5 * se


def test_stationary_mean_is_time_constant():
    paths = simulate_switch_paths(EXP1, EXP1, 20_000, 5.0, seed=8,
                                  stationary=True)
    grid = np.linspace(0.0, 5.0, 11)
    states = np.stack([p.state_at(grid) for p in paths])
    mean = states.mean(axis=0)
    se = states.std(axis=0, ddof=1) / math.sqrt(len(paths))
    assert np.all(np.abs(mean - 0.0) < 3.5 * se + 1e-12)


def test_estimate_characteristics_telegraph():
    lam = 1.0
    grid = np.linspace(0.0, 3.0, 13)
    paths = simulate_switch_paths(EXP1, EXP1, 20_000, 3.0, seed=9)
    est = estimate_characteristics(paths, grid)
    target = np.exp(-2.0 * lam * grid)
    assert np.all(np.abs(est.e_plus - target) < 3.5 * est.se_e_plus + 1e-9)
    assert np.all(np.abs(est.e_minus + target) < 3.5 * est.se_e_minus + 1e-9)
    assert np.all((est.p_plus >= 0) & (est.p_plus <= 1))


def test_estimate_characteristics_covariance_and_counts():
    grid = np.linspace(0.0, 3.0, 7)
    paths = simulate_switch_paths(EXP1, EXP1, 20_000, 3.0, seed=10,
                                  stationary=True)
    est = estimate_characteristics(paths, grid)
    assert abs(est.covariance[0] - 1.0) < 3.0 * est.se_covariance[0] + 1e-9
    target = np.exp(-2.0 * grid)
    assert np.all(np.abs(est.covariance - target) < 3.5 * est.se_covariance + 1e-9)
    counts = 0.5 * (est.counts_plus + est.counts_minus)
    se = 0.5 * np.hypot(est.se_counts_plus, est.se_counts_minus)
    assert np.all(np.abs(counts - grid) < 3.5 * se + 1e-9)


def test_estimate_needs_paths():
    with pytest.raises(DomainError):
        estimate_characteristics([], np.linspace(0, 1, 3))


def test_path_state_accounting():
    path = simulate_switch(EXP1, EXP2, 1.0, 20.0, seed=11)
    assert np.all(np.diff(path.switch_epochs) > 0)
    assert np.all(path.switch_epochs <= path.horizon)
    t = np.array([0.0, path.horizon])
    states = path.state_at(t)
    assert states[0] == path.initial_state
    assert set(np.unique(states)).issubset({-1, 1})
