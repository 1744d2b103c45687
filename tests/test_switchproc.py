import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import excursions.switchproc
from _oracles import gaver_stehfest_invert
from excursions.errors import DomainError, NumericalError
from excursions.switchproc import (IntervalDistribution, deterministic_interval,
                                   erlang_interval, estimate_characteristics,
                                   exponential_interval, interval_from_spec,
                                   laplace_A_less, laplace_E_delta,
                                   laplace_E_prime, laplace_N_greater,
                                   laplace_N_less, laplace_P_delta,
                                   laplace_stationary_P, laplace_stationary_cov,
                                   recover_psi, simulate_switch_paths,
                                   switch_count_distribution)

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


@pytest.mark.parametrize("spec, second_moment", [("exp:1", 2.0),
                                                  ("erlang:3:1.5", 12.0 / 1.5 ** 2),
                                                  ("det:1", 1.0)],
                         ids=["exp", "erlang", "det"])
def test_delay_law_is_the_integrated_tail(spec, second_moment):
    # the stationary delay has density (1 - F) / E[H] and mean E[H^2] / (2 E[H])
    dist = interval_from_spec(spec)
    for t in (0.1, 0.5, 1.0, 1.7, 4.0, 12.0):
        # split at 1, where det:1 jumps
        tail = sum(quad(lambda s: 1.0 - float(dist.cdf(s)), a, b, epsabs=1e-13)[0]
                   for a, b in ((0.0, min(t, 1.0)), (min(t, 1.0), t)))
        assert float(dist.delay_cdf(t)) == pytest.approx(tail / dist.mean, abs=1e-10)
    draws = dist.delay_sampler(np.random.default_rng(2110), 400_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - second_moment / (2.0 * dist.mean)) < 3.5 * se
    assert kstest(draws, dist.delay_cdf).statistic < 0.005


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
    for t in (0.5, 1.0, 2.0, 20.0):
        dist = switch_count_distribution(EXP1, EXP1, -1, t)
        assert abs(dist.sum() - 1.0) < 1e-3
        for k in range(4):
            pois = math.exp(-lam * t) * (lam * t) ** k / math.factorial(k)
            assert dist[k] == pytest.approx(pois, abs=1e-3)


def test_switch_count_k0_is_delay_survival():
    # k = 0 is exactly the survival of the stationary delay; reading the
    # delay's lumped CDF at t costs O(h^2), so that is the tolerance
    t = 0.8
    p0 = switch_count_distribution(EXP1, EXP1, -1, t)[0]
    assert p0 == pytest.approx(math.exp(-t), abs=1e-5)


def test_switch_count_pmf_asymmetric_normalizes():
    dist = switch_count_distribution(EXP1, EXP2, +1, 1.5)
    assert abs(dist.sum() - 1.0) < 1e-3
    assert np.all(dist >= 0.0)


@pytest.mark.parametrize("plus, minus", [("exp:1", "exp:2"), ("erlang:2:1", "exp:1")])
@pytest.mark.parametrize("t", [1.0, 3.0])
def test_switch_count_mean_matches_inverted_transform(plus, minus, t):
    # sum_k k P(N(t) = k | delta) against Gaver-Stehfest inversion of the
    # mean count's transform; order 14 limits the inversion to about 1e-4
    plus, minus = interval_from_spec(plus), interval_from_spec(minus)
    for delta, laplace in ((-1, laplace_N_less), (+1, laplace_N_greater)):
        pmf = switch_count_distribution(plus, minus, delta, t)
        exact = gaver_stehfest_invert(lambda s: laplace(plus, minus, s), t)
        assert np.arange(len(pmf)) @ pmf == pytest.approx(exact, rel=1e-3)


@pytest.mark.parametrize("t, exact", [(0.7, (0.3, 0.7)), (1.5, (0.0, 0.5, 0.5))])
def test_switch_count_deterministic_intervals(t, exact):
    # det:1 on both sides: the stationary delay is uniform on [0, 1] and
    # the switches after it come every 1; lumping a jump on the knots
    # costs up to half a step of the mean 1
    det = deterministic_interval(1.0)
    step = det.mean / 200.0
    for delta in (-1, 1):
        pmf = switch_count_distribution(det, det, delta, t, k_max=4)
        expected = np.zeros(5)
        expected[:len(exact)] = exact
        assert np.max(np.abs(pmf - expected)) <= step / det.mean


@pytest.mark.parametrize("c", [1.0, 1.00255, 1.0002])
@pytest.mark.parametrize("t", [0.7, 1.5])
def test_switch_count_det_law_has_no_negative_entries(c, t):
    # the delay's cells are its exact CDF's differences, so more than a
    # step away from c no entry is negative and P(N(t) = 0) is exact
    det = deterministic_interval(c)
    for delta in (-1, 1):
        pmf = switch_count_distribution(det, det, delta, t, k_max=4)
        assert np.all(pmf >= 0.0)
        assert pmf[0] == pytest.approx(1.0 - det.delay_cdf(t), abs=1e-14)


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 1.00255])
def test_switch_count_det_law_is_non_negative_next_to_the_jump(c):
    # within a step of c the delay's lumped CDF at t can round one ulp past 1
    det = deterministic_interval(c)
    step = det.mean / 200.0
    for t in np.linspace(c - 3.0 * step, c + 3.0 * step, 601):
        for delta in (-1, 1):
            assert np.all(switch_count_distribution(det, det, delta, float(t)) >= 0.0)


def test_switch_count_k_max_pads_past_the_negligible_counts():
    full = switch_count_distribution(EXP1, EXP2, -1, 1.5)
    assert np.array_equal(switch_count_distribution(EXP1, EXP2, -1, 1.5, k_max=3),
                          full[:4])
    padded = switch_count_distribution(EXP1, EXP2, -1, 1.5, k_max=len(full) + 5)
    assert np.array_equal(padded[:len(full)], full)
    assert np.all(padded[len(full):] == 0.0)


def test_switch_count_too_many_counts_is_a_numerical_error(monkeypatch):
    monkeypatch.setattr(excursions.switchproc, "_MAX_TERMS", 3)
    with pytest.raises(NumericalError, match="past 3 switches"):
        switch_count_distribution(EXP1, EXP1, -1, 2.0)
    assert len(switch_count_distribution(EXP1, EXP1, -1, 2.0, k_max=3)) == 4


def test_switch_count_decreasing_cdf_is_negative_mass():
    # a survival function given as the CDF: every cell mass is negative
    backwards = IntervalDistribution(name="backwards", mean=1.0, psi=EXP1.psi,
                                     cdf=lambda t: np.exp(-np.asarray(t)),
                                     sampler=EXP1.sampler, delay_cdf=EXP1.delay_cdf,
                                     delay_sampler=EXP1.delay_sampler)
    with pytest.raises(NumericalError, match="switch 2 has .* negative mass"):
        switch_count_distribution(EXP1, backwards, +1, 3.0)


@pytest.mark.parametrize("horizon", [math.inf, math.nan, 0.0, -1.0])
def test_switch_simulators_reject_a_horizon_that_is_not_finite_and_positive(horizon):
    for stationary in (False, True):
        with pytest.raises(DomainError, match="horizon must be finite and positive"):
            simulate_switch_paths(EXP1, EXP1, 3, horizon, seed=0, stationary=stationary)


def test_switch_count_domain():
    with pytest.raises(DomainError):
        switch_count_distribution(EXP1, EXP1, 0, 1.0)
    with pytest.raises(DomainError):
        switch_count_distribution(EXP1, EXP1, +1, 0.0)


def _unevaluated(name):
    # a law whose CDFs must not be reached: the input check comes first
    def cdf(t):
        raise AssertionError(f"{name} CDF evaluated")
    return IntervalDistribution(name=name, mean=1.0, psi=EXP1.psi, cdf=cdf,
                                sampler=EXP1.sampler, delay_cdf=cdf,
                                delay_sampler=EXP1.delay_sampler)


@pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_switch_count_rejects_a_horizon_that_is_not_finite_and_positive(t):
    with pytest.raises(DomainError, match="horizon must be finite and positive"):
        switch_count_distribution(_unevaluated("plus"), _unevaluated("minus"), -1, t)


@pytest.mark.parametrize("t", [1e9, 10_500.0])
def test_switch_count_rejects_a_horizon_past_the_knot_cap(t):
    # 200 knots per mean of 1: 1e9 needs 2e11 knots, 10 500 just over 2**21
    with pytest.raises(DomainError, match="too long"):
        switch_count_distribution(_unevaluated("plus"), _unevaluated("minus"), -1, t)


@pytest.mark.parametrize("k_max", [-1, -5, 2.5, 10_001, "3"])
def test_switch_count_rejects_a_bad_k_max(k_max):
    with pytest.raises(DomainError, match="k_max must be an integer"):
        switch_count_distribution(_unevaluated("plus"), _unevaluated("minus"), -1, 1.0,
                                  k_max=k_max)


# --------------------------------------------------------------- simulation

def test_deterministic_intervals_epoch_pattern():
    det = deterministic_interval(1.0)
    paths = simulate_switch_paths(det, det, 1, 5.5, seed=3, p0=1.0)
    assert np.array_equal(paths.epochs, [[1.0, 2.0, 3.0, 4.0, 5.0]])
    assert paths.initial_states.tolist() == [1]


def test_initial_state_probability():
    paths = simulate_switch_paths(EXP1, EXP1, 50, 1.0, seed=4, p0=1.0)
    assert np.all(paths.initial_states == 1)
    paths = simulate_switch_paths(EXP1, EXP1, 50, 1.0, seed=4, p0=0.0)
    assert np.all(paths.initial_states == -1)


LAWS = {"exp": (EXP1, EXP2),
        "erlang": (erlang_interval(2, 2.0), EXP1),
        "det": (deterministic_interval(1.0), deterministic_interval(0.5))}


@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize("law", sorted(LAWS))
def test_batch_counts_and_states_match_a_per_row_search(law, stationary):
    plus, minus = LAWS[law]
    horizon = 3.0
    paths = simulate_switch_paths(plus, minus, 2000, horizon, seed=13,
                                  stationary=stationary)
    grid = np.linspace(0.0, horizon, 13)   # holds every deterministic epoch
    counts, states = paths.count_at(grid), paths.state_at(grid)
    for row, delta, count, state in zip(paths.epochs, paths.initial_states,
                                        counts, states):
        epochs = row[np.isfinite(row)]
        assert np.all(epochs <= horizon) and np.all(np.isinf(row[len(epochs):]))
        reference = np.searchsorted(epochs, grid, side="right")
        assert np.array_equal(count, reference)
        assert np.array_equal(state, delta * (-1) ** reference)
    # rows with more epochs than the first block of holding times (after
    # the stationary delay) were topped up; only the random laws need it
    first_block = 2 * (int(1.1 * horizon / (plus.mean + minus.mean)) + 2)
    topped_up = np.isfinite(paths.epochs).sum(axis=1) > first_block + stationary
    assert topped_up.any() == (law != "det")


def test_symmetric_exponential_epoch_count():
    # switches of the pinned symmetric process arrive at rate lam
    lam = 1.0
    horizon = 50.0
    paths = simulate_switch_paths(EXP1, EXP1, 2000, horizon, seed=5)
    counts = paths.count_at(horizon)[:, 0]
    expect = lam * horizon
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expect) < 3.0 * se


def test_stationary_delay_memoryless():
    # symmetric exponential: the integrated-tail delay is again exponential
    paths = simulate_switch_paths(EXP1, EXP1, 100_000, 1.0, seed=6,
                                  stationary=True)
    assert kstest(paths.delays, "expon").statistic < 0.005


def test_stationary_state_probability():
    mu_p, mu_m = 2.0, 1.0
    paths = simulate_switch_paths(exponential_interval(1 / mu_p),
                                  exponential_interval(1 / mu_m),
                                  100_000, 0.5, seed=7, stationary=True)
    frac = np.mean(paths.initial_states == 1)
    se = math.sqrt(frac * (1 - frac) / len(paths.initial_states))
    assert abs(frac - mu_p / (mu_p + mu_m)) < 3.5 * se


def test_stationary_mean_is_time_constant():
    paths = simulate_switch_paths(EXP1, EXP1, 20_000, 5.0, seed=8,
                                  stationary=True)
    grid = np.linspace(0.0, 5.0, 11)
    states = paths.state_at(grid)
    mean = states.mean(axis=0)
    se = states.std(axis=0, ddof=1) / math.sqrt(len(states))
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
    one = simulate_switch_paths(EXP1, EXP1, 1, 1.0, seed=0)
    with pytest.raises(DomainError, match="two paths"):
        estimate_characteristics(one, np.linspace(0, 1, 3))
    two = simulate_switch_paths(EXP1, EXP1, 2, 1.0, seed=0)
    with pytest.raises(DomainError, match="at least one time"):
        estimate_characteristics(two, [])


def test_path_state_accounting():
    paths = simulate_switch_paths(EXP1, EXP2, 200, 20.0, seed=11, p0=1.0)
    for row in paths.epochs:
        epochs = row[np.isfinite(row)]
        assert np.all(np.diff(epochs) > 0) and np.all(epochs <= paths.horizon)
        assert np.all(np.isinf(row[len(epochs):]))
    states = paths.state_at([0.0, paths.horizon])
    assert np.array_equal(states[:, 0], paths.initial_states)
    assert set(np.unique(states)).issubset({-1, 1})


@pytest.mark.parametrize("p0", [0.3, 1.0])
def test_estimate_characteristics_equals_per_path_means(p0):
    # the estimator tallies switches per grid time; the oracle averages the
    # per-path states and counts directly, on an unsorted grid with ties and
    # times outside the horizon (p0 = 1 leaves the -1 group empty)
    paths = simulate_switch_paths(erlang_interval(2, 2.0), EXP1, 3000, 3.0, seed=12,
                                  p0=p0)
    t = np.array([0.0, 3.0, 1.0, 1.0, 2.5, 0.25, 4.0, -1.0])
    est = estimate_characteristics(paths, t)
    states, counts = paths.state_at(t), paths.count_at(t)
    delta = paths.initial_states
    centered = (states - states.mean(axis=0)) * (delta - delta.mean())[:, None]
    curves = [("e", states), ("p", states > 0), ("counts", counts)]
    for group, name in ((delta > 0, "plus"), (delta < 0, "minus")):
        for curve, values in curves:
            mean = getattr(est, f"{curve}_{name}")
            se = getattr(est, f"se_{curve}_{name}")
            if not group.any():
                assert np.all(np.isnan(mean)) and np.all(np.isnan(se))
                continue
            rows = values[group].astype(float)
            assert np.allclose(mean, rows.mean(axis=0), rtol=0, atol=1e-12)
            assert np.allclose(se, rows.std(axis=0, ddof=1) / math.sqrt(len(rows)),
                               rtol=0, atol=1e-12)
    assert np.allclose(est.covariance, centered.mean(axis=0), rtol=0, atol=1e-12)
    assert np.allclose(est.se_covariance,
                       centered.std(axis=0, ddof=1) / math.sqrt(len(delta)),
                       rtol=0, atol=1e-12)
    assert (est.n_plus, est.n_minus) == (int((delta > 0).sum()), int((delta < 0).sum()))
