import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import excursions.slepian
from excursions.covmodel import diffusion_covariance
from excursions.errors import DomainError
from excursions.numerics import norm_cdf
from excursions.slepian import (conditional_expected_clipped,
                                expected_clipped_down, expected_clipped_up,
                                sample_slepian_path)

M2 = diffusion_covariance(2)


def test_zero_level_identity_d2():
    # at u = 0 the clipped mean collapses to -r'/(sqrt(-r''(0)) sqrt(1-r^2)),
    # which for sech(t/2) is sech(t/2) itself
    t = np.logspace(-3, np.log10(50.0), 2000)
    deviation = np.abs(expected_clipped_up(M2, 0.0, t) - 1.0 / np.cosh(t / 2.0))
    assert np.max(deviation) < 1e-10


def test_point_value_zero_level():
    assert expected_clipped_up(M2, 0.0, 1.0) == pytest.approx(
        1.0 / math.cosh(0.5), abs=1e-12)


def test_short_time_limit():
    for u in (0.0, 0.5, 1.0, 1.25, -1.0):
        assert expected_clipped_up(M2, u, 1e-6) == pytest.approx(1.0, abs=1e-4)
        assert expected_clipped_down(M2, u, 1e-6) == pytest.approx(-1.0, abs=1e-4)


def test_long_time_limit():
    for u in (0.0, 0.5, 1.0, 1.25):
        lim = 1.0 - 2.0 * float(norm_cdf(u))
        assert expected_clipped_up(M2, u, 50.0) == pytest.approx(lim, abs=1e-6)
        assert expected_clipped_down(M2, u, 50.0) == pytest.approx(lim, abs=1e-6)
    assert expected_clipped_up(M2, 1.0, 50.0) == pytest.approx(-0.6826895, abs=1e-6)


def test_values_within_unit_interval():
    t = np.logspace(-8, 2, 500)
    for u in (-1.5, 0.0, 0.7, 2.0):
        vals = expected_clipped_up(M2, u, t)
        assert np.all(vals <= 1.0) and np.all(vals >= -1.0)


def test_antisymmetry_exact():
    t = np.linspace(0.05, 30.0, 200)
    for u in (0.0, 0.4, 1.2):
        down = expected_clipped_down(M2, u, t)
        up_neg = expected_clipped_up(M2, -u, t)
        assert np.array_equal(down, -up_neg)


def test_domain_rejects_nonpositive_time():
    with pytest.raises(DomainError):
        expected_clipped_up(M2, 0.0, 0.0)
    with pytest.raises(DomainError):
        expected_clipped_up(M2, 0.0, -1.0)
    with pytest.raises(DomainError):
        conditional_expected_clipped(M2, 0.0, 1.0, -1.0)


def test_conditional_small_slope_zero_level():
    # with u = 0 and a vanishing slope draw the argument of Phi vanishes
    assert conditional_expected_clipped(M2, 0.0, 1.0, 1e-12) == pytest.approx(
        0.0, abs=1e-9)


def test_conditional_large_slope():
    assert conditional_expected_clipped(M2, 1.0, 1.0, 50.0) == pytest.approx(
        1.0, abs=1e-12)


def test_conditional_degenerate_time_limit():
    assert conditional_expected_clipped(M2, 0.7, 1e-10, 1.0) == 1.0


def test_rayleigh_mixture_identity():
    # integrating the conditional mean against the Rayleigh density must
    # reproduce the unconditional clipped mean; this pins the sign of the
    # slope term in the conditional formula
    for u in (0.0, 1.0, 1.25):
        for t in (0.5, 2.0, 10.0):
            mixed, _ = quad(
                lambda s: conditional_expected_clipped(M2, u, t, s)
                * s * math.exp(-s * s / 2.0),
                0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
            assert mixed == pytest.approx(
                expected_clipped_up(M2, u, t), abs=1e-6)


def test_sampled_paths_start_on_level():
    grid = np.linspace(0.0, 10.0, 41)
    for u in (0.0, 1.0):
        det, slope, residual = sample_slepian_path(M2, u, grid, 50, seed=5)
        assert det.shape == (41,)
        assert slope.shape == residual.shape == (50, 41)
        total = det + slope + residual
        assert np.all(total[:, 0] == u)
        assert np.all(residual[:, 0] == 0.0)
        # the slope part is R times a shape that is positive just after 0
        assert np.all(slope[:, 1] > 0)


def test_sampled_paths_upcross():
    # just after the crossing the slope term dominates, so nearly every
    # path sits above the level at the first grid step
    grid = np.array([0.0, 0.01, 0.5, 1.0])
    det, slope, residual = sample_slepian_path(M2, 0.5, grid, 10_000, seed=6)
    above = np.mean((det + slope + residual)[:, 1] > 0.5)
    assert above >= 1.0 - 1e-3


def test_sampled_sign_mean_matches_clipped_expectation():
    grid = np.array([0.0, 1.0])
    det, slope, residual = sample_slepian_path(M2, 0.0, grid, 100_000, seed=7)
    signs = np.copysign(1.0, (det + slope + residual)[:, 1])
    expect = expected_clipped_up(M2, 0.0, 1.0)
    se = signs.std() / math.sqrt(len(signs))
    assert abs(signs.mean() - expect) < 3.0 * se


def test_residual_covariance_monte_carlo():
    grid = np.array([0.0, 0.5, 1.0, 2.0, 4.0])
    _, _, res = sample_slepian_path(M2, 0.0, grid, 100_000, seed=8)
    emp = res.T @ res / len(res)
    tt = grid[:, None]
    ss = grid[None, :]
    target = (np.asarray(M2.r(np.abs(tt - ss)))
              - np.asarray(M2.r(tt)) * np.asarray(M2.r(ss))
              + np.asarray(M2.r_prime(tt)) * np.asarray(M2.r_prime(ss)) / M2.r_pp0)
    # CLT band: var of a product of joint normals is bounded by ~2 here
    se = 3.0 / math.sqrt(len(res))
    assert np.max(np.abs(emp - target)) < 3.0 * se


@pytest.mark.parametrize("d", [1, 2, 3])
def test_residual_covariance_is_exactly_symmetric(d):
    # the sampler factorizes it as it is, with no symmetrizing pass
    model = diffusion_covariance(d)
    rng = np.random.default_rng(d)
    for t in (np.linspace(0.05, 20.0, 400), np.sort(rng.uniform(0.0, 30.0, 333))):
        cov = excursions.slepian._residual_covariance(model, t)
        assert np.array_equal(cov, cov.T)


def test_sampler_holds_at_most_two_and_a_half_covariances():
    # the covariance is filled in place and jittered on its diagonal, so the
    # factor is the only other matrix alive
    grid = np.linspace(0.0, 20.0, 2049)
    matrix = 8 * 2048 ** 2
    tracemalloc.start()
    try:
        sample_slepian_path(M2, 0.5, grid, 2, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * matrix


def test_sampler_grid_validation():
    with pytest.raises(DomainError):
        sample_slepian_path(M2, 0.0, np.array([0.5, 1.0]), 1, seed=0)
    with pytest.raises(DomainError):
        sample_slepian_path(M2, 0.0, np.array([0.0, 0.0, 1.0]), 1, seed=0)


class _Reached(Exception):
    pass


def test_sampler_rejects_a_covariance_past_its_bound_before_allocating(monkeypatch):
    def reached(*_):
        raise _Reached

    monkeypatch.setattr(excursions.slepian, "_residual_covariance", reached)
    # 4096 interior points, a 2**24-entry matrix, is the largest grid it builds
    with pytest.raises(_Reached):
        sample_slepian_path(M2, 0.0, np.linspace(0.0, 20.0, 4097), 1, seed=0)
    with pytest.raises(DomainError, match="4097 interior points"):
        sample_slepian_path(M2, 0.0, np.linspace(0.0, 20.0, 4098), 1, seed=0)
    # the 20001-point grid of --grid-step 0.001 would need a 3.2 GB matrix
    tracemalloc.start()
    try:
        with pytest.raises(DomainError) as err:
            sample_slepian_path(M2, 0.0, np.linspace(0.0, 20.0, 20_001), 1, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "the grid's 20000 interior points need a 20000 x 20000 residual covariance, "
        "more than the 16777216 entries (4096 points) allowed")
    assert peak < 2 ** 20
