import math

import numpy as np
import pytest

from excursions.clipped import arcsin_covariance, clipped_covariance
from excursions.covmodel import diffusion_covariance
from excursions.errors import DomainError
from excursions.numerics import norm_cdf

M2 = diffusion_covariance(2)


def test_zero_level_arcsine_law():
    t = np.linspace(0.0, 30.0, 200)
    vals = clipped_covariance(M2, 0.0, t)
    ref = arcsin_covariance(M2, t)
    assert np.max(np.abs(vals - ref)) < 1e-8


def test_lag_zero_binary_variance():
    # variance of a +-1 indicator with success probability Phi(u)
    phi1 = float(norm_cdf(1.0))
    expect = 1.0 - (1.0 - 2.0 * phi1) ** 2
    assert clipped_covariance(M2, 1.0, 0.0) == pytest.approx(expect, abs=1e-10)
    assert expect == pytest.approx(0.5339351, abs=1e-7)


def test_monte_carlo_oracle_u1():
    rng = np.random.default_rng(99)
    n = 1_000_000
    u = 1.0
    for t in (0.5, 1.0, 2.0):
        rho = float(M2.r(t))
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
        prod = np.sign(z1 - u) * np.sign(z2 - u)
        mc = prod.mean() - (1.0 - 2.0 * float(norm_cdf(u))) ** 2
        se = prod.std() / math.sqrt(n)
        assert abs(clipped_covariance(M2, u, t) - mc) < 3.0 * se


def test_level_symmetry():
    t = np.linspace(0.0, 20.0, 50)
    a = clipped_covariance(M2, 0.8, t)
    b = clipped_covariance(M2, -0.8, t)
    assert np.max(np.abs(a - b)) < 1e-10


def test_decreasing_and_bounded():
    t = np.linspace(0.0, 30.0, 100)
    vals = clipped_covariance(M2, 0.5, t)
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all(np.abs(vals) <= vals[0] + 1e-12)


def test_vanishes_with_decorrelation():
    assert clipped_covariance(M2, 0.7, 60.0) == pytest.approx(0.0, abs=1e-9)


def test_negative_lag_rejected():
    with pytest.raises(DomainError):
        clipped_covariance(M2, 0.0, -0.5)


@pytest.mark.parametrize("u, t, match", [
    (0.0, math.nan, "lag must be non-negative"),
    (0.5, [0.0, math.nan], "lag must be non-negative"),
    (math.nan, 1.0, "level must be finite"),
    (math.inf, 1.0, "level must be finite"),
])
def test_a_nan_lag_or_a_bad_level_is_a_domain_error(u, t, match):
    # a NaN lag read NaN before it was checked
    with pytest.raises(DomainError, match=match):
        clipped_covariance(M2, u, t)


def test_an_infinite_lag_gives_the_decorrelated_limit():
    assert clipped_covariance(M2, 0.5, math.inf) == pytest.approx(0.0, abs=1e-15)
