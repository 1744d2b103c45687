import math

import numpy as np
import pytest

from excursions.covmodel import diffusion_covariance
from excursions.errors import DomainError

# log-spaced probe over [1e-3, 50]
PROBE = np.logspace(-3, np.log10(50.0), 1000)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_diffusion_normalization_and_slope(d):
    m = diffusion_covariance(d)
    assert m.r(0.0) == 1.0
    assert m.r_prime(0.0) == 0.0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_r_prime_matches_central_differences(d):
    m = diffusion_covariance(d)
    h = 1e-4
    central = (m.r(PROBE + h) - m.r(PROBE - h)) / (2 * h)
    assert np.max(np.abs(central - m.r_prime(PROBE))) <= 1e-6


def test_diffusion_r_pp0_finite_difference_oracle():
    h = 1e-4
    for d in (1, 2, 3):
        m = diffusion_covariance(d)
        est = (m.r(h) - 2.0 * m.r(0.0) + m.r(-h)) / (h * h)
        assert m.r_pp0 == pytest.approx(-d / 8.0)
        assert est == pytest.approx(m.r_pp0, abs=1e-7)


def test_diffusion_point_value():
    m = diffusion_covariance(2)
    assert m.r(2.0) == pytest.approx(1.0 / math.cosh(1.0), abs=1e-14)
    assert m.r(2.0) == pytest.approx(0.6480543, abs=1e-7)


def test_diffusion_vectorized_and_even():
    m = diffusion_covariance(3)
    t = np.linspace(-5, 5, 101)
    assert np.allclose(m.r(t), m.r(-t))
    assert np.allclose(m.r_prime(t), -m.r_prime(-t), atol=1e-15)


def test_one_minus_r_stability():
    m = diffusion_covariance(2)
    # tiny times: naive 1 - r loses all precision; the stable path keeps
    # full relative accuracy against the t^2/8 leading term
    for t in (1e-8, 1e-6, 1e-4):
        expect = t * t / 8.0
        assert m.one_minus(t) == pytest.approx(expect, rel=1e-6)


def test_cauchy_schwarz_probe():
    for d in (1, 2, 3):
        m = diffusion_covariance(d)
        rv = np.asarray(m.r(PROBE))
        rp = np.asarray(m.r_prime(PROBE))
        assert np.min(1.0 - rv * rv + rp * rp / m.r_pp0) >= -1e-12
        assert np.max(np.abs(rv)) <= 1.0


def test_dimension_domain():
    with pytest.raises(DomainError):
        diffusion_covariance(0)
    with pytest.raises(DomainError):
        diffusion_covariance(-3)
