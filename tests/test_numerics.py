import math
import warnings

import numpy as np
import pytest
import scipy.fft
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import kstest

import excursions.slepian
from _oracles import gaver_stehfest_invert
from excursions.covmodel import diffusion_covariance
from excursions.errors import DomainError, MonotonicityViolation
from excursions.iia import build_iia
from excursions.numerics import (Grid, b_integral, inverse_cdf_sample, lump_cells,
                                 lumped_cdf, ndtr, next_fast_len, norm_cdf,
                                 numerical_laplace)


# ---------------------------------------------------------------- norm_cdf

def test_norm_cdf_reference_points():
    # oracle: quadrature of the normal density, independent of ndtr
    oracle, _ = quad(lambda x: math.exp(-x * x / 2) / math.sqrt(2 * math.pi),
                     -12.0, 1.0, epsabs=1e-15)
    assert norm_cdf(1.0) == pytest.approx(oracle, abs=1e-14)
    assert norm_cdf(1.0) == pytest.approx(0.8413447461, abs=1e-9)
    assert norm_cdf(0.0) == 0.5
    assert norm_cdf(math.inf) == 1.0
    assert norm_cdf(-math.inf) == 0.0


def test_norm_cdf_symmetry_bulk():
    rng = np.random.default_rng(2)
    x = rng.normal(scale=3.0, size=10_000)
    assert np.max(np.abs(norm_cdf(x) + norm_cdf(-x) - 1.0)) < 1e-14


def test_norm_cdf_monotone():
    x = np.linspace(-10, 10, 5001)
    assert np.all(np.diff(norm_cdf(x)) >= 0.0)


def test_ndtr_matches_scipy_on_a_dense_grid():
    x = np.linspace(-38.0, 9.0, 470_001)
    got, ref = ndtr(x), scipy.special.ndtr(x)
    # the same cephes arithmetic: below |x| = sqrt 2 no exp is taken
    inner = np.abs(x) < math.sqrt(2.0)
    np.testing.assert_array_equal(got[inner], ref[inner])
    # beyond, numpy's exp and the C library's may round exp(-x^2/2) apart
    # (measured: 5.3e-16 relative, 1e-323 on the subnormal results below -37.5)
    np.testing.assert_allclose(got, ref, rtol=2e-15, atol=1e-322)
    special = np.array([-np.inf, -1e308, -38.0, 0.0, 1e308, np.inf])
    np.testing.assert_array_equal(ndtr(special), [0.0, 0.0, 0.0, 0.5, 1.0, 1.0])
    assert np.isnan(ndtr(np.nan))


def test_ndtr_equals_scipy_on_the_arguments_build_iia_passes(monkeypatch):
    seen = []

    def recording(x):
        seen.append(np.array(x, dtype=float))
        return ndtr(x)

    monkeypatch.setattr(excursions.slepian, "ndtr", recording)
    for u in (0.5, 1.25):
        build_iia(diffusion_covariance(2), u)
    assert len(seen) == 8       # two terms each of E_u^+ and E_u^- per level
    args = np.concatenate(seen)
    np.testing.assert_array_equal(ndtr(args), scipy.special.ndtr(args))


def test_next_fast_len_matches_scipy():
    n = np.arange(1, 100_001)
    for real in (False, True):
        ours = [next_fast_len(int(k), real) for k in n]
        assert ours == [scipy.fft.next_fast_len(int(k), real) for k in n]
    # the complex size is 11-smooth, as table2's circles need: 5544 = 2^3 3^2 7 11
    assert (next_fast_len(5541), next_fast_len(5541, real=True)) == (5544, 5625)
    assert next_fast_len(2**21 + 1, real=True) == scipy.fft.next_fast_len(2**21 + 1, True)
    for bad in (0, -3):
        with pytest.raises(DomainError):
            next_fast_len(bad)


# ---------------------------------------------------------------- lumped laws

def test_lumped_law_of_a_uniform_cdf():
    # uniform on [0, 1] in 8 cells of h, tabulated two knots past its end:
    # the end knots get half a cell, and the lumped CDF at a knot is exact
    # wherever the CDF is linear either side of it, a quarter cell off at
    # the kinks 0 and 1
    h = 0.125
    f = np.minimum(np.arange(11) * h, 1.0)
    masses = lump_cells(np.diff(f), 10)
    assert np.array_equal(masses, [h / 2] + [h] * 7 + [h / 2, 0.0])
    expected = f[:10].copy()
    expected[[0, 8]] = h / 4, 1.0 - h / 4
    assert [lumped_cdf(masses, k) for k in range(10)] == list(expected)


# ---------------------------------------------------------------- b_integral

def test_b_integral_zero_level_arcsine():
    for rho in np.linspace(-0.999, 0.999, 31):
        expect = 0.25 + math.asin(rho) / (2 * math.pi)
        assert b_integral(0.0, rho) == pytest.approx(expect, abs=1e-10)


def test_b_integral_independence_and_limits():
    for u in (-2.0, -0.5, 0.0, 0.7, 1.5):
        assert b_integral(u, 0.0) == pytest.approx(float(norm_cdf(u)) ** 2, abs=1e-10)
    assert b_integral(1.0, 1.0) == pytest.approx(0.8413447461, abs=1e-8)
    assert b_integral(1.0, -1.0) == pytest.approx(2 * float(norm_cdf(1.0)) - 1, abs=1e-12)
    assert b_integral(-1.0, -1.0) == 0.0


def test_b_integral_matches_quadrature_oracle():
    # oracle: the defining integral int_{-inf}^u phi(z) Phi((u - rho z)/sqrt(1-rho^2)) dz,
    # split where the inner argument changes sign, independent of Owen's T
    for u in (0.0, 0.5, 1.0, 1.25, -0.7, 3.0):
        for rho in (-0.999999, -0.99, -0.6, -0.2, 0.0, 0.3, 0.75, 0.99, 0.999999):
            den = math.sqrt((1.0 - rho) * (1.0 + rho))

            def integrand(z):
                return (math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
                        * norm_cdf((u - rho * z) / den))

            cuts = [-math.inf] + ([u / rho] if rho != 0.0 and u / rho < u else []) + [u]
            oracle = sum(quad(integrand, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                         for a, b in zip(cuts, cuts[1:]))
            assert b_integral(u, rho) == pytest.approx(oracle, abs=1e-12), (u, rho)


def test_b_integral_monotone_in_both_args():
    rhos = np.linspace(-0.95, 0.95, 20)
    vals = b_integral(0.5, rhos)
    assert np.array_equal(vals, [b_integral(0.5, r) for r in rhos])
    assert np.all(np.diff(vals) >= -1e-12)
    us = np.linspace(-2, 2, 20)
    vals = [b_integral(u, 0.3) for u in us]
    assert np.all(np.diff(vals) >= -1e-12)


def test_b_integral_domain():
    with pytest.raises(DomainError):
        b_integral(0.0, 1.5)


# --------------------------------------------------------- numerical_laplace

def test_laplace_of_exponential():
    t = np.linspace(0.0, 40.0, 8001)
    g = Grid(points=t, values=np.exp(-t))
    # oracle: int exp(-2t) dt = 1/2
    assert numerical_laplace(g, 1.0, tail_rate=1.0) == pytest.approx(0.5, rel=1e-8)
    g2 = Grid(points=t, values=np.exp(-2.0 * t))
    assert numerical_laplace(g2, 1.0, tail_rate=2.0) == pytest.approx(1.0 / 3.0, rel=1e-8)


def test_laplace_of_zero_and_domain():
    t = np.linspace(0.0, 5.0, 101)
    g = Grid(points=t, values=np.zeros_like(t))
    assert numerical_laplace(g, 1.0) == 0.0
    assert numerical_laplace(g, 1.0, tail_rate=1.0) == 0.0
    with pytest.raises(DomainError):
        numerical_laplace(g, 0.0)
    for rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError, match="tail rate"):
            numerical_laplace(g, 1.0, tail_rate=rate)


def test_laplace_tail_correction_matters():
    # short grid: the exponential tail carries most of the mass
    t = np.linspace(0.0, 2.0, 401)
    g = Grid(points=t, values=np.exp(-0.5 * t))
    assert numerical_laplace(g, 1.0, tail_rate=0.5) == pytest.approx(1.0 / 1.5, rel=1e-7)


# ------------------------------------------------------------ Gaver-Stehfest
# the inversion oracle of test_iia and test_switchproc, kept in _oracles

def test_gaver_stehfest_exponential_pair():
    est = gaver_stehfest_invert(lambda s: 1.0 / (1.0 + s), 1.0)
    assert est == pytest.approx(math.exp(-1.0), abs=1e-6)


def test_gaver_stehfest_constant():
    assert gaver_stehfest_invert(lambda s: 1.0 / s, 5.0) == pytest.approx(1.0, abs=1e-6)


def test_gaver_stehfest_exponential_density():
    est = gaver_stehfest_invert(lambda s: 2.0 / (2.0 + s), 0.5)
    assert est == pytest.approx(2.0 * math.exp(-1.0), abs=1e-5)


def test_gaver_stehfest_rate_sweep():
    # evaluated at t = 1/lam, where the inverse sits near its mode
    for lam in (0.5, 1.0, 2.0):
        est = gaver_stehfest_invert(lambda s: 1.0 / (s + lam), 1.0 / lam)
        assert est == pytest.approx(math.exp(-1.0), abs=1e-5)


def test_gaver_stehfest_order_validation():
    with pytest.raises(DomainError):
        gaver_stehfest_invert(lambda s: 1 / s, 1.0, order=13)
    with pytest.raises(DomainError):
        gaver_stehfest_invert(lambda s: 1 / s, 1.0, order=20)
    # all even orders in range work
    for order in (8, 10, 12, 14, 16, 18):
        gaver_stehfest_invert(lambda s: 1 / (1 + s), 1.0, order=order)


# -------------------------------------------------------- inverse_cdf_sample

def _exp_cdf_grid(t_max=30.0, n=3001):
    t = np.linspace(0.0, t_max, n)
    return Grid(points=t, values=1.0 - np.exp(-t))


def test_inverse_cdf_analytic_quantile():
    g = _exp_cdf_grid()
    u = 1.0 - math.exp(-1.0)
    assert inverse_cdf_sample(g, 1.0, u) == pytest.approx(1.0, abs=1e-4)


def test_inverse_cdf_left_edge():
    g = _exp_cdf_grid()
    assert inverse_cdf_sample(g, 1.0, 1e-12) == pytest.approx(0.0, abs=1e-8)


def test_inverse_cdf_kolmogorov_smirnov():
    g = _exp_cdf_grid(40.0, 4001)
    rng = np.random.default_rng(31)
    x = inverse_cdf_sample(g, 1.0, rng.random(1_000_000))
    assert kstest(x, "expon").statistic < 0.002


def test_inverse_cdf_tail_extrapolation():
    t = np.linspace(0.0, 3.0, 301)
    g = Grid(points=t, values=1.0 - np.exp(-t))
    u = 1.0 - math.exp(-10.0)
    assert inverse_cdf_sample(g, 1.0, u) == pytest.approx(10.0, abs=1e-3)


def test_inverse_cdf_monotonicity_violation():
    vals = np.array([0.0, 0.2, 0.1, 0.6, 1.0])
    g = Grid(points=np.arange(5.0), values=vals)
    with pytest.raises(MonotonicityViolation) as err:
        inverse_cdf_sample(g, 1.0, 0.5)
    assert err.value.index == 2


def test_inverse_cdf_bad_cdf_raises_on_every_call():
    # the CDF check is cached only when it passes; arrays and scalars
    # fail alike
    dip = Grid(points=np.arange(5.0), values=np.array([0.0, 0.2, 0.1, 0.6, 1.0]))
    for u in (0.5, np.full(100, 0.5), 0.5):
        with pytest.raises(MonotonicityViolation):
            inverse_cdf_sample(dip, 1.0, u)
    shifted = Grid(points=np.arange(3.0), values=np.array([0.1, 0.5, 1.0]))
    for u in (np.full(100, 0.5), 0.5):
        with pytest.raises(DomainError, match="start at zero"):
            inverse_cdf_sample(shifted, 1.0, u)


def test_inverse_cdf_rejects_nan_draws():
    g = _exp_cdf_grid()
    with pytest.raises(DomainError):
        inverse_cdf_sample(g, 1.0, np.full(5000, np.nan))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# CDF increments mixing plateaus, subnormal steps (infinite segment
# slopes) and ordinary steps
_cdf_steps = st.lists(
    st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-17]),
              st.floats(1e-6, 1.0)),
    min_size=1, max_size=40).filter(lambda xs: max(xs) >= 1e-6)


@settings(max_examples=300, deadline=None)
@given(steps=_cdf_steps,
       start=st.sampled_from([0.0, 1e-13, -1e-13]),
       scale=st.floats(0.5, 1.5),
       span=st.sampled_from([10.0, 1e305]),
       seed=st.integers(0, 2**32 - 1))
def test_inverse_cdf_equals_np_interp_bitwise(steps, start, scale, span, seed):
    rng = np.random.default_rng(seed)
    cum = np.concatenate(([0.0], np.cumsum(steps)))
    vals = start + cum / cum[-1] / scale
    # span 1e305 makes the slopes of the smallest steps overflow
    pts = np.concatenate(([0.0], np.cumsum(rng.uniform(1e-4, 1.0, len(steps)) * span)))
    g = Grid(points=pts, values=vals)
    size = 1 << (len(vals) - 1).bit_length()
    # knots and their successors, the fractions k / size, midpoints and
    # draws spread over every 1 / size interval, all below f_end
    u = np.concatenate((vals, np.nextafter(vals, 2.0), np.arange(1, size) / size,
                        0.5 * (vals[1:] + vals[:-1]),
                        ((np.arange(size)[:, None] + rng.random((size, 8))) / size).ravel()))
    u = u[(u > 0.0) & (u < min(vals[-1], 1.0))]
    if u.size == 0:
        return
    u = np.resize(u, max(u.size, len(vals)))    # at least one draw per knot
    assert np.array_equal(_bits(inverse_cdf_sample(g, 1.0, u)),
                          _bits(np.interp(u, vals, pts)))
    for x in u[:5]:                             # scalars
        assert _bits(inverse_cdf_sample(g, 1.0, float(x))) == \
            _bits(np.interp(x, vals, pts))


def test_inverse_cdf_exact_hit_on_steep_segment():
    # a knot at 0.5 followed by a segment whose slope
    # overflows: np.interp answers the knot itself, not inf * 0
    vals = np.array([0.0, 0.5, np.nextafter(0.5, 1.0), 1.0])
    pts = np.array([0.0, 1.0, 1e305, 2e305])
    g = Grid(points=pts, values=vals)
    u = np.full(8, 0.5)
    assert np.array_equal(inverse_cdf_sample(g, 1.0, u), np.interp(u, vals, pts))


def test_guide_table_is_quiet_on_flat_and_steep_steps():
    # exact hits on a flat step and on a step whose slope overflows
    # raise no warning and leave the error state as it was
    vals = np.array([0.0, 0.25, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0])
    pts = np.array([0.0, 1.0, 2.0, 3.0, 1e305, 2e305])
    g = Grid(points=pts, values=vals)
    u = np.repeat([0.25, 0.5, 0.75], 4)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = inverse_cdf_sample(g, 1.0, u)
    assert np.geterr() == before
    assert np.array_equal(got, np.interp(u, vals, pts))


def test_inverse_cdf_bitwise_over_several_chunks():
    # an IIA-like CDF with a long flat tail, drawn 3 * 2**16 + 17 times
    t = np.linspace(0.0, 200.0, 20_001)
    f = np.minimum(1.0 - np.exp(-0.3 * t) * (1.0 + 0.2 * np.sin(t)), 1.0)
    f = np.maximum.accumulate(np.maximum(f, 0.0))
    f[0] = 0.0
    g = Grid(points=t, values=f)
    u = np.random.default_rng(8).random(3 * (1 << 16) + 17)
    below = u < f[-1]
    got = inverse_cdf_sample(g, 0.3, u)
    assert np.array_equal(_bits(got[below]), _bits(np.interp(u[below], f, t)))


def test_inverse_cdf_tail_branch_unchanged():
    t = np.linspace(0.0, 3.0, 301)
    g = Grid(points=t, values=1.0 - np.exp(-t))
    f_end = g.values[-1]
    u = np.concatenate((np.full(400, f_end),
                        f_end + (1.0 - f_end) * np.linspace(0.01, 0.99, 400)))
    got = inverse_cdf_sample(g, 0.7, u)
    want = np.interp(u, g.values, t)
    over = u > f_end
    want[over] = t[-1] + np.log((1.0 - f_end) / (1.0 - u[over])) / 0.7
    assert np.array_equal(_bits(got), _bits(want))
    assert np.all(got[~over] == t[-1])


def test_inverse_cdf_requires_a_positive_tail_rate():
    # even a CDF that reaches one needs a tail rate
    t = np.linspace(0.0, 2.0, 201)
    g = Grid(points=t, values=np.append(1.0 - np.exp(-t[:-1]), 1.0))
    for rate in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="tail rate must be positive"):
            inverse_cdf_sample(g, rate, 0.5)


# ----------------------------------------------------------------- Grid type

def test_grid_invariants():
    with pytest.raises(DomainError):
        Grid(points=np.array([0.0, 0.0, 1.0]), values=np.zeros(3))
    with pytest.raises(DomainError):
        Grid(points=np.array([-1.0, 1.0]), values=np.zeros(2))
    with pytest.raises(DomainError):
        Grid(points=np.array([0.0, 1.0]), values=np.zeros(3))
    with pytest.raises(DomainError):
        Grid(points=np.array([0.0]), values=np.array([1.0]))


def test_grid_arrays_are_read_only_copies():
    pts = np.linspace(0.0, 1.0, 11)
    vals = pts.copy()
    g = Grid(points=pts, values=vals)
    for arr in (g.points, g.values):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 5.0
    assert pts.flags.writeable and vals.flags.writeable
    pts[0] = vals[0] = 7.0
    assert g.points[0] == 0.0 and g.values[0] == 0.0
