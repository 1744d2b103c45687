import concurrent.futures
import inspect
import io
import math
import sys
import threading
import tokenize

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.stats import ks_2samp

import excursions.iia
import excursions.persistency
import excursions.slepian
from _oracles import gaver_stehfest_invert
from excursions.covmodel import CovarianceModel, diffusion_covariance
from excursions.errors import (DomainError, GridTooShort, MonotonicityViolation,
                               NumericalError)
from excursions.iia import (build_iia, excursion_law, persistency_exponent,
                            persistency_table, psi_hat, sample_excursion)
from excursions.numerics import inverse_cdf_sample, norm_cdf, uniform_grid
from excursions.persistency import aggregate_fits, fit_persistency
from excursions.slepian import expected_clipped_down, expected_clipped_up

M2 = diffusion_covariance(2)


@pytest.fixture(scope="module")
def iia_u0():
    return build_iia(M2, 0.0)


@pytest.fixture(scope="module")
def iia_u1():
    return build_iia(M2, 1.0)


def test_zero_level_closed_form(iia_u0):
    assert iia_u0.alpha == 0.5
    assert iia_u0.beta == 0.5
    t = iia_u0.f_x_cdf.points
    expect = 1.0 - 1.0 / np.cosh(t / 2.0)
    assert np.max(np.abs(iia_u0.f_x_cdf.values - expect)) < 1e-10
    assert np.max(np.abs(iia_u0.f_y_cdf.values - expect)) < 1e-10


def test_alpha_is_gaussian_cdf(iia_u1):
    assert iia_u1.alpha == pytest.approx(float(norm_cdf(1.0)), abs=1e-15)
    assert iia_u1.alpha == pytest.approx(0.8413447, abs=1e-7)


def test_cdf_normalization(iia_u1):
    for grid in (iia_u1.f_x_cdf, iia_u1.f_y_cdf):
        assert grid.values[0] == 0.0
        assert grid.values[-1] >= 1.0 - 1e-6
        assert np.all(np.diff(grid.values) >= 0.0)


def test_monotonicity_gate_all_paper_levels():
    for u in (0.0, 0.5, 1.0, 1.25):
        build_iia(M2, u)


def test_monotonicity_violation_above_threshold():
    with pytest.raises(MonotonicityViolation) as err:
        build_iia(M2, 1.5)
    assert "down" in err.value.which
    assert err.value.t is not None


def test_grid_too_short():
    with pytest.raises(GridTooShort):
        build_iia(M2, 0.0, t_max=5.0, step=0.01)


def test_covariance_that_does_not_decay_is_a_domain_error():
    # r' = 0 makes -r'/r zero, which no divisor tail can decay at
    flat = CovarianceModel(name="flat r'", r=M2.r, r_prime=lambda t: 0.0 * np.asarray(t),
                           r_pp0=M2.r_pp0, one_minus_r=M2.one_minus_r)
    with pytest.raises(DomainError, match=r"decay rate -r'/r must be positive and finite"):
        build_iia(flat, 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 6])
def test_decay_rate_is_d_over_four(d):
    # r(t) = sech(t/2)^{d/2} decays as e^{-d t/4}; -r'/r = (d/4) tanh(t/2) is
    # read where r is still 1e-10, which at d = 6 is t of about 16.7
    assert build_iia(diffusion_covariance(d), 0.0).decay_rate == pytest.approx(d / 4.0,
                                                                                rel=2e-7)


def test_side_duality():
    # above-side structures at level u equal below-side structures at -u
    a = build_iia(M2, 0.7)
    b = build_iia(M2, -0.7)
    assert a.alpha == pytest.approx(b.beta, abs=1e-12)
    assert np.max(np.abs(a.f_x_cdf.values - b.f_y_cdf.values)) <= 1e-12
    assert np.max(np.abs(a.f_y_cdf.values - b.f_x_cdf.values)) <= 1e-12


BENCH_LEVELS = (0.0, 0.5, 1.0, 1.25)


def _reference_divisors(u):
    """F_X and F_Y from the public clipped means, as built."""
    t = uniform_grid(200.0, 0.01)
    alpha = float(norm_cdf(u))
    e_inf = 1.0 - 2.0 * alpha
    e_up = np.concatenate(([1.0], expected_clipped_up(M2, u, t[1:])))
    e_dn = np.concatenate(([-1.0], expected_clipped_down(M2, u, t[1:])))
    out = []
    for surv in (np.maximum((e_up - e_inf) / (2.0 * alpha), 0.0),
                 np.maximum((e_inf - e_dn) / (2.0 * (1.0 - alpha)), 0.0)):
        f = np.minimum(np.maximum.accumulate(1.0 - surv), 1.0)
        f[0] = 0.0
        out.append(f)
    return out


def test_built_divisors_equal_the_public_clipped_means_bitwise():
    # build_iia and persistency_table share the level-free Slepian terms
    # across levels and signs, on a grid sized from the covariance; neither
    # may move a bit of the full grid's divisors, and past the sized end
    # the full grid's survivals are below the cut
    rows = persistency_table(M2, list(BENCH_LEVELS), 1000, 2, 3)
    for u, (table_iia, _, _) in zip(BENCH_LEVELS, rows):
        f_x, f_y = _reference_divisors(u)
        for iia in (build_iia(M2, u), table_iia):
            n = len(iia.f_x_cdf)
            assert n < len(f_x)
            assert np.array_equal(iia.f_x_cdf.values.view(np.int64), f_x[:n].view(np.int64))
            assert np.array_equal(iia.f_y_cdf.values.view(np.int64), f_y[:n].view(np.int64))
            assert max(1.0 - f_x[n - 1], 1.0 - f_y[n - 1]) < excursions.iia._CUT


@pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
def test_non_finite_level_is_a_domain_error(u):
    with pytest.raises(DomainError, match=f"level must be finite, got {u}"):
        build_iia(M2, u)


def _divisors(iia, side):
    """(first CDF, extra CDF, success probability)."""
    x, y = iia.f_x_cdf, iia.f_y_cdf
    return (x, y, iia.alpha) if side == "above" else (y, x, iia.beta)


def _geometric_sum(iia, side, n, seed):
    # the representation itself: one first divisor plus nu - 1 extra ones
    first, extra, p = _divisors(iia, side)
    rng = np.random.default_rng(seed)

    def draw(cdf, k):
        u, f_end = rng.random(k), cdf.values[-1]
        t = np.interp(u, cdf.values, cdf.points)
        over = u > f_end
        t[over] = cdf.points[-1] + np.log((1.0 - f_end) / (1.0 - u[over])) / iia.decay_rate
        return t

    n_extra = rng.geometric(p, n) - 1
    out = draw(first, n)
    np.add.at(out, np.repeat(np.arange(n), n_extra), draw(extra, n_extra.sum()))
    return out


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("u", [0.0, 1.25])
def test_law_samples_match_the_geometric_sum(u, side):
    n = 200_000
    iia = build_iia(M2, u)
    stat = ks_2samp(sample_excursion(iia, side, n, seed=2601),
                    _geometric_sum(iia, side, n, seed=2602)).statistic
    # asymptotic two-sample critical value at the 0.1% level
    assert stat < math.sqrt(-0.5 * math.log(0.0005)) * math.sqrt(2.0 / n)


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("u", [0.0, 1.0, 1.25])
def test_law_survival_matches_laplace_inversion(u, side):
    iia = build_iia(M2, u)
    cdf, _ = excursion_law(iia, side)
    for t in (0.5, 5.0, 10.0):
        inverted = gaver_stehfest_invert(lambda s: (1.0 - psi_hat(iia, side, s)) / s, t)
        assert 1.0 - cdf.interpolate(t) == pytest.approx(inverted, abs=1e-4)


def _lundberg_root(iia, side):
    # b E[exp(theta Y)] = 1 above (X and a below): Simpson's rule on the
    # divisor curve down to its last knot with a survival of 1e-10, and past
    # it S_k e^{-rate (t - t_k)}, at the d = 2 covariance's rate of 1/2
    _, cdf, p = _divisors(iia, side)
    rate, surv = 0.5, 1.0 - cdf.values
    k = np.flatnonzero(surv >= 1e-10)[-1]
    t, surv = cdf.points[:k + 1], surv[:k + 1]

    def mgf(theta):
        tail = surv[-1] * math.exp(theta * t[-1]) / (rate - theta)
        return 1.0 + theta * (simpson(np.exp(theta * t) * surv, x=t) + tail)

    return brentq(lambda theta: (1.0 - p) * mgf(theta) - 1.0, 1e-6, rate - 1e-9)


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("u", [0.0, 0.5, 1.0])
def test_law_slope_matches_lundberg_root(u, side):
    # deep in the tail, where a second decay near the divisors' rate of 1/2
    # has died out and the survival falls at the asymptotic theta
    iia = build_iia(M2, u)
    cdf, _ = excursion_law(iia, side)
    surv = 1.0 - cdf.values
    window = (surv >= 1e-8) & (surv <= 1e-5)
    slope = np.polyfit(cdf.points[window], np.log(surv[window]), 1)[0]
    assert -slope == pytest.approx(_lundberg_root(iia, side), abs=1e-6)


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("u", [0.0, 0.5, 0.75, 1.0, 1.25])
def test_persistency_exponent_is_the_lundberg_root(u, side):
    iia = build_iia(M2, u)
    assert persistency_exponent(iia, side) == pytest.approx(_lundberg_root(iia, side),
                                                            abs=1e-6)


def test_persistency_exponent_at_the_highest_paper_level():
    # both divisors decay at 1/2, so even above, where beta is smallest, the
    # root lies below that rate
    iia = build_iia(M2, 1.25)
    assert persistency_exponent(iia, "above") == pytest.approx(0.498921, abs=1e-6)
    assert persistency_exponent(iia, "below") == pytest.approx(0.04117, abs=5e-6)
    with pytest.raises(DomainError):
        persistency_exponent(iia, "sideways")


def test_persistency_exponent_ignores_round_off_past_the_grid():
    # F_Y at u = 0.75 ends one ulp short of one; weighted by e^{theta t} at
    # t = 200 that ulp alone would halve the root
    above = persistency_exponent(build_iia(M2, 0.75), "above")
    below = persistency_exponent(build_iia(M2, -0.75), "below")
    assert above == pytest.approx(below, abs=1e-6)
    assert above == pytest.approx(0.35145, abs=1e-5)


def test_law_is_a_cdf_from_zero_to_one(iia_u1):
    for side in ("above", "below"):
        cdf, tail_rate = excursion_law(iia_u1, side)
        assert cdf.points[0] == 0.0 and cdf.values[0] == 0.0
        assert np.all(np.diff(cdf.values) >= 0.0)
        assert abs(1.0 - cdf.values[-1]) <= 1e-10
        assert tail_rate == persistency_exponent(iia_u1, side)
        assert excursion_law(iia_u1, side) is excursion_law(iia_u1, side)


def test_law_needing_knots_past_the_cap_is_a_numerical_error(monkeypatch):
    # u = 1.25 below is sized to about 5.8e4 knots of 0.01, which is refused
    # before any transform
    def no_fft(*args, **kwargs):
        raise AssertionError("FFT before the knot cap was checked")

    monkeypatch.setattr(excursions.iia, "_LAW_MAX_KNOTS", 50_000)
    iia = build_iia(M2, 1.25)
    with monkeypatch.context() as patch:
        patch.setattr(np.fft, "rfft", no_fft)
        with pytest.raises(NumericalError, match=r"u = 1.25, below side: .* needs \d+ knots"):
            excursion_law(iia, "below")
    assert excursion_law(iia, "above")[0].points[-1] < 201.0


def test_each_benchmark_law_takes_one_solve(monkeypatch):
    irfft, solves = np.fft.irfft, []

    def counting(*args, **kwargs):
        solves.append(args[1])
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    rows = persistency_table(M2, list(BENCH_LEVELS), 1000, 2, 9)
    assert len(solves) == 8
    for iia, _, _ in rows:
        for side in ("above", "below"):
            cdf, _ = excursion_law(iia, side)
            assert 1.0 - cdf.values[-1] <= 1e-10


def _right_way_models():
    # (d, model, iia) over dimensions and levels, for every level whose
    # curves run the right way; d = 1 runs the wrong way at |u| >= 1
    for d in (1, 2, 3, 6):
        model = diffusion_covariance(d)
        for u in np.arange(-5, 6) * 0.25:
            try:
                yield d, model, build_iia(model, float(u))
            except MonotonicityViolation:
                continue


def test_every_law_is_one_solve_decaying_below_the_divisor_rate(monkeypatch):
    # over dimensions and levels, every law whose curves run the right way
    # decays at a root below the rate its divisors share, and holds all but
    # 1e-10 of its mass in the one solve that root sizes
    irfft, solves = np.fft.irfft, []

    def counting(*args, **kwargs):
        solves.append(args[1])
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    laws = 0
    for _, _, iia in _right_way_models():
        for side in ("above", "below"):
            del solves[:]
            cdf, theta = excursion_law(iia, side)
            assert len(solves) == 1
            assert theta < iia.decay_rate
            assert 1.0 - cdf.values[-1] <= 1e-10
            laws += 1
    assert laws == 80


def test_every_law_equals_its_full_grid_reference_bitwise():
    # the divisor grid ends where the covariance sizes it; the same 80 laws
    # built on the whole default grid, which the divisors read only up to a
    # survival of 1e-10, are the same to the bit, and so are their roots
    t = uniform_grid(200.0, 0.01)
    terms, laws = {}, 0
    for d, model, iia in _right_way_models():
        if d not in terms:
            terms[d] = excursions.slepian._clipped_terms(model, t[1:])
        ref = excursions.iia._build_level(iia.level, iia.alpha, t, terms[d], iia.decay_rate)
        assert len(iia.f_x_cdf) < len(t)
        for side in ("above", "below"):
            (cdf, theta), (ref_cdf, ref_theta) = excursion_law(iia, side), excursion_law(ref, side)
            assert theta == ref_theta
            assert np.array_equal(cdf.points, ref_cdf.points)
            assert np.array_equal(cdf.values.view(np.int64), ref_cdf.values.view(np.int64))
            laws += 1
    assert laws == 80


def test_the_paper_levels_evaluate_a_quarter_of_the_default_grid(monkeypatch):
    # the default grid has 20001 knots; the divisors at the paper's levels
    # read at most 5176 of them
    clipped, knots = excursions.iia._clipped_up_from, []

    def counting(terms, u):
        knots.append(len(terms[0]))
        return clipped(terms, u)

    monkeypatch.setattr(excursions.iia, "_clipped_up_from", counting)
    excursions.iia._build_levels(M2, list(BENCH_LEVELS), 200.0, 0.01)
    assert len(knots) == 2 * len(BENCH_LEVELS)
    assert max(knots) < 6000


def test_a_cap_before_the_sized_end_is_grid_too_short():
    # at u = 1.25 the divisor grid is sized to end at t = 51.76
    assert build_iia(M2, 1.25, t_max=52.0).f_x_cdf.points[-1] == pytest.approx(51.76)
    with pytest.raises(GridTooShort, match=r"u = 1.25: the grid cap t_max = 50 falls before "
                                           r"the sized end of the divisor grid, near t = 51\.7"):
        build_iia(M2, 1.25, t_max=50.0)


def test_a_sized_end_that_leaves_a_survival_above_the_cut_is_a_numerical_error(monkeypatch):
    # the bound sizes the grid; the end is checked against the survivals built
    monkeypatch.setattr(excursions.iia, "_sized_ends",
                        lambda model, t, r, levels, *args: [4000] * len(levels))
    with pytest.raises(NumericalError, match=r"u = 1: the divisor survivals are .* at the "
                                             r"sized grid end t = 40, not below 1e-10"):
        build_iia(M2, 1.0)


def _mass_past(iia, side, knots):
    # the renewal equation solved afresh on `knots` knots: the mass past them
    first, extra, a = _divisors(iia, side)
    p_first, p_extra = (excursions.iia._Divisor(cdf, iia.decay_rate).masses(knots)
                        for cdf in (first, extra))
    size = 2 * knots
    q = np.fft.irfft(a * np.fft.rfft(p_first, size)
                     / (1.0 - (1.0 - a) * np.fft.rfft(p_extra, size)), size)[:knots]
    return 1.0 - q.sum()


@pytest.mark.parametrize("u, side", [(u, side) for u in BENCH_LEVELS
                                     for side in ("above", "below")])
def test_root_branch_laws_are_sized_without_waste(u, side):
    # the law ends where at most 1e-10 is left past it, and a tenth fewer
    # knots would leave more
    iia = build_iia(M2, u)
    knots = len(excursion_law(iia, side)[0]) - 1
    assert _mass_past(iia, side, knots) <= excursions.iia._LAW_END
    assert _mass_past(iia, side, int(0.9 * knots)) > excursions.iia._LAW_END


def test_an_undersized_law_is_a_numerical_error(monkeypatch):
    # the sizing is an asymptote; if it falls short, the one solve fails
    decay = excursions.iia._decay
    monkeypatch.setattr(excursions.iia, "_decay", lambda *args: (decay(*args)[0], 1e-3))
    irfft, solves = np.fft.irfft, []

    def counting(*args, **kwargs):
        solves.append(args[1])
        return irfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "irfft", counting)
    with pytest.raises(NumericalError, match=r"u = 0\.5, below side: .* knots holds "
                                             r".* of its mass past its end"):
        excursion_law(build_iia(M2, 0.5), "below")
    assert len(solves) == 1


def test_sample_mean_zero_level(iia_u0):
    # E[T] = E[X] + (1-a)/a E[Y] with E[X] = E[Y] = int sech(t/2) dt = pi
    draws = sample_excursion(iia_u0, "above", 1_000_000, seed=21)
    se = draws.std() / math.sqrt(len(draws))
    assert abs(draws.mean() - 2.0 * math.pi) < 4.0 * se
    assert np.all(draws > 0)


def test_sample_bare_first_draw(iia_u0):
    draws = sample_excursion(iia_u0, "above", 1000, seed=22)
    assert np.all(draws > 0)


def test_empirical_laplace_matches_psi_hat(iia_u1):
    for side in ("above", "below"):
        draws = sample_excursion(iia_u1, side, 1_000_000, seed=23)
        for s in (0.5, 1.0, 2.0):
            emp = np.exp(-s * draws)
            se = emp.std() / math.sqrt(len(emp))
            assert abs(emp.mean() - psi_hat(iia_u1, side, s)) < 3.0 * se


def test_psi_hat_small_s_limit(iia_u1):
    # Psi(s) = 1 - s E[T] + o(s): the transform tends to one from below
    # at a rate set by the mean excursion length
    for side in ("above", "below"):
        dev4 = 1.0 - psi_hat(iia_u1, side, 1e-4)
        dev5 = 1.0 - psi_hat(iia_u1, side, 1e-5)
        assert 0.0 < dev4 < 2e-3
        assert dev5 == pytest.approx(dev4 / 10.0, rel=0.02)


def test_psi_hat_symmetry_zero_level(iia_u0):
    for s in (0.3, 1.0, 3.0):
        assert psi_hat(iia_u0, "above", s) == pytest.approx(
            psi_hat(iia_u0, "below", s), abs=1e-8)


def test_psi_hat_in_unit_interval(iia_u1):
    for s in (0.1, 1.0, 10.0):
        for side in ("above", "below"):
            assert 0.0 < psi_hat(iia_u1, side, s) < 1.0


def _law_transform(cdf, theta, s):
    # E[e^{-sT}] of a law whose CDF is piecewise linear on its grid and whose
    # survival decays as e^{-theta t} past it, cell by cell in closed form
    t, f = cdf.points, cdf.values
    h = np.diff(t)
    cells = np.diff(f) * np.exp(-s * t[:-1]) * -np.expm1(-s * h) / (s * h)
    return math.fsum(cells) + (1.0 - f[-1]) * theta / (s + theta) * math.exp(-s * t[-1])


@pytest.fixture(scope="module")
def transform_gaps():
    # step -> |L(law) - psi_hat| per paper level, side and s in 0.5, 1, 2
    gaps = {}
    for step in (0.04, 0.02, 0.01):
        row = []
        for u in BENCH_LEVELS:
            iia = build_iia(M2, u, step=step)
            for side in ("above", "below"):
                cdf, theta = excursion_law(iia, side)
                row += [abs(_law_transform(cdf, theta, s) - psi_hat(iia, side, s))
                        for s in (0.5, 1.0, 2.0)]
        gaps[step] = np.array(row)
    return gaps


def test_law_transform_meets_psi_hat_without_draws(transform_gaps):
    # the solved law against the transform of the clipped means alone; the
    # largest gap reads 4.9e-6 at the default step
    assert transform_gaps[0.01].max() <= 1e-5


def test_law_transform_gap_falls_at_order_two(transform_gaps):
    # the trapezoid lumping is second order: each halving of the step
    # divides every gap by about four (3.94 to 3.99 measured)
    for coarse, fine in ((0.04, 0.02), (0.02, 0.01)):
        ratio = transform_gaps[coarse] / transform_gaps[fine]
        assert np.all((ratio >= 3.5) & (ratio <= 4.5))


def test_psi_hat_domain(iia_u0):
    with pytest.raises(DomainError):
        psi_hat(iia_u0, "above", 0.0)
    with pytest.raises(DomainError):
        psi_hat(iia_u0, "sideways", 1.0)


def test_sample_domain(iia_u0):
    with pytest.raises(DomainError):
        sample_excursion(iia_u0, "above", 0, seed=1)
    with pytest.raises(DomainError):
        sample_excursion(iia_u0, "diagonal", 10, seed=1)


def test_sampling_deterministic_under_seed(iia_u1):
    a = sample_excursion(iia_u1, "below", 1000, seed=77)
    b = sample_excursion(iia_u1, "below", 1000, seed=77)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("u, side", [(1.0, "above"), (1.25, "below")])
def test_sorted_walk_draws_the_unsorted_lengths_bitwise(u, side):
    # the reference is the draw in generation order; the 1.25 below law
    # holds the most knots of the paper's levels, about 5.8e4
    iia = build_iia(M2, u)
    cdf, tail_rate = excursion_law(iia, side)
    want = inverse_cdf_sample(cdf, tail_rate, np.random.default_rng(31).random(200_000))
    got = sample_excursion(iia, side, 200_000, seed=31)
    assert (got == want).all()


def _assert_same_estimate(est, ref):
    assert est.mean_theta == ref.mean_theta
    assert est.half_width == ref.half_width
    assert [f.theta for f in est.replicates] == [f.theta for f in ref.replicates]


@pytest.mark.parametrize("threads", ["1", "3"])
def test_persistency_table_equals_a_sequential_reference(monkeypatch, threads):
    # the seed spawns a seed per side and each side seed one per replicate,
    # however many levels there are
    monkeypatch.setenv("EXCURSION_IIA_THREADS", threads)
    samples, reps, grid = 5000, 3, {"t_max": 120.0, "step": 0.02}
    rep_seeds = [side_seed.spawn(reps) for side_seed in np.random.SeedSequence(41).spawn(2)]
    for levels in ((0.0, 1.0), (0.5,)):
        rows = persistency_table(M2, levels, samples, reps, 41, **grid)
        assert len(rows) == len(levels)
        for u, (iia, above, below) in zip(levels, rows):
            ref_iia = build_iia(M2, u, **grid)
            assert iia.level == u
            assert np.array_equal(iia.f_x_cdf.values, ref_iia.f_x_cdf.values)
            for side, seeds, est in zip(("above", "below"), rep_seeds, (above, below)):
                _assert_same_estimate(est, aggregate_fits([
                    fit_persistency(sample_excursion(ref_iia, side, samples, s))
                    for s in seeds]))


def test_each_level_of_a_multi_level_table_equals_its_one_level_call():
    levels, grid = (0.0, 0.5, 1.25), {"t_max": 120.0, "step": 0.02}
    rows = persistency_table(M2, levels, 3000, 3, 17, **grid)
    for u, (_, above, below) in zip(levels, rows):
        [(_, above_alone, below_alone)] = persistency_table(M2, [u], 3000, 3, 17, **grid)
        _assert_same_estimate(above, above_alone)
        _assert_same_estimate(below, below_alone)


def test_a_seed_sequence_gives_the_same_table_at_every_call():
    # spawning must not advance the caller's SeedSequence: the same object
    # twice reads what the integer it was made from reads
    grid = {"t_max": 120.0, "step": 0.02}
    ss = np.random.SeedSequence(7)
    [(_, above_int, below_int)] = persistency_table(M2, [0.5], 2000, 2, 7, **grid)
    for _ in range(2):
        [(_, above, below)] = persistency_table(M2, [0.5], 2000, 2, ss, **grid)
        _assert_same_estimate(above, above_int)
        _assert_same_estimate(below, below_int)
    assert ss.n_children_spawned == 0


def test_every_level_reads_the_same_window(monkeypatch):
    # one generator per side and replicate, whose one window every level maps
    default_rng, sample = np.random.default_rng, excursions.iia.inverse_cdf_sample
    generators, windows = [], []

    def counting_rng(seed):
        generators.append(seed)
        return default_rng(seed)

    def recording(cdf, tail_rate, uniform):
        windows.append(uniform)
        return sample(cdf, tail_rate, uniform)

    monkeypatch.setenv("EXCURSION_IIA_THREADS", "2")
    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(excursions.iia, "inverse_cdf_sample", recording)
    persistency_table(M2, [0.0, 0.5, 1.0, 1.25], 2000, 3, 5, t_max=120.0, step=0.02)
    assert len(generators) == 2 * 3
    assert len(windows) == 2 * 3 * 4
    assert len({id(w) for w in windows}) == 2 * 3
    for w in windows:
        assert sum(v is w for v in windows) == 4


def test_persistency_table_shares_one_law_per_level_and_side(monkeypatch):
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "3")
    sample = excursions.iia.inverse_cdf_sample
    grids, sizes = [], set()

    def recording(cdf, tail_rate, uniform):
        grids.append(cdf)
        sizes.add(len(uniform))
        return sample(cdf, tail_rate, uniform)

    monkeypatch.setattr(excursions.iia, "inverse_cdf_sample", recording)
    rows = persistency_table(M2, [0.0, 1.0], 2000, 3, 5, t_max=120.0, step=0.02)
    laws = {id(excursion_law(iia, side)[0]) for iia, _, _ in rows
            for side in ("above", "below")}
    assert len(grids) == 2 * 2 * 3
    assert {id(g) for g in grids} == laws and len(laws) == 4
    # each replicate maps only its fit window, the ranks [999, 1950)
    assert sizes == {1950 - 999}


def test_concurrent_first_requests_solve_each_law_once(monkeypatch):
    solve = excursions.iia._solve_law
    solved = []

    def counting(iia, side):
        solved.append(side)
        return solve(iia, side)

    monkeypatch.setattr(excursions.iia, "_solve_law", counting)
    iia = build_iia(M2, 0.5, t_max=120.0, step=0.02)
    sides = ["above", "below"] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=len(sides)) as pool:
            futures = [pool.submit(excursion_law, iia, side) for side in sides]
            laws = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(solved) == ["above", "below"]
    for side, law in zip(sides, laws):
        assert law is excursion_law(iia, side)


def test_a_failed_solve_is_kept_and_raised_to_every_later_task(monkeypatch):
    # the first two solves, one per side, wait for each other; every task
    # queued on a side's lock then gets that side's error, not a solve
    both_started = threading.Barrier(2)
    attempts = []

    def failing(iia, side):
        attempts.append(side)
        if len(attempts) <= 2:
            both_started.wait(timeout=60)
        raise NumericalError(f"{side} side: no law")

    monkeypatch.setenv("EXCURSION_IIA_THREADS", "4")
    monkeypatch.setattr(excursions.iia, "_solve_law", failing)
    with pytest.raises(NumericalError, match="above side: no law"):
        persistency_table(M2, [0.5], 2000, 6, 5, t_max=120.0, step=0.02)
    assert sorted(attempts) == ["above", "below"]
    iia = build_iia(M2, 0.5, t_max=120.0, step=0.02)
    for _ in range(2):
        with pytest.raises(NumericalError, match="below side: no law"):
            excursion_law(iia, "below")
    assert sorted(attempts) == ["above", "below", "below"]


def test_persistency_table_checks_replicates_before_building():
    with pytest.raises(DomainError, match="two replicates"):
        persistency_table(M2, [1.5], 1000, 1, 3)


def test_persistency_table_draws_are_sorted_sample_excursion_draws(monkeypatch):
    # replicate i of a side draws from the i-th seed its side seed spawns and
    # fits, level by level, only the ranks [lo, hi) of those lengths, sorted
    fit_window = excursions.iia._fit_window
    fitted = []

    def recording(window, ranks):
        fitted.append((window, ranks.n))
        return fit_window(window, ranks)

    monkeypatch.setenv("EXCURSION_IIA_THREADS", "1")     # the fits come in task order
    monkeypatch.setattr(excursions.iia, "_fit_window", recording)
    samples, reps = 20_000, 3
    lo, hi = samples - 1 - samples // 2, samples - 50
    rows = persistency_table(M2, [0.0, 1.25], samples, reps, 43, t_max=120.0, step=0.02)
    sides = [(side, side_seed.spawn(reps))
             for side, side_seed in zip(("above", "below"), np.random.SeedSequence(43).spawn(2))]
    fitted = iter(fitted)
    # the tasks run replicate-major: replicate 0 of both sides, then replicate 1
    for i in range(reps):
        for side, rep_seeds in sides:
            for iia, _, _ in rows:
                window, n = next(fitted)
                want = np.sort(sample_excursion(iia, side, samples, rep_seeds[i]))[lo:hi]
                assert n == samples
                assert np.array_equal(window.view(np.int64), want.view(np.int64))
    assert next(fitted, None) is None


def test_persistency_table_solves_a_levels_two_laws_at_once(monkeypatch):
    # each solve waits, with a timeout, until the other side's has started: the
    # pool's first two tasks are the level's two sides, and each side has its
    # own lock, so neither waits on the other's
    solve = excursions.iia._solve_law
    both_started = threading.Barrier(2)
    solved = []

    def meeting(iia, side):
        both_started.wait(timeout=60)
        solved.append(side)
        return solve(iia, side)

    monkeypatch.setenv("EXCURSION_IIA_THREADS", "2")
    monkeypatch.setattr(excursions.iia, "_solve_law", meeting)
    [(iia, above, below)] = persistency_table(M2, [0.5], 2000, 3, 5, t_max=120.0, step=0.02)
    assert sorted(solved) == ["above", "below"]
    assert len(above.replicates) == len(below.replicates) == 3


def test_sample_excursion_keeps_generation_order(iia_u1):
    # persistency --reps splits a --samples-csv file into contiguous
    # replicates, which a sorted file would make dependent
    draws = sample_excursion(iia_u1, "above", 10_000, seed=44)
    assert not np.all(draws[1:] >= draws[:-1])


def test_persistency_table_makes_no_blas_call(monkeypatch):
    # BLAS starts threads of its own inside the pools' tasks and
    # oversubscribes the CPUs; the fits, the Lundberg root and the shared
    # Slepian terms are written without it
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call in persistency_table")

    monkeypatch.setattr(np.linalg, "lstsq", blas)
    monkeypatch.setattr(np, "polyfit", blas)
    monkeypatch.setattr(np, "dot", blas)
    monkeypatch.setattr(np, "matmul", blas)
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "2")
    persistency_table(M2, [0.0, 1.0], 2000, 3, 5, t_max=120.0, step=0.02)
    for fn in (fit_persistency, excursions.persistency._fit_window,
               excursions.iia._decay, excursions.iia._Divisor,
               excursions.slepian._clipped_terms, excursions.slepian._clipped_up_from):
        tokens = list(tokenize.generate_tokens(io.StringIO(inspect.getsource(fn)).readline))
        assert "@" not in {tok.string for tok in tokens if tok.type == tokenize.OP}
        assert not {"dot", "matmul"} & {tok.string for tok in tokens
                                        if tok.type == tokenize.NAME}


def test_persistency_table_checks_the_sample_count_before_building():
    for samples in (0, -5):
        with pytest.raises(DomainError, match="sample count must be positive"):
            persistency_table(M2, [1.5], samples, 3, 3)
