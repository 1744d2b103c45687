import concurrent.futures
import inspect
import io
import math
import sys
import tokenize

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.optimize import brentq
from scipy.stats import ks_2samp

import excursions.iia
import excursions.persistency
from excursions.covmodel import diffusion_covariance
from excursions.errors import (DomainError, GridTooShort, MonotonicityViolation,
                               NumericalError)
from excursions.iia import (build_iia, excursion_law, persistency_table, psi_hat,
                            sample_excursion)
from excursions.numerics import (fit_exponential_tail, gaver_stehfest_invert,
                                 inverse_cdf_sample, norm_cdf)
from excursions.persistency import aggregate_fits, fit_persistency

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


def test_tail_rates_reflect_covariance_decay(iia_u1):
    # divisor survival decays like r(t) ~ e^{-t/2} for the d = 2 model
    assert iia_u1.tail_rates[0] == pytest.approx(0.5, abs=0.02)
    assert iia_u1.tail_rates[1] == pytest.approx(0.5, abs=0.02)


def test_side_duality():
    # above-side structures at level u equal below-side structures at -u
    a = build_iia(M2, 0.7)
    b = build_iia(M2, -0.7)
    assert a.alpha == pytest.approx(b.beta, abs=1e-12)
    assert np.max(np.abs(a.f_x_cdf.values - b.f_y_cdf.values)) <= 1e-12
    assert np.max(np.abs(a.f_y_cdf.values - b.f_x_cdf.values)) <= 1e-12


@pytest.mark.parametrize("u", [math.inf, -math.inf, math.nan])
def test_non_finite_level_is_a_domain_error(u):
    with pytest.raises(DomainError, match=f"level must be finite, got {u}"):
        build_iia(M2, u)


def _divisors(iia, side):
    """((first CDF, tail rate), (extra CDF, tail rate), success probability)."""
    x, y = (iia.f_x_cdf, iia.tail_rates[0]), (iia.f_y_cdf, iia.tail_rates[1])
    return (x, y, iia.alpha) if side == "above" else (y, x, iia.beta)


def _geometric_sum(iia, side, n, seed):
    # the representation itself: one first divisor plus nu - 1 extra ones
    first, extra, p = _divisors(iia, side)
    rng = np.random.default_rng(seed)

    def draw(cdf, rate, k):
        u, f_end = rng.random(k), cdf.values[-1]
        t = np.interp(u, cdf.values, cdf.points)
        over = u > f_end
        t[over] = cdf.points[-1] + np.log((1.0 - f_end) / (1.0 - u[over])) / rate
        return t

    n_extra = rng.geometric(p, n) - 1
    out = draw(*first, n)
    np.add.at(out, np.repeat(np.arange(n), n_extra), draw(*extra, n_extra.sum()))
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
    # b E[exp(theta Y)] = 1 above (X and a below), from the divisor curve
    _, (cdf, rate), p = _divisors(iia, side)
    t, surv = cdf.points, 1.0 - cdf.values

    def mgf(theta):
        tail = surv[-1] * math.exp(theta * t[-1]) / (rate - theta)
        return 1.0 + theta * (simpson(np.exp(theta * t) * surv, x=t) + tail)

    return brentq(lambda theta: (1.0 - p) * mgf(theta) - 1.0, 1e-6, rate - 1e-9)


@pytest.mark.parametrize("side", ["above", "below"])
@pytest.mark.parametrize("u", [0.0, 0.5, 1.0])
def test_law_slope_matches_lundberg_root(u, side):
    iia = build_iia(M2, u)
    cdf, _ = excursion_law(iia, side)
    surv = 1.0 - cdf.values
    window = (surv >= 5e-5) & (surv <= 0.5)
    slope = np.polyfit(cdf.points[window], np.log(surv[window]), 1)[0]
    assert -slope == pytest.approx(_lundberg_root(iia, side), abs=1e-4)


def test_law_is_a_cdf_from_zero_to_one(iia_u1):
    for side in ("above", "below"):
        cdf, tail_rate = excursion_law(iia_u1, side)
        assert cdf.points[0] == 0.0 and cdf.values[0] == 0.0
        assert np.all(np.diff(cdf.values) >= 0.0)
        assert abs(1.0 - cdf.values[-1]) <= 1e-10
        assert tail_rate > 0.0
        assert excursion_law(iia_u1, side) is excursion_law(iia_u1, side)


def test_law_needing_knots_past_the_cap_is_a_numerical_error(monkeypatch):
    # u = 1.25 below needs 8e4 knots of 0.01 to leave at most 1e-10 past the end
    monkeypatch.setattr(excursions.iia, "_LAW_MAX_KNOTS", 50_000)
    iia = build_iia(M2, 1.25)
    with pytest.raises(NumericalError, match="u = 1.25, below side"):
        excursion_law(iia, "below")
    assert excursion_law(iia, "above")[0].points[-1] < 201.0


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
    # holds 80005 knots
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
    # each level seed spawns a seed per side, each side seed one per replicate
    monkeypatch.setenv("EXCURSION_IIA_THREADS", threads)
    samples, reps, grid = 5000, 3, {"t_max": 120.0, "step": 0.02}
    cases = [((0.0, 1.0), np.random.SeedSequence(41).spawn(2)),
             (0.5, [np.random.SeedSequence(41)])]     # one level: the seed itself
    for levels, level_seeds in cases:
        rows = persistency_table(M2, levels, samples, reps, 41, **grid)
        assert len(rows) == len(level_seeds)
        for u, level_seed, (iia, above, below) in zip(np.atleast_1d(levels),
                                                      level_seeds, rows):
            ref_iia = build_iia(M2, u, **grid)
            assert iia.level == u
            assert np.array_equal(iia.f_x_cdf.values, ref_iia.f_x_cdf.values)
            for side, side_seed, est in zip(("above", "below"), level_seed.spawn(2),
                                            (above, below)):
                _assert_same_estimate(est, aggregate_fits([
                    fit_persistency(sample_excursion(ref_iia, side, samples, s))
                    for s in side_seed.spawn(reps)]))


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


def test_persistency_table_checks_replicates_before_building():
    with pytest.raises(DomainError, match="two replicates"):
        persistency_table(M2, [1.5], 1000, 1, 3)


def test_persistency_table_draws_are_sorted_sample_excursion_draws(monkeypatch):
    # replicate i of a side draws from the i-th seed its side seed spawns and
    # fits only the ranks [lo, hi) of those lengths, sorted
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
    fitted = iter(fitted)
    for (iia, _, _), level_seed in zip(rows, np.random.SeedSequence(43).spawn(2)):
        for side, side_seed in zip(("above", "below"), level_seed.spawn(2)):
            for rep_seed in side_seed.spawn(reps):
                window, n = next(fitted)
                want = np.sort(sample_excursion(iia, side, samples, rep_seed))[lo:hi]
                assert n == samples
                assert np.array_equal(window.view(np.int64), want.view(np.int64))
    assert next(fitted, None) is None


def test_sample_excursion_keeps_generation_order(iia_u1):
    # persistency --reps splits a --samples-csv file into contiguous
    # replicates, which a sorted file would make dependent
    draws = sample_excursion(iia_u1, "above", 10_000, seed=44)
    assert not np.all(draws[1:] >= draws[:-1])


def test_persistency_table_makes_no_blas_call(monkeypatch):
    # BLAS starts threads of its own inside the pools' tasks and
    # oversubscribes the CPUs; the fits are written without it
    def blas(*args, **kwargs):
        raise AssertionError("BLAS call in persistency_table")

    monkeypatch.setattr(np.linalg, "lstsq", blas)
    monkeypatch.setattr(np, "polyfit", blas)
    monkeypatch.setattr(np, "dot", blas)
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "2")
    persistency_table(M2, [0.0, 1.0], 2000, 3, 5, t_max=120.0, step=0.02)
    for fit in (fit_persistency, excursions.persistency._fit_window, fit_exponential_tail):
        tokens = tokenize.generate_tokens(io.StringIO(inspect.getsource(fit)).readline)
        assert "@" not in {tok.string for tok in tokens if tok.type == tokenize.OP}


def test_persistency_table_checks_the_sample_count_before_building():
    for samples in (0, -5):
        with pytest.raises(DomainError, match="sample count must be positive"):
            persistency_table(M2, [1.5], samples, 3, 3)
