"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS/FAIL line per criterion.  The persistency-table criteria run at
the published scale (1e6 samples x 10 replicates per level) and take
about a minute in total.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from excursions.cli import run
from excursions.covmodel import diffusion_covariance
from excursions.errors import MonotonicityViolation
from excursions.gpsim import persistency_from_trajectories, rice_crossing_rate
from excursions.iia import build_iia, persistency_table, psi_hat, sample_excursion
from excursions.numerics import norm_cdf
from excursions.slepian import (conditional_expected_clipped,
                                expected_clipped_down, expected_clipped_up)
from excursions.clipped import clipped_covariance
from excursions.switchproc import (estimate_characteristics, exponential_interval,
                                   laplace_E_delta, laplace_E_prime,
                                   laplace_N_less, laplace_stationary_cov,
                                   recover_psi, simulate_switch_paths,
                                   switch_count_distribution)

M2 = diffusion_covariance(2)
LEVELS = (0.0, 0.5, 1.0, 1.25)
TABLE1 = {0.0: (0.1862, 0.1861), 0.5: (0.2893, 0.1105),
          1.0: (0.4225, 0.0591), 1.25: (0.5001, 0.0411)}
TABLE2 = {0.0: (0.1885, 0.1883), 0.5: (0.2932, 0.1117),
          1.0: (0.4295, 0.0598), 1.25: (0.5101, 0.0417)}


def _report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# --------------------------------------------------------------- shared runs

@pytest.fixture(scope="module")
def table1_estimates():
    """Slepian-side persistency at the published scale (1e6 x 10 per level)."""
    rows = persistency_table(M2, LEVELS, samples=1_000_000, reps=10, seed=20_260_810)
    return {level: (above, below) for level, (_, above, below) in zip(LEVELS, rows)}


@pytest.fixture(scope="module")
def table2_estimates():
    """Trajectory-side persistency at desk scale (1e3 x 1e4, dt = 0.05)."""
    rows = persistency_from_trajectories(M2, LEVELS, n_traj=1000, traj_len=10_000,
                                         dt=0.05, seed=77_001, reps=10)
    return dict(zip(LEVELS, rows))


# ------------------------------------------------------------------ criteria

def test_criterion_01_zero_level_identity():
    t = np.logspace(-3, np.log10(50.0), 4000)
    dev = float(np.max(np.abs(expected_clipped_up(M2, 0.0, t) - 1.0 / np.cosh(t / 2))))
    _report(1, dev < 1e-10, f"max |E_0^+ - sech(t/2)| = {dev:.2e} (< 1e-10)")


def test_criterion_02_clipped_mean_limits():
    worst_short, worst_long = 0.0, 0.0
    for u in LEVELS:
        lim = 1.0 - 2.0 * float(norm_cdf(u))
        worst_short = max(worst_short,
                          abs(expected_clipped_up(M2, u, 1e-6) - 1.0),
                          abs(expected_clipped_down(M2, u, 1e-6) + 1.0))
        worst_long = max(worst_long,
                         abs(expected_clipped_up(M2, u, 50.0) - lim),
                         abs(expected_clipped_down(M2, u, 50.0) - lim))
    ok = worst_short < 1e-4 and worst_long < 1e-6
    _report(2, ok, f"short-time dev {worst_short:.2e} (< 1e-4), "
                   f"long-time dev {worst_long:.2e} (< 1e-6)")


def test_criterion_03_table1_reproduction(table1_estimates):
    devs = []
    for level in LEVELS:
        above, below = table1_estimates[level]
        ref_p, ref_m = TABLE1[level]
        devs.append(abs(above.mean_theta - ref_p))
        devs.append(abs(below.mean_theta - ref_m))
    worst = max(devs)
    _report(3, worst < 0.01,
            f"paper scale 1e6 x 10, worst |theta - table| = {worst:.4f} (< 0.01)")


def test_criterion_04_exact_persistency_sanity(table1_estimates):
    above, below = table1_estimates[0.0]
    theta = 0.5 * (above.mean_theta + below.mean_theta)
    ok = abs(theta - 0.1862) < 0.01 and abs(theta - 0.1875) < 0.015
    _report(4, ok, f"zero-level theta = {theta:.4f} "
                   f"(within 0.01 of 0.1862 and 0.015 of 0.1875)")


def test_criterion_05_monotonicity_gate():
    for u in LEVELS:
        build_iia(M2, u)
    raised = False
    which = ""
    try:
        build_iia(M2, 1.5)
    except MonotonicityViolation as exc:
        raised = True
        which = exc.which
    _report(5, raised and "down" in which,
            f"levels {LEVELS} pass; u = 1.5 raises on the {which or '???'} curve")


def test_criterion_06_telegraph_oracle_suite():
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        d = exponential_interval(lam)
        lep = laplace_E_prime(d, d, +1)
        lem = laplace_E_prime(d, d, -1)
        for s in (0.1, 1.0, 10.0):
            worst = max(worst, abs(laplace_E_delta(d, d, +1, s) - 1 / (2 * lam + s)))
            worst = max(worst, abs(laplace_stationary_cov(d, d, s) - 1 / (2 * lam + s)))
            psi_p, psi_m = recover_psi(lep, lem, s)
            worst = max(worst, abs(psi_p - lam / (lam + s)),
                        abs(psi_m - lam / (lam + s)))
            worst = max(worst, abs(laplace_N_less(d, d, s) - lam / s ** 2))
    exp1 = exponential_interval(1.0)
    paths = simulate_switch_paths(exp1, exp1, 100_000, 3.0, seed=424242,
                                  stationary=True)
    grid = np.linspace(0.0, 3.0, 7)
    est = estimate_characteristics(paths, grid)
    target = np.exp(-2.0 * grid)
    z = np.max(np.abs(est.covariance - target) / np.maximum(est.se_covariance, 1e-12))
    ok = worst < 1e-10 and z < 3.0
    _report(6, ok, f"closed-form dev {worst:.2e} (< 1e-10); "
                   f"MC covariance max |z| = {z:.2f} (< 3)")


def test_criterion_07_switch_count_pmf():
    exp1 = exponential_interval(1.0)
    worst, worst_mass = 0.0, 0.0
    for t in (0.5, 1.0, 2.0):
        dist = switch_count_distribution(exp1, exp1, -1, t)
        worst_mass = max(worst_mass, abs(float(dist.sum()) - 1.0))
        for k in range(4):
            pois = math.exp(-t) * t ** k / math.factorial(k)
            worst = max(worst, abs(dist[k] - pois))
    ok = worst < 1e-3 and worst_mass < 1e-3
    _report(7, ok, f"max |pmf - Poisson| = {worst:.1e} (< 1e-3), "
                   f"mass defect {worst_mass:.1e} (< 1e-3)")


def test_criterion_08_clipped_covariance():
    t = np.linspace(0.0, 30.0, 1000)
    vals = clipped_covariance(M2, 0.0, t)
    ref = 2.0 / math.pi * np.arcsin(np.asarray(M2.r(t)))
    dev0 = float(np.max(np.abs(vals - ref)))

    rng = np.random.default_rng(88)
    n = 1_000_000
    u = 1.0
    worst_z = 0.0
    for lag in (0.5, 1.0, 2.0):
        rho = float(M2.r(lag))
        z1 = rng.standard_normal(n)
        z2 = rho * z1 + math.sqrt(1 - rho * rho) * rng.standard_normal(n)
        prod = np.sign(z1 - u) * np.sign(z2 - u)
        mc = prod.mean() - (1.0 - 2.0 * float(norm_cdf(u))) ** 2
        se = prod.std() / math.sqrt(n)
        worst_z = max(worst_z, abs(clipped_covariance(M2, u, lag) - mc) / se)
    ok = dev0 < 1e-8 and worst_z < 3.0
    _report(8, ok, f"arcsine dev {dev0:.1e} (< 1e-8); "
                   f"u=1 MC max |z| = {worst_z:.2f} (< 3)")


def test_criterion_09_rayleigh_mixture():
    worst = 0.0
    for u in (0.0, 1.0, 1.25):
        for t in (0.5, 2.0, 10.0):
            mixed, _ = quad(lambda s: conditional_expected_clipped(M2, u, t, s)
                            * s * math.exp(-0.5 * s * s),
                            0.0, np.inf, epsabs=1e-12, epsrel=1e-12)
            worst = max(worst, abs(mixed - expected_clipped_up(M2, u, t)))
    _report(9, worst < 1e-6, f"3x3 grid, max mixture residual = {worst:.1e} (< 1e-6)")


def test_criterion_10_transform_consistency():
    worst_z = 0.0
    for level, seed in ((0.0, 3101), (1.0, 3102)):
        iia = build_iia(M2, level)
        draws = sample_excursion(iia, "above", 1_000_000, seed=seed)
        for s in (0.5, 1.0, 2.0):
            emp = np.exp(-s * draws)
            se = emp.std() / math.sqrt(len(emp))
            z = abs(emp.mean() - psi_hat(iia, "above", s)) / se
            worst_z = max(worst_z, z)
    _report(10, worst_z < 3.0,
            f"empirical vs analytic transform, max |z| = {worst_z:.2f} (< 3)")


def test_criterion_11_trajectory_side(table2_estimates, rice_crossings):
    devs = {}
    for level in LEVELS:
        above, below = table2_estimates[level]
        ref_p, ref_m = TABLE2[level]
        tol = 0.03 if level == 1.25 else 0.02
        devs[level] = (abs(above.mean_theta - ref_p),
                       abs(below.mean_theta - ref_m), tol)
    ok_theta = all(dp < tol and dm < tol for dp, dm, tol in devs.values())

    # dt and n of the rice_crossings path
    dt, n = 0.05, 4_000_000
    worst_rate = 0.0
    for u in (0.0, 1.0):
        crossings = rice_crossings[u]
        rate = crossings / (dt * (n - 1))
        worst_rate = max(worst_rate,
                         abs(rate / rice_crossing_rate(M2, u) - 1.0))
    ok = ok_theta and worst_rate < 0.02
    worst_dev = max(max(dp, dm) for dp, dm, _ in devs.values())
    _report(11, ok, f"desk-scale thetas worst dev {worst_dev:.4f} "
                    f"(tol 0.02/0.03); crossing rate within {worst_rate:.2%} of Rice")


def test_criterion_12_determinism(tmp_path):
    args = ["iia", "--level", "0.5", "--seed", "31415", "--samples", "20000",
            "--reps", "3", "--grid-max", "120", "--grid-step", "0.02"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    _report(12, identical and payload["seed"] == 31415,
            "identical seeds give byte-identical result JSON")
