import math

import numpy as np
import pytest

from excursions.covmodel import diffusion_covariance
from excursions.errors import DomainError, EmptyExcursionSet
from excursions.gpsim import (Trajectory, _embedding, extract_excursions,
                              persistency_from_trajectories, rice_crossing_rate,
                              simulate_gp, simulate_gp_batch, simulate_gp_spectral)

M2 = diffusion_covariance(2)


def test_marginal_variance():
    paths = simulate_gp_batch(M2, 0.05, 10_000, 100, seed=1)
    flat = paths.ravel()
    assert abs(flat.var() - 1.0) < 0.01
    assert abs(flat.mean()) < 0.01


def test_lag_covariance_matches_model():
    dt = 0.05
    paths = simulate_gp_batch(M2, dt, 10_000, 300, seed=4)
    for lag_t in (0.5, 1.0, 2.0):
        k = int(round(lag_t / dt))
        # per-path lag products are independent across paths, so the
        # replicate spread gives an honest standard error
        per_path = (paths[:, :-k] * paths[:, k:]).mean(axis=1)
        se = per_path.std(ddof=1) / math.sqrt(len(per_path))
        assert abs(per_path.mean() - float(M2.r(lag_t))) < 3.0 * se


def test_equal_seeds_bit_identical():
    a = simulate_gp(M2, 0.05, 4000, seed=3)
    b = simulate_gp(M2, 0.05, 4000, seed=3)
    assert np.array_equal(a.values, b.values)
    assert a.dt == b.dt


def test_marginal_normality_moments():
    paths = simulate_gp_batch(M2, 0.05, 10_000, 1000, seed=4)
    flat = paths.ravel()
    z = (flat - flat.mean()) / flat.std()
    skew = np.mean(z ** 3)
    kurt = np.mean(z ** 4)
    assert abs(skew) < 0.01
    assert abs(kurt - 3.0) < 0.02


def test_spectral_route_agrees():
    paths = np.stack([
        simulate_gp_spectral(M2, 0.05, 10_000, seed=s).values
        for s in range(200)])
    flat = paths.ravel()
    assert abs(flat.var() - 1.0) < 0.02
    k = int(round(1.0 / 0.05))
    est = (paths[:, :-k] * paths[:, k:]).mean()
    assert abs(est - float(M2.r(1.0))) < 0.02


def test_spectral_requires_spectrum():
    with pytest.raises(DomainError):
        simulate_gp_spectral(diffusion_covariance(3), 0.05, 100, seed=0)


def test_extract_excursions_sine_wave():
    dt = 1e-3
    t = np.arange(0.0, 5.0, dt)
    traj = Trajectory(dt=dt, values=np.sin(2 * math.pi * t), model_name="sine")
    exc = extract_excursions(traj, 0.0)
    lengths = np.concatenate([exc.above_lengths, exc.below_lengths])
    assert np.all(np.abs(lengths - 0.5) < 2 * dt)
    assert abs(len(exc.above_lengths) - len(exc.below_lengths)) <= 1


def test_extract_alternation_and_balance():
    traj = Trajectory(dt=0.05, values=simulate_gp(M2, 0.05, 200_000, seed=5).values,
                      model_name=M2.name)
    exc = extract_excursions(traj, 0.0)
    assert abs(len(exc.above_lengths) - len(exc.below_lengths)) <= 1
    # zero level: above and below lengths share the same law
    mean_a = exc.above_lengths.mean()
    mean_b = exc.below_lengths.mean()
    se = (exc.above_lengths.std() / math.sqrt(len(exc.above_lengths))
          + exc.below_lengths.std() / math.sqrt(len(exc.below_lengths)))
    assert abs(mean_a - mean_b) < 3.0 * se


def test_extract_no_crossings():
    traj = Trajectory(dt=0.1, values=np.zeros(100) + 0.2, model_name="flat")
    with pytest.raises(EmptyExcursionSet):
        extract_excursions(traj, 5.0)


def test_rice_rate_values():
    assert rice_crossing_rate(M2, 0.0) == pytest.approx(0.5 / math.pi, abs=1e-15)
    assert rice_crossing_rate(M2, 0.0) == pytest.approx(0.1591549, abs=1e-7)
    assert rice_crossing_rate(M2, 1.0) == pytest.approx(
        rice_crossing_rate(M2, 0.0) * math.exp(-0.5), abs=1e-12)


def test_empirical_crossing_rate_matches_rice():
    traj = simulate_gp(M2, 0.05, 4_000_000, seed=7)
    for u in (0.0, 1.0):
        exc = extract_excursions(traj, u)
        rate = exc.crossing_count / traj.duration
        assert rate == pytest.approx(rice_crossing_rate(M2, u), rel=0.02)


def test_persistency_from_trajectories_zero_level():
    above, below = persistency_from_trajectories(
        M2, 0.0, n_traj=100, traj_len=10_000, dt=0.05, seed=7, reps=5)
    # generous band for the reduced desk scale of this unit test
    assert above.mean_theta == pytest.approx(0.1885, abs=0.03)
    assert below.mean_theta == pytest.approx(0.1883, abs=0.03)


def test_persistency_needs_enough_trajectories():
    with pytest.raises(DomainError):
        persistency_from_trajectories(M2, 0.0, n_traj=3, traj_len=1000,
                                      dt=0.05, seed=8, reps=10)


def test_trajectory_validation():
    with pytest.raises(DomainError):
        Trajectory(dt=0.1, values=np.array([1.0]), model_name="x")
    with pytest.raises(DomainError):
        simulate_gp(M2, -0.1, 100, seed=0)
    with pytest.raises(DomainError):
        simulate_gp(M2, 0.1, 1, seed=0)


@pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 150])
def test_batch_equals_out_of_place_reference(count):
    # the sampler as it was before its buffers were reused in place:
    # chunks of up to 32 complex rows, real draws then imaginary draws
    dt, n, seed = 0.05, 300, 17
    lam, m = _embedding(M2, dt, n)
    rng = np.random.default_rng(seed)
    scale = np.sqrt(lam / m)
    ref = np.empty((count, n))
    done = 0
    while done < count:
        k = min(32, (count - done + 1) // 2)
        z = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        w = np.fft.fft(z * scale, axis=1)
        take = min(k, count - done)
        ref[done:done + take] = w.real[:take, :n]
        done += take
        if done < count:
            take = min(k, count - done)
            ref[done:done + take] = w.imag[:take, :n]
            done += take
    assert np.array_equal(simulate_gp_batch(M2, dt, n, count, seed), ref)


@pytest.mark.parametrize("dt, n", [(0.0, 100), (-0.05, 100), (math.nan, 100),
                                   (math.inf, 100), (0.05, 1), (0.05, 0)])
def test_grid_checked_before_simulation(dt, n):
    with pytest.raises(DomainError):
        simulate_gp_batch(M2, dt, n, 4, seed=0)
    with pytest.raises(DomainError):
        simulate_gp(M2, dt, n, seed=0)
    with pytest.raises(DomainError):
        simulate_gp_spectral(M2, dt, n, seed=0)
