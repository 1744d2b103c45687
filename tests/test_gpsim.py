import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from excursions import gpsim
from excursions.covmodel import CovarianceModel, diffusion_covariance
from excursions.errors import DomainError, EmptyExcursionSet
from excursions.gpsim import (_embedding, extract_excursions,
                              persistency_from_trajectories, rice_crossing_rate,
                              simulate_gp_batch)
from excursions.persistency import aggregate_fits, fit_persistency

M2 = diffusion_covariance(2)

# decays like 1/t^2: not dead within the padding cap at these grids
CAUCHY = CovarianceModel(
    "cauchy", r=lambda t: 1.0 / (1.0 + np.square(t)),
    r_prime=lambda t: -2.0 * np.asarray(t) / (1.0 + np.square(t)) ** 2, r_pp0=-2.0)


def _z(per_path, target):
    # as in test_lag_covariance_matches_model: per-path statistics are
    # independent across paths, so their spread gives the standard error
    se = per_path.std(ddof=1) / math.sqrt(len(per_path))
    return (per_path.mean() - target) / se


def test_marginal_variance():
    paths = simulate_gp_batch(M2, 0.05, 10_000, 100, seed=1)
    assert abs(_z((paths ** 2).mean(axis=1), 1.0)) < 3.0
    assert abs(_z(paths.mean(axis=1), 0.0)) < 3.0


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
    a = simulate_gp_batch(M2, 0.05, 4000, 1, seed=3)[0]
    b = simulate_gp_batch(M2, 0.05, 4000, 1, seed=3)[0]
    assert np.array_equal(a, b)


def test_marginal_normality_moments():
    # raw third and fourth moments of N(0, 1): 0 and 3
    paths = simulate_gp_batch(M2, 0.05, 10_000, 1000, seed=4)
    assert abs(_z((paths ** 3).mean(axis=1), 0.0)) < 3.0
    assert abs(_z((paths ** 4).mean(axis=1), 3.0)) < 3.0


def test_extract_excursions_sine_wave():
    dt = 1e-3
    t = np.arange(0.0, 5.0, dt)
    above, below, _ = extract_excursions(np.sin(2 * math.pi * t), 0.0, dt)
    lengths = np.concatenate([above, below])
    assert np.all(np.abs(lengths - 0.5) < 2 * dt)
    assert abs(len(above) - len(below)) <= 1


@pytest.mark.parametrize("u", [0.0, 0.5])
def test_extract_crossings_through_samples_at_the_level(u):
    def excursions(values):
        above, below, crossings = extract_excursions(
            u + np.array(values, dtype=float), u, 1.0)
        return above.tolist(), below.tolist(), crossings

    # passing through the level at a sample crosses once, at that sample
    assert excursions([1, -1, 1, 0, -1, 1, -1]) == ([1.5, 1.0], [1.0, 1.5], 5)
    # touching the level and returning to the same side does not cross
    assert excursions([1, -1, 0, -1, 1, -1]) == ([1.0], [3.0], 3)
    # a run of samples at the level crosses once, at its first sample
    assert excursions([1, -1, 0, 0, 1, 0, 0, 0, -1, 1]) == ([3.0], [1.5, 3.5], 4)


@pytest.mark.parametrize("u", [0.0, 0.5])
def test_extract_drops_crossings_that_round_to_one_instant(u):
    # the sample at -1e-15 touches the level within rounding: the crossings
    # into and out of it both round to t = 9999 dt and are dropped, so the
    # above intervals around them merge
    values = u + np.array([1, -1] + [1] * 9997 + [-1e-15, 1, 1, 1, -1, 1], dtype=float)
    above, below, crossings = extract_excursions(values, u, 0.05)
    assert crossings == 4
    lengths = np.concatenate([above, below])
    assert np.all(lengths > 0.0)
    # alternation: one interval between each pair of successive crossings,
    # and the sides take turns
    assert len(lengths) == crossings - 1
    assert abs(len(above) - len(below)) <= 1
    assert above == pytest.approx([10_001 * 0.05], rel=1e-12)
    assert below == pytest.approx([0.05, 0.05], rel=1e-12)


@pytest.mark.parametrize("values, below, above", [
    # the crossing between 1e-200 and -1e-200, whose product underflows to -0.0
    ([1, -1, 1, 1e-200, -1e-200, -1, 1, -1, 1], [0.1, 0.2, 0.1], [0.2, 0.1]),
    # the same with a sample on the level, which skips it
    ([1, -1, 0, 1, 1e-200, -1e-200, -1, 1, -1, 1], [0.15, 0.2, 0.1], [0.25, 0.1]),
])
def test_extract_finds_crossings_whose_product_underflows(values, below, above):
    got_above, got_below, crossings = extract_excursions(
        np.array(values, dtype=float), 0.0, 0.1)
    assert crossings == 6
    # five intervals between six crossings, the sides taking turns
    assert got_below == pytest.approx(below, rel=1e-12)
    assert got_above == pytest.approx(above, rel=1e-12)


def _per_row(rows, u, dt):
    above, below, crossings = zip(*(extract_excursions(row, u, dt) for row in rows))
    return np.concatenate(above), np.concatenate(below), sum(crossings)


def _loop_reference(row, u, dt):
    # sample by sample: a crossing lies between successive off-level
    # samples on opposite sides, interpolated from the earlier one towards
    # its next sample; equal instants are then dropped in pairs from the left
    d = [float(x) - u for x in row]
    times, ends_above, last = [], [], None
    for i, x in enumerate(d):
        if x != 0.0:
            if last is not None and (d[last] > 0.0) != (x > 0.0):
                times.append((last + d[last] / (d[last] - d[last + 1])) * dt)
                ends_above.append(d[last] > 0.0)
            last = i
    k = 0
    while k < len(times) - 1:
        if times[k] == times[k + 1]:
            del times[k:k + 2], ends_above[k:k + 2]
        else:
            k += 1
    above = [b - a for a, b, up in zip(times, times[1:], ends_above[1:]) if up]
    below = [b - a for a, b, up in zip(times, times[1:], ends_above[1:]) if not up]
    return above, below, len(times)


def test_chunk_extraction_equals_per_row_extraction():
    dt = 0.05
    batch = simulate_gp_batch(M2, dt, 3000, 70, seed=46)
    for u in (0.0, 0.5, 1.0, 1.25):
        for chunk in (batch[:32], batch[32:64], batch[64:]):
            pooled = gpsim._excursions(chunk, u, dt)
            reference = _per_row(chunk, u, dt)
            assert all(np.array_equal(a, b) for a, b in zip(pooled, reference))
        # the one-row kernel against a loop over the samples, bit for bit
        for row in batch[::10]:
            above, below, count = extract_excursions(row, u, dt)
            assert (above.tolist(), below.tolist(), count) == _loop_reference(row, u, dt)


@pytest.mark.parametrize("u", [0.0, 0.5])
def test_chunk_extraction_of_irregular_rows_equals_per_row_extraction(u):
    n, dt = 10_005, 0.05
    rows = u + np.array([
        np.sin(0.37 * np.arange(n) + 0.1),                  # generic
        np.resize([1, -1, 1, 0, -1, 1, -1], n),             # through the level at samples
        np.resize([1, -1, 0, -1, 1, -1], n),                # touches of the level
        [1, -1] + [1] * 9997 + [-1e-15, 1, 1, 1, -1, 1],    # two crossings at one instant
        # its last crossing and the next row's first are at one instant, 1.5 dt
        [1, -1] + [1] * (n - 2),
        [1, 1, -1] + [1] * (n - 3),
    ])
    pooled = gpsim._excursions(rows, u, dt)
    reference = _per_row(rows, u, dt)
    assert all(np.array_equal(a, b) for a, b in zip(pooled, reference))
    for row in rows:
        above, below, count = extract_excursions(row, u, dt)
        assert (above.tolist(), below.tolist(), count) == _loop_reference(row, u, dt)
    # a row with no crossing raises as it does alone
    flat = np.full(n, u + 2.0)
    with pytest.raises(EmptyExcursionSet) as alone:
        extract_excursions(flat, u, dt)
    assert str(alone.value) == f"no complete excursion of level {u} in the trajectory"
    with pytest.raises(EmptyExcursionSet) as in_chunk:
        gpsim._excursions(np.vstack([rows, flat]), u, dt)
    assert str(in_chunk.value) == str(alone.value)


def test_extract_alternation_and_balance():
    path = simulate_gp_batch(M2, 0.05, 200_000, 1, seed=5)[0]
    above, below, _ = extract_excursions(path, 0.0, 0.05)
    assert abs(len(above) - len(below)) <= 1
    # zero level: above and below lengths share the same law
    se = (above.std() / math.sqrt(len(above)) + below.std() / math.sqrt(len(below)))
    assert abs(above.mean() - below.mean()) < 3.0 * se


def test_extract_no_crossings():
    with pytest.raises(EmptyExcursionSet):
        extract_excursions(np.zeros(100) + 0.2, 5.0, 0.1)


def test_rice_rate_values():
    assert rice_crossing_rate(M2, 0.0) == pytest.approx(0.5 / math.pi, abs=1e-15)
    assert rice_crossing_rate(M2, 0.0) == pytest.approx(0.1591549, abs=1e-7)
    assert rice_crossing_rate(M2, 1.0) == pytest.approx(
        rice_crossing_rate(M2, 0.0) * math.exp(-0.5), abs=1e-12)


def test_empirical_crossing_rate_matches_rice(rice_crossings):
    # dt and n of the rice_crossings path
    dt, n = 0.05, 4_000_000
    for u in (0.0, 1.0):
        crossings = rice_crossings[u]
        rate = crossings / (dt * (n - 1))
        assert rate == pytest.approx(rice_crossing_rate(M2, u), rel=0.02)


def test_persistency_from_trajectories_zero_level():
    [(above, below)] = persistency_from_trajectories(
        M2, [0.0], n_traj=100, traj_len=10_000, dt=0.05, seed=7, reps=5)
    # generous band for the reduced desk scale of this unit test
    assert above.mean_theta == pytest.approx(0.1885, abs=0.03)
    assert below.mean_theta == pytest.approx(0.1883, abs=0.03)


@pytest.mark.parametrize("threads", ["1", "3"])
def test_persistency_from_trajectories_equals_a_sequential_reference(monkeypatch,
                                                                    threads):
    # the seed spawns one seed per replicate, whatever the levels; a
    # replicate extracts each row of its batch at every level in row order,
    # pools each level's lengths and fits both sides
    monkeypatch.setenv("EXCURSION_IIA_THREADS", threads)
    n_traj, n, dt, reps = 40, 8000, 0.05, 4
    for levels in ((0.0, 0.5), [1.0]):     # two levels, then one
        rows = persistency_from_trajectories(M2, levels, n_traj, n, dt, 43, reps)
        us = np.atleast_1d(levels)
        assert len(rows) == len(us)
        fits = []                           # per replicate: per level, both sides
        for rep_seed in np.random.SeedSequence(43).spawn(reps):
            batch = simulate_gp_batch(M2, dt, n, n_traj // reps, rep_seed)
            excs = [zip(*(extract_excursions(row, u, dt) for row in batch)) for u in us]
            fits.append([(fit_persistency(np.concatenate(above)),
                          fit_persistency(np.concatenate(below)))
                         for above, below, _ in excs])
        for k, estimates in enumerate(rows):
            for est, side in zip(estimates, zip(*(rep[k] for rep in fits))):
                ref = aggregate_fits(side)
                assert est.mean_theta == ref.mean_theta
                assert est.half_width == ref.half_width
                assert [f.theta for f in est.replicates] == [f.theta for f in ref.replicates]


def test_each_level_of_a_multi_level_call_equals_its_one_level_call():
    sizes = dict(n_traj=40, traj_len=8000, dt=0.05, seed=44, reps=4)
    levels = (0.0, 0.5, 1.0)
    rows = persistency_from_trajectories(M2, levels, **sizes)
    for u, estimates in zip(levels, rows):
        [alone] = persistency_from_trajectories(M2, [u], **sizes)
        for est, ref in zip(estimates, alone):
            assert est.mean_theta == ref.mean_theta
            assert est.half_width == ref.half_width
            assert [f.theta for f in est.replicates] == [f.theta for f in ref.replicates]


def test_every_level_reads_the_same_paths(monkeypatch):
    # the path stream is entered once per replicate and draws the same rows
    # however many levels are read from them
    real = gpsim._iter_paths
    counts = {"entries": 0, "rows": 0}

    def counted(*args, **kwargs):
        counts["entries"] += 1
        for paths in real(*args, **kwargs):
            counts["rows"] += len(paths)
            yield paths

    monkeypatch.setattr(gpsim, "_iter_paths", counted)
    sizes = dict(n_traj=40, traj_len=8000, dt=0.05, seed=45, reps=4)
    drawn = []
    for levels in ((0.0, 0.25, 0.5, 1.0), [0.0]):
        counts.update(entries=0, rows=0)
        persistency_from_trajectories(M2, levels, **sizes)
        assert counts["entries"] == sizes["reps"]
        drawn.append(counts["rows"])
    assert drawn == [sizes["n_traj"]] * 2


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_persistency_from_trajectories_rejects_a_non_finite_level(level):
    with pytest.raises(DomainError, match="level must be finite"):
        persistency_from_trajectories(M2, [0.0, level], n_traj=4, traj_len=1000,
                                      dt=0.05, seed=8, reps=2)


def test_persistency_needs_enough_trajectories():
    with pytest.raises(DomainError):
        persistency_from_trajectories(M2, [0.0], n_traj=3, traj_len=1000,
                                      dt=0.05, seed=8, reps=10)


def test_persistency_needs_trajectories_that_split_evenly_into_replicates():
    with pytest.raises(DomainError, match="25 trajectories .* 2 replicates"):
        persistency_from_trajectories(M2, [0.0], n_traj=25, traj_len=1000,
                                      dt=0.05, seed=8, reps=2)


def test_persistency_from_trajectories_memory_is_flat_in_the_trajectory_count(
        monkeypatch):
    # one thread streams each replicate through one buffer: an 8-row
    # block of band normals, its complex rows and their 32 windows; past
    # 32 paths only the pooled length lists grow.  At about 16 crossings
    # per path they take some 0.1 MiB more for 384 more paths per
    # replicate, list overhead included, where a matrix of the paths
    # would take 5.9 MiB more; the margin is 1 MiB
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "1")
    sizes = dict(traj_len=2000, dt=0.05, seed=9, reps=2)
    persistency_from_trajectories(M2, [0.0], n_traj=256, **sizes)  # warm the cache
    peaks = []
    tracemalloc.start()
    try:
        for per_rep in (128, 512):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            persistency_from_trajectories(M2, [0.0], n_traj=2 * per_rep, **sizes)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 2 ** 20


def test_trajectory_validation():
    with pytest.raises(DomainError):
        extract_excursions(np.array([1.0]), 0.0, 0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError, match="must be finite"):
            extract_excursions(np.array([1.0, -1.0, bad, 1.0]), 0.0, 0.1)
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            extract_excursions(np.array([1.0, -1.0, 1.0]), 0.0, dt)
    with pytest.raises(DomainError):
        simulate_gp_batch(M2, -0.1, 100, 1, seed=0)
    with pytest.raises(DomainError):
        simulate_gp_batch(M2, 0.1, 1, 1, seed=0)


@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_extract_excursions_rejects_a_non_finite_level(level):
    # it raised EmptyExcursionSet, as if a finite level had no crossing
    with pytest.raises(DomainError, match="level must be finite"):
        extract_excursions(np.array([1.0, -1.0, 1.0, -1.0]), level, 0.1)


def _out_of_place(model, dt, n, count, seed, windows):
    # the layout: complex rows of length m, each drawing 2 K + 1 normals
    # for its real part and then as many for its imaginary part, for the
    # band of folded frequencies 0..K (the whole row when K = m/2),
    # scattered into a zero row; a row's paths are its real part at
    # offset 0, then at m/2, then its imaginary part at 0, then at m/2
    # (only offset 0 with one window per path)
    lam, starts = _embedding(model, dt, n)
    m = len(lam)
    assert starts == (0, m // 2)[:windows]
    band = max(min(k, m - k) for k in np.flatnonzero(lam))
    cols = [k for k in range(m) if min(k, m - k) <= band]
    rows = -(-count // (2 * windows))
    normals = np.random.default_rng(seed).standard_normal((rows, 2, len(cols)))
    z = np.zeros((rows, m), dtype=complex)
    z.real[:, cols], z.imag[:, cols] = normals[:, 0], normals[:, 1]
    w = np.fft.fft(z * np.sqrt(lam / m), axis=1)
    paths = [part[:, s:s + n] for part in (w.real, w.imag) for s in starts]
    return np.stack(paths, axis=1).reshape(-1, n)[:count]


@pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 150])
def test_batch_equals_out_of_place_reference(count):
    assert np.array_equal(simulate_gp_batch(M2, 0.05, 300, count, seed=17),
                          _out_of_place(M2, 0.05, 300, count, 17, windows=2))


@pytest.mark.parametrize("count", [1, 2, 3, 63, 64, 65])
def test_one_window_batch_equals_out_of_place_reference(count):
    assert np.array_equal(simulate_gp_batch(CAUCHY, 0.2, 1000, count, seed=17),
                          _out_of_place(CAUCHY, 0.2, 1000, count, 17, windows=1))


@pytest.mark.parametrize("block", [1, 3, 32])
def test_the_block_size_changes_no_path_and_no_estimate(monkeypatch, block):
    # the block is how many complex rows are drawn, transformed and
    # extracted together, a memory layout: the paths and their estimates stay
    sizes = dict(n_traj=40, traj_len=8000, dt=0.05, seed=46, reps=4)
    levels = (0.0, 1.0)
    ref = persistency_from_trajectories(M2, levels, **sizes)
    monkeypatch.setattr(gpsim, "_BLOCK_ROWS", block)
    for count in (1, 65, 150):
        assert np.array_equal(simulate_gp_batch(M2, 0.05, 300, count, seed=17),
                              _out_of_place(M2, 0.05, 300, count, 17, windows=2))
        assert np.array_equal(simulate_gp_batch(CAUCHY, 0.2, 1000, count, seed=17),
                              _out_of_place(CAUCHY, 0.2, 1000, count, 17, windows=1))
    rows = persistency_from_trajectories(M2, levels, **sizes)
    for estimates, expected in zip(rows, ref):
        for est, exp in zip(estimates, expected):
            assert est.mean_theta == exp.mean_theta
            assert est.half_width == exp.half_width
            assert est.replicates == exp.replicates


@pytest.mark.parametrize("model, dt, n", [(M2, 0.05, 300), (CAUCHY, 0.2, 1000)],
                         ids=["two-windows", "one-window"])
def test_a_smaller_batch_is_a_prefix_of_a_larger_one(model, dt, n):
    assert np.array_equal(simulate_gp_batch(model, dt, n, 5, seed=17),
                          simulate_gp_batch(model, dt, n, 200, seed=17)[:5])


def test_a_table2_replicate_traces_under_7_5_mib(monkeypatch):
    # one thread holds one stream: an 8-row block of band normals
    # (0.55 MB), its complex rows (2.9 MB) and their 32 windows (2.6 MB),
    # 6.1 MB in all
    monkeypatch.setenv("EXCURSION_IIA_THREADS", "1")
    sizes = dict(n_traj=300, traj_len=10_000, dt=0.05, seed=3, reps=2)
    persistency_from_trajectories(M2, [0.0], **sizes)   # warm the cache
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        persistency_from_trajectories(M2, [0.0], **sizes)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 7.5 * 2 ** 20


@pytest.mark.parametrize("model, dt, n, windows", [(M2, 0.05, 300, 2),
                                                   (CAUCHY, 0.2, 1000, 1)])
def test_single_path_is_the_first_path_of_the_out_of_place_reference(model, dt, n,
                                                                    windows):
    assert np.array_equal(simulate_gp_batch(model, dt, n, 1, seed=17)[0],
                          _out_of_place(model, dt, n, 1, 17, windows)[0])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("dt, n", [(0.05, 2), (0.05, 300), (0.05, 10_000),
                                   (0.2, 300), (1.0, 1000)])
def test_embedding_covariance_exact_within_and_dead_between_windows(d, dt, n):
    model = diffusion_covariance(d)
    lam, starts = _embedding(model, dt, n)
    m = len(lam)
    assert starts == (0, m // 2)
    # the covariance of the sampled paths at circular lag k
    cov = np.fft.ifft(lam).real
    assert np.abs(cov[:n] - model.r(np.arange(n) * dt)).max() < 1e-14
    # every lag from a point of one window to a point of the other: the
    # model is dead there, and so is the sampled covariance
    between = np.arange(m // 2 - n + 1, m // 2 + 1)
    assert np.abs(model.r(between * dt)).max() < 1e-16
    assert np.abs(cov[m // 2 - n + 1:m // 2 + n]).max() <= 1e-15


@pytest.mark.parametrize("d, dt, n", [
    *((d, dt, n) for d in (1, 2, 3)
      for dt, n in ((0.05, 2), (0.05, 300), (0.05, 10_000), (0.2, 300), (1.0, 1000))),
    ("cauchy", 0.2, 1000)])
def test_embedding_zeroes_only_roundoff_eigenvalues(d, dt, n):
    model = CAUCHY if d == "cauchy" else diffusion_covariance(d)
    lam, _ = _embedding(model, dt, n)
    m = len(lam)
    # the embedded row and its unclipped spectrum, as the embedding makes them
    c = np.asarray(model.r(np.arange(m // 2 + 1) * dt), dtype=float)
    c = np.concatenate((c, c[-2:0:-1]))
    raw = np.fft.fft(c).real
    delta = np.finfo(float).eps * math.log2(m) * np.linalg.norm(c)
    kept = lam != 0.0
    assert np.all(raw[~kept] <= delta)
    assert np.array_equal(lam[kept], raw[kept])
    # the band is symmetric: frequencies k and m - k are kept alike
    assert np.array_equal(kept, kept[-np.arange(m) % m])
    band = max(min(k, m - k) for k in np.flatnonzero(kept))
    if (d, dt, n) == (2, 0.05, 10_000):
        assert 2 * band + 1 <= 0.2 * m
    if d == "cauchy":
        assert band == m // 2


def test_the_band_the_module_docstring_quotes():
    lam, starts = _embedding(M2, 0.05, 10_000)
    nonzero = np.flatnonzero(lam)
    assert (len(lam), starts, len(nonzero)) == (23_040, (0, 11_520), 4291)
    assert np.minimum(nonzero, len(lam) - nonzero).max() == 2145


# A fresh process: once numpy's import-time spin has settled, a table2-sized
# call (M = 23040 > 10 000, where OpenBLAS threads a dot product) and the
# 0.25 s after it must leave every thread but the caller asleep.
_IDLE_WORKER_SCRIPT = textwrap.dedent("""
    import threading, time
    from pathlib import Path
    from excursions.covmodel import diffusion_covariance
    from excursions.gpsim import persistency_from_trajectories

    me = threading.get_native_id()

    def others():
        ticks = {}
        for task in Path("/proc/self/task").iterdir():
            if int(task.name) != me:
                fields = (task / "stat").read_text().rsplit(")", 1)[1].split()
                ticks[task.name] = int(fields[11]) + int(fields[12])  # utime + stime
        return ticks

    before = others()
    if not before:
        print("no thread")
        raise SystemExit
    for _ in range(100):
        time.sleep(0.1)
        before, settled = others(), before
        if before == settled:
            break
    persistency_from_trajectories(diffusion_covariance(2), [0.0], 16, 10_000, 0.05,
                                  seed=1, reps=2)
    time.sleep(0.25)
    after = others()
    print(sum(t - before.get(tid, 0) for tid, t in after.items()))
""")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_a_trajectory_call_leaves_the_other_threads_idle():
    proc = subprocess.run([sys.executable, "-c", _IDLE_WORKER_SCRIPT],
                          capture_output=True, text=True,
                          env=dict(os.environ, EXCURSION_IIA_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    if proc.stdout.strip() == "no thread":
        pytest.skip("numpy started no second thread")
    assert int(proc.stdout) <= 2


def test_slow_decay_takes_one_padded_window():
    dt, n = 0.2, 1000
    lam, starts = _embedding(CAUCHY, dt, n)
    assert starts == (0,)
    # padded to the cap of 60 blocks of n // 8 lags
    assert len(lam) == 2 * (n + 60 * (n // 8))
    cov = np.fft.ifft(lam).real
    assert np.abs(cov[:n] - CAUCHY.r(np.arange(n) * dt)).max() < 1e-14


def test_embedding_is_cached_and_read_only():
    lam, starts = _embedding(M2, 0.05, 300)
    assert _embedding(M2, 0.05, 300)[0] is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0] = 0.0


@pytest.mark.parametrize("dt, n", [(0.0, 100), (-0.05, 100), (math.nan, 100),
                                   (math.inf, 100), (0.05, 1), (0.05, 0)])
def test_grid_checked_before_simulation(dt, n):
    with pytest.raises(DomainError):
        simulate_gp_batch(M2, dt, n, 4, seed=0)
    with pytest.raises(DomainError):
        simulate_gp_batch(M2, dt, n, 1, seed=0)
