"""Stationary Gaussian trajectory simulation and level-crossing extraction.

Trajectories are generated by circulant embedding (Wood & Chan 1994;
Dietrich & Newsam 1997): the covariance sequence ``r(k dt)`` is
periodized to a circle of ``M`` points, diagonalized by the FFT, and a
transformed complex normal vector gives two independent periodic real
paths, its real and imaginary parts.  The embedding is cached per
``(model, dt, n)`` and its eigenvalues are read-only, so threads share
it.

Each periodic path holds two windows of ``n`` samples, at offsets 0 and
``M/2``, so one complex row gives four trajectories.  The dead lag ``g``
is the smallest lag with ``|r(g dt)| < 1e-16``; the circle has
``M = 2 next_fast_len(n + g)`` points and embeds ``r(min(k, M - k) dt)``.
Lags inside a window are below ``n <= M/2``, so the covariance within
a window is exact on the grid.  Lags between the two windows are at
least ``g + 1`` on the circle, where the embedded covariance is below
1e-16, so the windows are independent to roundoff; the embedding
checks this at every such lag.  A covariance that is not dead within
the padding cap (60 blocks of ``max(64, n // 8)`` lags beyond the
window), or that revives between the windows, gets one window per path
on a circle of ``2 (n + pad)`` points, padded block by block until the
covariance at lag ``n - 1 + pad`` is dead or the cap is reached.

The embedding is exact as long as its eigenvalues are non-negative;
tiny negative eigenvalues (total magnitude below 1e-8 of the trace) are
clipped, anything worse raises.  The FFT of the embedded row ``c``
computes its eigenvalues to within ``delta = eps log2(M) ||c||_2``, with
``eps`` the machine epsilon, so an eigenvalue at or below ``delta`` is
zero to working precision.  ``||c||_2`` is a numpy sum of squares with
no BLAS call: BLAS would wake a thread of its own, which spins on after
the call beside the replicate pool's threads and oversubscribes the
CPUs.  The sampled spectrum is the band of folded frequencies
``min(k, M - k) <= K``, for ``K`` the largest folded frequency whose
eigenvalue exceeds ``delta``; every eigenvalue outside it is set to 0.
A smooth covariance on a fine grid has a narrow band: at d = 2,
dt = 0.05 and n = 1e4 it holds 4291 of the M = 23040 modes.
The embedding returns the sampled spectrum, so its inverse FFT is the
covariance of the paths.  A ``dt`` so large that the lags up to the
padding cap overflow is a :class:`DomainError`, raised before the
covariance is evaluated.

The path stream is made row by row.  Complex row i draws its band
normals, ``2K + 1`` for its real part and then as many for its imaginary
part, and its paths are its real part at each window start, then its
imaginary part likewise.  A block of up to 8 rows is drawn, scaled into
the band columns ``[0, K]`` and ``[M - K, M)`` of a zeroed complex
buffer, transformed in place and copied into one contiguous block of
paths, in one step over one buffer per stream.  The block size is a
memory layout only: a smaller batch is a prefix of a larger one at the
same seed.  When the band is the whole row (``K = M/2``), a row takes
one normal per column in column order, as if every mode were drawn.  A
consumer that reads each path once, such as crossing extraction, so
holds no path matrix, and reads contiguous rows.

Crossings of a level are located by linear interpolation between
bracketing samples; the first and last (incomplete) intervals are
discarded, and two crossings that round to one instant are dropped as a
touch, so the extracted above/below lengths are positive and strictly
alternate.  A crossing is a change of side, read by comparing samples
with the level, so a product of two tiny differences that underflows to
zero cannot hide one.  Extraction runs once per block of paths and
level: a few passes over the whole block find every row's crossings
with no per-row loop, and only the rare irregular cases (a sample on
the level next to a crossing, two crossings at one instant, a row with
fewer than two crossings) take slower rules; one path is extracted as a
one-row block.  The Rice crossing intensity

    (1/pi) sqrt(-r''(0)) exp(-u^2 / 2)

serves as the closed-form cross-check on crossing counts.

The level is a property of extraction, not of the paths: the table
estimator spawns one seed per replicate, simulates each replicate's
trajectories once and reads the crossings of every level from them.  A
level's estimates so equal those of a call with that level alone, and
the levels of one call are correlated through their shared paths.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .covmodel import CovarianceModel
from .errors import DomainError, EmptyExcursionSet, NumericalError
from .numerics import finite_level, level_mass, next_fast_len
from .persistency import BatchEstimate, replicate_estimates

__all__ = [
    "simulate_gp_batch",
    "extract_excursions",
    "rice_crossing_rate",
    "persistency_from_trajectories",
]

_COV_FLOOR = 1e-16          # treat the covariance as dead beyond this
_NEG_EIG_BUDGET = 1e-8      # relative to the embedding trace
_BLOCK_ROWS = 8             # complex rows drawn and transformed together


def _check_grid(dt: float, n: int) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise DomainError(f"dt must be finite and positive, got {dt!r}")
    if n < 2:
        raise DomainError(f"need at least two samples, got {n!r}")


def _dead_lag(model: CovarianceModel, dt: float, last: int, block: int):
    """Smallest lag ``k <= last`` with ``|r(k dt)|`` below the floor, or None."""
    for first in range(0, last + 1, block):
        k = np.arange(first, min(first + block, last + 1))
        dead = np.flatnonzero(np.abs(model.r(k * dt)) < _COV_FLOOR)
        if dead.size:
            return first + int(dead[0])
    return None


@functools.lru_cache(maxsize=8)
def _embedding(model: CovarianceModel, dt: float, n: int):
    """The sampled circulant spectrum, read-only, and the window offsets.

    The spectrum is the FFT of the embedded covariance row, its tiny
    negative eigenvalues clipped and every eigenvalue outside the band
    of folded frequencies above the FFT's roundoff bound set to 0.
    """
    block = max(64, n // 8)
    cap = 60 * block
    if not math.isfinite(dt * (n - 1 + cap)):
        raise DomainError(
            f"dt = {dt!r} is too large: the lag grid's span dt * {n - 1 + cap} "
            "is not finite")
    g = _dead_lag(model, dt, n - 1 + cap, block)
    half = None if g is None else next_fast_len(n + g)
    # the lags between the two windows must all be dead, not just g
    if half is not None and np.abs(
            model.r(np.arange(half - n + 1, half + 1) * dt)).max() < _COV_FLOOR:
        starts = (0, half)
    else:
        # pad with lags until the covariance is numerically dead so the
        # periodization does not wrap correlation back into the window
        pad = block
        while abs(float(model.r(dt * (n - 1 + pad)))) >= _COV_FLOOR and pad < cap:
            pad += block
        half = n + pad
        starts = (0,)
    c = np.asarray(model.r(np.arange(half + 1) * dt), dtype=float)
    c = np.concatenate((c, c[-2:0:-1]))
    m = len(c)
    # np.sum of squares, not np.linalg.norm: BLAS threads oversubscribe the pool
    delta = np.finfo(float).eps * math.log2(m) * math.sqrt(float(np.sum(c * c)))
    lam = np.fft.fft(c).real
    neg = lam < 0.0
    if neg.any():
        deficit = -lam[neg].sum()
        if deficit >= _NEG_EIG_BUDGET * lam.sum():
            raise NumericalError(
                f"circulant embedding not nonnegative definite "
                f"(deficit {deficit:.3e}); enlarge the embedding")
        lam[neg] = 0.0
    # the band: folded frequencies up to the last eigenvalue above the
    # FFT's roundoff bound; the rest are zero within that bound
    folded = np.minimum(np.arange(m), m - np.arange(m))
    lam[folded > folded[lam > delta].max()] = 0.0
    lam.flags.writeable = False
    return lam, starts


def _iter_paths(lam: np.ndarray, starts: tuple, n: int, count: int, rng):
    """Yield contiguous ``(rows, n)`` blocks of the stream's first ``count`` paths.

    The band is read from ``lam``: its largest folded frequency ``K``
    with a nonzero eigenvalue.  Each complex row draws ``2K + 1``
    normals per part (``M`` for a full band), in the columns ``[0, K]``
    and then ``[M - K, M)``, and gives its real part at each window
    start, then its imaginary part likewise.  A block is up to
    ``_BLOCK_ROWS`` rows, and the next one overwrites it, so a caller
    copies what it keeps.
    """
    m = len(lam)
    nonzero = np.flatnonzero(lam)
    band = int(np.minimum(nonzero, m - nonzero).max())
    # columns [0, lo) and [hi, m) hold the band; a full band is the whole row
    lo, hi = band + 1, max(band + 1, m - band)
    width = lo + m - hi
    per_row = 2 * len(starts)
    scale = np.sqrt(lam / m)
    block = min(_BLOCK_ROWS, -(-count // per_row))
    # One allocation carved into the three buffers, not three.  Once
    # glibc's malloc frees a mapped block it maps only larger ones and
    # keeps up to twice that size free in its heap.  With three buffers
    # (0.55 to 2.9 MB at n = 1e4, M = 23040) the 6.1 MB a stream frees is
    # over that, so every stream faults its buffers in again: 22-23k minor
    # page faults per table2 benchmark call in a fresh process, against
    # 7.5-8.8k with one allocation, which the next stream reuses.
    sizes = np.cumsum([2 * block * m, 2 * block * width, per_row * block * n])
    buf = np.empty(sizes[-1])
    z_buf = buf[:sizes[0]].view(complex).reshape(block, m)
    normals = buf[sizes[0]:sizes[1]].reshape(block, 2, width)
    windows = buf[sizes[1]:].reshape(block, per_row, n)
    for done in range(0, count, per_row * block):
        k = min(block, -(-(count - done) // per_row))
        z, drawn = z_buf[:k], normals[:k]
        rng.standard_normal(out=drawn)
        z[:, lo:hi] = 0.0
        for p, part in enumerate((z.real, z.imag)):
            np.multiply(drawn[:, p, :lo], scale[:lo], out=part[:, :lo])
            np.multiply(drawn[:, p, lo:], scale[hi:], out=part[:, hi:])
        np.fft.fft(z, axis=1, out=z)
        views = (part[:, s:s + n] for part in (z.real, z.imag) for s in starts)
        for j, view in enumerate(views):
            windows[:k, j] = view
        yield windows[:k].reshape(-1, n)[:count - done]


def simulate_gp_batch(model: CovarianceModel, dt: float, n: int,
                      count: int, seed) -> np.ndarray:
    """The stream's first ``count`` trajectories as a (count, n) array."""
    _check_grid(dt, n)
    if count < 1:
        raise DomainError("count must be positive")
    rng = np.random.default_rng(seed)
    out = np.empty((count, n))
    done = 0
    for paths in _iter_paths(*_embedding(model, dt, n), n, count, rng):
        out[done:done + len(paths)] = paths
        done += len(paths)
    return out


def _excursions(paths: np.ndarray, u: float, dt: float):
    """Pooled above and below lengths of the rows of ``paths`` at level ``u``.

    Returns ``(above, below, crossings)``: each side's lengths in row
    order, as if each row were extracted alone and the results pooled,
    and the number of crossings over all rows.  Three passes over the
    whole block find the crossings: the side of every sample, the flat
    positions where the side changes, and their split into (row, index),
    which drops the changes from the end of one row to the start of the
    next.  A sample on the level next to a crossing sends the block
    through the rule that skips such samples; tied instants are dropped
    in place, and a row left with fewer than two crossings raises.
    """
    n = paths.shape[1]
    up = (paths > u).ravel()
    row, idx = np.divmod(np.flatnonzero(up[1:] != up[:-1]), n)
    inner = idx != n - 1
    row, idx = row[inner], idx[inner]
    dv, dn = paths[row, idx] - u, paths[row, idx + 1] - u
    if not (dv.all() and dn.all()):
        # a crossing leaves the last off-level sample before it, towards
        # the next sample, which is on the other side or at the level
        d = paths - u
        r, i = np.nonzero(d)
        side = d[r, i] > 0.0
        change = np.flatnonzero((side[1:] != side[:-1]) & (r[1:] == r[:-1]))
        row, idx = r[change], i[change]
        dv, dn = d[row, idx], d[row, idx + 1]
    times = (idx + dv / (dv - dn)) * dt
    same = row[1:] == row[:-1]
    ties = np.flatnonzero(same & (np.diff(times) == 0.0))
    if ties.size:
        # drop equal instants in pairs from the left; the sides still alternate
        keep = np.ones(len(row), dtype=bool)
        for k in ties:
            if keep[k]:
                keep[k] = keep[k + 1] = False
        row, times, dv = row[keep], times[keep], dv[keep]
        same = row[1:] == row[:-1]
    if np.bincount(row, minlength=len(paths)).min() < 2:
        raise EmptyExcursionSet(
            f"no complete excursion of level {u} in the trajectory")
    lengths = np.diff(times)[same]
    above = dv[1:][same] > 0.0
    return lengths[above], lengths[~above], len(row)


def extract_excursions(values, u: float, dt: float):
    """Alternating above/below interval lengths of one path at level ``u``.

    ``values`` is a 1-d path of at least two finite samples spaced ``dt``
    apart.  Returns ``(above, below, crossings)``, the lengths on each
    side and the number of crossings.  Crossing instants are located by
    linear interpolation between the bracketing samples; boundary
    intervals (cut by the window) are dropped.  A sample exactly at the
    level is on neither side: a path that passes through the level at a
    run of such samples crosses once, at the first sample of the run,
    and one that touches the level and returns does not cross.  Two
    crossings that round to the same instant are such a touch, within
    rounding: both are dropped and the intervals on either side merge,
    so every length is positive.  Raises :class:`EmptyExcursionSet` when
    fewer than two crossings exist, and :class:`DomainError` for a level
    that is not finite.  This is the one-row case of the
    block extraction that the table estimator runs.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DomainError(f"a path must be a 1-d array, got shape {values.shape}")
    _check_grid(dt, len(values))
    if not np.isfinite(values).all():
        raise DomainError("path values must be finite")
    return _excursions(values[None, :], finite_level(u), dt)


def rice_crossing_rate(model: CovarianceModel, u: float) -> float:
    """Mean number of u-crossings per unit time (up plus down)."""
    return math.sqrt(-model.r_pp0) / math.pi * math.exp(-0.5 * u * u)


def persistency_from_trajectories(model: CovarianceModel, levels, n_traj: int,
                                  traj_len: int, dt: float, seed, reps: int = 10
                                  ) -> list[tuple[BatchEstimate, BatchEstimate]]:
    """``(above, below)`` persistency per level of the sequence ``levels``,
    from simulated trajectories.

    ``n_traj`` trajectories of ``traj_len`` steps form ``reps`` replicates
    of ``n_traj / reps``.  ``seed`` spawns one seed per replicate, whatever
    the number of levels, so a level's estimates equal those of a call
    with that level alone.  Each replicate streams its trajectories once,
    each block of them goes whole through crossing extraction at every
    level, and each level's pooled above and below lengths are fitted.
    A level must be finite, and Phi(u) must not round to 0 or 1, as for
    :func:`iia.build_iia`; either is a :class:`DomainError`, raised
    before any path is drawn.  The replicates are the tasks of the one
    pool of :func:`persistency.replicate_estimates`, so at most ``reps``
    threads are busy, and ``EXCURSION_IIA_THREADS`` caps them.  The
    trajectories take one stream buffer per thread, whatever ``n_traj``
    is.  Trajectories without complete excursions raise through from the
    extraction step.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    if n_traj < reps:
        raise DomainError("need at least one trajectory per replicate")
    if n_traj % reps:
        raise DomainError(
            f"{n_traj} trajectories do not split evenly into {reps} replicates")
    _check_grid(dt, traj_len)
    levels = [float(u) for u in levels]
    for u in levels:
        level_mass(u)
    lam, starts = _embedding(model, dt, traj_len)

    def draw(_, rep_seed):
        lengths = [([], []) for _ in levels]
        rng = np.random.default_rng(rep_seed)
        for paths in _iter_paths(lam, starts, traj_len, n_traj // reps, rng):
            for u, (above, below) in zip(levels, lengths):
                a, b, _ = _excursions(paths, u, dt)
                above.append(a)
                below.append(b)
        return [np.concatenate(side) for pair in lengths for side in pair]

    names = tuple(f"u = {u:g}, {side} side" for u in levels for side in ("above", "below"))
    [estimates] = replicate_estimates(draw, [(None, seed, names)], reps)
    return list(zip(estimates[::2], estimates[1::2]))
