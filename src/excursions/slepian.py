"""The crossing-conditioned (Slepian) representation and its clipped mean.

A smooth stationary Gaussian process observed at a u-level up-crossing
decomposes into three parts,

    X_u(t) = u*r(t) - R * r'(t)/sqrt(-r''(0)) + Delta(t),

with R a standard Rayleigh slope factor and Delta a non-stationary
Gaussian residual with covariance

    r_Delta(t, s) = r(t-s) - r(t) r(s) + r'(t) r'(s) / r''(0).

The central quantity here is the expected value of the clipped process
sgn(X_u(t) - u),

    E_u^+(t) = 1 - 2 Phi(u (1-r) / sD)
               - (2 / sqrt(-r''(0))) * (r' / sqrt(1-r^2))
                 * exp(-(u^2/2) (1-r)/(1+r))
                 * Phi((-u / sqrt(-r''(0))) * sqrt((1-r)/(1+r)) * r' / sD),

    sD = sqrt(1 - r^2 + r'^2 / r''(0)),

with limits E_u^+(0+) = 1 and E_u^+(inf) = 1 - 2 Phi(u), together with
the down-crossing counterpart E_u^-(t) = -E_{-u}^+(t) and the conditional
version given the slope factor.  A sampler draws the three components
of many crossing-conditioned paths on one grid: the deterministic part
once, the slope and residual parts as one row per path.

Numerically the formula is a 0/0 battleground as t -> 0: both
``1 - r^2`` and ``r'^2 / r''(0)`` collapse onto each other at order
t^2, leaving an O(t^4) denominator.  Evaluation therefore goes through
the model's stable ``1 - r(t)`` and returns the analytic limit below a
small threshold or whenever the residual variance is numerically
exhausted.  Only the two Phi arguments and the exponential factor
depend on the level: r, 1 - r, r', sD and the prefactor of the second
term are computed once per grid of times.  A table of levels reuses
them for every level and both signs (E_u^- = -E_{-u}^+) in the same
operation order, so each curve is bit for bit the one
:func:`expected_clipped_up` returns.  Phi is :func:`numerics.ndtr`,
numpy's own, so this module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .covmodel import CovarianceModel
from .errors import DomainError, NumericalError
from .numerics import finite_level, ndtr

__all__ = [
    "expected_clipped_up",
    "expected_clipped_down",
    "conditional_expected_clipped",
    "sample_slepian_path",
]

# below this time the closed form is evaluated as its t -> 0 limit
T_EPS = 1e-8
# square-root arguments this far below zero are treated as roundoff
CLAMP = -1e-12
# most entries of the sampler's residual covariance: 4096 interior points,
# a 128 MiB matrix; factorizing it holds three such at once (the matrix,
# its factor and LAPACK's working copy)
MAX_COV_ENTRIES = 1 << 24
# entries of the blocks of rows in which the residual covariance is filled
_BLOCK_ENTRIES = 1 << 16


def _clipped_terms(model: CovarianceModel, t: np.ndarray) -> tuple:
    """The arrays of E_u^+ that no level enters, on strictly positive ``t``.

    In order: 1 - r, 1 + r kept off zero, r', sD (1 where degenerate), the
    prefactor -(2 / sqrt(-r''(0))) r' / sqrt(1 - r^2), sqrt((1 - r) / (1 + r)),
    the mask where E_u^+ is its t -> 0 limit 1, and sqrt(-r''(0)).
    """
    g2 = -model.r_pp0
    sqrt_g2 = math.sqrt(g2)
    r = np.asarray(model.r(t), dtype=float)
    m = np.asarray(model.one_minus(t), dtype=float)   # 1 - r
    p = 1.0 + r
    rp = np.asarray(model.r_prime(t), dtype=float)

    mp = m * p                                        # 1 - r^2, stably
    var = mp - rp * rp / g2                           # residual variance
    if np.any(var < CLAMP):
        worst = float(np.min(var))
        raise NumericalError(
            f"residual variance {worst:.3e} below clamp tolerance; "
            "covariance model violates the Cauchy-Schwarz bound")
    degenerate = (t <= T_EPS) | (var <= 0.0) | (mp <= 0.0)

    var_safe = np.where(degenerate, 1.0, var)
    mp_safe = np.where(degenerate, 1.0, mp)
    p_safe = np.maximum(p, 1e-300)
    pref = -(2.0 / sqrt_g2) * rp / np.sqrt(mp_safe)
    return (m, p_safe, rp, np.sqrt(var_safe), pref, np.sqrt(m / p_safe), degenerate,
            sqrt_g2)


def _clipped_up_from(terms: tuple, u: float) -> np.ndarray:
    """E_u^+ at level ``u`` from the level-free terms of :func:`_clipped_terms`."""
    m, p_safe, rp, sD, pref, ratio, degenerate, sqrt_g2 = terms
    term1 = 1.0 - 2.0 * ndtr(u * m / sD)
    arg2 = (-u / sqrt_g2) * ratio * rp / sD
    term2 = pref * np.exp(-0.5 * u * u * m / p_safe) * ndtr(arg2)

    out = np.where(degenerate, 1.0, term1 + term2)
    return np.clip(out, -1.0, 1.0)


def expected_clipped_up(model: CovarianceModel, u: float, t):
    """Expected value of the clipped process at a u-level up-crossing.

    Accepts a positive scalar or array of times.  Values lie in
    [-1, 1]; the t -> 0 limit is 1 and the large-t limit is
    ``1 - 2*Phi(u)``.
    """
    u = finite_level(u)
    ta = np.asarray(t, dtype=float)
    if not np.all(ta > 0.0):
        raise DomainError("time must be strictly positive")
    out = _clipped_up_from(_clipped_terms(model, np.atleast_1d(ta)), u)
    return float(out[0]) if ta.ndim == 0 else out


def expected_clipped_down(model: CovarianceModel, u: float, t):
    """Expected value of the clipped process at a u-level down-crossing.

    Equal to ``-expected_clipped_up(model, -u, t)`` by the value
    symmetry of the Gaussian law; limits are -1 at 0+ and
    ``1 - 2*Phi(u)`` at infinity.
    """
    return -expected_clipped_up(model, -finite_level(u), t)


def conditional_expected_clipped(model: CovarianceModel, u: float, t, s):
    """Clipped mean at an up-crossing, conditional on slope factor ``s``.

        E[sgn(X_u(t) - u) | R = s]
            = 1 - 2 Phi((u (1-r) + s r'/sqrt(-r''(0))) / sD)

    Mixing this against the standard Rayleigh density recovers
    ``expected_clipped_up``; that identity is the defining consistency
    check.  When the residual variance degenerates (t -> 0) the limit
    is +1 for every s > 0: the path has just crossed upward.
    """
    u = finite_level(u)
    ta = np.asarray(t, dtype=float)
    sa = np.asarray(s, dtype=float)
    if not np.all(ta > 0.0):
        raise DomainError("time must be strictly positive")
    if not np.all(sa > 0.0):
        raise DomainError("slope factor must be strictly positive")

    m, _, rp, sD, _, _, degenerate, sqrt_g2 = _clipped_terms(model, ta)
    arg = (u * m + sa * rp / sqrt_g2) / sD
    out = np.where(degenerate, 1.0, 1.0 - 2.0 * ndtr(arg))
    if ta.ndim == 0 and sa.ndim == 0:
        return float(out)
    return out


def _residual_covariance(model: CovarianceModel, t: np.ndarray) -> np.ndarray:
    """r_Delta(t_i, t_j) in one n x n matrix, filled in place.

    Each block of rows is r(|t - s|), less r(t) r(s), plus
    r'(t) r'(s) / r''(0), in that order, so no n x n temporary is made.
    The matrix is exactly symmetric: |t_i - t_j| and |t_j - t_i| are the
    same float, and both products commute.
    """
    n = len(t)
    r = np.asarray(model.r(t), dtype=float)
    rp = np.asarray(model.r_prime(t), dtype=float)
    cov = np.empty((n, n))
    rows = max(1, _BLOCK_ENTRIES // n)
    for i in range(0, n, rows):
        block = cov[i:i + rows]
        block[...] = model.r(np.abs(t[i:i + rows, None] - t))
        block -= r[i:i + rows, None] * r
        block += rp[i:i + rows, None] * rp / model.r_pp0
    return cov


def sample_slepian_path(model: CovarianceModel, u: float, grid,
                        count: int, seed):
    """Sample ``count`` crossing-conditioned paths on a grid starting at zero.

    Returns ``(deterministic, slope, residual)`` with shapes ``(n,)``,
    ``(count, n)`` and ``(count, n)`` for a grid of ``n`` points; path
    ``i`` is ``deterministic + slope[i] + residual[i]``.  The generator
    draws the ``count`` factors ``R ~ Rayleigh(1)`` first, then the
    residuals, each a zero-mean Gaussian vector with covariance
    ``r_Delta``.  The residual vanishes identically at ``t = 0`` (its
    variance there is exactly zero), so it is sampled on the interior
    grid and pinned to zero at the origin; every path equals ``u`` at
    ``t = 0`` exactly and starts with positive slope.

    The covariance factorization retries with escalating diagonal
    jitter from 1e-14 to 1e-10 and raises :class:`NumericalError`
    beyond that.  A grid of more than 4097 points, whose interior
    covariance would exceed ``MAX_COV_ENTRIES`` entries, is a
    :class:`DomainError`, raised before anything is allocated.
    """
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise DomainError("grid must be a 1-d array with at least two points")
    if t[0] != 0.0:
        raise DomainError("grid must start at zero")
    if not np.all(np.diff(t) > 0):
        raise DomainError("grid must be strictly increasing")
    n = len(t) - 1
    if n * n > MAX_COV_ENTRIES:
        raise DomainError(
            f"the grid's {n} interior points need a {n} x {n} residual covariance, "
            f"more than the {MAX_COV_ENTRIES} entries ({math.isqrt(MAX_COV_ENTRIES)} "
            "points) allowed")
    if count < 1:
        raise DomainError("count must be positive")
    finite_level(u)

    interior = t[1:]
    cov = _residual_covariance(model, interior)
    diagonal = cov.diagonal().copy()
    chol = None
    for jitter in (0.0, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10):
        np.fill_diagonal(cov, diagonal + jitter)
        try:
            chol = np.linalg.cholesky(cov)
            break
        except np.linalg.LinAlgError:
            continue
    if chol is None:
        raise NumericalError(
            "residual covariance not factorizable with jitter up to 1e-10")

    rng = np.random.default_rng(seed)
    g2 = -model.r_pp0
    det_part = u * np.asarray(model.r(t), dtype=float)
    slope_shape = -np.asarray(model.r_prime(t), dtype=float) / math.sqrt(g2)

    rdraws = rng.rayleigh(1.0, size=count)
    residual = np.zeros((count, len(t)))
    residual[:, 1:] = rng.standard_normal((count, len(interior))) @ chol.T
    return det_part, rdraws[:, None] * slope_shape, residual
