"""Scalar special functions and generic numerical kernels.

Everything here is pure and reentrant: the normal CDF, the
bivariate orthant-style integral

    B(u, rho) = P(rho*Z + sqrt(1-rho^2)*Y <= u, Z <= u),

numerical Laplace transforms of tabulated functions with exponential
tail corrections, Gaver-Stehfest inversion, and monotone inverse-CDF
sampling with tail extrapolation.  These are the kernels every other
module builds on.

A :class:`Grid` exposes read-only copies of its arrays, so anything
derived from them can be computed once and cached on the grid.  The
inverse-CDF sampler uses this twice: a grid is checked to be a CDF
(nondecreasing, starting at zero) on its first use as one, and large
draws find their segment through a guide table (an indexed search,
Chen & Asau 1974; Devroye 1986, section III.2) built on that first
large draw.  The table only replaces the bisection inside
``np.interp``; every quantile is the same expression on the same
segment, so the samples equal ``np.interp(u, cdf.values, cdf.points)``
bit for bit.

``scipy.integrate`` is imported on first use, inside the two functions
that call it, so that CLI runs that never call them do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, MonotonicityViolation, NumericalError

__all__ = [
    "Grid",
    "TailModel",
    "LaplaceEvaluable",
    "norm_cdf",
    "b_integral",
    "numerical_laplace",
    "fit_exponential_tail",
    "gaver_stehfest_invert",
    "inverse_cdf_sample",
    "spawn_seeds",
]


def spawn_seeds(seed, n: int) -> list:
    """Derive ``n`` independent child seeds from any seed-like object."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)


# ---------------------------------------------------------------------------
# tabulation substrate
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """A tabulated real function: strictly increasing abscissae and values.

    Invariants are enforced at construction: ``points`` strictly
    increasing with ``points[0] >= 0``, equal lengths, at least two
    entries.  Both arrays are read-only views of private copies of the
    inputs, which lets the CDF check and the inverse table below be
    cached.
    """

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        # np.interp copies a read-only array on every call, so it is
        # given the writable copies _pts and _vals, which nothing writes
        object.__setattr__(self, "_pts", np.array(self.points, dtype=float))
        object.__setattr__(self, "_vals", np.array(self.values, dtype=float))
        pts, vals = self._pts.view(), self._vals.view()
        pts.flags.writeable = False
        vals.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "values", vals)
        if pts.ndim != 1 or vals.ndim != 1 or pts.shape != vals.shape:
            raise DomainError("grid points and values must be 1-d and aligned")
        if len(pts) < 2:
            raise DomainError("grid needs at least two points")
        if pts[0] < 0.0:
            raise DomainError("grid points must be non-negative")
        if not np.all(np.diff(pts) > 0.0):
            raise DomainError("grid points must be strictly increasing")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(vals))):
            raise DomainError("grid entries must be finite")

    def __len__(self) -> int:
        return len(self.points)

    def interpolate(self, t):
        return np.interp(t, self._pts, self._vals)

    @cached_property
    def _cdf_end(self) -> float:
        """Final value of the grid read as a CDF, checked on first use.

        Raises :class:`MonotonicityViolation` if the values decrease
        anywhere and :class:`DomainError` if they do not start at zero;
        nothing is cached then, so every later use raises again.
        """
        vals = self.values
        bad = np.diff(vals) < 0.0
        if bad.any():
            idx = int(np.argmax(bad))
            raise MonotonicityViolation(
                f"cdf decreases at index {idx + 1}", which="cdf", index=idx + 1,
                t=float(self.points[idx + 1]))
        if abs(vals[0]) > 1e-12:
            raise DomainError("cdf must start at zero")
        return float(vals[-1])

    @cached_property
    def _inverse(self) -> _GuideTable:
        self._cdf_end
        return _GuideTable.build(self._vals, self._pts)


@dataclass(frozen=True)
class TailModel:
    """Exponential tail ``amplitude * exp(-rate * t)`` beyond a grid."""

    rate: float
    amplitude: float

    def __post_init__(self):
        if not (self.rate > 0.0 and math.isfinite(self.rate)):
            raise DomainError("tail rate must be positive and finite")


@dataclass(frozen=True, eq=False)
class LaplaceEvaluable:
    """A function of a positive Laplace argument.

    Either a closed form ``s -> value`` or a tabulated original
    function (a :class:`Grid` over time) plus an exponential tail
    model, in which case evaluation goes through
    :func:`numerical_laplace`.
    """

    closed_form: Callable[[float], float] | None = None
    grid: Grid | None = None
    tail: TailModel | None = field(default=None)

    def __post_init__(self):
        if (self.closed_form is None) == (self.grid is None):
            raise DomainError("provide exactly one of closed_form or grid")
        if self.grid is not None and self.tail is None:
            raise DomainError("tabulated transforms require a tail model")

    def __call__(self, s):
        if self.closed_form is not None:
            return self.closed_form(s)
        return numerical_laplace(self.grid, s, self.tail)


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

def norm_cdf(x):
    """Standard normal CDF, accurate to well below 1e-14 absolute.

    Accepts scalars (including +-inf) or arrays.
    """
    if np.isscalar(x):
        return float(ndtr(x))
    return ndtr(np.asarray(x, dtype=float))


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def b_integral(u_tilde: float, rho: float) -> float:
    """P(rho*Z + sqrt(1-rho^2)*Y <= u, Z <= u) by adaptive quadrature.

    ``Z`` and ``Y`` are independent standard normals.  Evaluates

        B(u, rho) = int_{-inf}^{u} phi(z) Phi((u - rho*z)/sqrt(1-rho^2)) dz

    on (min(-8, u-8), u]; the dropped lower tail is below Phi(-8),
    comfortably inside the 1e-10 accuracy budget.  The correlated
    limits are handled analytically: B(u, 1) = Phi(u) and
    B(u, -1) = max(0, 2*Phi(u) - 1).
    """
    if abs(rho) > 1.0:
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    u = float(u_tilde)
    if rho >= 1.0 - 1e-12:
        return float(norm_cdf(u))
    if rho <= -1.0 + 1e-12:
        return max(0.0, 2.0 * float(norm_cdf(u)) - 1.0)

    from scipy.integrate import quad

    den = math.sqrt((1.0 - rho) * (1.0 + rho))

    def integrand(z):
        return math.exp(-0.5 * z * z) / _SQRT_2PI * ndtr((u - rho * z) / den)

    lo = min(-8.0, u - 8.0)
    # breakpoint where the inner CDF argument crosses zero helps quad
    # when |rho| is close to one and the integrand is nearly a step
    pts = None
    if rho != 0.0:
        zstar = u / rho
        if lo < zstar < u:
            pts = [zstar]
    val, _ = quad(integrand, lo, u, epsabs=1e-13, epsrel=1e-12,
                  limit=200, points=pts)
    return min(1.0, max(0.0, val))


# ---------------------------------------------------------------------------
# Laplace transforms of tabulated functions
# ---------------------------------------------------------------------------

def numerical_laplace(f: Grid, s: float, tail: TailModel | None = None) -> float:
    """Laplace transform of a tabulated function at ``s > 0``.

    Simpson quadrature of ``f(t) * exp(-s*t)`` on the grid (trapezoid
    for two points), plus the closed-form contribution of the
    exponential tail beyond the last grid point when a tail model is
    supplied.
    """
    from scipy.integrate import simpson, trapezoid

    if not s > 0.0:
        raise DomainError(f"Laplace argument must be positive, got {s}")
    t = f.points
    y = f.values * np.exp(-s * t)
    if len(t) >= 3:
        val = float(simpson(y, x=t))
    else:
        val = float(trapezoid(y, x=t))
    if tail is not None:
        t_end = t[-1]
        val += tail.amplitude * math.exp(-(s + tail.rate) * t_end) / (s + tail.rate)
    return val


def fit_exponential_tail(grid: Grid, floor: float = 1e-12) -> TailModel:
    """Fit ``A * exp(-theta * t)`` to the last decade of a positive tail.

    Uses the grid points in ``(t_hi/10, t_hi]`` where ``t_hi`` is the
    largest abscissa whose value still exceeds ``floor`` (values below
    that are treated as numerically unresolved).  The fit is a linear
    regression of ``log value`` on ``t``.  The tail amplitude is taken
    relative to the END of the grid, i.e. the returned model satisfies
    ``amplitude * exp(-rate * t)`` matched to the fitted line, so the
    model remains usable for extrapolation beyond the grid.
    """
    t = grid.points
    v = grid.values
    usable = v > floor
    if usable.sum() < 2:
        raise NumericalError("tail fit needs at least two resolvable values")
    t_hi = t[usable][-1]
    window = usable & (t > t_hi / 10.0) & (t <= t_hi)
    if window.sum() < 2:
        window = usable
    tt = t[window]
    lv = np.log(v[window])
    slope, intercept = np.polyfit(tt, lv, 1)
    if not slope < 0.0:
        raise NumericalError("tail is not exponentially decaying")
    return TailModel(rate=-float(slope), amplitude=float(math.exp(intercept)))


# ---------------------------------------------------------------------------
# Gaver-Stehfest inversion
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _stehfest_weights(order: int) -> tuple[float, ...]:
    # Salzer weights computed in exact rational arithmetic; they grow to
    # ~1e8 at order 14 and alternate in sign, so exactness here keeps the
    # only rounding in the final fsum.
    half = order // 2
    fact = [Fraction(1)]
    for i in range(1, 2 * half + 1):
        fact.append(fact[-1] * i)
    weights = []
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range((k + 1) // 2, min(k, half) + 1):
            acc += (Fraction(j) ** half * fact[2 * j]
                    / (fact[half - j] * fact[j] * fact[j - 1]
                       * fact[k - j] * fact[2 * j - k]))
        weights.append(float(acc * (-1) ** (k + half)))
    return tuple(weights)


def gaver_stehfest_invert(psi, t: float, order: int = 14) -> float:
    """Gaver-Stehfest estimate of the original function at ``t``.

    ``psi`` is evaluated at the real abscissae ``k*ln(2)/t``.  The order
    must be even and between 8 and 18; 14 is a good default in double
    precision (roughly six significant digits on smooth transforms,
    degrading in the deep tail where the inverse is far below its peak).
    """
    if order % 2 != 0 or not 8 <= order <= 18:
        raise DomainError(f"order must be even and in [8, 18], got {order}")
    if not t > 0.0:
        raise DomainError(f"time must be positive, got {t}")
    w = _stehfest_weights(order)
    ln2_t = math.log(2.0) / t
    return ln2_t * math.fsum(w[k - 1] * psi(k * ln2_t) for k in range(1, order + 1))


# ---------------------------------------------------------------------------
# inverse-CDF sampling
# ---------------------------------------------------------------------------

# draws per pass of the guide-table lookup; bounds its temporaries
_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class _GuideTable:
    """Guide table for inverting a nondecreasing piecewise-linear CDF.

    The unit interval is cut into ``size`` equal-probability buckets,
    ``size`` the power of two at or above the knot count, so that the
    bucket of a draw ``u`` is exactly ``floor(u * size)``.  ``guide[k]``
    is the last knot at or below the bucket's lower edge.  When at most
    one more knot lies inside the bucket, a draw's segment is
    ``guide[k]`` or the one after it, the segment ``np.interp`` finds by
    bisection, and the quantile is the expression ``np.interp``
    evaluates there.  The other buckets are flagged ``wide`` and left to
    ``np.interp``: those that hold two knots or more, lie below the
    first knot or reach the last one, or whose candidate segments have
    an infinite slope (``np.interp`` answers an exact hit on such a
    segment with the knot itself, where the expression gives NaN).
    """

    size: int
    guide: np.ndarray
    wide: np.ndarray
    slopes: np.ndarray

    @classmethod
    def build(cls, vals: np.ndarray, pts: np.ndarray) -> _GuideTable:
        n = len(vals)
        size = 1 << (n - 1).bit_length()
        edges = np.arange(size + 1) / size
        lo = np.searchsorted(vals, edges[:-1], side="right") - 1
        hi = np.searchsorted(vals, edges[1:], side="left") - 1
        # flat and nearly flat CDF steps divide to +inf, flagged steep
        # below; the padding slope and the clipped guide keep the
        # lookups of wide-bucket draws in bounds; their results are
        # discarded
        with np.errstate(divide="ignore", over="ignore"):
            slopes = np.append(np.diff(pts) / np.diff(vals), 0.0)
        guide = np.clip(lo, 0, n - 2)
        steep = ~np.isfinite(slopes)
        wide = ((hi - lo > 1) | (lo < 0) | (hi >= n - 1)
                | steep[guide] | steep[guide + 1])
        return cls(size=size, guide=guide, wide=wide, slopes=slopes)

    def lookup(self, u: np.ndarray, vals: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """``np.interp(u, vals, pts)`` for one chunk of draws in (0, 1)."""
        k = (u * self.size).astype(np.intp)
        j = self.guide[k]
        j += u >= vals[1:][j]
        # the infinite slope of a flat CDF step times an exact hit is
        # NaN; such draws lie in wide buckets and are redone below
        with np.errstate(invalid="ignore"):
            out = self.slopes[j] * (u - vals[j]) + pts[j]
        redo = self.wide[k]
        if redo.any():
            out[redo] = np.interp(u[redo], vals, pts)
        return out


def inverse_cdf_sample(cdf: Grid, tail_rate: float | None, uniform):
    """Monotone piecewise-linear inversion of a tabulated CDF.

    ``uniform`` may be a scalar or an array of values in (0, 1).  For
    values above the final tabulated CDF level the exponential tail
    with the given ``tail_rate`` extrapolates the quantile; without a
    tail rate the final CDF value must already be within 1e-9 of one,
    and such draws clamp to the last grid point.

    Below the final CDF level the result equals
    ``np.interp(u, cdf.values, cdf.points)`` bit for bit.  Draws at
    least as many as the grid's knots go through the grid's cached
    guide table (see :class:`_GuideTable`) in chunks of ``_CHUNK``;
    fewer draws, scalars included, use ``np.interp`` directly.  The
    grid is checked to be a CDF once, on its first use here.
    """
    f_end = cdf._cdf_end
    if tail_rate is None and f_end < 1.0 - 1e-9:
        raise DomainError(
            "cdf does not reach one and no tail rate was supplied")
    if tail_rate is not None and not tail_rate > 0.0:
        raise DomainError("tail rate must be positive")

    u = np.asarray(uniform, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise DomainError("uniform draws must lie strictly inside (0, 1)")

    vals, pts = cdf._vals, cdf._pts
    if u.size < len(vals):
        out = np.interp(u, vals, pts)
    else:
        table = cdf._inverse
        out = np.empty_like(u)
        for lo in range(0, u.size, _CHUNK):
            out[lo:lo + _CHUNK] = table.lookup(u[lo:lo + _CHUNK], vals, pts)
    over = u > f_end
    if over.any():
        if tail_rate is None:
            out[over] = cdf.points[-1]
        else:
            out[over] = cdf.points[-1] + np.log((1.0 - f_end) / (1.0 - u[over])) / tail_rate
    if scalar:
        return float(out[0])
    return out
