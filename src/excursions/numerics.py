"""Scalar special functions and generic numerical kernels.

Everything here is pure and reentrant: the normal CDF, the
bivariate orthant-style integral

    B(u, rho) = P(rho*Z + sqrt(1-rho^2)*Y <= u, Z <= u)

in closed form through Owen's T function, numerical Laplace transforms
of tabulated functions with exponential tail corrections, monotone
inverse-CDF sampling with tail extrapolation, and laws lumped on grid
knots for FFT convolution.  These are the kernels every other module
builds on.

A :class:`Grid` exposes read-only copies of its arrays, so anything
derived from them can be computed once and cached on the grid: the
inverse-CDF sampler checks a grid to be a CDF (nondecreasing, starting
at zero) on its first use as one.

The normal CDF is a numpy port of cephes' ``ndtr`` and the FFT sizes
come from a table of smooth numbers, so importing this module loads no
scipy.  ``scipy.special.owens_t`` is imported inside
:func:`b_integral` and ``scipy.integrate`` inside
:func:`numerical_laplace`, on first use.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, MonotonicityViolation

__all__ = [
    "Grid",
    "ndtr",
    "norm_cdf",
    "level_mass",
    "next_fast_len",
    "lump_cells",
    "lumped_cdf",
    "b_integral",
    "numerical_laplace",
    "inverse_cdf_sample",
    "spawn_seeds",
    "uniform_grid",
]


def spawn_seeds(seed, n: int) -> list:
    """Derive ``n`` independent child seeds from any seed-like object.

    A :class:`numpy.random.SeedSequence` is spawned from a fresh copy (same
    entropy, spawn key and pool size), not in place, so the same object
    gives the same children at every call, as an integer seed does.
    """
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed.entropy, spawn_key=seed.spawn_key,
                                      pool_size=seed.pool_size)
    else:
        seed = np.random.SeedSequence(seed)
    return seed.spawn(n)


def uniform_grid(t_max: float, step: float) -> np.ndarray:
    """The points ``0, step, ..., n step``, ``n = round(t_max / step)``; both
    must be finite and positive, or it raises :class:`DomainError`."""
    ok = all(math.isfinite(x) and x > 0.0 for x in (t_max, step))
    if not (ok and math.isfinite(t_max / step)):
        raise DomainError(
            f"grid end and step must be finite and positive, got {t_max!r} and {step!r}")
    n = int(round(t_max / step))
    return np.linspace(0.0, n * step, n + 1)


# ---------------------------------------------------------------------------
# tabulation substrate
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """A tabulated real function: strictly increasing abscissae and values.

    Invariants are enforced at construction: ``points`` strictly
    increasing with ``points[0] >= 0``, equal lengths, at least two
    entries.  Both arrays are read-only views of private copies of the
    inputs, which lets the CDF check below be cached.
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


# FFT round-off leaves negative masses; more than this in total is an error
NEGATIVE_MASS_TOL = 1e-12


def lump_cells(cells: np.ndarray, knots: int) -> np.ndarray:
    """Masses of knots ``0 .. knots - 1`` from a law's cell masses, by the trapezoid rule.

    Cell i, between knots i and i + 1, gives half its mass to either end;
    ``cells`` needs ``knots`` entries for the last knot to get both halves.
    """
    return 0.5 * (cells[:knots] + np.concatenate(([0.0], cells[:knots - 1])))


def lumped_cdf(masses: np.ndarray, knot: int) -> float:
    """CDF of a lumped law at a knot: the masses below it plus half its own,
    each knot's mass being spread evenly over the half steps either side."""
    return float(masses[:knot].sum() + 0.5 * masses[knot])


# ---------------------------------------------------------------------------
# special functions
# ---------------------------------------------------------------------------

# cephes' ndtr.c (Moshier), the algorithm of scipy.special.ndtr, with
# coefficients from the highest power down and a monic denominator's
# leading 1 written out: erf(x) = x T(x^2)/U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x)/Q(x) for 1 <= x < 8, exp(-x^2) R(x)/S(x) above
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
           2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1, 9.60896809063285878198e0,
           3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2      # erfc(x) is 0 once x^2 exceeds this


def _horner(x, coeffs):
    acc = coeffs[0] * x
    for c in coeffs[1:-1]:
        acc += c
        acc *= x
    acc += coeffs[-1]
    return acc


def _half_erf(z):
    # (1 + erf(z))/2 for |z| < 1
    zz = z * z
    return 0.5 + 0.5 * (z * _horner(zz, _ERF_T) / _horner(zz, _ERF_U))


def ndtr(x):
    """Standard normal CDF of an array, elementwise: a numpy port of cephes' ``ndtr``.

    With ``z = x / sqrt 2`` it is ``(1 + erf(z))/2`` for ``|z| < 1`` and
    ``erfc(|z|)/2``, or one less that for ``z > 0``, beyond.  It equals
    ``scipy.special.ndtr`` bit for bit below ``|x| = sqrt 2``, where no
    ``exp`` is taken, and differs beyond only where numpy's ``exp`` and
    the C library's round differently.  Like cephes it is 0 below -37.7.
    """
    z = np.asarray(x, dtype=float) * math.sqrt(0.5)
    y = np.abs(z)
    small = y < 1.0
    if small.all():
        return _half_erf(z)
    out = np.empty_like(z)
    out[small] = _half_erf(z[small])
    big = ~small
    yb = np.minimum(y[big], 40.0)       # keeps inf finite
    yb[yb * yb > _MAXLOG] = 40.0        # cephes' erfc is 0 there, as is exp(-1600)
    p, q = np.empty_like(yb), np.empty_like(yb)
    for sel, num, den in ((yb < 8.0, _ERFC_P, _ERFC_Q), (yb >= 8.0, _ERFC_R, _ERFC_S)):
        ys = yb[sel]
        p[sel], q[sel] = _horner(ys, num), _horner(ys, den)
    h = 0.5 * (np.exp(-yb * yb) * p / q)
    out[big] = np.where(z[big] > 0.0, 1.0 - h, h)
    return out


def norm_cdf(x):
    """Standard normal CDF, :func:`ndtr`; a scalar (including +-inf) gives a float."""
    if np.isscalar(x):
        return float(ndtr(x))
    return ndtr(x)


def level_mass(u: float) -> float:
    """``Phi(u)``, the mass below a level that both sides of it can reach.

    A level must be finite, and ``Phi(u)`` must not round to 0 or 1, which
    would leave the excursions on one side of it with no mass; either is a
    :class:`DomainError` that names the level.
    """
    if not math.isfinite(u):
        raise DomainError(f"level must be finite, got {u!r}")
    alpha = norm_cdf(u)
    if alpha in (0.0, 1.0):
        raise DomainError(f"level {u!r}: Phi(u) rounds to {alpha:g}, so the "
                          f"excursions {'above' if alpha else 'below'} it have no mass")
    return alpha


@lru_cache(maxsize=None)
def _smooth_numbers(primes: tuple[int, ...], limit: int) -> list[int]:
    nums = [1]
    for p in primes:
        nums = [m * p ** k for m in nums for k in range(limit.bit_length())
                if m * p ** k <= limit]
    return sorted(nums)


def next_fast_len(n: int, real: bool = False) -> int:
    """The least ``m >= n`` with no prime factor above 11, or above 5 if ``real``.

    These are the sizes pocketfft, behind ``numpy.fft``, transforms
    fastest, and the ones ``scipy.fft.next_fast_len`` returns.
    """
    if n < 1:
        raise DomainError(f"FFT length must be positive, got {n!r}")
    nums = _smooth_numbers((2, 3, 5) if real else (2, 3, 5, 7, 11),
                           1 << (n - 1).bit_length())
    return nums[bisect.bisect_left(nums, n)]


def b_integral(u_tilde: float, rho):
    """P(rho*Z + sqrt(1-rho^2)*Y <= u, Z <= u) in closed form.

    ``Z`` and ``Y`` are independent standard normals.  At equal limits
    the bivariate normal orthant reduces to Owen's T function (Owen 1956):

        B(u, rho) = Phi(u) - 2 T(u, sqrt((1 - rho)/(1 + rho))),

    which meets the correlated limits B(u, 1) = Phi(u) and
    B(u, -1) = max(0, 2*Phi(u) - 1) to rounding with no special case.
    ``rho`` is a scalar, giving a float, or an array, evaluated elementwise.
    """
    r = np.asarray(rho, dtype=float)
    if np.any(np.abs(r) > 1.0):
        raise DomainError(f"correlation must lie in [-1, 1], got {rho}")
    from scipy.special import owens_t

    u = float(u_tilde)
    with np.errstate(divide="ignore"):    # rho = -1 gives a = inf
        a = np.sqrt((1.0 - r) / (1.0 + r))
    out = np.clip(ndtr(u) - 2.0 * owens_t(u, a), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Laplace transforms of tabulated functions
# ---------------------------------------------------------------------------

def numerical_laplace(f: Grid, s: float, tail_rate: float | None = None) -> float:
    """Laplace transform of a tabulated function at ``s > 0``.

    Simpson quadrature of ``f(t) * exp(-s*t)`` on the grid (trapezoid
    for two points).  With a ``tail_rate``, positive and finite, ``f``
    continues past its last point t_end as ``f(t_end) e^{-rate (t - t_end)}``,
    whose contribution is added in closed form.
    """
    from scipy.integrate import simpson, trapezoid

    if not s > 0.0:
        raise DomainError(f"Laplace argument must be positive, got {s}")
    if tail_rate is not None and not (tail_rate > 0.0 and math.isfinite(tail_rate)):
        raise DomainError(f"tail rate must be positive and finite, got {tail_rate!r}")
    t = f.points
    y = f.values * np.exp(-s * t)
    if len(t) >= 3:
        val = float(simpson(y, x=t))
    else:
        val = float(trapezoid(y, x=t))
    if tail_rate is not None:
        val += float(y[-1]) / (s + tail_rate)
    return val


# ---------------------------------------------------------------------------
# inverse-CDF sampling
# ---------------------------------------------------------------------------

def inverse_cdf_sample(cdf: Grid, tail_rate: float, uniform):
    """Monotone piecewise-linear inversion of a tabulated CDF.

    ``uniform`` may be a scalar or an array of values in (0, 1).  For
    values above the final tabulated CDF level the exponential tail
    with the given positive ``tail_rate`` extrapolates the quantile.

    Below the final CDF level the result is
    ``np.interp(u, cdf.values, cdf.points)``, whose search starts from
    the previous draw's segment, so ascending draws cost about O(1)
    each.  The grid is checked to be a CDF once, on its first use here.
    """
    f_end = cdf._cdf_end
    if not tail_rate > 0.0:
        raise DomainError("tail rate must be positive")

    u = np.asarray(uniform, dtype=float)
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise DomainError("uniform draws must lie strictly inside (0, 1)")

    out = np.interp(u, cdf._vals, cdf._pts)
    over = u > f_end
    if over.any():
        out[over] = cdf.points[-1] + np.log((1.0 - f_end) / (1.0 - u[over])) / tail_rate
    if scalar:
        return float(out[0])
    return out
