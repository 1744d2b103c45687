"""Stationary covariance models with exact derivatives.

A :class:`CovarianceModel` carries the normalized covariance ``r``
(``r(0) = 1``), its analytic first derivative, the second derivative
at zero and, optionally, a cancellation-free ``1 - r``.  Analytic
derivatives matter: downstream formulas are sensitive to ``r'`` near
``t = 0`` where finite differences lose accuracy.

The shipped family is the d-dimensional diffusion covariance

    r(t) = sech(t/2)^(d/2),      r''(0) = -d/8.

This module loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = ["CovarianceModel", "diffusion_covariance"]

_LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """A normalized stationary covariance with analytic derivatives.

    ``r`` and ``r_prime`` must accept scalars or numpy arrays.  The
    optional ``one_minus_r`` evaluates ``1 - r(t)`` without the
    catastrophic cancellation of the naive difference near ``t = 0``;
    the crossing formulas need it at full relative precision there.
    """

    name: str
    r: Callable
    r_prime: Callable
    r_pp0: float
    one_minus_r: Callable | None = None

    def __post_init__(self):
        if not self.r_pp0 < 0.0:
            raise DomainError("r''(0) must be negative for a non-degenerate model")

    def one_minus(self, t):
        """Stable ``1 - r(t)``."""
        if self.one_minus_r is not None:
            return self.one_minus_r(t)
        return 1.0 - self.r(t)


def _logcosh(x):
    # log(cosh x): series below 0.1 keeps full relative precision, which
    # the small-t cancellations downstream require; the exact form is
    # overflow-safe for large x.
    x = np.abs(np.asarray(x, dtype=float))
    x2 = x * x
    series = x2 * (0.5 + x2 * (-1.0 / 12 + x2 * (1.0 / 45 + x2 * (
        -17.0 / 2520 + x2 * (31.0 / 14175)))))
    xb = np.where(x < 0.1, 1.0, x)
    exact = xb + np.log1p(np.exp(-2.0 * xb)) - _LOG2
    return np.where(x < 0.1, series, exact)


def diffusion_covariance(d: int) -> CovarianceModel:
    """Covariance model of the d-dimensional diffusion field in time.

    ``r(t) = sech(t/2)^(d/2)``, ``r'(t) = -(d/4) r(t) tanh(t/2)`` and
    ``r''(0) = -d/8``.
    """
    if not isinstance(d, (int, np.integer)) or d < 1:
        raise DomainError(f"dimension must be a positive integer, got {d!r}")
    half = d / 2.0

    def r(t):
        out = np.exp(-half * _logcosh(np.asarray(t, dtype=float) / 2.0))
        return float(out) if np.ndim(t) == 0 else out

    def one_minus_r(t):
        out = -np.expm1(-half * _logcosh(np.asarray(t, dtype=float) / 2.0))
        return float(out) if np.ndim(t) == 0 else out

    def r_prime(t):
        ta = np.asarray(t, dtype=float)
        out = -(d / 4.0) * np.exp(-half * _logcosh(ta / 2.0)) * np.tanh(ta / 2.0)
        return float(out) if np.ndim(t) == 0 else out

    return CovarianceModel(
        name=f"diffusion(d={d})",
        r=r,
        r_prime=r_prime,
        r_pp0=-d / 8.0,
        one_minus_r=one_minus_r,
    )
