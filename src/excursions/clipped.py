"""Covariance of the clipped process sgn(X(t) - u).

For a zero-mean unit-variance stationary Gaussian process the clipped
covariance reduces to the bivariate orthant probability:

    R_u(t) = 4 * (B(u, r(t)) - Phi(u)^2),

where ``B(u, rho) = P(rho Z + sqrt(1-rho^2) Y <= u, Z <= u)`` is Owen's
closed form :func:`numerics.b_integral`, evaluated at every lag in one
array expression.  At the zero level this is the classical arcsine law
``R_0(t) = (2/pi) arcsin r(t)``, and at ``t = 0`` it is the binary
variance ``1 - (1 - 2 Phi(u))^2``.
"""

from __future__ import annotations

import math

import numpy as np

from .covmodel import CovarianceModel
from .errors import DomainError
from .numerics import b_integral, finite_level, norm_cdf

__all__ = ["clipped_covariance", "arcsin_covariance"]


def clipped_covariance(model: CovarianceModel, u: float, t):
    """Covariance of sgn(X - u) at lag ``t`` (scalar or array, t >= 0)."""
    phi_u = norm_cdf(finite_level(u))
    ta = np.asarray(t, dtype=float)
    if not np.all(ta >= 0.0):
        raise DomainError("lag must be non-negative")
    rho = np.asarray(model.r(np.atleast_1d(ta)), dtype=float)
    out = 4.0 * (b_integral(u, rho) - phi_u * phi_u)
    return float(out[0]) if ta.ndim == 0 else out


def arcsin_covariance(model: CovarianceModel, t):
    """Zero-level reference ``(2/pi) arcsin r(t)``."""
    ta = np.asarray(t, dtype=float)
    out = 2.0 / math.pi * np.arcsin(np.clip(np.asarray(model.r(ta)), -1.0, 1.0))
    return float(out) if ta.ndim == 0 else out
