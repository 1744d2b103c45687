"""Stationary covariance models with exact derivatives.

A :class:`CovarianceModel` carries the normalized covariance ``r``
(``r(0) = 1``), its analytic first derivative, the second derivative
at zero, and optionally a normalized spectral density.  Analytic
derivatives matter: downstream formulas are sensitive to ``r'`` near
``t = 0`` where finite differences lose accuracy.

The shipped family is the d-dimensional diffusion covariance

    r(t) = sech(t/2)^(d/2),      r''(0) = -d/8,

with the explicit spectrum ``sech(pi*w)`` attached for d = 2.

:func:`validate` imports ``scipy.integrate`` on first use, so that CLI
runs, which never validate, do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError

__all__ = ["CovarianceModel", "ValidationReport", "diffusion_covariance", "validate"]

_LOG2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class CovarianceModel:
    """A normalized stationary covariance with analytic derivatives.

    ``r`` and ``r_prime`` must accept scalars or numpy arrays.  The
    optional ``one_minus_r`` evaluates ``1 - r(t)`` without the
    catastrophic cancellation of the naive difference near ``t = 0``;
    the crossing formulas need it at full relative precision there.
    ``spectrum``, when present, is a symmetric density in angular
    frequency integrating to one.
    """

    name: str
    r: Callable
    r_prime: Callable
    r_pp0: float
    spectrum: Callable | None = None
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


def _sech(x):
    x = np.abs(np.asarray(x, dtype=float))
    return 2.0 * np.exp(-x) / (1.0 + np.exp(-2.0 * x))


def diffusion_covariance(d: int) -> CovarianceModel:
    """Covariance model of the d-dimensional diffusion field in time.

    ``r(t) = sech(t/2)^(d/2)``, ``r'(t) = -(d/4) r(t) tanh(t/2)`` and
    ``r''(0) = -d/8``.  For ``d = 2`` the normalized spectral density
    ``sech(pi*w)`` is attached (its second moment is 1/4 = -r''(0)).
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

    spectrum = None
    if d == 2:
        def spectrum(w):
            out = _sech(np.pi * np.asarray(w, dtype=float))
            return float(out) if np.ndim(w) == 0 else out

    return CovarianceModel(
        name=f"diffusion(d={d})",
        r=r,
        r_prime=r_prime,
        r_pp0=-d / 8.0,
        spectrum=spectrum,
        one_minus_r=one_minus_r,
    )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the model consistency checks, one entry per check."""

    checks: tuple[tuple[str, bool, str], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        return [f"{name}: {detail}" for name, ok, detail in self.checks if not ok]


_PROBE = np.logspace(-3, np.log10(50.0), 1000)


def validate(model: CovarianceModel) -> ValidationReport:
    """Check a covariance model against its smoothness contract.

    Verifies normalization ``r(0) = 1``, the bound ``|r| <= 1`` on a
    log-spaced probe grid over [1e-3, 50], agreement of the analytic
    derivative with central differences (h = 1e-4, tolerance 1e-6),
    agreement of ``r''(0)`` with a second difference (tolerance 1e-5),
    the Cauchy-Schwarz bound ``1 - r^2 + r'^2/r''(0) >= -1e-12`` that
    keeps downstream square roots real, and, when a spectrum is
    attached, its normalization (1e-6) and second moment (1e-4).

    Raises :class:`ValidationError` listing the failed checks.
    """
    checks = []

    r0 = float(model.r(0.0))
    checks.append(("normalization", abs(r0 - 1.0) <= 1e-12,
                   f"r(0) = {r0!r}"))

    rv = np.asarray(model.r(_PROBE))
    ok = bool(np.all(np.abs(rv) <= 1.0 + 1e-12))
    checks.append(("bounded", ok, f"max |r| = {np.max(np.abs(rv)):.17g}"))

    rp0 = float(model.r_prime(0.0))
    checks.append(("stationary_slope", abs(rp0) <= 1e-12, f"r'(0) = {rp0!r}"))

    h = 1e-4
    central = (np.asarray(model.r(_PROBE + h)) - np.asarray(model.r(_PROBE - h))) / (2 * h)
    dev = np.max(np.abs(central - np.asarray(model.r_prime(_PROBE))))
    checks.append(("first_derivative", dev <= 1e-6, f"max deviation {dev:.3e}"))

    second = -2.0 * float(model.one_minus(h)) / (h * h)
    dev2 = abs(second - model.r_pp0)
    checks.append(("second_derivative_at_zero", dev2 <= 1e-5,
                   f"difference estimate {second:.10g} vs {model.r_pp0:.10g}"))

    rp = np.asarray(model.r_prime(_PROBE))
    cs = 1.0 - rv * rv + rp * rp / model.r_pp0
    checks.append(("cauchy_schwarz", bool(np.min(cs) >= -1e-12),
                   f"min residual variance {np.min(cs):.3e}"))

    if model.spectrum is not None:
        from scipy.integrate import quad

        total, _ = quad(model.spectrum, -np.inf, np.inf, limit=200)
        checks.append(("spectrum_mass", abs(total - 1.0) <= 1e-6,
                       f"integral = {total:.10g}"))
        m2, _ = quad(lambda w: w * w * model.spectrum(w), -np.inf, np.inf, limit=200)
        checks.append(("spectrum_second_moment", abs(m2 + model.r_pp0) <= 1e-4,
                       f"moment = {m2:.10g} vs {-model.r_pp0:.10g}"))

    report = ValidationReport(checks=tuple(checks))
    if not report.passed:
        raise ValidationError(report.failures)
    return report
