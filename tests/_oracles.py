"""Reference algorithms that tests check the library against.

Gaver-Stehfest inversion (Stehfest 1970) turns a Laplace transform back
into its original function at a point, from the transform at real
arguments only.  Tests invert the library's closed-form transforms with
it and compare with what the library tabulates or simulates; no library
code inverts a transform.  The full solve of an excursion law is the
reference for the library's, which solves most laws only up to a head.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from excursions.errors import DomainError
from excursions.iia import _decay, _divisors
from excursions.numerics import Grid


@lru_cache(maxsize=8)
def _stehfest_weights(order: int) -> tuple[float, ...]:
    # Salzer weights computed in exact rational arithmetic; they grow to
    # ~1e8 at order 14 and alternate in sign, so exactness here keeps the
    # only rounding in the final fsum
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


def reference_law(iia, side):
    """An excursion law solved in full: ``(cdf, theta)``, as ``iia.excursion_law`` has it.

    The divisors are lumped on the grid knots as the library lumps them
    and the law's survival decays as C e^{-theta t}.  The renewal equation
    is solved in one untilted FFT, on as many knots as leave at most 1e-10
    of the mass past the last, and on a circle twice that long; the CDF is
    piecewise linear on the half steps, and what the last knot leaves is
    ``1 - sum q``.  The library solves only a head of the law and reads
    the rest from its geometric tail; this keeps the whole solve.
    """
    a, b, first, extra = _divisors(iia, side)
    step = iia.f_x_cdf.points[1]
    theta, amplitude = _decay(a, b, first, extra)
    knots = max(2, math.ceil(math.log(2.0 * amplitude / 1e-10) / (theta * step)) + 1)
    size = 2 * knots
    q = np.fft.irfft(a * np.fft.rfft(first.masses(knots), size)
                     / (1.0 - b * np.fft.rfft(extra.masses(knots), size)), size)[:knots]
    mass = np.append(q, 1.0 - q.sum())
    assert mass[-1] <= 1e-10 and -mass[mass < 0.0].sum() <= 1e-12
    surv = np.cumsum(np.maximum(mass, 0.0)[::-1])[::-1]
    points = np.append(0.0, (np.arange(knots) + 0.5) * step)
    return Grid(points=points, values=np.append(0.0, 1.0 - surv[1:])), theta
