"""Persistency estimation from excursion-length samples.

The excursion survival function is assumed exponential in its tail,
P(T >= t) ~ C exp(-theta t), so ln S(t) is asymptotically linear with
slope -theta.  Estimation is ordinary least squares of the log
empirical survival on t, restricted to the window where S <= 1/2
(only the tail is informative) and at least ``min_tail_count``
exceedances remain (the extreme tail of an empirical survival is pure
noise and would otherwise bias the slope).  Confidence intervals come
from independent replicates via the t distribution, whose quantile is
``scipy.special.stdtrit`` (what ``scipy.stats.t.ppf`` evaluates), so
that importing this module does not load ``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.special import stdtrit

from .errors import DomainError, FitError
from .numerics import Grid

__all__ = ["SurvivalFit", "BatchEstimate", "empirical_survival",
           "fit_persistency", "aggregate_fits", "batch_ci"]


@dataclass(frozen=True)
class SurvivalFit:
    """A fitted exponential tail: decay rate, intercept and fit window."""

    theta: float
    intercept: float
    fit_window: tuple[float, float]
    n_points: int
    r_squared: float


@dataclass(frozen=True, eq=False)
class BatchEstimate:
    """Replicate-averaged persistency with a 95% half-width."""

    mean_theta: float
    half_width: float
    replicates: tuple[SurvivalFit, ...]


def empirical_survival(samples) -> Grid:
    """Right-continuous empirical survival S(t) = #{samples > t} / n.

    Tabulated at the distinct sorted sample points; requires at least
    100 positive samples.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or len(x) < 100:
        raise DomainError("need at least 100 samples")
    if np.any(x <= 0.0) or not np.all(np.isfinite(x)):
        raise DomainError("samples must be positive and finite")
    s = np.sort(x)
    n = len(s)
    pts, last = np.unique(s, return_index=True)
    counts = np.diff(np.concatenate((last, [n])))
    exceed = n - (last + counts)
    return Grid(points=pts, values=exceed / n)


def fit_persistency(samples, min_tail_count: int = 50) -> SurvivalFit:
    """OLS tail slope of the log empirical survival.

    Uses the sorted sample points with S(t) <= 1/2 and at least
    ``min_tail_count`` samples beyond t; needs at least 10 such points.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    if n < 100:
        raise DomainError("need at least 100 samples")
    if x[0] <= 0.0:
        raise DomainError("samples must be positive")
    exceed = n - np.arange(1, n + 1)
    surv = exceed / n
    window = (surv <= 0.5) & (exceed >= min_tail_count)
    n_pts = int(window.sum())
    if n_pts < 10:
        raise FitError(
            f"tail window holds {n_pts} points; need at least 10")
    tt = x[window]
    ls = np.log(surv[window])
    design = np.column_stack((tt, np.ones_like(tt)))
    (slope, intercept), res, *_ = np.linalg.lstsq(design, ls, rcond=None)
    if not slope < 0.0:
        raise FitError("tail slope is not negative; no exponential decay")
    ss_tot = float(np.sum((ls - ls.mean()) ** 2))
    ss_res = float(res[0]) if len(res) else float(np.sum((ls - design @ (slope, intercept)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return SurvivalFit(
        theta=float(-slope),
        intercept=float(intercept),
        fit_window=(float(tt[0]), float(tt[-1])),
        n_points=n_pts,
        r_squared=r2,
    )


def aggregate_fits(fits: Sequence[SurvivalFit]) -> BatchEstimate:
    """Average independent replicate fits to a 95% interval.

    The half-width uses the t quantile with ``len(fits) - 1`` degrees
    of freedom.
    """
    reps = len(fits)
    if reps < 2:
        raise DomainError("need at least two replicates")
    thetas = np.asarray([f.theta for f in fits])
    mean = float(thetas.mean())
    sd = float(thetas.std(ddof=1))
    q = float(stdtrit(reps - 1, 0.975))
    return BatchEstimate(
        mean_theta=mean,
        half_width=q * sd / math.sqrt(reps),
        replicates=tuple(fits),
    )


def batch_ci(replicate_runner: Callable[[int], np.ndarray], reps: int = 10,
             min_tail_count: int = 50) -> BatchEstimate:
    """Fit independent replicates and aggregate to a 95% interval.

    ``replicate_runner(i)`` must return the sample set of replicate i
    (callers derive per-replicate seeds); see :func:`aggregate_fits`.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    fits = []
    for i in range(reps):
        try:
            fits.append(fit_persistency(replicate_runner(i), min_tail_count))
        except FitError as exc:
            raise FitError(f"replicate {i}: {exc}") from exc
    return aggregate_fits(fits)
