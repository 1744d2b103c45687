"""Persistency estimation from excursion-length samples.

The excursion survival function is assumed exponential in its tail,
P(T >= t) ~ C exp(-theta t), so ln S(t) is asymptotically linear with
slope -theta.  Estimation is ordinary least squares of the log
empirical survival on t, restricted to the window where S <= 1/2
(only the tail is informative) and at least ``min_tail_count``
exceedances remain (the extreme tail of an empirical survival is pure
noise and would otherwise bias the slope).  The slope is the centred
closed form of simple regression, written with ``np.sum`` of products
and no BLAS call: the fits run in the replicate pool's threads, where
BLAS would start threads of its own and oversubscribe the CPUs.

The fit reads only the ranks ``[n - 1 - n//2, n - min_tail_count)`` of
a sorted sample of ``n``, and the log survival there depends on ``n``
alone.  A replicate of :func:`iia.persistency_table` therefore keeps
only that window of its sorted uniforms, maps it through the law of
every level, and fits each mapped window with a log survival computed
once for the table; :func:`fit_persistency` sorts a whole sample and
fits the same window the same way.

Confidence intervals come from independent replicates via the t
distribution.  Its quantile, :func:`t_quantile`, solves the closed-form
CDF for integer degrees of freedom by Newton's method, so importing
this module loads no scipy.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError, FitError, NumericalError
from .numerics import spawn_seeds

__all__ = ["SurvivalFit", "BatchEstimate", "fit_persistency", "labelled_fit",
           "aggregate_fits", "replicate_estimates", "t_quantile"]

# the fewest samples left beyond a point of the fit window
MIN_TAIL_COUNT = 50


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


def _check_sizes(n: int, min_tail_count: int) -> None:
    if min_tail_count < 1:
        raise DomainError(f"min_tail_count must be at least 1, got {min_tail_count!r}")
    if n < 100:
        raise DomainError("need at least 100 samples")


class _TailRanks(NamedTuple):
    """The ranks ``[lo, hi)`` of a sorted sample of ``n`` that the fit reads.

    ln S at rank i is ln((n - 1 - i)/n) whatever the sample, so one of
    these serves every sample of size ``n``: ``l_centred`` is ln S on
    the window less its mean ``l_mean``, and ``syy`` its sum of squares.
    They are NaN and empty for sizes :func:`_fit_window` refuses.
    """

    n: int
    min_tail_count: int
    lo: int
    hi: int
    l_mean: float
    l_centred: np.ndarray
    syy: float


def _tail_ranks(n: int, min_tail_count: int = MIN_TAIL_COUNT) -> _TailRanks:
    # n - 1 - i samples lie beyond rank i, and that count falls with i: the
    # window S <= 1/2, count >= min_tail_count is the index range [lo, hi)
    lo = n - 1 - n // 2
    hi = max(n - min_tail_count, lo)
    if min_tail_count < 1 or hi - lo < 10:
        return _TailRanks(n, min_tail_count, lo, hi, math.nan, np.empty(0), math.nan)
    ls = np.log((n - 1 - np.arange(lo, hi)) / n)
    l_mean = ls.mean()
    l_centred = ls - l_mean
    return _TailRanks(n, min_tail_count, lo, hi, l_mean, l_centred,
                      np.sum(l_centred * l_centred))


def _fit_window(window: np.ndarray, ranks: _TailRanks) -> SurvivalFit:
    """The fit of ``window``, the ranks ``[ranks.lo, ranks.hi)`` of a sorted
    sample of ``ranks.n``: :func:`fit_persistency` of that sample, with its
    checks of the sizes and the window."""
    _check_sizes(ranks.n, ranks.min_tail_count)
    n_pts = ranks.hi - ranks.lo
    if n_pts < 10:
        raise FitError(
            f"tail window holds {n_pts} points; need at least 10")
    if window[0] == window[-1]:
        raise FitError(f"tail window holds one distinct value, {float(window[0])!r}; no slope")
    # np.sum of products, not @ or lstsq: BLAS threads oversubscribe the pool
    t_mean = window.mean()
    # one window-sized buffer for both products: the centred times by the
    # centred log survivals, then the centred times again, squared
    buf = np.subtract(window, t_mean)
    sxy = np.sum(np.multiply(buf, ranks.l_centred, out=buf))
    np.subtract(window, t_mean, out=buf)
    sxx = np.sum(np.multiply(buf, buf, out=buf))
    slope = sxy / sxx
    if not slope < 0.0:
        raise FitError("tail slope is not negative; no exponential decay")
    return SurvivalFit(
        theta=float(-slope),
        intercept=float(ranks.l_mean - slope * t_mean),
        fit_window=(float(window[0]), float(window[-1])),
        n_points=n_pts,
        r_squared=float(sxy * sxy / (sxx * ranks.syy)),
    )


def fit_persistency(samples, min_tail_count: int = MIN_TAIL_COUNT) -> SurvivalFit:
    """OLS tail slope of the log empirical survival.

    Uses the sorted sample points with S(t) <= 1/2 and at least
    ``min_tail_count`` samples beyond t; needs at least 10 such points,
    not all equal.  With ``tc`` and ``lc`` the window's times and log
    survivals less their means, the fit is the closed form

        slope = Sxy / Sxx,   intercept = mean(l) - slope mean(t),
        r^2 = Sxy^2 / (Sxx Syy),

    where ``Sxx = sum(tc^2)``, ``Sxy = sum(tc lc)``, ``Syy = sum(lc^2)``.
    """
    x = np.asarray(samples, dtype=float)
    n = len(x)
    _check_sizes(n, min_tail_count)
    x = np.sort(x)
    # NaNs sort last, so the two ends decide
    if not (x[0] > 0.0 and np.isfinite(x[-1])):
        raise DomainError("samples must be positive and finite")
    ranks = _tail_ranks(n, min_tail_count)
    return _fit_window(x[ranks.lo:ranks.hi], ranks)


def _t_central(df: int, t: float) -> float:
    # P(|T| <= t), t >= 0, in closed form (Abramowitz & Stegun 26.7.3-4):
    # with theta = atan(t / sqrt(df)) and c = cos(theta), it is
    # sin(theta) (1 + c^2/2 + (1.3)/(2.4) c^4 + ...) for even df, and
    # (2/pi) (theta + sin(theta) c (1 + (2/3) c^2 + (2.4)/(3.5) c^4 + ...))
    # for odd df, each series with df // 2 terms
    theta = math.atan(t / math.sqrt(df))
    c2 = df / (df + t * t)
    odd = df % 2
    term, total = 1.0, 0.0
    for j in range(df // 2):
        total += term
        term *= c2 * (2 * j + 1 + odd) / (2 * j + 2 + odd)
    if odd:
        return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)
    return math.sin(theta) * total


def t_quantile(df: int, p: float) -> float:
    """Quantile at ``p`` in (0, 1) of Student's t with ``df >= 1`` degrees of freedom.

    Newton's method solves ``P(|T| <= t) = |2p - 1|`` on the closed-form
    CDF from ``t = 0``; that CDF is concave in ``t``, so the iterates rise
    to the root from below.  The result agrees with
    ``scipy.special.stdtrit`` to 3e-14 relative for df 1 to 200 and p
    from 0.6 to 0.995.
    """
    target = abs(2.0 * p - 1.0)
    # twice the density at 0; the density at t is this over (1 + t^2/df)^((df+1)/2)
    slope0 = 2.0 * math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)
                            - 0.5 * math.log(df * math.pi))
    t = 0.0
    for _ in range(100):
        step = ((target - _t_central(df, t))
                * (1.0 + t * t / df) ** ((df + 1) / 2) / slope0)
        t += step
        if abs(step) <= 1e-10 * t:
            return math.copysign(t, p - 0.5)
    raise NumericalError(f"t quantile at p = {p!r}, df = {df} did not converge")


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
    q = t_quantile(reps - 1, 0.975)
    return BatchEstimate(
        mean_theta=mean,
        half_width=q * sd / math.sqrt(reps),
        replicates=tuple(fits),
    )


def _labelled(label: str, fit: Callable, *args):
    try:
        return fit(*args)
    except (DomainError, FitError) as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def labelled_fit(samples, label: str, min_tail_count: int = MIN_TAIL_COUNT) -> SurvivalFit:
    """:func:`fit_persistency`, with ``label`` prefixed to the message of its errors."""
    return _labelled(label, fit_persistency, samples, min_tail_count)


def _max_workers(n_items: int) -> int:
    raw = os.environ.get("EXCURSION_IIA_THREADS")
    if not raw:
        return max(1, min(n_items, 4, os.cpu_count() or 1))
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise DomainError(
            f"EXCURSION_IIA_THREADS must be a positive integer, got {raw!r}")
    return max(1, min(n_items, cap))


def _parallel_map(fn, items):
    # [fn(x) for x in items] on a pool; once a task raises, the tasks not yet
    # started are cancelled, and the first failure in item order is raised
    workers = _max_workers(len(items))
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    pool = concurrent.futures.ThreadPoolExecutor(max_workers=workers)
    try:
        futures = [pool.submit(fn, x) for x in items]
        concurrent.futures.wait(futures, return_when=concurrent.futures.FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # tasks start in item order, so every one before a started task has run
    return [f.result() for f in futures]


def replicate_estimates(draw: Callable, groups: Sequence, reps: int,
                        fit: Callable | None = None) -> list:
    """Draw, fit and average ``reps`` replicates of each group in one pool.

    ``groups`` holds ``(context, seed, names)``.  Each group seed spawns
    ``reps`` replicate seeds; replicate ``i`` is ``draw(context, seed_i)``,
    one sample set per name, fitted by ``fit`` (:func:`fit_persistency`
    if None) with ``"<name>, replicate <i>: "`` prefixed to the message
    of its errors.  Every (group, replicate) is one task of a thread
    pool of ``min(tasks, 4, cpu_count)`` threads;
    ``EXCURSION_IIA_THREADS``, a positive integer, replaces the 4 and the
    CPU count.  The tasks start replicate-major: replicate 0 of every
    group, then replicate 1 of every group, and so on, so work a group
    does on its first replicate overlaps the other groups' draws.  Once a
    task raises, the tasks not yet started are cancelled and the error of
    the first failing task in that order is raised.  Seeds are spawned
    first, so results do not depend on the pool.  Returns, per group,
    one :class:`BatchEstimate` per name.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    # read at the call, so that a wrapper put on fit_persistency is called
    fit = fit_persistency if fit is None else fit
    seeded = [(context, names, spawn_seeds(seed, reps)) for context, seed, names in groups]
    tasks = [(context, names, i, rep_seeds[i]) for i in range(reps)
             for context, names, rep_seeds in seeded]

    def task(args):
        context, names, i, rep_seed = args
        return tuple(_labelled(f"{name}, replicate {i}", fit, samples)
                     for name, samples in zip(names, draw(context, rep_seed)))

    fits = _parallel_map(task, tasks)
    # group j's replicates are every len(seeded)-th task from task j
    return [tuple(aggregate_fits(side) for side in zip(*fits[j::len(seeded)]))
            for j in range(len(seeded))]
