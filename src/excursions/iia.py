"""Independent interval approximation built on the crossing representation.

Matching the expected value of the clipped crossing-conditioned process
to a non-stationary switch process yields approximations T^+ and T^- of
the excursion lengths above and below a level u.  When E_u^+ is
nonincreasing and E_u^- nondecreasing the matched switching times admit
a geometric-sum representation

    T^+ =d X + sum_{k=1}^{nu_a - 1} Y_k,
    T^- =d Y + sum_{k=1}^{nu_b - 1} X_k,

with nu_a, nu_b geometric on {1, 2, ...} with success probabilities
a = Phi(u) and b = 1 - Phi(u), and divisor laws obtained in closed form
from the clipped means:

    F_X(t) = (1 - E_u^+(t)) / (2 a),
    F_Y(t) = (1 + E_u^-(t)) / (2 b).

Building the CDFs directly from the tabulated means (no numerical
differentiation) keeps the normalization exact and avoids noise
amplification.  The Laplace transforms of the approximated excursion
laws follow from the expected value curves:

    Psi_+(s) = L(E_u^+')(s) / (L(E_u^-')(s) - 2),
    Psi_-(s) = L(E_u^-')(s) / (L(E_u^+')(s) + 2),

with L(E') = s L(E) - E(0+).  Sampling through the geometric-sum
representation and checking the empirical transform against these
expressions is the package's core cross-validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covmodel import CovarianceModel
from .errors import DomainError, GridTooShort, MonotonicityViolation
from .numerics import (Grid, TailModel, fit_exponential_tail, inverse_cdf_sample,
                       norm_cdf, numerical_laplace, spawn_seeds, uniform_grid)
from .persistency import BatchEstimate, replicate_estimates
from .slepian import expected_clipped_down, expected_clipped_up

__all__ = ["IIAModel", "build_iia", "sample_excursion", "persistency_table", "psi_hat"]

# per-step downticks smaller than this are roundoff, not violations
MONOTONE_TOL = 1e-12

# extra (divisor) draws per inverse-CDF call in sample_excursion
_EXTRA_CHUNK = 1 << 18


@dataclass(frozen=True, eq=False)
class IIAModel:
    """Level, geometric parameters and tabulated divisor CDFs."""

    level: float
    alpha: float
    beta: float
    f_x_cdf: Grid
    f_y_cdf: Grid
    tail_rates: tuple[float, float]
    source: str

    def __post_init__(self):
        if abs(self.alpha + self.beta - 1.0) > 1e-12:
            raise DomainError("alpha + beta must be one")
        for name, g in (("F_X", self.f_x_cdf), ("F_Y", self.f_y_cdf)):
            if g.values[0] != 0.0:
                raise DomainError(f"{name} must start at zero")
            if g.values[-1] < 1.0 - 1e-6:
                raise DomainError(f"{name} does not reach one at the grid end")
            if np.any(np.diff(g.values) < 0.0):
                raise DomainError(f"{name} is not nondecreasing")


def _check_monotone(values: np.ndarray, t: np.ndarray, direction: int,
                    which: str) -> None:
    # direction +1 means nondecreasing required, -1 nonincreasing
    diffs = direction * np.diff(values)
    bad = diffs < -MONOTONE_TOL
    if bad.any():
        idx = int(np.argmax(bad)) + 1
        raise MonotonicityViolation(
            f"{which} violates monotonicity at t = {t[idx]:.6g} "
            f"(step change {diffs[idx - 1] * direction:.3e})",
            which=which, index=idx, t=float(t[idx]))


def build_iia(model: CovarianceModel, u: float, t_max: float = 200.0,
              step: float = 0.01) -> IIAModel:
    """Construct the approximation at level ``u`` on a uniform grid.

    Tabulates the clipped means, verifies the monotonicity conditions
    that make the matched switching times genuine distributions, and
    integrates the divisor densities in closed form.  Raises
    :class:`MonotonicityViolation` when a curve runs the wrong way
    (down-crossing curves do for levels above roughly 5/4 with the
    d = 2 diffusion model) and :class:`GridTooShort` when the grid does
    not reach the asymptotic regime within 1e-6.
    """
    if not (step > 0.0 and t_max > 10.0 * step):
        raise DomainError("need step > 0 and t_max well above the step")
    t = uniform_grid(t_max, step)

    e_up = np.empty(len(t))
    e_up[0] = 1.0
    e_up[1:] = expected_clipped_up(model, u, t[1:])
    e_dn = np.empty(len(t))
    e_dn[0] = -1.0
    e_dn[1:] = expected_clipped_down(model, u, t[1:])

    e_inf = 1.0 - 2.0 * float(norm_cdf(u))
    if abs(e_up[-1] - e_inf) >= 1e-6 or abs(e_dn[-1] - e_inf) >= 1e-6:
        raise GridTooShort(
            f"clipped means at t_max = {t[-1]:g} are {abs(e_up[-1] - e_inf):.2e} / "
            f"{abs(e_dn[-1] - e_inf):.2e} away from the limit (need < 1e-6)")

    _check_monotone(e_up, t, direction=-1, which="up-crossing mean")
    _check_monotone(e_dn, t, direction=+1, which="down-crossing mean")

    alpha = float(norm_cdf(u))
    beta = 1.0 - alpha

    surv_x = np.maximum((e_up - e_inf) / (2.0 * alpha), 0.0)
    surv_y = np.maximum((e_inf - e_dn) / (2.0 * beta), 0.0)
    if surv_x[-1] >= 1e-6 or surv_y[-1] >= 1e-6:
        raise GridTooShort("divisor CDFs do not reach one at the grid end")

    f_x = np.minimum(np.maximum.accumulate(1.0 - surv_x), 1.0)
    f_y = np.minimum(np.maximum.accumulate(1.0 - surv_y), 1.0)
    f_x[0] = 0.0
    f_y[0] = 0.0

    tail_x = fit_exponential_tail(Grid(points=t, values=surv_x))
    tail_y = fit_exponential_tail(Grid(points=t, values=surv_y))

    return IIAModel(
        level=float(u),
        alpha=alpha,
        beta=beta,
        f_x_cdf=Grid(points=t, values=f_x),
        f_y_cdf=Grid(points=t, values=f_y),
        tail_rates=(tail_x.rate, tail_y.rate),
        source=model.name,
    )


def sample_excursion(iia: IIAModel, side: str, n: int, seed) -> np.ndarray:
    """Draw excursion lengths through the geometric-sum representation.

    For the above side: one X draw plus (nu - 1) independent Y draws
    with nu geometric(alpha) on {1, 2, ...}; the empty sum contributes
    zero.  The below side swaps the roles of X and Y and uses beta.
    All marginals are drawn by inverse-CDF sampling with exponential
    tail extrapolation beyond the grid.
    """
    if n < 1:
        raise DomainError("sample count must be positive")
    if side == "above":
        p, first, first_tail = iia.alpha, iia.f_x_cdf, iia.tail_rates[0]
        extra, extra_tail = iia.f_y_cdf, iia.tail_rates[1]
    elif side == "below":
        p, first, first_tail = iia.beta, iia.f_y_cdf, iia.tail_rates[1]
        extra, extra_tail = iia.f_x_cdf, iia.tail_rates[0]
    else:
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")

    rng = np.random.default_rng(seed)
    nu = rng.geometric(p, size=n)
    out = np.asarray(inverse_cdf_sample(first, first_tail, rng.random(n)))
    n_extra = nu - 1
    ends = np.cumsum(n_extra)
    # the extra draws go in runs of whole owners, about _EXTRA_CHUNK
    # draws each, which bounds their temporaries; the uniforms are read
    # in the order one call would read them, and each owner's sum is
    # accumulated in the same order, so the result does not change
    lo, done = 0, 0
    while lo < n:
        hi = max(int(np.searchsorted(ends, done + _EXTRA_CHUNK, side="right")), lo + 1)
        count = int(ends[hi - 1]) - done
        if count > 0:
            draws = inverse_cdf_sample(extra, extra_tail, rng.random(count))
            owner = np.repeat(np.arange(hi - lo), n_extra[lo:hi])
            out[lo:hi] += np.bincount(owner, weights=draws, minlength=hi - lo)
        lo, done = hi, done + count
    return out


def persistency_table(model: CovarianceModel, levels, samples: int, reps: int,
                      seed, t_max: float = 200.0, step: float = 0.01
                      ) -> list[tuple[IIAModel, BatchEstimate, BatchEstimate]]:
    """``(iia, above, below)`` per level, from ``reps`` replicate fits per side.

    Level k's seed is the k-th spawned from ``seed`` (``seed`` itself for
    a single level); it spawns a seed per side and each of those a seed
    per replicate of ``samples`` draws.  All (level, side, replicate)
    tasks share the one pool of :func:`persistency.replicate_estimates`,
    which ``EXCURSION_IIA_THREADS`` caps.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    if np.ndim(levels) == 0:
        levels, seeds = [levels], [seed]
    else:
        levels, seeds = list(levels), spawn_seeds(seed, len(levels))
    iias = [build_iia(model, u, t_max=t_max, step=step) for u in levels]
    groups = [((iia, side), side_seed, (f"u = {iia.level:g}, {side} side",))
              for iia, level_seed in zip(iias, seeds)
              for side, side_seed in zip(("above", "below"), spawn_seeds(level_seed, 2))]
    sides = replicate_estimates(
        lambda context, rep_seed: (sample_excursion(*context, samples, rep_seed),),
        groups, reps)
    return [(iia, above, below)
            for iia, (above,), (below,) in zip(iias, sides[::2], sides[1::2])]


def _survival_laplace(cdf: Grid, tail_rate: float, s: float) -> float:
    surv = np.maximum(1.0 - cdf.values, 0.0)
    tail = TailModel(rate=tail_rate,
                     amplitude=float(surv[-1]) * math.exp(tail_rate * cdf.points[-1]))
    return numerical_laplace(Grid(points=cdf.points, values=surv), s, tail)


def psi_hat(iia: IIAModel, side: str, s: float) -> float:
    """Laplace transform of the approximated excursion law at ``s > 0``.

    Evaluated from the tabulated curves through the expected-value
    transforms; with L(S) the transform of a divisor survival function,
    L(E_u^+') = -2 alpha (1 - s L(S_X)) and
    L(E_u^-') = 2 beta (1 - s L(S_Y)), so

        Psi_+ = alpha (1 - s L(S_X)) / (alpha + beta s L(S_Y)),
        Psi_- = beta (1 - s L(S_Y)) / (beta + alpha s L(S_X)).
    """
    if not s > 0.0:
        raise DomainError("Laplace argument must be positive")
    if side not in ("above", "below"):
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    ls_x = _survival_laplace(iia.f_x_cdf, iia.tail_rates[0], s)
    ls_y = _survival_laplace(iia.f_y_cdf, iia.tail_rates[1], s)
    if side == "above":
        return iia.alpha * (1.0 - s * ls_x) / (iia.alpha + iia.beta * s * ls_y)
    return iia.beta * (1.0 - s * ls_y) / (iia.beta + iia.alpha * s * ls_x)
