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

with L(E') = s L(E) - E(0+).

The excursion law itself is solved, not simulated: lumping each divisor
on the grid knots by the trapezoid rule (half of a cell's mass to each
end) turns the geometric sum into the renewal equation
q = a p_X + b (p_Y * q) for the above side, which one real FFT solves,

    Q = a P_X / (1 - b P_Y),

and the below side swaps X and Y and a and b.  Each excursion is then
one inverse-CDF draw from that law; a replicate of the persistency
table maps only the uniforms whose ranks its tail fit reads, the
upper half of the sorted draws less the top few.  Checking the law's
empirical transform against Psi_+ and Psi_-, which come from the
clipped means alone, is the package's core cross-validation; the tests
keep the geometric sum itself as a reference sampler.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .covmodel import CovarianceModel
from .errors import DomainError, GridTooShort, MonotonicityViolation, NumericalError
from .numerics import (NEGATIVE_MASS_TOL, Grid, TailModel, fit_exponential_tail,
                       inverse_cdf_sample, lump_cells, next_fast_len, norm_cdf,
                       numerical_laplace, spawn_seeds, uniform_grid)
from .persistency import BatchEstimate, _fit_window, _tail_ranks, replicate_estimates
from .slepian import expected_clipped_down, expected_clipped_up

__all__ = ["IIAModel", "build_iia", "excursion_law", "sample_excursion",
           "persistency_table", "psi_hat"]

SIDES = ("above", "below")

# per-step downticks smaller than this are roundoff, not violations
MONOTONE_TOL = 1e-12

# an excursion law is solved on more knots until the mass past the last
# one is at most _LAW_END, and fails past _LAW_MAX_KNOTS knots
_LAW_END = 1e-10
_LAW_MAX_KNOTS = 1 << 21


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
    # side -> excursion_law(self, side), filled on first request under the lock
    _laws: dict = field(default_factory=dict, init=False, repr=False)
    _laws_lock: threading.Lock = field(default_factory=threading.Lock, init=False,
                                       repr=False)

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
    not reach the asymptotic regime within 1e-6.  A level at which
    Phi(u) rounds to 0 or 1, so that one side has no mass, is a
    :class:`DomainError`.
    """
    if not math.isfinite(u):
        raise DomainError(f"level must be finite, got {float(u)!r}")
    alpha = float(norm_cdf(u))
    beta = 1.0 - alpha
    if alpha in (0.0, 1.0):
        raise DomainError(f"level {float(u)!r}: Phi(u) rounds to {alpha:g}, so the "
                          f"excursions {'above' if alpha else 'below'} it have no mass")
    if not (step > 0.0 and t_max > 10.0 * step):
        raise DomainError("need step > 0 and t_max well above the step")
    t = uniform_grid(t_max, step)

    e_up = np.empty(len(t))
    e_up[0] = 1.0
    e_up[1:] = expected_clipped_up(model, u, t[1:])
    e_dn = np.empty(len(t))
    e_dn[0] = -1.0
    e_dn[1:] = expected_clipped_down(model, u, t[1:])

    e_inf = 1.0 - 2.0 * alpha
    if abs(e_up[-1] - e_inf) >= 1e-6 or abs(e_dn[-1] - e_inf) >= 1e-6:
        raise GridTooShort(
            f"clipped means at t_max = {t[-1]:g} are {abs(e_up[-1] - e_inf):.2e} / "
            f"{abs(e_dn[-1] - e_inf):.2e} away from the limit (need < 1e-6)")

    _check_monotone(e_up, t, direction=-1, which="up-crossing mean")
    _check_monotone(e_dn, t, direction=+1, which="down-crossing mean")

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


def _knot_masses(cdf: Grid, tail_rate: float, knots: int) -> np.ndarray:
    # a divisor law on the first `knots` knots; cells past the grid follow its tail
    f, step = cdf.values, cdf.points[1]
    tail = (1.0 - f[-1]) * np.exp(-tail_rate * step * np.arange(knots - len(f) + 2))
    return lump_cells(np.concatenate((np.diff(f), -np.diff(tail))), knots)


def _solve_law(iia: IIAModel, side: str) -> tuple[Grid, float]:
    x, y = (iia.f_x_cdf, iia.tail_rates[0]), (iia.f_y_cdf, iia.tail_rates[1])
    a, b, first, extra = ((iia.alpha, iia.beta, x, y) if side == "above"
                          else (iia.beta, iia.alpha, y, x))
    step, knots = iia.f_x_cdf.points[1], len(iia.f_x_cdf)
    while True:
        size = next_fast_len(2 * knots, real=True)
        first_hat = np.fft.rfft(_knot_masses(*first, knots), size)
        extra_hat = np.fft.rfft(_knot_masses(*extra, knots), size)
        q = np.fft.irfft(a * first_hat / (1.0 - b * extra_hat), size)[:knots]
        # the knot masses, then the mass past the last knot
        mass = np.append(q, 1.0 - q.sum())
        if mass[-1] <= _LAW_END:
            break
        if 2 * knots > _LAW_MAX_KNOTS:
            raise NumericalError(
                f"u = {iia.level:g}, {side} side: the excursion law holds "
                f"{mass[-1]:.2e} past t = {(knots - 1) * step:g}; "
                f"more than {_LAW_MAX_KNOTS} knots would be needed")
        knots *= 2
    negative = -float(mass[mass < 0.0].sum())
    if negative > NEGATIVE_MASS_TOL:
        raise NumericalError(
            f"u = {iia.level:g}, {side} side: the excursion law has {negative:.2e} "
            f"of negative mass (round-off allows {NEGATIVE_MASS_TOL:g})")
    # survival from the far end, so it resolves values far below 1e-14
    surv = np.cumsum(np.maximum(mass, 0.0)[::-1])[::-1]
    # knot k's mass is spread over [(k - 1/2) h, (k + 1/2) h], cut at 0
    points = np.append(0.0, (np.arange(knots) + 0.5) * step)
    cdf = Grid(points=points, values=np.append(0.0, 1.0 - surv[1:]))
    tail = fit_exponential_tail(Grid(points=points[1:], values=surv[1:]))
    return cdf, tail.rate


def excursion_law(iia: IIAModel, side: str) -> tuple[Grid, float]:
    """The approximated excursion law of one side: its CDF and tail rate.

    The divisor laws are lumped on the grid knots by the trapezoid rule
    and extended past the grid by their exponential tails; the knot
    masses of the geometric sum then solve

        q = irfft(a rfft(p_X, L) / (1 - b rfft(p_Y, L))),

    with a = alpha, b = beta above and X, Y and a, b swapped below, on
    ``L = next_fast_len(2 n)``.  ``n`` starts at the grid's knot count
    and doubles until at most 1e-10 of the mass lies past the last knot
    (:class:`NumericalError` past 2**21 knots, or if round-off leaves
    over 1e-12 of negative mass).  Each knot's mass is spread evenly
    over the half steps either side of it, so the CDF is piecewise
    linear, zero at t = 0, and ends within 1e-10 of one; the tail rate
    extrapolates it, fitted to the last decade of the survival.  The law
    is computed on the first request for each side and cached on
    ``iia``.
    """
    if side not in SIDES:
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    with iia._laws_lock:
        if side not in iia._laws:
            iia._laws[side] = _solve_law(iia, side)
        return iia._laws[side]


def sample_excursion(iia: IIAModel, side: str, n: int, seed) -> np.ndarray:
    """Draw ``n`` excursion lengths of one side, all positive.

    Each length is one inverse-CDF draw, from ``n`` uniforms of a
    generator seeded with ``seed``, of :func:`excursion_law`, with its
    exponential tail beyond the solved range.  The draws come in the
    order the uniforms were generated, not sorted: ``iia --samples-csv``
    writes them, and ``persistency --reps`` splits such a file into
    contiguous chunks, which are independent replicates only if the
    file is in generation order.  The draw itself walks the uniforms in
    ascending order, where each segment search starts next to the last
    one, and scatters the lengths back; each length is the one an
    unsorted draw gives, and the one a :func:`persistency_table`
    replicate at that seed maps, if it maps that uniform at all.
    """
    if n < 1:
        raise DomainError("sample count must be positive")
    cdf, tail_rate = excursion_law(iia, side)
    u = np.random.default_rng(seed).random(n)
    order = np.argsort(u)
    out = np.empty(n)
    out[order] = inverse_cdf_sample(cdf, tail_rate, u[order])
    return out


def persistency_table(model: CovarianceModel, levels, samples: int, reps: int,
                      seed, t_max: float = 200.0, step: float = 0.01
                      ) -> list[tuple[IIAModel, BatchEstimate, BatchEstimate]]:
    """``(iia, above, below)`` per level, from ``reps`` replicate fits per side.

    Level k's seed is the k-th spawned from ``seed`` (``seed`` itself for
    a single level); it spawns a seed per side and each of those a seed
    per replicate of ``samples`` draws.  Every (level, side) law is
    solved before the pool starts and shared by that side's replicates.
    A replicate draws the uniforms of :func:`sample_excursion` at its
    seed but maps only those whose ranks the tail fit reads, ``[lo, hi)``:
    it partitions them at ``lo``, sorts the rest and maps the first
    ``hi - lo`` of them, which are the lengths of :func:`sample_excursion`
    at ranks ``[lo, hi)`` bit for bit.  The log survival on those ranks is
    computed once for the table.
    All (level, side, replicate) tasks share the one pool of
    :func:`persistency.replicate_estimates`, which
    ``EXCURSION_IIA_THREADS`` caps.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    if samples < 1:
        raise DomainError("sample count must be positive")
    if np.ndim(levels) == 0:
        levels, seeds = [levels], [seed]
    else:
        levels, seeds = list(levels), spawn_seeds(seed, len(levels))
    iias = [build_iia(model, u, t_max=t_max, step=step) for u in levels]
    # every law is solved here, before the pool, so its tasks only look them
    # up; a pool of their own would save about 3% of a benchmark-sized job
    # on 2 cores and add 2 to 4 MB to its peak memory
    for iia in iias:
        for side in SIDES:
            excursion_law(iia, side)
    groups = [((iia, side), side_seed, (f"u = {iia.level:g}, {side} side",))
              for iia, level_seed in zip(iias, seeds)
              for side, side_seed in zip(SIDES, spawn_seeds(level_seed, 2))]
    ranks = _tail_ranks(samples)

    def draw(context, rep_seed):
        cdf, tail_rate = excursion_law(*context)
        u = np.random.default_rng(rep_seed).random(samples)
        # the fit reads only ranks [lo, hi) of the sorted lengths
        u.partition(ranks.lo)
        u[ranks.lo:].sort()
        return (inverse_cdf_sample(cdf, tail_rate, u[ranks.lo:ranks.hi]),)

    sides = replicate_estimates(draw, groups, reps,
                                lambda window: _fit_window(window, ranks))
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
    if side not in SIDES:
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    ls_x = _survival_laplace(iia.f_x_cdf, iia.tail_rates[0], s)
    ls_y = _survival_laplace(iia.f_y_cdf, iia.tail_rates[1], s)
    if side == "above":
        return iia.alpha * (1.0 - s * ls_x) / (iia.alpha + iia.beta * s * ls_y)
    return iia.beta * (1.0 - s * ls_y) / (iia.beta + iia.alpha * s * ls_x)
