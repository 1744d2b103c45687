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

and the below side swaps X and Y and a and b.  The clipped means
approach their limit linearly in r and r', so both divisor survivals
decay at the covariance's own rate lambda = -r'/r (d/4 for the diffusion
model); each divisor is read on the grid while its survival is at least
1e-10 and as S(t_k) e^{-lambda (t - t_k)} past that knot t_k.  The grid
is therefore sized from the covariance before any clipped mean is
computed: r and r' bound both survivals to first order, and a level's
grid ends once that bound is below half of 1e-10, a little past t_k;
``t_max`` only caps it.  The law's survival then decays as
C e^{-theta t}, with theta the Lundberg root of b E[e^{theta Y}] = 1,
which lies below lambda (Cramer-Lundberg asymptotics of geometric sums);
:func:`persistency_exponent` finds it on the same lumped divisors before
any transform, and the FFT is sized from it to hold all but 1e-10 of the
mass in one solve; a solve that leaves more past its end is a
NumericalError.  Each excursion is then one inverse-CDF draw from that
law; a replicate of the persistency table draws its uniforms once per
side and keeps only those whose ranks its tail fit reads, the upper
half of the sorted draws less the top few, which it maps through the
law of every level.  Checking the law's empirical transform against
Psi_+ and Psi_-, which come from the clipped means alone, is the
package's core cross-validation; the tests keep the geometric sum
itself as a reference sampler.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .covmodel import CovarianceModel
from .errors import DomainError, GridTooShort, MonotonicityViolation, NumericalError
from .numerics import (NEGATIVE_MASS_TOL, Grid, inverse_cdf_sample, lump_cells,
                       level_mass, next_fast_len, numerical_laplace, spawn_seeds,
                       uniform_grid)
from .persistency import BatchEstimate, _fit_window, _tail_ranks, replicate_estimates
from .slepian import _clipped_terms, _clipped_up_from

__all__ = ["IIAModel", "build_iia", "excursion_law", "persistency_exponent",
           "sample_excursion", "persistency_table", "psi_hat"]

SIDES = ("above", "below")

# per-step downticks smaller than this are roundoff, not violations
MONOTONE_TOL = 1e-12

# an excursion law is solved once, on the knots that its tail sizes to hold
# all but _LAW_END of the mass, and fails past _LAW_MAX_KNOTS knots
_LAW_END = 1e-10
_LAW_MAX_KNOTS = 1 << 21

# a divisor's survival below this is read from its exponential tail, and the
# covariance's decay rate is read at the last knot where r is at least this
_CUT = 1e-10


@dataclass(frozen=True, eq=False)
class IIAModel:
    """Level, geometric parameter, tabulated divisor CDFs and their decay rate.

    ``alpha`` is Phi(u) and ``beta`` is ``1 - alpha``.  ``decay_rate`` is
    the covariance's own rate -r'/r, at which both divisor survivals decay
    past the grid.
    """

    level: float
    alpha: float
    f_x_cdf: Grid
    f_y_cdf: Grid
    decay_rate: float
    # side -> excursion_law(self, side) or the error its solve raised, filled
    # on first request under that side's lock, so the two sides solve at the
    # same time
    _laws: dict = field(default_factory=dict, init=False, repr=False)
    _locks: dict = field(default_factory=lambda: {side: threading.Lock() for side in SIDES},
                         init=False, repr=False)

    @property
    def beta(self) -> float:
        return 1.0 - self.alpha


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
    integrates the divisor densities in closed form.  The grid has knots
    ``0, step, ...`` and ends where both divisor survivals are below
    1e-10, which the covariance alone sizes (see :func:`_sized_ends`);
    past that end each divisor is read from its exponential tail at the
    covariance's decay rate.  ``t_max`` caps the grid: a cap before the
    sized end is :class:`GridTooShort`, and a level whose survivals are
    not below 1e-10 at the sized end is a :class:`NumericalError`.
    Raises :class:`MonotonicityViolation` when a curve runs the wrong way
    on the grid (down-crossing curves do for levels above roughly 5/4
    with the d = 2 diffusion model).  A level at which Phi(u) rounds to
    0 or 1, so that one side has no mass, is a :class:`DomainError`.
    """
    return _build_levels(model, [u], t_max, step)[0]


def _sized_ends(model: CovarianceModel, t: np.ndarray, r: np.ndarray, levels,
                alphas, decay_rate: float) -> list[int]:
    """Per level, the grid knot past which neither divisor survival reaches ``_CUT``.

    As r and r' vanish, E_u^+ - (1 - 2 Phi(u)) = phi(u) (2 u r + sqrt(2 pi)
    (-r') / g) to first order, with g = sqrt(-r''(0)), and E_u^- is the
    same at -u, so both divisor survivals are at most

        B(t) = phi(u) (2 |u| |r| + sqrt(2 pi) |r'| / g) / (2 min(alpha, beta)).

    The remainder is relatively O((1 + u^2) (|r| + |r'| / g)), below 1e-9
    where B nears ``_CUT`` at the paper's levels, and the clipped means
    round to about 1e-16 / min(alpha, beta).  A level's end is the knot after the last
    one where B is at least ``_CUT / 2``.  That factor of 2 is the margin
    that covers both terms, and costs ln 2 / lambda of grid: 139 knots of
    0.01 at d = 2.  A cap that ends the grid sooner is
    :class:`GridTooShort`, naming the cap and where B would fall below
    ``_CUT / 2`` at the decay rate lambda.
    """
    g = math.sqrt(-model.r_pp0)
    abs_r = np.abs(r)
    abs_rp = np.abs(np.asarray(model.r_prime(t), dtype=float)) / g
    ends = []
    for u, alpha in zip(levels, alphas):
        scale = math.exp(-0.5 * u * u) / (2.0 * min(alpha, 1.0 - alpha))
        bound = scale * (2.0 * abs(u) / math.sqrt(2.0 * math.pi) * abs_r + abs_rp)
        hits = np.flatnonzero(bound >= 0.5 * _CUT)
        end = int(hits[-1]) + 1 if len(hits) else 1
        if end >= len(t):
            near = t[-1] + math.log(2.0 * bound[-1] / _CUT) / decay_rate
            raise GridTooShort(
                f"u = {u:g}: the grid cap t_max = {t[-1]:g} falls before the sized end of "
                f"the divisor grid, near t = {near:.4g} at the decay rate "
                f"{decay_rate:.4g}: the divisors' survival bound is "
                f"{bound[-1]:.2e} at the cap, not below {0.5 * _CUT:g}")
        ends.append(end)
    return ends


def _build_levels(model: CovarianceModel, levels, t_max: float,
                  step: float) -> list[IIAModel]:
    # build_iia at each level, each on the grid sized for it, with the
    # level-free Slepian terms and the covariance's decay rate computed once
    levels = [float(u) for u in levels]
    alphas = [level_mass(u) for u in levels]
    if not (step > 0.0 and t_max > 10.0 * step):
        raise DomainError("need step > 0 and t_max well above the step")
    t = uniform_grid(t_max, step)
    r = np.asarray(model.r(t), dtype=float)
    k = int(np.flatnonzero(r >= _CUT)[-1])
    decay_rate = -float(model.r_prime(t[k])) / float(r[k])
    if not (decay_rate > 0.0 and math.isfinite(decay_rate)):
        raise DomainError(f"the covariance's decay rate -r'/r must be positive and "
                          f"finite, got {decay_rate!r}")
    ends = _sized_ends(model, t, r, levels, alphas, decay_rate)
    terms = _clipped_terms(model, t[1:max(ends, default=1) + 1])
    # the terms are elementwise in t, so a level's are a prefix of them
    return [_build_level(u, alpha, t[:end + 1],
                         tuple(x[:end] if isinstance(x, np.ndarray) else x for x in terms),
                         decay_rate)
            for u, alpha, end in zip(levels, alphas, ends)]


def _build_level(u: float, alpha: float, t: np.ndarray, terms,
                 decay_rate: float) -> IIAModel:
    beta = 1.0 - alpha
    # E_u^- = -E_{-u}^+, both on the shared terms of t[1:]
    e_up = np.empty(len(t))
    e_up[0] = 1.0
    e_up[1:] = _clipped_up_from(terms, u)
    e_dn = np.empty(len(t))
    e_dn[0] = -1.0
    e_dn[1:] = _clipped_up_from(terms, -u)
    np.negative(e_dn[1:], out=e_dn[1:])

    _check_monotone(e_up, t, direction=-1, which="up-crossing mean")
    _check_monotone(e_dn, t, direction=+1, which="down-crossing mean")

    e_inf = 1.0 - 2.0 * alpha
    surv_x = np.maximum((e_up - e_inf) / (2.0 * alpha), 0.0)
    surv_y = np.maximum((e_inf - e_dn) / (2.0 * beta), 0.0)
    if surv_x[-1] >= _CUT or surv_y[-1] >= _CUT:
        raise NumericalError(
            f"u = {u:g}: the divisor survivals are {surv_x[-1]:.2e} / {surv_y[-1]:.2e} "
            f"at the sized grid end t = {t[-1]:g}, not below {_CUT:g}")

    f_x = np.minimum(np.maximum.accumulate(1.0 - surv_x), 1.0)
    f_y = np.minimum(np.maximum.accumulate(1.0 - surv_y), 1.0)
    f_x[0] = 0.0
    f_y[0] = 0.0

    return IIAModel(
        level=u,
        alpha=alpha,
        f_x_cdf=Grid(points=t, values=f_x),
        f_y_cdf=Grid(points=t, values=f_y),
        decay_rate=decay_rate,
    )


def _divisors(iia: IIAModel, side: str):
    # (a, b, first divisor, extra divisor)
    x, y = (_Divisor(iia.f_x_cdf, iia.decay_rate), _Divisor(iia.f_y_cdf, iia.decay_rate))
    return (iia.alpha, iia.beta, x, y) if side == "above" else (iia.beta, iia.alpha, y, x)


class _Divisor:
    """A divisor law on the grid's cells, and past them on its exponential tail.

    The cells are the grid's up to the last knot t_k with S = 1 - F at
    least ``_CUT``, and those of S(t_k) e^{-rate (t - t_k)} past it, where
    the grid's S turns to round-off that the weight e^{theta t} of a
    transform would blow up.  Lumped as the law solve lumps it, knot j
    holds half of each cell next to it, so with cell masses c_j at t_j,
    E[e^{theta D}] = (1 + e^{theta h}) / 2 * sum_j c_j e^{theta t_j}.
    """

    def __init__(self, cdf: Grid, rate: float):
        surv = 1.0 - cdf.values
        k = int(np.count_nonzero(surv >= _CUT)) - 1
        self.t, self.step, self.rate = cdf.points[:k], cdf.points[1], rate
        self.cells = np.diff(cdf.values[:k + 1])
        self.t_end, self.end = cdf.points[k], float(surv[k])

    def masses(self, knots: int) -> np.ndarray:
        """The masses of the first ``knots`` knots."""
        past = max(knots - len(self.cells), 1)
        tail = self.end * np.exp(-self.rate * self.step * np.arange(past + 1))
        return lump_cells(np.concatenate((self.cells, -np.diff(tail))), knots)

    def transform(self, theta: float) -> tuple[float, float]:
        """E[e^{theta D}] and E[D e^{theta D}], for theta below the tail rate."""
        t, h, t_end = self.t, self.step, self.t_end
        w = self.cells * np.exp(theta * t)
        q = math.exp(-self.rate * h)
        r = q * math.exp(theta * h)
        # the tail's cells, from the one at t_end = t_k on
        past = self.end * (1.0 - q) * math.exp(theta * t_end) / (1.0 - r)
        cells = float(np.sum(w)) + past
        cells_slope = float(np.sum(t * w)) + past * (t_end + h * r / (1.0 - r))
        half = 0.5 * (1.0 + math.exp(theta * h))
        return (half * cells,
                half * cells_slope + 0.5 * h * math.exp(theta * h) * cells)


def _decay(a: float, b: float, x: _Divisor, y: _Divisor) -> tuple[float, float]:
    """The law's survival decays as C e^{-theta t}: ``(theta, C)``.

    theta is the Lundberg root of b E[e^{theta Y}] = 1, for the first
    divisor X and the extra one Y.  b E[e^{theta Y}] - 1 is increasing
    and convex in theta, negative at 0 and unbounded as theta nears Y's
    tail rate, so Newton's method, safeguarded by bisection, finds the
    root below that rate.
    """
    lo, hi, theta = 0.0, y.rate, 0.0
    while True:
        mgf, slope = y.transform(theta)
        g = b * mgf - 1.0
        newton = theta - g / (b * slope)
        if abs(newton - theta) <= 1e-13 * theta or hi - lo <= 1e-13 * hi:
            break
        if g < 0.0:
            lo = theta
        else:
            hi = theta
        theta = newton if lo < newton < hi else 0.5 * (lo + hi)
    # residue of a E[e^{s X}] / (1 - b E[e^{s Y}]) at its pole s = theta
    return theta, a * x.transform(theta)[0] / (theta * b * slope)


def persistency_exponent(iia: IIAModel, side: str) -> float:
    """The decay rate theta of one side's excursion law.

    Above, theta is the Lundberg root of beta E[e^{theta Y}] = 1, which
    lies below the decay rate both divisors share; below, X and Y swap,
    and so do alpha and beta.  The divisors are lumped on the grid knots
    as :func:`excursion_law` lumps them, and the law is sized from this
    same theta.
    """
    if side not in SIDES:
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    return float(_decay(*_divisors(iia, side))[0])


def _solve_law(iia: IIAModel, side: str) -> tuple[Grid, float]:
    a, b, first, extra = _divisors(iia, side)
    step = iia.f_x_cdf.points[1]
    theta, amplitude = _decay(a, b, first, extra)
    # the knot past which C e^{-theta t} is below half of _LAW_END
    knots = max(2, math.ceil(math.log(2.0 * amplitude / _LAW_END) / (theta * step)) + 1)
    if knots > _LAW_MAX_KNOTS:
        raise NumericalError(
            f"u = {iia.level:g}, {side} side: the excursion law needs {knots} knots "
            f"of {step:g} to leave at most {_LAW_END:g} past its end, more than "
            f"{_LAW_MAX_KNOTS}")
    size = next_fast_len(2 * knots, real=True)
    first_hat = np.fft.rfft(first.masses(knots), size)
    extra_hat = np.fft.rfft(extra.masses(knots), size)
    # a first / (1 - b extra), in place
    extra_hat *= -b
    extra_hat += 1.0
    first_hat *= a
    first_hat /= extra_hat
    q = np.fft.irfft(first_hat, size)[:knots]
    # the knot masses, then the mass past the last knot
    mass = np.append(q, 1.0 - q.sum())
    if mass[-1] > _LAW_END:
        raise NumericalError(
            f"u = {iia.level:g}, {side} side: the excursion law on {knots} knots "
            f"holds {mass[-1]:.2e} of its mass past its end t = {(knots - 1) * step:g}, "
            f"more than {_LAW_END:g}")
    negative = -float(mass[mass < 0.0].sum())
    if negative > NEGATIVE_MASS_TOL:
        raise NumericalError(
            f"u = {iia.level:g}, {side} side: the excursion law has {negative:.2e} "
            f"of negative mass (round-off allows {NEGATIVE_MASS_TOL:g})")
    # survival from the far end, so it resolves values far below 1e-14
    surv = np.cumsum(np.maximum(mass, 0.0)[::-1])[::-1]
    # knot k's mass is spread over [(k - 1/2) h, (k + 1/2) h], cut at 0
    points = np.append(0.0, (np.arange(knots) + 0.5) * step)
    return Grid(points=points, values=np.append(0.0, 1.0 - surv[1:])), theta


def excursion_law(iia: IIAModel, side: str) -> tuple[Grid, float]:
    """The approximated excursion law of one side: its CDF and tail rate.

    The divisor laws are lumped on the grid knots by the trapezoid rule,
    each read from the grid down to a survival of 1e-10 and from its
    exponential tail at the covariance's decay rate past that; the knot
    masses of the geometric sum then solve

        q = irfft(a rfft(p_X, L) / (1 - b rfft(p_Y, L))),

    with a = alpha, b = beta above and X, Y and a, b swapped below, on
    ``L = next_fast_len(2 n)``.  ``n`` is sized before the transform from
    :func:`persistency_exponent`: the survival decays as C e^{-theta t},
    and the law ends where that falls to half of 1e-10.  The law is solved
    once, at that size.  More than 2**21 knots is a
    :class:`NumericalError`, as are more than 1e-10 of the mass past the
    last knot and round-off leaving over 1e-12 of negative mass.  Each
    knot's mass is spread evenly over the half
    steps either side of it, so the CDF is piecewise linear, zero at
    t = 0, and ends within 1e-10 of one; the tail rate that extrapolates
    it is theta, the rate at which its survival decays.  The law is
    computed on the first request for each side and cached on ``iia``.
    Each side has a lock of its own, so the two sides can be solved at
    the same time from different threads, such as the tasks of
    :func:`persistency_table`'s pool, while each is solved once.  A solve
    that fails is not tried again: its error is kept and raised to every
    later request for that side.
    """
    if side not in SIDES:
        raise DomainError(f"side must be 'above' or 'below', got {side!r}")
    with iia._locks[side]:
        if side not in iia._laws:
            try:
                iia._laws[side] = _solve_law(iia, side)
            except Exception as exc:
                iia._laws[side] = exc
        law = iia._laws[side]
    if isinstance(law, Exception):
        raise law
    return law


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
    """``(iia, above, below)`` per level of ``levels``, from ``reps`` replicate fits.

    ``seed`` spawns one seed per side, above then below, and each side
    seed spawns ``reps`` replicate seeds, however many levels there are.
    Replicate ``i`` of a side draws the ``samples`` uniforms of
    :func:`sample_excursion` at its seed once, keeps only those whose
    ranks the tail fit reads, ``[lo, hi)``: it partitions them at ``lo``,
    sorts the rest and copies out the first ``hi - lo`` of them.  It maps
    that one window through the law of every level in turn, and each
    mapped window is fitted before the next is made.  At each level the
    fitted lengths are those of :func:`sample_excursion` at ranks
    ``[lo, hi)`` bit for bit, so a level's row equals that of a one-level
    call at the same seed, and the levels of one call share their random
    numbers (common random numbers, as in
    :func:`gpsim.persistency_from_trajectories`): each level's law and
    replicate spread are those of a call at that level alone.  The log
    survival on those ranks is computed once for the table.

    Each level's grid is sized from the covariance, as :func:`build_iia`
    sizes it, and capped at ``t_max``; the grids are prefixes of one
    grid, on which the level-free terms of the clipped means are computed
    once for all levels and both signs, so each model equals
    :func:`build_iia`'s bit for bit.  The (side, replicate) tasks share
    the one pool of :func:`persistency.replicate_estimates`, which
    ``EXCURSION_IIA_THREADS`` caps, and start replicate 0 of both sides
    first.  A task takes its side's laws before it draws: every (level,
    side) law is solved once, at the size its persistency exponent gives,
    by the first task of that side, and shared by the rest, so the two
    sides solve at the same time.  Solving in the tasks, not in a stage
    of its own, lets the draws reuse the memory that the solves free in
    the same threads: a separate stage raised the peak resident set of a
    4-level job by about 1.2 MB.  No task solves while it holds its
    uniforms.
    """
    if reps < 2:
        raise DomainError("need at least two replicates")
    if samples < 1:
        raise DomainError("sample count must be positive")
    iias = _build_levels(model, levels, t_max, step)
    groups = [(side, side_seed, tuple(f"u = {iia.level:g}, {side} side" for iia in iias))
              for side, side_seed in zip(SIDES, spawn_seeds(seed, 2))]
    ranks = _tail_ranks(samples)

    def draw(side, rep_seed):
        # the side's laws first, while the task holds no uniforms
        laws = [excursion_law(iia, side) for iia in iias]
        u = np.random.default_rng(rep_seed).random(samples)
        # the fit reads only ranks [lo, hi) of the sorted lengths
        u.partition(ranks.lo)
        u[ranks.lo:].sort()
        # a copy, so that the uniforms are freed before the first map
        window = u[ranks.lo:ranks.hi].copy()
        del u
        for cdf, tail_rate in laws:
            yield inverse_cdf_sample(cdf, tail_rate, window)

    above, below = replicate_estimates(draw, groups, reps,
                                       lambda window: _fit_window(window, ranks))
    return list(zip(iias, above, below))


def _survival_laplace(cdf: Grid, tail_rate: float, s: float) -> float:
    surv = np.maximum(1.0 - cdf.values, 0.0)
    return numerical_laplace(Grid(points=cdf.points, values=surv), s, tail_rate)


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
    ls_x = _survival_laplace(iia.f_x_cdf, iia.decay_rate, s)
    ls_y = _survival_laplace(iia.f_y_cdf, iia.decay_rate, s)
    if side == "above":
        return iia.alpha * (1.0 - s * ls_x) / (iia.alpha + iia.beta * s * ls_y)
    return iia.beta * (1.0 - s * ls_y) / (iia.beta + iia.alpha * s * ls_x)
