"""Stationary and non-stationary switch processes.

A switch process alternates between the states +1 and -1 after
independent holding times T+ and T- with Laplace transforms Psi+ and
Psi-.  Pinned to switch at the origin it is non-stationary and is
characterized by the conditional expected value function E_delta(t);
delayed by the integrated-tail distribution it becomes stationary and
is characterized by its covariance R(t).

The Laplace-domain identities implemented here:

    L(P_delta)(s) = (1 - Psi+)/(s (1 - Psi+ Psi-)) * {1, delta = +1;
                                                      Psi-, delta = -1}
    L(E_delta)(s) = (Psi- - Psi+ + delta (1-Psi-)(1-Psi+))
                    / (s (1 - Psi+ Psi-))
    L(R)(s)       = 4/(s (mu+ + mu-)) * (mu+ mu-/(mu+ + mu-)
                    - (1/s) (1-Psi+)(1-Psi-)/(1 - Psi+ Psi-))
    Psi+ = L(E+')/(L(E-') - 2),   Psi- = L(E-')/(L(E+') + 2)
    L(A<)(s)      = 1/(s (mu+ + mu-)) * (mu- - (1/s) (1-Psi+)(1-Psi-)
                    / (1 - Psi+ Psi-))
    L(N<)(s)      = (1 + Psi+)(1 - Psi-) / (s^2 mu- (1 - Psi+ Psi-))
    L(N>)(s)      = (1 + Psi-)(1 - Psi+) / (s^2 mu+ (1 - Psi+ Psi-))

with L(E') obtained from L(E) by the initial-value shift
``L(E')(s) = s L(E)(s) - E(0+)``, E+(0+) = 1 and E-(0+) = -1.

The telegraph process (symmetric exponential holding times) supplies
closed forms for all of these and is the oracle for the Monte Carlo
estimators.

:func:`simulate_switch_paths` simulates a whole batch of paths with one
generator: the initial states in one draw, the stationary delays from
each initial state's closed-form delay sampler, and the holding times as
``(paths, K)`` blocks whose cumulative sums are the switch epochs.  A
further block is drawn only for the paths still short of the horizon.
The batch keeps the epochs as one matrix padded with ``inf``, so the
state and switch count of every path on a time grid are one comparison.
:func:`estimate_characteristics` needs only sums over paths, so it
tallies the switches by rank and grid time instead.

:func:`switch_count_distribution` shares the kernel of
:func:`iia.excursion_law`: the cell masses of every law, the differences
of its exact CDF on the grid knots (of the closed-form delay CDF for the
first switch), are lumped on the knots (:func:`numerics.lump_cells`),
and the epoch of each switch is the last one convolved with a holding
law by one real FFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .numerics import NEGATIVE_MASS_TOL, lump_cells, lumped_cdf, next_fast_len

__all__ = [
    "IntervalDistribution",
    "SwitchPaths",
    "CharacteristicEstimate",
    "exponential_interval",
    "erlang_interval",
    "deterministic_interval",
    "interval_from_spec",
    "simulate_switch_paths",
    "laplace_P_delta",
    "laplace_E_delta",
    "laplace_E_prime",
    "laplace_stationary_P",
    "laplace_stationary_cov",
    "recover_psi",
    "laplace_A_less",
    "laplace_N_less",
    "laplace_N_greater",
    "switch_count_distribution",
    "estimate_characteristics",
]


# ---------------------------------------------------------------------------
# interval distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class IntervalDistribution:
    """One switching-time law and its stationary delay: CDFs, samplers, mean, Psi.

    The delay is the integrated-tail law, of density ``(1 - F) / mean``,
    that a stationary path waits before its first switch.
    """

    name: str
    mean: float
    psi: Callable
    cdf: Callable
    sampler: Callable
    delay_cdf: Callable
    delay_sampler: Callable

    def __post_init__(self):
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise DomainError("interval mean must be positive and finite")


def exponential_interval(rate: float) -> IntervalDistribution:
    """Exponential holding times; yields the telegraph process."""
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    lam = float(rate)
    cdf = lambda t: -np.expm1(-lam * np.maximum(t, 0.0))
    sampler = lambda rng, size=None: rng.exponential(1.0 / lam, size=size)
    # memoryless: the delay is the law itself
    return IntervalDistribution(
        name=f"exp:{lam:g}",
        mean=1.0 / lam,
        psi=lambda s: lam / (lam + s),
        cdf=cdf,
        sampler=sampler,
        delay_cdf=cdf,
        delay_sampler=sampler,
    )


def erlang_interval(shape: int, rate: float) -> IntervalDistribution:
    """Erlang holding times (sum of ``shape`` exponentials)."""
    if not (isinstance(shape, (int, np.integer)) and shape >= 1):
        raise DomainError(f"shape must be a positive integer, got {shape!r}")
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    k, lam = int(shape), float(rate)

    def cdf(t):
        from scipy.special import gammainc

        return gammainc(k, lam * np.maximum(t, 0.0))

    def delay_cdf(t):
        # the delay is Erlang(J, lam) with J uniform on 1..k
        from scipy.special import gammainc

        x = lam * np.maximum(t, 0.0)
        return sum(gammainc(j, x) for j in range(1, k + 1)) / k

    return IntervalDistribution(
        name=f"erlang:{k}:{lam:g}",
        mean=k / lam,
        psi=lambda s: (lam / (lam + s)) ** k,
        cdf=cdf,
        sampler=lambda rng, size=None: rng.gamma(k, 1.0 / lam, size=size),
        delay_cdf=delay_cdf,
        delay_sampler=lambda rng, size=None: rng.gamma(rng.integers(1, k + 1, size),
                                                       1.0 / lam),
    )


def deterministic_interval(value: float) -> IntervalDistribution:
    """Point mass at ``value``; handy as a degenerate test case."""
    if not value > 0.0:
        raise DomainError(f"value must be positive, got {value}")
    c = float(value)
    return IntervalDistribution(
        name=f"det:{c:g}",
        mean=c,
        psi=lambda s: np.exp(-c * s),
        cdf=lambda t: (np.asarray(t, dtype=float) >= c).astype(float),
        sampler=lambda rng, size=None: (c if size is None
                                        else np.full(size, c)),
        delay_cdf=lambda t: np.clip(t, 0.0, c) / c,
        delay_sampler=lambda rng, size=None: rng.uniform(0.0, c, size),
    )


def interval_from_spec(spec: str) -> IntervalDistribution:
    """Parse ``"exp:RATE"``, ``"erlang:SHAPE:RATE"`` or ``"det:VALUE"``."""
    parts = spec.split(":")
    try:
        if parts[0] == "exp" and len(parts) == 2:
            return exponential_interval(float(parts[1]))
        if parts[0] == "erlang" and len(parts) == 3:
            return erlang_interval(int(parts[1]), float(parts[2]))
        if parts[0] == "det" and len(parts) == 2:
            return deterministic_interval(float(parts[1]))
    except ValueError as exc:
        raise DomainError(f"bad distribution spec {spec!r}: {exc}") from exc
    raise DomainError(f"unknown distribution spec {spec!r}")


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def _check_times(t: np.ndarray, horizon: float, what: str) -> None:
    # NaN fails both comparisons; past the horizon a count would read the padding
    if not ((t >= 0.0) & (t <= horizon)).all():
        raise DomainError(f"{what} must lie in [0, {horizon!r}]")


@dataclass(frozen=True, eq=False)
class SwitchPaths:
    """A batch of simulated switch paths on ``[0, horizon]``.

    Row ``i`` of ``epochs`` holds the switch epochs of path ``i`` in
    increasing order, padded with ``inf`` past the horizon.  ``delays``
    holds the stationary delays (some of them past the horizon), or is
    ``None`` for pinned paths.
    """

    initial_states: np.ndarray
    epochs: np.ndarray
    horizon: float
    delays: np.ndarray | None = None

    def count_at(self, times):
        """Switches in ``(0, t]``, shape ``(paths, len(times))``.

        A time outside ``[0, horizon]``, or NaN, is a :class:`DomainError`.
        The comparison holds ``paths * epochs.shape[1] * len(times)``
        booleans at once; :func:`estimate_characteristics` does not need it.
        """
        t = np.atleast_1d(np.asarray(times, dtype=float))
        _check_times(t, self.horizon, "times")
        return np.count_nonzero(self.epochs[:, :, None] <= t, axis=1)

    def state_at(self, times):
        """Right-continuous states, shape ``(paths, len(times))``, at times
        in ``[0, horizon]`` as for :meth:`count_at`."""
        return self.initial_states[:, None] * (1 - 2 * (self.count_at(times) % 2))


def _holding_block(plus, minus, plus_first: np.ndarray, pairs: int, rng) -> np.ndarray:
    """``(rows, 2 pairs)`` holding times, alternating from each row's first law."""
    a = plus.sampler(rng, (len(plus_first), pairs))
    b = minus.sampler(rng, (len(plus_first), pairs))
    first = plus_first[:, None]
    block = np.empty((len(plus_first), 2 * pairs))
    block[:, 0::2] = np.where(first, a, b)
    block[:, 1::2] = np.where(first, b, a)
    return block


# entries of the first holding-time block, 1 GiB of float64; a horizon
# that needs more is rejected before anything is drawn
_FIRST_BLOCK_BUDGET = 2**27


def simulate_switch_paths(plus: IntervalDistribution, minus: IntervalDistribution,
                          n_paths: int, horizon: float, seed,
                          stationary: bool = False, p0: float = 0.5) -> SwitchPaths:
    """Simulate ``n_paths`` independent switch paths on ``[0, horizon]``.

    A pinned path starts at the origin in state +1 with probability
    ``p0``.  A stationary path starts in state +1 with probability
    ``mu+ / (mu+ + mu-)``, and its first switch comes after a delay
    drawn from the integrated-tail density ``(1 - F_delta(t)) / mu_delta``
    of its initial state by that law's ``delay_sampler``.  Holding times
    then alternate between the state-matched laws until the horizon.

    Every path draws from the one generator ``np.random.default_rng(seed)``,
    in this order: the initial states; for stationary paths the delays,
    one ``delay_sampler`` call for the paths that start in +1 and one for
    the rest; then blocks of holding times.  The first block gives each
    path ``2 (int(1.1 horizon / (mu+ + mu-)) + 2)`` holding times, about 1.1
    times the mean number of switches plus four, and each further block
    goes only to the paths still short of the horizon.  A horizon whose
    first block would exceed 2**27 entries raises :class:`DomainError`.
    """
    if n_paths < 1:
        raise DomainError("n_paths must be positive")
    if not (math.isfinite(horizon) and horizon > 0.0):
        raise DomainError(f"horizon must be finite and positive, got {horizon!r}")
    if not (stationary or 0.0 <= p0 <= 1.0):
        raise DomainError("p0 must be a probability")
    mean_pair = plus.mean + minus.mean
    width = 2.2 * horizon / mean_pair
    if not (width + 5.0) * n_paths <= _FIRST_BLOCK_BUDGET:
        raise DomainError(f"horizon {horizon!r} is too long: {n_paths} paths of about "
                          f"{width:.3g} switches each do not fit in an array")
    pairs = int(width / 2.0) + 2
    rng = np.random.default_rng(seed)
    p_plus = plus.mean / mean_pair if stationary else p0
    states = np.where(rng.random(n_paths) < p_plus, 1, -1)
    plus_first = states == 1
    delays = None
    start = np.zeros((n_paths, 0))
    if stationary:
        delays = np.empty(n_paths)
        for rows, dist in ((plus_first, plus), (~plus_first, minus)):
            delays[rows] = dist.delay_sampler(rng, np.count_nonzero(rows))
        start = delays[:, None]
        plus_first = ~plus_first    # the delay ends in a switch
    block = _holding_block(plus, minus, plus_first, pairs, rng)
    blocks = [np.cumsum(np.hstack([start, block]), axis=1)]
    while (short := np.flatnonzero(blocks[-1][:, -1] <= horizon)).size:
        block = _holding_block(plus, minus, plus_first[short], pairs, rng)
        more = np.full((n_paths, 2 * pairs), np.inf)
        more[short] = np.cumsum(np.hstack([blocks[-1][short, -1:], block]), axis=1)[:, 1:]
        blocks.append(more)
    epochs = np.hstack(blocks)
    inside = epochs <= horizon
    width = np.count_nonzero(inside.any(axis=0))
    epochs = np.where(inside[:, :width], epochs[:, :width], np.inf)
    return SwitchPaths(states, epochs, float(horizon), delays)


# ---------------------------------------------------------------------------
# Laplace-domain characteristics
# ---------------------------------------------------------------------------

def _check_s(s):
    if np.any(np.asarray(s) <= 0.0):
        raise DomainError("Laplace argument must be positive")


def laplace_P_delta(plus, minus, delta: int, s):
    """Transform of P(D(t) = 1 | delta) for the pinned process."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    base = (1.0 - pp) / (s * (1.0 - pp * pm))
    return base if delta == 1 else base * pm


def laplace_E_delta(plus, minus, delta: int, s):
    """Transform of the conditional expected value of the pinned process."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    return (pm - pp + delta * (1.0 - pm) * (1.0 - pp)) / (s * (1.0 - pp * pm))


def laplace_stationary_P(plus, minus, delta: int, s):
    """Transform of P(D~(t) = 1 | D~(0) = delta) for the stationary process."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    cross = (1.0 - pp) * (1.0 - pm) / (1.0 - pp * pm)
    if delta == 1:
        return (1.0 - cross / (plus.mean * s)) / s
    return cross / (minus.mean * s * s)


def laplace_stationary_cov(plus, minus, s):
    """Transform of the stationary covariance R(t)."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    mu_p, mu_m = plus.mean, minus.mean
    cross = (1.0 - pp) * (1.0 - pm) / (1.0 - pp * pm)
    return 4.0 / (s * (mu_p + mu_m)) * (mu_p * mu_m / (mu_p + mu_m) - cross / s)


def recover_psi(laplace_E_plus_prime, laplace_E_minus_prime, s):
    """Recover (Psi+, Psi-) from the transforms of E+' and E-'.

    The inputs are functions of s giving L(E+') and L(E-'), normally obtained
    from L(E+-) by the initial-value shift ``s L(E)(s) - E(0+)`` with
    E+(0+) = 1 and E-(0+) = -1.
    """
    _check_s(s)
    lep = laplace_E_plus_prime(s)
    lem = laplace_E_minus_prime(s)
    den_p = lem - 2.0
    den_m = lep + 2.0
    if abs(den_p) < 1e-12 or abs(den_m) < 1e-12:
        raise NumericalError("vanishing denominator in transform recovery")
    return lep / den_p, lem / den_m


def laplace_A_less(plus, minus, s):
    """Transform of A_<(t) = E[(1-D~(t))/2 * (1-D~(0))/2]."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    mu_p, mu_m = plus.mean, minus.mean
    cross = (1.0 - pp) * (1.0 - pm) / (1.0 - pp * pm)
    return (mu_m - cross / s) / (s * (mu_p + mu_m))


def laplace_N_less(plus, minus, s):
    """Transform of the mean switch count given start in state -1."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    return (1.0 + pp) * (1.0 - pm) / (s * s * minus.mean * (1.0 - pp * pm))


def laplace_N_greater(plus, minus, s):
    """Transform of the mean switch count given start in state +1."""
    _check_s(s)
    pp, pm = plus.psi(s), minus.psi(s)
    return (1.0 + pm) * (1.0 - pp) / (s * s * plus.mean * (1.0 - pp * pm))


# ---------------------------------------------------------------------------
# switch-count distribution by FFT convolution of lumped laws
# ---------------------------------------------------------------------------

# a switch-count law has at most this many knots, and for k_max = None counts
_MAX_KNOTS, _MAX_TERMS = 1 << 21, 10_000


def switch_count_distribution(plus: IntervalDistribution,
                              minus: IntervalDistribution,
                              delta: int, t: float,
                              k_max: int | None = None) -> np.ndarray:
    """P(N(t) = k | delta) for k = 0..k_max by the lumped-mass kernel.

    The k-th switch of a stationary path starting in state ``delta`` ends
    the integrated-tail delay of that state's holding law and k - 1
    holding times alternating from the other state's.  With the laws
    lumped on the knots 0..n of [0, t], 200 per shorter mean, each epoch is
    the last one convolved with a holding law by one real FFT, and
    P(N(t) >= k) is its :func:`numerics.lumped_cdf` at t.

    Counts stop once at most 1e-12 of the mass lies past them, and later
    ones up to ``k_max`` are 0; with ``k_max = None``, 10 000 counts that
    leave more raise :class:`NumericalError`, as does an epoch with over
    1e-12 of negative mass.  Entries are within O(step^2) for laws with
    densities; a CDF that jumps (``det:``) moves them by O(step / mean).
    The delay's cells are the differences of its exact ``delay_cdf``, so
    P(N(t) = 0) is 1 - ``delay_cdf(t)`` up to rounding, except within one
    step of a jump of the delay density (at c for ``det:c``), where it
    is off by at most step / (4 mean).  A horizon that is not
    finite and positive or needs over 2**21 knots, and a ``k_max`` outside
    the integers 0..10 000, are :class:`DomainError`.
    """
    if not (math.isfinite(t) and t > 0.0):
        raise DomainError(f"horizon must be finite and positive, got {t!r}")
    if delta not in (-1, 1):
        raise DomainError("delta must be +1 or -1")
    if k_max is not None and not (isinstance(k_max, (int, np.integer))
                                  and 0 <= k_max <= _MAX_TERMS):
        raise DomainError(f"k_max must be an integer in [0, {_MAX_TERMS}], got {k_max!r}")
    step = min(plus.mean, minus.mean) / 200.0
    if not t / step <= _MAX_KNOTS:
        raise DomainError(f"horizon {t!r} is too long: it needs {t / step:.3g} knots "
                          f"of {step:g}, more than {_MAX_KNOTS}")
    current, other = (plus, minus) if delta == 1 else (minus, plus)
    n = max(4, math.ceil(t / step))
    x = np.arange(n + 2) * (t / n)      # the knots 0..n + 1
    size = next_fast_len(2 * (n + 1), real=True)
    # the holding time that ends an epoch of even rank follows the other state's law
    hats = [np.fft.rfft(lump_cells(np.diff(f(x)), n + 1), size)
            for f in (other.cdf, current.cdf)]
    masses = lump_cells(np.diff(current.delay_cdf(x)), n + 1)
    # reached: P(N(t) >= k); the delay's lumped CDF can round one ulp past 1
    probs = [1.0 - (reached := min(lumped_cdf(masses, n), 1.0))]
    while reached > 1e-12 and len(probs) <= (_MAX_TERMS if k_max is None else k_max):
        masses = np.fft.irfft(np.fft.rfft(masses, size) * hats[(len(probs) - 1) % 2],
                              size)[:n + 1]
        if (negative := -masses[masses < 0.0].sum()) > NEGATIVE_MASS_TOL:
            raise NumericalError(f"switch {len(probs) + 1} has {negative:.2e} of "
                                 f"negative mass by t = {t:g}")
        probs.append(reached - (reached := lumped_cdf(masses, n)))
    if k_max is None and reached > 1e-12:
        raise NumericalError(f"{reached:.2e} of the switch-count mass lies past "
                             f"{_MAX_TERMS} switches")
    return np.pad(probs, (0, 0 if k_max is None else k_max + 1 - len(probs)))


# ---------------------------------------------------------------------------
# Monte Carlo characteristic estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CharacteristicEstimate:
    """Pointwise Monte Carlo estimates of the switch-process curves."""

    grid: np.ndarray
    p_plus: np.ndarray
    p_minus: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    covariance: np.ndarray
    counts_plus: np.ndarray
    counts_minus: np.ndarray
    se_p_plus: np.ndarray
    se_p_minus: np.ndarray
    se_e_plus: np.ndarray
    se_e_minus: np.ndarray
    se_covariance: np.ndarray
    se_counts_plus: np.ndarray
    se_counts_minus: np.ndarray
    n_plus: int
    n_minus: int


def _mean_se(total, total_sq, n: int):
    """Mean and CLT standard error of ``n`` values from their sum and sum of squares."""
    if n == 0:
        z = np.full(np.shape(total), np.nan)
        return z, z
    mean = total / n
    if n == 1:
        return mean, np.zeros_like(mean)
    # the floor only absorbs the rounding of a variance that is exactly zero
    return mean, np.sqrt(np.maximum(total_sq - total * mean, 0.0) / ((n - 1) * n))


def estimate_characteristics(paths: SwitchPaths, grid) -> CharacteristicEstimate:
    """Empirical means and CLT standard errors for the process curves.

    Splits the paths by initial state to estimate P_delta, E_delta and
    the mean switch counts, and uses the products D(0) D(t) across all
    paths for the covariance.

    Each curve is a mean over paths of a function of D(0) and of the
    switch count N(t), so the paths enter only through ``at_least[g, j,
    k]``: the number of paths starting in state g (+1, then -1) with at
    least k + 1 switches by grid time t_j.  The switch of rank k of a
    path counts there from the first grid time at or after it on, so the
    table is one bincount of the switches and a running sum over the
    sorted grid.  Summing by parts, the sums over a group of N, N^2 and
    N mod 2 weight the table by 1, 2k + 1 and (-1)^k.  A grid time outside
    the paths' ``[0, horizon]``, or NaN, is a :class:`DomainError`.
    """
    delta = paths.initial_states
    n = len(delta)
    if n < 2:
        raise DomainError("need at least two paths")
    t = np.asarray(grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise DomainError("grid must be a 1-d array with at least one time")
    _check_times(t, paths.horizon, "grid times")
    m, k_max = len(t), paths.epochs.shape[1]
    order = np.argsort(t)
    rows, rank = np.nonzero(paths.epochs <= t[order[-1]])
    slot = np.searchsorted(t[order], paths.epochs[rows, rank], side="left")
    key = ((delta[rows] < 0) * m + slot) * k_max + rank
    placed = np.bincount(key, minlength=2 * m * k_max).reshape(2, m, k_max)
    at_least = np.cumsum(placed, axis=1)[:, np.argsort(order)]
    k = np.arange(k_max)
    n_sum, n_sq_sum, odd = (at_least @ w for w in (np.ones(k_max), 2.0 * k + 1.0,
                                                     (-1.0) ** k))
    sizes = [int(np.count_nonzero(delta > 0)), int(np.count_nonzero(delta < 0))]
    up = np.stack([sizes[0] - odd[0], odd[1]])          # paths with D(t) = +1
    d_sum = 2.0 * up - np.array(sizes)[:, None]         # sums of D(t); D^2 = 1
    (e_plus, se_e_plus), (e_minus, se_e_minus) = (
        _mean_se(d_sum[g], sizes[g], sizes[g]) for g in (0, 1))
    (p_plus, se_p_plus), (p_minus, se_p_minus) = (
        _mean_se(up[g], up[g], sizes[g]) for g in (0, 1))
    (counts_plus, se_counts_plus), (counts_minus, se_counts_minus) = (
        _mean_se(n_sum[g], n_sq_sum[g], sizes[g]) for g in (0, 1))

    # x = (D(t) - mean D(t)) (D(0) - mean D(0)) over all paths
    d_bar = d_sum.sum(axis=0) / n
    delta_bar = (sizes[0] - sizes[1]) / n
    x_sum = d_sum[0] - d_sum[1] - n * d_bar * delta_bar
    x_sq_sum = sum((sign - delta_bar) ** 2 * (size - 2.0 * d_bar * d + size * d_bar ** 2)
                   for sign, size, d in zip((1.0, -1.0), sizes, d_sum))
    cov, se_cov = _mean_se(x_sum, x_sq_sum, n)

    return CharacteristicEstimate(
        grid=t,
        p_plus=p_plus, p_minus=p_minus,
        e_plus=e_plus, e_minus=e_minus,
        covariance=cov,
        counts_plus=counts_plus, counts_minus=counts_minus,
        se_p_plus=se_p_plus, se_p_minus=se_p_minus,
        se_e_plus=se_e_plus, se_e_minus=se_e_minus,
        se_covariance=se_cov,
        se_counts_plus=se_counts_plus, se_counts_minus=se_counts_minus,
        n_plus=sizes[0], n_minus=sizes[1],
    )


def laplace_E_prime(plus: IntervalDistribution, minus: IntervalDistribution,
                    delta: int) -> Callable:
    """L(E_delta') as a function of s, via the initial-value shift."""
    e0 = float(delta)
    return lambda s: s * laplace_E_delta(plus, minus, delta, s) - e0
