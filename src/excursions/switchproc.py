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

The two tabulations of the stationary delay import
``scipy.integrate`` on first use, so that CLI runs that never simulate
a switch process do not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammainc

from .errors import DomainError, NumericalError
from .numerics import (Grid, LaplaceEvaluable, fit_exponential_tail,
                       inverse_cdf_sample, spawn_seeds)

__all__ = [
    "IntervalDistribution",
    "SwitchPath",
    "CharacteristicEstimate",
    "exponential_interval",
    "erlang_interval",
    "deterministic_interval",
    "interval_from_spec",
    "simulate_switch",
    "simulate_stationary_switch",
    "simulate_switch_paths",
    "laplace_P_delta",
    "laplace_E_delta",
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
    """One switching-time law: sampler, CDF, optional density, mean, Psi."""

    name: str
    mean: float
    psi: Callable
    cdf: Callable
    sampler: Callable
    pdf: Callable | None = None

    def __post_init__(self):
        if not (self.mean > 0.0 and math.isfinite(self.mean)):
            raise DomainError("interval mean must be positive and finite")


def exponential_interval(rate: float) -> IntervalDistribution:
    """Exponential holding times; yields the telegraph process."""
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    lam = float(rate)
    return IntervalDistribution(
        name=f"exp:{lam:g}",
        mean=1.0 / lam,
        psi=lambda s: lam / (lam + s),
        cdf=lambda t: -np.expm1(-lam * np.maximum(t, 0.0)),
        pdf=lambda t: lam * np.exp(-lam * np.maximum(t, 0.0)),
        sampler=lambda rng, size=None: rng.exponential(1.0 / lam, size=size),
    )


def erlang_interval(shape: int, rate: float) -> IntervalDistribution:
    """Erlang holding times (sum of ``shape`` exponentials)."""
    if not (isinstance(shape, (int, np.integer)) and shape >= 1):
        raise DomainError(f"shape must be a positive integer, got {shape!r}")
    if not rate > 0.0:
        raise DomainError(f"rate must be positive, got {rate}")
    k, lam = int(shape), float(rate)
    return IntervalDistribution(
        name=f"erlang:{k}:{lam:g}",
        mean=k / lam,
        psi=lambda s: (lam / (lam + s)) ** k,
        cdf=lambda t: gammainc(k, lam * np.maximum(t, 0.0)),
        pdf=lambda t: lam * np.exp(
            -lam * np.maximum(t, 0.0) + (k - 1) * np.log(lam * np.maximum(t, 1e-300))
            - math.lgamma(k)),
        sampler=lambda rng, size=None: rng.gamma(k, 1.0 / lam, size=size),
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
        pdf=None,
        sampler=lambda rng, size=None: (c if size is None
                                        else np.full(size, c)),
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

@dataclass(frozen=True, eq=False)
class SwitchPath:
    """A simulated switch path: initial state and switch epochs <= horizon."""

    initial_state: int
    switch_epochs: np.ndarray
    horizon: float
    stationary_delay: float | None = None

    def state_at(self, times):
        """State of the path at the given times (right-continuous)."""
        n = np.searchsorted(self.switch_epochs, np.asarray(times, dtype=float),
                            side="right")
        return self.initial_state * (-1) ** (n % 2)

    def count_at(self, times):
        """Number of switches in (0, t] for each requested t."""
        return np.searchsorted(self.switch_epochs, np.asarray(times, dtype=float),
                               side="right")


def _alternating_epochs(first: IntervalDistribution, second: IntervalDistribution,
                        start: float, horizon: float, rng) -> np.ndarray:
    """Cumulative switch times from ``start``, alternating first/second draws."""
    mean_pair = first.mean + second.mean
    epochs = []
    total = start
    need = max(8, int(2.2 * (horizon - start) / mean_pair) + 4)
    toggle = 0
    pools = [first.sampler(rng, need), second.sampler(rng, need)]
    idx = [0, 0]
    while total <= horizon:
        if idx[toggle] >= len(pools[toggle]):
            pools[toggle] = np.asarray(
                [first, second][toggle].sampler(rng, need))
            idx[toggle] = 0
        total += float(pools[toggle][idx[toggle]])
        idx[toggle] += 1
        toggle ^= 1
        if total <= horizon:
            epochs.append(total)
    return np.asarray(epochs)


def simulate_switch(plus: IntervalDistribution, minus: IntervalDistribution,
                    p0: float, horizon: float, seed) -> SwitchPath:
    """Simulate a switch path pinned to start at the origin.

    The initial state is +1 with probability ``p0``; holding times then
    alternate between the state-matched distributions until the horizon.
    """
    if not horizon > 0.0:
        raise DomainError("horizon must be positive")
    if not 0.0 <= p0 <= 1.0:
        raise DomainError("p0 must be a probability")
    rng = np.random.default_rng(seed)
    delta = 1 if rng.random() < p0 else -1
    first, second = (plus, minus) if delta == 1 else (minus, plus)
    epochs = _alternating_epochs(first, second, 0.0, horizon, rng)
    return SwitchPath(initial_state=delta, switch_epochs=epochs, horizon=horizon)


@lru_cache(maxsize=32)
def _delay_inverse(dist: IntervalDistribution) -> tuple[Grid, float]:
    """Tabulated CDF of the integrated-tail (stationary delay) law.

    The delay density is ``(1 - F(t)) / mean``; its CDF is accumulated
    by cumulative trapezoid on a grid resolving the mean with 200
    points, extended until the underlying CDF is within 1e-9 of one.
    Returns the grid plus a fitted exponential tail rate for
    extrapolation.
    """
    from scipy.integrate import cumulative_trapezoid

    t_hi = 20.0 * dist.mean
    for _ in range(40):
        if float(dist.cdf(t_hi)) >= 1.0 - 1e-9:
            break
        t_hi *= 2.0
    step = dist.mean / 200.0
    n = int(math.ceil(t_hi / step))
    t = np.linspace(0.0, t_hi, n + 1)
    survival = 1.0 - np.asarray(dist.cdf(t), dtype=float)
    delay_cdf = np.concatenate(
        ([0.0], cumulative_trapezoid(survival, t))) / dist.mean
    delay_cdf = np.minimum(np.maximum.accumulate(delay_cdf), 1.0)
    tail_grid = Grid(points=t, values=np.maximum(1.0 - delay_cdf, 0.0))
    tail = fit_exponential_tail(tail_grid)
    return Grid(points=t, values=delay_cdf), tail.rate


def simulate_stationary_switch(plus: IntervalDistribution,
                               minus: IntervalDistribution,
                               horizon: float, seed) -> SwitchPath:
    """Simulate a stationary switch path on [0, horizon].

    The initial state is +1 with probability ``mu+ / (mu+ + mu-)``; the
    first switch happens after a delay drawn from the integrated-tail
    density ``(1 - F_delta(t)) / mu_delta`` by inverse-CDF sampling, and
    subsequent holding times alternate as in the pinned process.
    """
    if not horizon > 0.0:
        raise DomainError("horizon must be positive")
    rng = np.random.default_rng(seed)
    p_plus = plus.mean / (plus.mean + minus.mean)
    delta = 1 if rng.random() < p_plus else -1
    current = plus if delta == 1 else minus
    delay_cdf, tail_rate = _delay_inverse(current)
    delay = float(inverse_cdf_sample(delay_cdf, tail_rate, rng.random()))
    if delay > horizon:
        epochs = np.empty(0)
    else:
        first, second = (minus, plus) if delta == 1 else (plus, minus)
        later = _alternating_epochs(first, second, delay, horizon, rng)
        epochs = np.concatenate(([delay], later))
    return SwitchPath(initial_state=delta, switch_epochs=epochs,
                      horizon=horizon, stationary_delay=delay)


def simulate_switch_paths(plus: IntervalDistribution, minus: IntervalDistribution,
                          n_paths: int, horizon: float, seed,
                          stationary: bool = False, p0: float = 0.5) -> list[SwitchPath]:
    """Batch of independent paths with per-path seeds spawned from ``seed``."""
    if n_paths < 1:
        raise DomainError("n_paths must be positive")
    seeds = spawn_seeds(seed, n_paths)
    if stationary:
        return [simulate_stationary_switch(plus, minus, horizon, s) for s in seeds]
    return [simulate_switch(plus, minus, p0, horizon, s) for s in seeds]


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

    The inputs are evaluables of L(E+') and L(E-'), normally obtained
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
# switch-count distribution by numerical convolution
# ---------------------------------------------------------------------------

def _density_on_grid(dist: IntervalDistribution, t: np.ndarray) -> np.ndarray:
    if dist.pdf is not None:
        return np.asarray(dist.pdf(t), dtype=float)
    # central differences of the CDF; one-sided at the ends
    f = np.asarray(dist.cdf(t), dtype=float)
    g = np.gradient(f, t)
    return np.maximum(g, 0.0)


def _convolve_cdf_density(h: np.ndarray, g: np.ndarray, step: float) -> np.ndarray:
    # (H * G)(x_i) = int_0^{x_i} H(x_i - y) g(y) dy by trapezoid rule
    full = np.convolve(h, g)[:len(h)] * step
    return full - 0.5 * step * (h * g[0] + h[0] * g)


def switch_count_distribution(plus: IntervalDistribution,
                              minus: IntervalDistribution,
                              delta: int, t: float,
                              k_max: int | None = None) -> np.ndarray:
    """P(N(t) = k | delta) for k = 0..k_max via grid convolutions.

    The stationary delay enters as the integrated-tail CDF of the
    initial state's holding time; holding-time convolutions use the
    trapezoid rule on a uniform grid with at least 200 points per mean
    interval.  Iteration continues until the remaining mass is
    negligible (or ``k_max`` is reached); if the total recovered mass
    deviates from one by more than 1e-3 the grid resolution is deemed
    insufficient and :class:`NumericalError` is raised.
    """
    from scipy.integrate import cumulative_trapezoid

    if not t > 0.0:
        raise DomainError("time must be positive")
    if delta not in (-1, 1):
        raise DomainError("delta must be +1 or -1")
    current = plus if delta == 1 else minus
    other = minus if delta == 1 else plus

    step = min(plus.mean, minus.mean) / 200.0
    n = max(4, int(math.ceil(t / step)))
    x = np.linspace(0.0, t, n + 1)
    hh = x[1] - x[0]

    survival = 1.0 - np.asarray(current.cdf(x), dtype=float)
    delay_cdf = np.concatenate(
        ([0.0], cumulative_trapezoid(survival, x))) / current.mean
    delay_cdf = np.minimum(delay_cdf, 1.0)

    g_other = _density_on_grid(other, x)
    g_current = _density_on_grid(current, x)

    probs = [1.0 - delay_cdf[-1]]
    d_l = delay_cdf
    # alternation after the delay starts with the opposite state's law
    hard_cap = 10_000 if k_max is None else k_max
    while len(probs) <= hard_cap:
        e_l = _convolve_cdf_density(d_l, g_other, hh)
        probs.append(max(0.0, d_l[-1] - e_l[-1]))        # odd k
        d_next = _convolve_cdf_density(e_l, g_current, hh)
        probs.append(max(0.0, e_l[-1] - d_next[-1]))     # even k
        d_l = d_next
        if k_max is None and d_l[-1] < 1e-12:
            break
    total = math.fsum(probs)
    if k_max is None and abs(total - 1.0) > 1e-3:
        raise NumericalError(
            f"switch-count mass {total:.6f} deviates from one; grid too coarse")
    return np.asarray(probs if k_max is None else probs[:k_max + 1])


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


def estimate_characteristics(paths: list[SwitchPath], grid) -> CharacteristicEstimate:
    """Empirical means and CLT standard errors for the process curves.

    Splits the paths by initial state to estimate P_delta, E_delta and
    the mean switch counts, and uses the products D(0) D(t) across all
    paths for the covariance.
    """
    if len(paths) < 2:
        raise DomainError("need at least two paths")
    t = np.asarray(grid, dtype=float)
    states = np.stack([p.state_at(t) for p in paths]).astype(float)
    counts = np.stack([p.count_at(t) for p in paths]).astype(float)
    delta = np.asarray([p.initial_state for p in paths], dtype=float)

    def _mean_se(mat):
        n = mat.shape[0]
        if n == 0:
            z = np.full(t.shape, np.nan)
            return z, z
        mean = mat.mean(axis=0)
        se = mat.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
        return mean, se

    plus_mask = delta > 0
    e_plus, se_e_plus = _mean_se(states[plus_mask])
    e_minus, se_e_minus = _mean_se(states[~plus_mask])
    ind_plus = (states > 0).astype(float)
    p_plus, se_p_plus = _mean_se(ind_plus[plus_mask])
    p_minus, se_p_minus = _mean_se(ind_plus[~plus_mask])
    counts_plus, se_counts_plus = _mean_se(counts[plus_mask])
    counts_minus, se_counts_minus = _mean_se(counts[~plus_mask])

    centered = (states - states.mean(axis=0)) * (delta - delta.mean())[:, None]
    cov = centered.mean(axis=0)
    se_cov = centered.std(axis=0, ddof=1) / math.sqrt(len(paths))

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
        n_plus=int(plus_mask.sum()), n_minus=int((~plus_mask).sum()),
    )


def laplace_E_prime(plus: IntervalDistribution, minus: IntervalDistribution,
                    delta: int) -> LaplaceEvaluable:
    """L(E_delta') as an evaluable, via the initial-value shift."""
    e0 = float(delta)

    def closed(s):
        return s * laplace_E_delta(plus, minus, delta, s) - e0

    return LaplaceEvaluable(closed_form=closed)
