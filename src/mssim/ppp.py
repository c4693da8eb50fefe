"""Truncated sampling of the driving Poisson point process.

The process has intensity beta(t) * x**(-beta(t)-1) dt dx on
[0, T] x (0, inf), which is infinite near x = 0, so every sample excludes
the smallest jumps.  Two independent constructions are provided and
cross-validate each other:

  stationary:  unit-rate points (t, u) on [0, T] x (0, M] mapped through
               (t, u) -> (t, u**(-1/beta(t)))
  threshold:   only jumps of size >= eps, times from the non-homogeneous
               rate eps**(-beta(t)) by rejection, sizes conditional Pareto

``sample_pattern`` dispatches on the truncation mode, and
``solve_truncation`` picks the truncation that meets a mass budget.
``small_jump_mass_window`` reports the expected total mass of the excluded
jumps, so truncation bias can be budgeted analytically.
"""

from dataclasses import dataclass
import math

import numpy as np

from .quadrature import bisect, integrate

TRUNCATION_MODES = ("stationary", "threshold")


@dataclass(frozen=True)
class Truncation:
    mode: str  # "stationary" (parameter M) or "threshold" (parameter eps)
    parameter: float

    def __post_init__(self):
        if self.mode not in TRUNCATION_MODES:
            raise ValueError(f"unknown truncation mode {self.mode!r}")
        if not (np.isfinite(self.parameter) and self.parameter > 0):
            raise ValueError(f"truncation parameter must be positive, got {self.parameter}")
        if self.mode == "threshold" and self.parameter >= 1.0:
            raise ValueError(
                f"threshold eps must be in (0, 1), got {self.parameter} "
                "(the rejection envelope inequality reverses at eps >= 1)"
            )


@dataclass(frozen=True)
class PointPattern:
    """A truncated realization: jump times in [0, T] and positive sizes."""

    times: np.ndarray
    sizes: np.ndarray
    horizon: float
    truncation: Truncation


def _check_window(idx, T):
    if not (np.isfinite(T) and 0.0 <= T <= idx.horizon * (1.0 + 1e-12)):
        raise ValueError(f"T must lie in [0, horizon={idx.horizon}], got {T}")
    return min(float(T), idx.horizon)


def sample_stationary(stream, T, M, idx):
    """Sample via the stationary representation with level cutoff M.

    K ~ Poisson(T*M) points uniform on [0, T] x (0, M] are mapped through
    u -> u**(-1/beta(t)); the image has exactly the target intensity
    restricted to the retained region x >= M**(-1/beta(t))."""
    T = _check_window(idx, T)
    if not (np.isfinite(M) and M > 0):
        raise ValueError(f"M must be positive and finite, got {M}")
    k = stream.poisson(T * M)
    t = T * stream.uniform(k)
    u = M * stream.uniform(k)
    beta = idx.evaluate_many(t)
    x = u ** (-1.0 / beta)
    return PointPattern(t, x, T, Truncation("stationary", M))


def sample_pattern(stream, T, trunc, idx):
    """Sample on [0, T] under either truncation mode."""
    if trunc.mode == "stationary":
        return sample_stationary(stream, T, trunc.parameter, idx)
    return sample_threshold(stream, T, trunc.parameter, idx)


def sample_threshold(stream, T, eps, idx):
    """Sample all jumps of size >= eps on [0, T].

    The jump count is Poisson with mean Lambda = int_0^T eps**(-beta(s)) ds
    (computed by quadrature); times follow the density eps**(-beta(t))/Lambda
    via rejection under the constant envelope eps**(-beta_sup); sizes are
    conditional Pareto, x = eps * U**(-1/beta(t))."""
    T = _check_window(idx, T)
    trunc = Truncation("threshold", float(eps))
    lam = integrate(lambda s: eps ** (-idx.evaluate(s)), 0.0, T)
    k = stream.poisson(lam)
    t = sample_threshold_times(stream, idx, 0.0, T, eps, k)
    beta = idx.evaluate_many(t)
    x = eps * stream.uniform(k) ** (-1.0 / beta)
    return PointPattern(t, x, T, trunc)


def sample_threshold_times(stream, idx, t0, t1, eps, count):
    """``count`` jump times on [t0, t1] with density proportional to eps**(-beta(t)).

    Rejection against the constant envelope eps**(-sup beta) over the window;
    the envelope dominates exactly because the window supremum is exact."""
    if count == 0:
        return np.empty(0)
    _, sup = idx.bounds_on(t0, t1)
    out = np.empty(count)
    have = 0
    while have < count:
        batch = max(64, 2 * (count - have))
        cand = t0 + (t1 - t0) * stream.uniform(batch)
        accept = stream.uniform(batch) < eps ** (sup - idx.evaluate_many(cand))
        got = cand[accept]
        take = min(len(got), count - have)
        out[have : have + take] = got[:take]
        have += take
    return out


def small_jump_mass_window(idx, t0, t1, trunc):
    """Expected total mass of the jumps a truncated sample excludes in the
    time window [t0, t1]."""
    if t1 <= t0:
        return 0.0
    if trunc.mode == "threshold":
        eps = trunc.parameter

        def f(s):
            b = idx.evaluate(s)
            return b / (1.0 - b) * eps ** (1.0 - b)

    else:
        m = trunc.parameter

        def f(s):
            b = idx.evaluate(s)
            with np.errstate(over="raise"):
                return b / (1.0 - b) * m ** (1.0 - 1.0 / b)

    try:
        return integrate(f, t0, t1)
    except FloatingPointError:
        # M**(1 - 1/beta) overflows for small M and an index below about
        # 0.02: the excluded mass is beyond the float range
        return math.inf


def expected_count_window(idx, t0, t1, trunc):
    """Expected number of retained jumps in the window; a cost estimate."""
    if t1 <= t0:
        return 0.0
    if trunc.mode == "stationary":
        return (t1 - t0) * trunc.parameter
    eps = trunc.parameter
    return integrate(lambda s: eps ** (-idx.evaluate(s)), t0, t1)


def solve_truncation(idx, T, mode, mass_budget, t0=0.0):
    """The ``Truncation`` of ``mode`` whose excluded mass on [t0, T] equals
    ``mass_budget``.

    Bisection on the log of the parameter; the mass is monotone in it
    (increasing in eps, decreasing in M)."""
    if mass_budget <= 0:
        raise ValueError(f"mass budget must be positive, got {mass_budget}")

    def mass_at(logp):
        return small_jump_mass_window(idx, t0, T, Truncation(mode, 10.0**logp))

    if mode == "threshold":
        p = log_bisect(mass_at, mass_budget, -300.0, -1e-9, True)  # eps in (1e-300, 1)
    else:
        p = log_bisect(mass_at, mass_budget, -6.0, 300.0, False)
    return Truncation(mode, p)


def log_bisect(f, target, lo, hi, increasing):
    """10**p for the p in [lo, hi] where the monotone ``f`` crosses ``target``.

    ``increasing`` says whether f grows with p.  The result lands on the
    side with f(p) <= target, to a 1e-12 bracket in p; when f stays within
    the target on the whole bracket, the end where f is largest is returned."""
    edge = hi if increasing else lo
    if f(edge) <= target:
        return 10.0**edge
    lo, hi = bisect(lambda p: (f(p) > target) != increasing, lo, hi,
                    lambda lo, hi: hi - lo < 1e-12)
    return 10.0 ** (lo if increasing else hi)
