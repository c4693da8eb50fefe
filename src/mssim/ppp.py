"""Truncated sampling of the driving Poisson point process.

The process has intensity beta(t) * x**(-beta(t)-1) dt dx on
[0, T] x (0, inf), which is infinite near x = 0, so every sample excludes
the smallest jumps.  Two independent constructions are provided and
cross-validate each other:

  stationary:  unit-rate points (t, u) on [0, T] x (0, M] mapped through
               (t, u) -> (t, u**(-1/beta(t)))
  threshold:   only jumps of size >= eps; times from the non-homogeneous
               rate eps**(-beta(t)) by one-pass thinning of the constant
               envelope eps**(-sup beta), sizes conditional Pareto

Sampling is planned once and then only draws: ``plan_block`` fixes a time
window, its truncation and the expected point count (a quadrature under the
threshold mode) below ``MAX_POINTS``, and ``sample_pattern``, the one
pattern draw, takes that ``Block`` and the streams of its replications,
one each.  Each stream draws its own unit points with one ``uniform``
call; the maps onto the window, the index and the point transforms
``stationary_sizes``, ``thinned`` and ``threshold_sizes`` run once over all
of them.  ``solve_truncation`` picks the truncation that meets a budget.
``small_jump_mass_window`` and ``small_jump_variance_window`` report the
expected total mass of the excluded jumps and its variance, so truncation
error can be budgeted analytically.

A pure-jump block has zero drift, so its path is a step path; it budgets
the excluded mass, which biases the path low.  A compensated block (Asmussen
& Rosinski 2001) adds that mass back as a drift, one value per equal time
bin, and budgets the sd of the excluded jumps instead; its error then has
mean zero, and its point count stays bounded as the index approaches 1.
"""

from dataclasses import dataclass
import math
from typing import NamedTuple

import numpy as np

from . import rng
from .quadrature import integrate

TRUNCATION_MODES = ("stationary", "threshold")

# expected points one replication may draw; the pinned configurations stay
# below 3e5, and numpy's Poisson sampler fails near 1e19
MAX_POINTS = 1e7

# steps a truncation solve may take (one that halves on every step, from a
# target of 0, closes in 50), and how far a converged secant step moves past
# its root, so that the next value closes the bracket
_ROOT_STEPS = 100
_PUSH = 5e-13


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
            raise ValueError(f"threshold eps must be in (0, 1), got {self.parameter} "
                             "(the rejection envelope inequality reverses at eps >= 1)")


class PointPattern(NamedTuple):
    """Truncated realizations of one or more streams, joined in stream
    order: unsorted jump times, positive sizes, and each stream's count of
    points (an int for the pattern of one stream)."""

    times: np.ndarray
    sizes: np.ndarray
    counts: np.ndarray


@dataclass(frozen=True)
class Block:
    """A planned sampling window [t0, t1] under one truncation, with the
    expected number of retained jumps and the supremum of beta over the
    window; built by ``plan_block``.  A compensated block's ``drift`` holds
    the excluded mass of each of its equal time bins, which its path adds
    back; a pure-jump block's is ``None``, read as zero drift."""

    t0: float
    t1: float
    trunc: Truncation
    mean_count: float
    sup_beta: float
    drift: np.ndarray = None


def plan_block(idx, t0, t1, trunc, bins=0):
    """The ``Block`` on [t0, t1], a non-empty window inside [0, horizon];
    its mean count is ``expected_count_window``.  With ``bins`` it is
    compensated, with the excluded mass of each of that many equal time bins
    as its drift.  A ValueError rejects, before anything is drawn, a block
    whose ``drawn_count`` exceeds ``MAX_POINTS``; under threshold truncation
    that is the envelope count, the mean number of thinning candidates."""
    if not (np.isfinite(t0) and np.isfinite(t1)
            and 0.0 <= t0 < t1 <= idx.horizon * (1.0 + 1e-12)):
        raise ValueError(f"the window [{t0}, {t1}] must be non-empty and lie in "
                         f"[0, horizon={idx.horizon}]")
    t0, t1 = float(t0), min(float(t1), idx.horizon)
    blk = Block(t0, t1, trunc, expected_count_window(idx, t0, t1, trunc),
                idx.bounds_on(t0, t1)[1],
                small_jump_mass_window(idx, t0, t1, trunc, bins) if bins else None)
    check_points(drawn_count(blk), t0, t1,
                 "the index is too close to 1 or the truncation level too high")
    return blk


def drawn_count(blk):
    """The points one replication draws on the block, in the mean: its mean
    count, or under threshold truncation its envelope count."""
    return envelope_count(blk) if blk.trunc.mode == "threshold" else blk.mean_count


def check_points(count, t0, t1, hint):
    """Reject, before anything is drawn, a replication that expects more than
    ``MAX_POINTS`` jumps, arrivals, cells, walk steps or grid rows on [t0, t1]."""
    if not count <= MAX_POINTS:
        raise ValueError(f"{count:.3g} points per replication expected on [{t0:g}, {t1:g}], "
                         f"above the cap of {MAX_POINTS:g}; {hint}")


def sample_pattern(streams, blk, idx):
    """The patterns of ``blk`` drawn from each of ``streams``, a list of
    streams or an ``rng.Streams`` batch, joined in stream order, with one
    index evaluation per drawn point.

    Each stream draws its Poisson count K, then in one call K unit times and
    K levels (``sample_stationary``) or K keep uniforms, and then the sizes
    of its kept points (``sample_threshold``).  The maps onto [t0, t1] and
    (0, M] run elementwise over the joined streams, so each stream's points
    are the floats it draws alone.  A stationary batch is drawn by
    ``rng.draw_joined``, one stream after another on one generator, with its
    mean checked once.  Every stream of a threshold list stays open."""
    if blk.trunc.mode != "stationary":
        return sample_threshold(list(streams), blk, idx)
    rng.check_mean(blk.mean_count)
    t, u, counts = rng.draw_joined(streams, sample_stationary, blk)
    t = blk.t0 + (blk.t1 - blk.t0) * t
    u *= blk.trunc.parameter
    return PointPattern(t, stationary_sizes(u, idx.evaluate_many(t)), counts)


def _unit_pattern(stream, mean):
    """A Poisson(``mean``) count K of points uniform on the unit square, from
    one ``uniform(2K)`` call: the K first coordinates, then the K second.  Its
    exact zeros are redrawn after all 2K, so against two calls of K a later
    draw lands elsewhere with probability 2**-53 a draw."""
    k = stream.poisson(mean)
    u = stream.uniform(2 * k)
    return PointPattern(u[:k], u[k:], k)


def sample_stationary(stream, blk):
    """One stream's stationary-truncation pattern on the unit square: K ~
    Poisson(mean count) times and their levels, which ``sample_pattern`` maps
    onto [t0, t1] x (0, M] and then the levels u to the sizes u**(-1/beta(t))."""
    return _unit_pattern(stream, blk.mean_count)


def stationary_sizes(u, beta):
    """The jump sizes u**(-1/beta) of stationary levels u at index values beta."""
    return u ** (-1.0 / beta)


def sample_threshold(streams, blk, idx):
    """The jumps of size >= eps of a threshold-truncation block, drawn from
    each of the list ``streams``: their times are ``sample_threshold_times``,
    and each stream then draws the ``threshold_sizes`` of its kept points."""
    t, beta, counts = sample_threshold_times(streams, idx, blk)
    u = np.concatenate([s.uniform(k) for s, k in zip(streams, counts.tolist())])
    return PointPattern(t, threshold_sizes(blk, u, beta), counts)


def threshold_sizes(blk, u, beta):
    """The conditional Pareto sizes eps * u**(-1/beta) of a threshold block's
    jumps, for uniforms u and the index values beta at their times."""
    return blk.trunc.parameter * u ** (-1.0 / beta)


def envelope_count(blk):
    """Mean number of candidates threshold sampling needs on a block: the
    constant envelope rate eps**(-sup beta) over its window.  It bounds the
    mean count int_t0^t1 eps**(-beta(s)) ds, which it exceeds by the inverse
    of the acceptance rate."""
    return (blk.t1 - blk.t0) * blk.trunc.parameter ** -blk.sup_beta


def sample_threshold_times(streams, idx, blk):
    """The unsorted jump times of a threshold block drawn from each of the
    list ``streams``, a Poisson process of rate eps**(-beta(t)) on its window
    [t0, t1], joined in stream order: the times, the index at each, and each
    stream's count.

    One-pass thinning (Lewis & Shedler 1979): each stream draws the points
    of the constant envelope rate eps**(-sup beta) and a keep uniform for
    each, in one ``uniform`` call; a candidate is kept with probability
    eps**(sup beta - beta(t)), so the kept count is Poisson with the block's
    mean count.  The exact supremum makes the envelope dominate."""
    t, keep, counts = rng.draw_joined(streams, _unit_pattern, envelope_count(blk))
    t = blk.t0 + (blk.t1 - blk.t0) * t
    beta = idx.evaluate_many(t)
    kept = np.flatnonzero(thinned(blk, keep, beta))
    return t[kept], beta[kept], np.diff(np.searchsorted(kept, np.cumsum(counts)), prepend=0)


def thinned(blk, keep, beta):
    """Which candidates of a threshold block one-pass thinning keeps: those
    whose keep uniform is below eps**(sup beta - beta), for the index values
    beta at their times."""
    return keep < blk.trunc.parameter ** (blk.sup_beta - beta)


def _excluded_moment(idx, t0, t1, trunc, k, bins=0):
    """The k-th moment measure of the jumps a truncated sample excludes in
    the time window [t0, t1]: the integral of beta/(k-beta) * c**(k-beta(s))
    for the cutoff c = eps, or c = M**(-1/beta(s)) under stationary
    truncation; with ``bins``, an array of its value on each of that many
    equal time bins of the window."""
    if t1 <= t0:
        return 0.0
    p = trunc.parameter

    if trunc.mode == "threshold":
        # eps**(k - beta) < 1 cannot overflow; an errstate here would cost a
        # threshold plan's many integrand calls about 4% of its set-up
        def f(s):
            b = idx.evaluate(s)
            return b / (k - b) * p ** (k - b)

    else:
        def f(s):
            b = idx.evaluate(s)
            with np.errstate(over="raise"):
                return b / (k - b) * p ** (1.0 - k / b)

    try:
        if bins:
            return integrate(f, t0, t1, points=t0 + (t1 - t0) / bins * np.arange(1, bins),
                             pieces=True)
        return integrate(f, t0, t1, points=idx.critical_points(t0, t1))
    except FloatingPointError:
        # M**(1 - k/beta) overflows for small M and a small index (below
        # about 0.02 for the mass): the moment is beyond the float range
        return np.full(bins, math.inf) if bins else math.inf


def small_jump_mass_window(idx, t0, t1, trunc, bins=0):
    """Expected total mass of the jumps a truncated sample excludes in the
    time window [t0, t1]; with ``bins``, an array of the mass in each of
    that many equal time bins of the window."""
    return _excluded_moment(idx, t0, t1, trunc, 1.0, bins)


def small_jump_variance_window(idx, t0, t1, trunc):
    """Variance of the total size of the jumps a truncated sample excludes
    in the time window [t0, t1], the integral of beta/(2-beta) *
    eps**(2-beta(s)), or of beta/(2-beta) * M**(-(2-beta(s))/beta(s)) under
    stationary truncation: the error of a compensated path, whose drift is
    their mean."""
    return _excluded_moment(idx, t0, t1, trunc, 2.0)


def expected_count_window(idx, t0, t1, trunc):
    """Expected number of retained jumps in the window; a cost estimate."""
    if t1 <= t0:
        return 0.0
    if trunc.mode == "stationary":
        return (t1 - t0) * trunc.parameter
    eps = trunc.parameter
    return integrate(lambda s: eps ** (-idx.evaluate(s)), t0, t1,
                     points=idx.critical_points(t0, t1))


def solve_truncation(idx, T, mode, budget, t0=0.0, max_count=math.inf, compensated=False):
    """The ``Truncation`` of ``mode`` whose excluded mass on [t0, T] equals
    ``budget``, or for a ``compensated`` block, whose excluded sd (the
    square root of ``small_jump_variance_window``) does.  A finite
    ``max_count`` caps the expected point count: where it is exceeded, the
    parameter moves to where the count equals ``max_count``, which excludes
    more.

    A guarded secant on the log10 p of eps in (1e-300, 1) or of M in
    [1e-6, 1e300], on which the log10 of the window integral is nearly
    linear; the mass and the variance rise in eps and fall in M, the count
    the other way.  It starts at the bracket end with the largest integral
    and one decade inside, and keeps the bracket of the values seen: a step
    that is not finite or leaves the bracket halves it, but the first past
    the far end goes to that end, and a converged step (below ``_PUSH``)
    moves ``_PUSH`` across the root.  A target of 0 (an sd whose square
    underflows) has no log and halves on the sign.  Where the bracket is
    narrower than 1e-12, its end within the target is returned: the far end
    where none of it is, and the end with the largest integral where all of
    it is.  A ValueError reports a bracket still open after ``_ROOT_STEPS``."""
    if budget <= 0:
        raise ValueError(f"truncation budget must be positive, got {budget}")
    lo, hi = (-300.0, -1e-9) if mode == "threshold" else (-6.0, 300.0)

    def solve(window_integral, target, rises):
        def at(p):
            return window_integral(idx, t0, T, Truncation(mode, 10.0**p))

        a, b = lo, hi  # the integral is above the target at b if it rises, else at a
        p0, far = (b, a) if rises else (a, b)
        v = at(p0)
        if v <= target:
            return 10.0**p0
        p = p0 - 1.0 if rises else p0 + 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            g0 = np.log10(v) - np.log10(target)
            for _ in range(_ROOT_STEPS):
                v = at(p)
                g = np.log10(v) - np.log10(target)
                a, b = (a, p) if (v > target) == rises else (p, b)
                if b - a < 1e-12:
                    return 10.0 ** (a if rises else b)
                step = g * (p - p0) / (g - g0) if np.isfinite(g - g0) else math.nan
                if abs(step) < _PUSH:
                    step -= _PUSH if p == a else -_PUSH
                q = p - step
                if far == (a if rises else b) and (q <= far if rises else q >= far):
                    q, far = far, None
                elif not a < q < b:
                    q = 0.5 * (a + b)
                p0, g0, p = p, g, float(q)
        raise ValueError(f"the truncation solve left its log10 bracket [{a}, {b}] open "
                         f"after {_ROOT_STEPS} steps")

    if compensated:
        # budget**2 raises an OverflowError past 1.3e154, and an inf target is met anywhere
        p = solve(small_jump_variance_window, budget * budget, mode == "threshold")
    else:
        p = solve(small_jump_mass_window, budget, mode == "threshold")
    if max_count < math.inf and expected_count_window(idx, t0, T, Truncation(mode, p)) > max_count:
        p = solve(expected_count_window, max_count, mode != "threshold")
    return Truncation(mode, p)
