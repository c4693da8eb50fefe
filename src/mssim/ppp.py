"""Truncated sampling of the driving Poisson point process.

The process has intensity beta(t) * x**(-beta(t)-1) dt dx on
[0, T] x (0, inf), which is infinite near x = 0, so every sample excludes
the smallest jumps.  Two independent constructions are provided and
cross-validate each other:

  stationary:  unit-rate points (t, u) on [0, T] x (0, M] mapped through
               (t, u) -> (t, u**(-1/beta(t)))
  threshold:   only jumps of size >= eps, times from the non-homogeneous
               rate eps**(-beta(t)) by rejection under the constant
               envelope eps**(-sup beta), sizes conditional Pareto

``poisson_points`` draws the unsorted points of a homogeneous Poisson
process on a window, for the stationary construction and for the Poisson
clock of the counting process.

Sampling is planned once and then only draws: ``plan_block`` fixes a time
window, its truncation and the expected point count (a quadrature under the
threshold mode) below ``MAX_POINTS``, and the samplers take that ``Block``.
``sample_pattern`` dispatches on the truncation mode, and ``solve_truncation``
picks the truncation that meets a mass budget.  ``small_jump_mass_window``
reports the expected total mass of the excluded jumps, so truncation bias
can be budgeted analytically.
"""

from dataclasses import dataclass
import math

import numpy as np

from .quadrature import bisect, integrate

TRUNCATION_MODES = ("stationary", "threshold")

# expected points one replication may draw; the pinned configurations stay
# below 3e5, and numpy's Poisson sampler fails near 1e19
MAX_POINTS = 1e7


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
    """A truncated realization: jump times in [0, horizon] and positive sizes."""

    times: np.ndarray
    sizes: np.ndarray
    horizon: float


@dataclass(frozen=True)
class Block:
    """A planned sampling window [t0, t1] under one truncation, with the
    expected number of retained jumps and the supremum of beta over the
    window; built by ``plan_block``."""

    t0: float
    t1: float
    trunc: Truncation
    mean_count: float
    sup_beta: float


def plan_block(idx, t0, t1, trunc):
    """The ``Block`` on [t0, t1], a non-empty window inside [0, horizon];
    its mean count is ``expected_count_window``.  A ValueError rejects, before
    anything is drawn, a block whose ``drawn_count`` exceeds ``MAX_POINTS``;
    under threshold truncation that is the envelope count, which bounds the
    rejection candidates to within the factor two of the batch rule."""
    if not (np.isfinite(t0) and np.isfinite(t1)
            and 0.0 <= t0 < t1 <= idx.horizon * (1.0 + 1e-12)):
        raise ValueError(f"the window [{t0}, {t1}] must be non-empty and lie in "
                         f"[0, horizon={idx.horizon}]")
    t0, t1 = float(t0), min(float(t1), idx.horizon)
    blk = Block(t0, t1, trunc, expected_count_window(idx, t0, t1, trunc),
                idx.bounds_on(t0, t1)[1])
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


def poisson_points(stream, t0, t1, mean):
    """The points of a homogeneous Poisson process on [t0, t1] with ``mean``
    expected points, unsorted: a Poisson(mean) count of uniform times."""
    return t0 + (t1 - t0) * stream.uniform(stream.poisson(mean))


def sample_stationary(stream, blk, idx):
    """Sample a stationary-truncation block with level cutoff M.

    K ~ Poisson(mean count) points uniform on [t0, t1] x (0, M] are mapped
    through u -> u**(-1/beta(t)); the image has exactly the target intensity
    restricted to the retained region x >= M**(-1/beta(t))."""
    t = poisson_points(stream, blk.t0, blk.t1, blk.mean_count)
    u = blk.trunc.parameter * stream.uniform(len(t))
    beta = idx.evaluate_many(t)
    x = u ** (-1.0 / beta)
    return PointPattern(t, x, blk.t1)


def sample_pattern(stream, blk, idx):
    """Sample a block under either truncation mode."""
    if blk.trunc.mode == "stationary":
        return sample_stationary(stream, blk, idx)
    return sample_threshold(stream, blk, idx)


def sample_threshold(stream, blk, idx):
    """Sample all jumps of size >= eps of a threshold-truncation block.

    The jump count is Poisson with the block's mean count
    Lambda = int_t0^t1 eps**(-beta(s)) ds; times follow the density
    eps**(-beta(t))/Lambda via rejection under the constant envelope
    eps**(-beta_sup); sizes are conditional Pareto, x = eps * U**(-1/beta(t))."""
    eps = blk.trunc.parameter
    k = stream.poisson(blk.mean_count)
    t = sample_threshold_times(stream, idx, blk, k)
    beta = idx.evaluate_many(t)
    x = eps * stream.uniform(k) ** (-1.0 / beta)
    return PointPattern(t, x, blk.t1)


def envelope_count(blk):
    """Mean number of candidates threshold sampling needs on a block: the
    constant envelope rate eps**(-sup beta) over its window.  It bounds the
    mean count int_t0^t1 eps**(-beta(s)) ds, which it exceeds by the inverse
    of the acceptance rate."""
    return (blk.t1 - blk.t0) * blk.trunc.parameter ** -blk.sup_beta


def sample_threshold_times(stream, idx, blk, count):
    """``count`` jump times on the threshold block's window [t0, t1] with
    density proportional to eps**(-beta(t)).

    Rejection against the constant envelope eps**(-sup beta) over the window;
    the envelope dominates exactly because the block's supremum is exact."""
    t0, t1, eps, sup = blk.t0, blk.t1, blk.trunc.parameter, blk.sup_beta
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
        return integrate(f, t0, t1, points=idx.critical_points(t0, t1))
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
    return integrate(lambda s: eps ** (-idx.evaluate(s)), t0, t1,
                     points=idx.critical_points(t0, t1))


def solve_truncation(idx, T, mode, mass_budget, t0=0.0, max_count=math.inf):
    """The ``Truncation`` of ``mode`` whose excluded mass on [t0, T] equals
    ``mass_budget``.  A finite ``max_count`` caps the expected point count:
    where it is exceeded, the parameter moves to where the count equals
    ``max_count``, which excludes more mass.

    Bisection on the log10 p of eps in (1e-300, 1) or of M in [1e-6, 1e300],
    to a 1e-12 bracket that lands within the target; the mass rises in eps
    and falls in M, the count the other way.  Where the whole bracket is
    within the target, its end with the largest integral is returned."""
    if mass_budget <= 0:
        raise ValueError(f"mass budget must be positive, got {mass_budget}")
    lo, hi = (-300.0, -1e-9) if mode == "threshold" else (-6.0, 300.0)

    def solve(window_integral, target, rises):
        def at(p):
            return window_integral(idx, t0, T, Truncation(mode, 10.0**p))

        edge = hi if rises else lo
        if at(edge) <= target:
            return 10.0**edge
        a, b = bisect(lambda p: (at(p) > target) != rises, lo, hi, lambda a, b: b - a < 1e-12)
        return 10.0 ** (a if rises else b)

    p = solve(small_jump_mass_window, mass_budget, mode == "threshold")
    if max_count < math.inf and expected_count_window(idx, t0, T, Truncation(mode, p)) > max_count:
        p = solve(expected_count_window, max_count, mode != "threshold")
    return Truncation(mode, p)
