"""Right-continuous inverse of the jump path, the homogeneous Poisson
process, and their composition into the time-changed counting process."""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PoissonPath:
    """Arrival times of a rate-lambda homogeneous Poisson process on [0, H]."""

    arrivals: np.ndarray
    rate: float
    horizon: float


def sample_poisson_path(stream, rate, horizon):
    """Arrivals as cumulative sums of Exp(rate) gaps, truncated at ``horizon``."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    if horizon == 0:
        return PoissonPath(np.empty(0), float(rate), 0.0)
    mean = rate * horizon
    block = max(16, int(mean + 6.0 * np.sqrt(mean) + 10))
    arrivals = np.cumsum(stream.exponential(rate, block))
    while arrivals[-1] <= horizon:
        more = np.cumsum(stream.exponential(rate, block)) + arrivals[-1]
        arrivals = np.concatenate((arrivals, more))
    return PoissonPath(arrivals[arrivals <= horizon], float(rate), float(horizon))


def first_passage(times, prefix, levels):
    """E(r) = inf{t : D(t) >= r} at each level r, for the step path that
    jumps to ``prefix[i]`` at ``times[i]`` (both ascending).

    The first jump whose prefix sum reaches r is found by binary search.
    Levels the path never reaches give NaN, and level 0 gives 0 (the
    infimum over {t : D(t) >= 0})."""
    levels = np.asarray(levels, dtype=float)
    pos = np.searchsorted(prefix, levels, side="left")
    reached = pos < len(prefix)
    e = np.full(levels.shape, np.nan)
    e[reached] = times[pos[reached]]
    e[levels == 0.0] = 0.0
    return e


def time_changed_count(arrivals, e):
    """X = N(e), the number of arrivals at or before each operational time e.

    NaN times (levels the clock never reached) stay NaN."""
    e = np.asarray(e, dtype=float)
    x = np.full(e.shape, np.nan)
    have = ~np.isnan(e)
    x[have] = np.searchsorted(arrivals, e[have], side="right")
    return x
