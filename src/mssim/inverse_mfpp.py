"""Right-continuous inverse of the jump path, the homogeneous Poisson
process, and their composition into the time-changed counting process."""

import numpy as np

from .ppp import poisson_points


def sample_poisson_path(stream, rate, horizon):
    """Ascending arrival times of a rate-``rate`` homogeneous Poisson
    process on [0, horizon]."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    return np.sort(poisson_points(stream, 0.0, horizon, rate * horizon))


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
