"""Right-continuous inverse of the jump path, the homogeneous Poisson
process, and their composition into the time-changed counting process."""

import numpy as np

from . import rng


def sample_poisson_path(stream, rate, horizon):
    """Ascending arrival times of a rate-``rate`` homogeneous Poisson
    process on [0, horizon]: a Poisson(rate * horizon) count of uniform times."""
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    return np.sort(horizon * _unit_arrivals(stream, rate * horizon)[0])


def time_changed_counts(streams, rate, horizon, e):
    """X = N(e) at each operational time of row i of ``e`` (each at most
    ``horizon``) for a rate-``rate`` Poisson process on [0, horizon] drawn
    from the i-th stream of the ``rng.Streams`` batch ``streams``.

    Each stream draws what ``sample_poisson_path`` draws from it, through
    ``rng.draw_joined`` with the mean checked once, and its arrivals are
    left unsorted: a count is one comparison of the joined arrivals with
    their stream's times, summed by stream."""
    mean = rate * horizon
    rng.check_mean(mean)
    u, counts = rng.draw_joined(streams, _unit_arrivals, mean)
    owner = np.repeat(np.arange(len(streams)), counts)
    hits = horizon * u[:, None] <= e[owner]
    return np.stack([np.bincount(owner, weights=h, minlength=len(streams)) for h in hits.T],
                    axis=1)


def _unit_arrivals(stream, mean):
    """A Poisson(``mean``) count K of uniform arrivals on [0, 1], and K."""
    k = stream.poisson(mean)
    return stream.uniform(k), k


def first_passage(times, prefix, levels, start=0.0, drift=0.0, t0=0.0, t1=np.inf):
    """E(r) = inf{t : D(t) >= r} at each level r, for the path D that is
    ``start`` at ``t0``, rises by ``drift`` per unit time, and jumps at the
    ascending ``times`` to the ascending jump sums ``prefix`` (which count
    from ``start`` and leave out the drift); by default a step path from 0.

    r is reached at the first jump whose value reaches it, found by binary
    search, or earlier, by drift, on the line from the jump sum before that
    jump.  Past the last jump only the drift reaches r, by ``t1`` at the
    latest: the time is capped there, so a caller passes the levels its path
    reaches by its end.  A level at or below ``start`` gives ``t0``, and a
    level that a path without drift never reaches gives NaN."""
    levels = np.asarray(levels, dtype=float)
    after = prefix + drift * (times - t0) if drift > 0 else prefix
    j = np.searchsorted(after, levels, side="left")
    inside = j < len(times)
    e = np.full(levels.shape, t1 if drift > 0 else np.nan)
    e[inside] = times[j[inside]]
    if drift > 0:
        e = np.minimum(e, t0 + (levels - np.append(start, prefix)[j]) / drift)
    e[levels <= start] = t0
    return e


def time_changed_count(arrivals, e):
    """X = N(e), the number of arrivals at or before each operational time e.

    NaN times (levels the clock never reached) stay NaN."""
    e = np.asarray(e, dtype=float)
    x = np.full(e.shape, np.nan)
    have = ~np.isnan(e)
    x[have] = np.searchsorted(arrivals, e[have], side="right")
    return x
