"""The increasing pure-jump process built from a point pattern, and its
closed-form Laplace transform used as the Monte Carlo oracle."""

from dataclasses import dataclass
import math

import numpy as np

from .quadrature import integrate


@dataclass(frozen=True)
class JumpPath:
    """A truncated path on [0, T]: sorted jump times, sizes, prefix sums.

    ``prefix[i]`` is the path value at ``times[i]``; the path is a
    right-continuous step function that is 0 before the first jump.
    """

    times: np.ndarray
    sizes: np.ndarray
    prefix: np.ndarray
    horizon: float

    @property
    def total(self):
        return float(self.prefix[-1]) if len(self.prefix) else 0.0


def build_path(pattern):
    """Sort a point pattern by time and accumulate prefix sums.

    Coincident times (a probability-zero event that floating point can
    still produce) are merged into one jump carrying the summed size, so
    times stay strictly increasing and binary search is well defined.
    Summation order is fixed ascending in time for reproducibility.
    """
    order = np.argsort(pattern.times, kind="stable")
    t = np.asarray(pattern.times, dtype=float)[order]
    s = np.asarray(pattern.sizes, dtype=float)[order]
    if len(t) > 1 and (np.diff(t) == 0.0).any():
        t, inverse = np.unique(t, return_inverse=True)
        s = np.bincount(inverse, weights=s)
    return JumpPath(t, s, np.cumsum(s), pattern.horizon)


def eval_many(path, ts):
    """Path values at the times ``ts``: the prefix sum at the last jump time
    <= t, or 0 before the first jump."""
    ts = np.asarray(ts, dtype=float)
    if len(ts) and (ts.min() < 0 or ts.max() > path.horizon * (1.0 + 1e-12)):
        raise ValueError(f"times must lie in [0, horizon={path.horizon}]")
    idx = np.searchsorted(path.times, np.minimum(ts, path.horizon), side="right")
    padded = np.concatenate(([0.0], path.prefix))
    return padded[idx]


def gamma_fn(z):
    """Gamma(z) for z > 0, elementwise for an array z; feeds Gamma(1 - beta(s))
    in the Laplace exponent."""
    zs = np.asarray(z, dtype=float)
    if not (np.isfinite(zs) & (zs > 0)).all():
        raise ValueError(f"gamma_fn requires z > 0, got {z}")
    if zs.ndim == 0:
        return math.gamma(float(zs))
    return np.array([math.gamma(v) for v in zs.ravel().tolist()]).reshape(zs.shape)


def laplace_transform(idx, theta, t):
    """E[exp(-theta * D(t))] = exp(-int_0^t Gamma(1-beta(s)) theta**beta(s) ds).

    For constant beta this reduces to exp(-Gamma(1-beta) * t * theta**beta),
    the transform of the one-index stable subordinator."""
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    if not (0 <= t <= idx.horizon * (1.0 + 1e-12)):
        raise ValueError(f"t must lie in [0, horizon={idx.horizon}], got {t}")
    if theta == 0.0 or t == 0.0:
        return 1.0

    def f(s):
        beta = idx.evaluate(s)
        return gamma_fn(1.0 - beta) * theta**beta

    exponent = integrate(f, 0.0, t)
    return math.exp(-exponent)
