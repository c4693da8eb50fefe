"""The increasing pure-jump process built from a point pattern, and the
closed-form Laplace transforms of D and of its dropped jumps."""

import math

import numpy as np

from .quadrature import integrate


def build_path(times, sizes):
    """The right-continuous step path, 0 before its first jump, with jumps
    ``sizes`` at ``times``: the times sorted, by one argsort, and the path
    value at each, the prefix sums of the sizes in that order.  Distinct
    times have one sorting permutation, so any sort kind gives the same
    path; tied times, which have probability zero, each read the sum of the
    whole tie."""
    order = np.argsort(times)
    return times[order], np.cumsum(sizes[order])


def eval_many(times, prefix, ts):
    """Values at the times ``ts`` of the path ``build_path`` returns as
    (times, prefix): the prefix sum at the last jump time <= t, or 0 before
    the first jump."""
    return np.concatenate(([0.0], prefix))[np.searchsorted(times, ts, side="right")]


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

    exponent = integrate(f, 0.0, t, points=idx.critical_points(0.0, t))
    return math.exp(-exponent)


def lower_gamma(s, z):
    """int_0^z x**(s-1) exp(-x) dx for s in (0, 1) and z >= 0, elementwise:
    below z = 40 the series z**s exp(-z) sum_n z**n / (s (s+1) ... (s+n)),
    and from there Gamma(s), off by Gamma(s, z) <= z**(s-1) exp(-z) <
    exp(-40) Gamma(s)."""
    s, z = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(z, dtype=float))
    far = z >= 40.0
    z = np.where(far, 0.0, z)
    term = total = 1.0 / s
    n = 0
    while (term > 1e-17 * total).any():
        n += 1
        term = term * z / (s + n)
        total = total + term
    out = np.array(z**s * np.exp(-z) * total)
    out[far] = gamma_fn(s[far])
    return out


def dropped_exponent(idx, theta, t, level):
    """-log E exp(-theta D_dropped(t)) for the jumps up to t that a stationary
    block at ``level`` drops, those below c(s) = level**(-1/beta(s)): the
    integral over [0, t] of int_0^c (1 - exp(-theta x)) beta x**(-beta-1) dx
    = theta**beta gamma(1 - beta, z) - level (1 - exp(-z)), z = theta c."""

    def f(s):
        beta = idx.evaluate(s)
        # a z past the float range is read as inf, where the closed form is exact
        with np.errstate(over="ignore"):
            z = np.exp(math.log(theta) - math.log(level) / beta)
        return theta**beta * lower_gamma(1.0 - beta, z) + level * np.expm1(-z)

    return integrate(f, 0.0, t, points=idx.critical_points(0.0, t))
