"""Adaptive Simpson integration and scalar bisection, shared by every
integral and every scalar root search in the package."""

import math

import numpy as np

DEFAULT_TOL = 1e-10

_MAX_DEPTH = 30

# floor on the acceptance threshold relative to the local estimate: an
# absolute tolerance below float64 resolution of a large integral would
# otherwise recurse to the depth cap
_REL_FLOOR = 1e-14

_BISECT_STEPS = 200


def integrate(f, a, b, tol=DEFAULT_TOL):
    """Integrate ``f`` over [a, b] by adaptive composite Simpson.

    The error estimate is the classical Richardson one; ``tol`` is an
    absolute tolerance, halved on each subdivision.  All integrands in this
    package are smooth, so the recursion stays shallow.  A non-finite
    Simpson estimate raises ValueError: no subdivision can repair it.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol)
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, _MAX_DEPTH)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if not math.isfinite(delta):
        raise ValueError(f"integrand is not finite on [{a}, {b}]")
    accept = 15.0 * max(tol, _REL_FLOOR * abs(left + right))
    if depth <= 0 or abs(delta) <= accept:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _adapt(f, a, fa, m, fm, lm, flm, left, half, depth - 1) + _adapt(
        f, m, fm, b, fb, rm, frm, right, half, depth - 1
    )


def bisect(high_side, lo, hi, close):
    """Shrink the bracket [lo, hi] of a scalar root by halving.

    ``high_side(mid)`` is true when the root lies above ``mid``; the loop
    stops once ``close(lo, hi)`` holds, or after 200 halvings.  Returns the
    final bracket, so each caller picks the end (or midpoint) it needs."""
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        if high_side(mid):
            lo = mid
        else:
            hi = mid
        if close(lo, hi):
            break
    return lo, hi
