"""Adaptive Simpson integration and bisection, shared by every integral
and every root search in the package.

Integrands are vectorised: ``f`` takes a float array of nodes and returns
an array of the same shape.  The quadrature refines breadth-first, so each
level of the adaptive tree costs one call of ``f`` on all of its new nodes.
"""

import numpy as np

DEFAULT_TOL = 1e-10

_MAX_DEPTH = 30

# floor on the acceptance threshold relative to the local estimate: an
# absolute tolerance below float64 resolution of a large integral would
# otherwise refine to the depth cap
_REL_FLOOR = 1e-14

_BISECT_STEPS = 200


def integrate(f, a, b, tol=DEFAULT_TOL):
    """Integrate the vectorised ``f`` over [a, b] by adaptive composite Simpson.

    The error estimate is the classical Richardson one; ``tol`` is an
    absolute tolerance, halved on each subdivision, and refinement stops
    after ``_MAX_DEPTH`` subdivisions.  The tree is refined level by level:
    one call ``f(x)`` evaluates the two new midpoints of every interval
    still open, so ``f`` is called at most ``_MAX_DEPTH + 2`` times.  A
    split interval's value is the sum of its two children's values, added
    bottom-up, which is the same float a depth-first recursion returns for
    the same integrand values.  A non-finite Simpson estimate raises
    ValueError: no subdivision can repair it.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError(f"integration bounds must be finite, got [{a}, {b}]")
    if a == b:
        return 0.0
    if b < a:
        return -integrate(f, b, a, tol)
    m = 0.5 * (a + b)
    fa, fm, fb = f(np.array([a, m, b], dtype=float))
    # the open intervals of one level: ends, midpoint, their values, estimate
    a, m, b, fa, fm, fb = (np.array([v], dtype=float) for v in (a, m, b, fa, fm, fb))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    levels = []  # per level: (value of each interval as a leaf, mask of the split ones)
    for depth in range(_MAX_DEPTH, -1, -1):
        n = len(a)
        x = np.concatenate((0.5 * (a + m), 0.5 * (m + b)))
        fx = f(x)
        with np.errstate(over="ignore", invalid="ignore"):
            left = (m - a) / 6.0 * (fa + 4.0 * fx[:n] + fm)
            right = (b - m) / 6.0 * (fm + 4.0 * fx[n:] + fb)
            total = left + right
            delta = total - whole
        bad = ~np.isfinite(delta)
        if bad.any():
            i = np.argmax(bad)
            raise ValueError(f"integrand is not finite on [{a[i]}, {b[i]}]")
        split = np.abs(delta) > 15.0 * np.maximum(tol, _REL_FLOOR * np.abs(total))
        levels.append((total + delta / 15.0, split))
        if depth == 0 or not split.any():
            break
        tol = 0.5 * tol
        # the next level: the left halves of the split intervals, then their right halves
        keep = np.concatenate((split, split))
        a, m, b = np.concatenate((a, m))[keep], x[keep], np.concatenate((m, b))[keep]
        fa, fm, fb = np.concatenate((fa, fm))[keep], fx[keep], np.concatenate((fm, fb))[keep]
        whole = np.concatenate((left, right))[keep]
    # bottom-up: a split interval's value is its left half's plus its right half's
    value = levels[-1][0]
    for est, split in reversed(levels[:-1]):
        k = len(value) // 2
        est[split] = value[:k] + value[k:]
        value = est
    return float(value[0])


def bisect(high_side, lo, hi, close):
    """Shrink the brackets [lo, hi] of scalar roots by halving, elementwise
    for arrays of brackets.

    ``high_side(mid)`` is true where the root lies above ``mid``; the loop
    stops once ``close(lo, hi)`` holds for every bracket, or after 200
    halvings.  Returns the final brackets (Python floats for a scalar
    bracket, which ``high_side`` also receives as a float), so each caller
    picks the end (or midpoint) it needs."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for _ in range(_BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        up = high_side(mid if mid.ndim else float(mid))
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        if np.all(close(lo, hi)):
            break
    return (lo, hi) if lo.ndim else (float(lo), float(hi))
