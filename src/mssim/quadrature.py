"""Adaptive Simpson integration, shared by every integral in the package.

Integrands are vectorised: ``f`` takes a float array of nodes and returns
an array of the same shape.  The quadrature refines breadth-first, so each
level of the adaptive tree costs one call of ``f`` on all of its new nodes.
"""

import math

import numpy as np

DEFAULT_TOL = 1e-10

_MAX_DEPTH = 30

# floor on the acceptance threshold relative to the local estimate: an
# absolute tolerance below float64 resolution of a large integral would
# otherwise refine to the depth cap
_REL_FLOOR = 1e-14

# nodes one level may evaluate: the pinned configurations peak near 16k, and
# a level of 2**20 nodes keeps one integral within seconds and 0.5 GB
_MAX_LEVEL_NODES = 2**20


def integrate(f, a, b, tol=DEFAULT_TOL, points=(), pieces=False):
    """Integrate the vectorised ``f`` over [a, b] by adaptive composite Simpson.

    The rule starts from the pieces between the ``points`` inside (a, b),
    such as the extrema of a periodic integrand, whose first nodes could
    otherwise all sit on one level set.  The error estimate is the classical
    Richardson one; ``tol`` is an absolute tolerance, shared among the
    pieces by width and halved on each subdivision, and refinement stops
    after ``_MAX_DEPTH`` halvings of [a, b].  The tree is refined level by
    level: the first call ``f(x)`` evaluates every piece's ends and
    midpoint, each later one the two new midpoints of every interval still
    open, so ``f`` is called at most ``_MAX_DEPTH + 2`` times.  A split
    interval's value is the sum of its two children's values, added
    bottom-up, which is the same float a depth-first recursion returns for
    the same integrand values.  A non-finite Simpson estimate raises
    ValueError: no subdivision can repair it.  So does a level that would
    evaluate more than ``_MAX_LEVEL_NODES`` nodes, which bounds the work.
    With ``pieces`` the array of the values of the pieces, in order, is
    returned instead of their sum.
    """
    if not -math.inf < a < b < math.inf:
        raise ValueError(f"integration bounds must be finite with a < b, got [{a}, {b}]")
    # points snap to multiples of a power of two near 2**-20 * max(|a|, |b|), so
    # later midpoints are exact: an inexact one shifts the Richardson estimate
    # of a steep integrand past the relative floor, down to the depth cap
    q = math.ldexp(1.0, math.frexp(max(abs(a), abs(b)))[1] - 20)
    inner = sorted({p for p in (round(float(p) / q) * q for p in points) if a < p < b})
    edges = np.array([a, *inner, b], dtype=float)
    # the open intervals of one level: ends, midpoint, their values, estimate
    x = np.empty(2 * len(edges) - 1)
    x[0::2], x[1::2] = edges, 0.5 * (edges[:-1] + edges[1:])
    fx = f(x)
    a, m, b = x[:-2:2], x[1::2], x[2::2]
    fa, fm, fb = fx[:-2:2], fx[1::2], fx[2::2]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = tol * ((b - a) / (edges[-1] - edges[0]))  # each piece's share, by width
    levels = []  # per level: (value of each interval as a leaf, mask of the split ones)
    # k pieces start ceil(log2 k) halvings of [a, b] down
    for depth in range(_MAX_DEPTH - (len(edges) - 2).bit_length(), -1, -1):
        n = len(a)
        if 2 * n > _MAX_LEVEL_NODES:
            raise ValueError(f"the integral over [{edges[0]:g}, {edges[-1]:g}] needs more than "
                             f"{_MAX_LEVEL_NODES} integrand nodes on one refinement level")
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
        # the next level: the left halves of the split intervals, then their right halves
        keep = np.concatenate((split, split))
        tol = 0.5 * np.concatenate((tol, tol))[keep]
        a, m, b = np.concatenate((a, m))[keep], x[keep], np.concatenate((m, b))[keep]
        fa, fm, fb = np.concatenate((fa, fm))[keep], fx[keep], np.concatenate((fm, fb))[keep]
        whole = np.concatenate((left, right))[keep]
    # bottom-up: a split interval's value is its left half's plus its right half's
    value = levels[-1][0]
    for est, split in reversed(levels[:-1]):
        k = len(value) // 2
        est[split] = value[:k] + value[k:]
        value = est
    return value if pieces else float(value.sum())

