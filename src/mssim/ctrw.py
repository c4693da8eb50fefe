"""Triangular-array approximation of the subordinator and the composed
counting walk.

Row n of the array holds independent heavy-tailed summands J with
P(J > t) = t**(-beta(k/n)) * L(t**(beta(k/n)/beta_sup)) for a slowly
varying L; normalized partial sums on the 1/n grid approximate the jump
path, their inverse approximates the operational clock, and a Bernoulli
walk run at the rescaled clock approximates the counting process.
"""

from dataclasses import dataclass
import math

import numpy as np

from .inverse_mfpp import first_passage
from .quadrature import bisect


@dataclass(frozen=True)
class SlowlyVaryingFamily:
    """Built-in slowly varying tail modulations.

    ``unit`` is L = 1; ``log`` is L(t) = max(1, ln t).  The max keeps the
    tail formula <= 1 and well defined near the support start; modifying a
    slowly varying function on a bounded set leaves it slowly varying.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("unit", "log"):
            raise ValueError(f"unknown slowly varying family {self.kind!r}")


UNIT = SlowlyVaryingFamily("unit")


@dataclass(frozen=True)
class CtrwPath:
    """Partial sums on the 1/n grid: grid[k] = sum_{j<=k} b_{nj}**-1 * J_{nj}."""

    n: int
    grid: np.ndarray  # length kmax + 1, grid[0] = 0

    @property
    def horizon(self):
        return (len(self.grid) - 1) / self.n


def _jnk_from_uniforms(u, beta, beta_sup, L):
    """Invert the tail at uniform levels ``u`` (arrays broadcast together).

    unit family: exact inverse transform, support [1, inf).
    log family: the raw tail formula dips below, then briefly above, the
    value exp(-beta_sup) it takes at the kink t = exp(beta_sup/beta); the
    survival function used is its running minimum, which equals the formula
    at the support start and for all large t, so the regular variation that
    drives the limit theorems is untouched.  Levels at or above
    exp(-beta_sup) invert in closed form on the initial branch; smaller
    levels invert the ultimately strictly decreasing branch by bisection in
    ln t, to a few ulps of ln t, on a bracket that always holds the root."""
    u = np.asarray(u, dtype=float)
    beta = np.broadcast_to(np.asarray(beta, dtype=float), u.shape)
    if L.kind == "unit":
        return u ** (-1.0 / beta)
    out = np.empty_like(u)
    kink_level = math.exp(-beta_sup)
    first = u >= kink_level
    out[first] = u[first] ** (-1.0 / beta[first])
    rest = ~first
    if rest.any():
        out[rest] = _invert_log_tail(u[rest], beta[rest], beta_sup)
    return out


def _invert_log_tail(u, beta, beta_sup):
    # in y = ln t the branch y >= 1/beta is (beta/beta_sup) * y * exp(-beta*y),
    # strictly decreasing; y * exp(-beta*y) <= 2/(e*beta) * exp(-beta*y/2)
    # puts the root below (2/beta) * ln(2/(e*beta_sup*u))
    lo = 1.0 / beta
    hi = np.maximum(lo, 2.0 / beta * np.log(2.0 / (math.e * beta_sup * u)))
    log_u = np.log(u)
    lo, hi = bisect(lambda y: np.log(beta / beta_sup * y) - beta * y >= log_u, lo, hi,
                    lambda lo, hi: hi - lo <= 4.0 * np.spacing(hi))
    return np.exp(0.5 * (lo + hi))


def norming_an(n, L, beta_sup):
    """The row scaling a_n, where n * P(J > a_n) = 1 for the summand J of
    index beta_sup: the tail inverse of ``_jnk_from_uniforms`` at level 1/n,
    n**(1/beta_sup) in closed form for the unit family."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < beta_sup < 1.0:
        raise ValueError(f"beta_sup must be in (0, 1), got {beta_sup}")
    if L.kind == "unit":
        return float(n) ** (1.0 / beta_sup)
    return float(_jnk_from_uniforms(1.0 / n, beta_sup, beta_sup, L))


def norming_bnk(a_n, beta_kn, beta_sup):
    """Cell scaling b_{nk} = a_n**(beta_sup/beta(k/n)), elementwise for an
    array of index values."""
    if a_n <= 0:
        raise ValueError(f"a_n must be positive, got {a_n}")
    if not np.all((0.0 < beta_kn) & (beta_kn < 1.0)):
        raise ValueError(f"beta must be in (0, 1), got {beta_kn}")
    return a_n ** (beta_sup / beta_kn)


def partial_sum_path(stream, n, T, idx, L):
    """The row-n partial-sum path on [0, T]: one fresh J per cell.

    Grid value at k/n is sum_{j<=k} b_{nj}**-1 * J_{nj} for k = 0..ceil(nT).
    """
    if not 0.0 < T <= idx.horizon * (1.0 + 1e-12):
        raise ValueError(f"T must lie in (0, horizon={idx.horizon}], got {T}")
    kmax = math.ceil(n * T - 1e-9)
    ks = np.arange(1, kmax + 1)
    beta = idx.evaluate_many(np.minimum(ks / n, idx.horizon))
    b = norming_bnk(norming_an(n, L, idx.beta_sup), beta, idx.beta_sup)
    j = _jnk_from_uniforms(stream.uniform(kmax), beta, idx.beta_sup, L)
    grid = np.concatenate(([0.0], np.cumsum(j / b)))
    return CtrwPath(int(n), grid)


def inverse_ctrw(path, levels):
    """E_n(r) = (smallest k with grid[k] >= r) / n at each level r: the
    first passage of the step path that jumps to grid[k] at k/n, attained on
    the grid because the partial sums jump exactly at grid points.  Levels
    past the last partial sum give NaN."""
    levels = np.asarray(levels, dtype=float)
    if not (np.isfinite(levels) & (levels >= 0.0)).all():
        raise ValueError(f"levels must be finite and non-negative, got {levels}")
    return first_passage(np.arange(len(path.grid)) / path.n, path.grid, levels)

