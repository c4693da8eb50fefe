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
    grid: np.ndarray  # the drawn cells' sums, grid[0] = 0


def _jnk_from_uniforms(u, beta, beta_sup, L):
    """Invert the tail at uniform levels ``u`` (arrays broadcast together).

    unit family: exact inverse transform, support [1, inf).
    log family: the raw tail formula dips below, then briefly above, the
    value exp(-beta_sup) it takes at the kink t = exp(beta_sup/beta); the
    survival function used is its running minimum, which equals the formula
    at the support start and for all large t, so the regular variation that
    drives the limit theorems is untouched.  Levels at or above
    exp(-beta_sup) invert in closed form on the initial branch; smaller
    levels invert the ultimately strictly decreasing branch through the
    lower branch of the Lambert W function."""
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
    # in y = ln t the branch y >= 1/beta is (beta/beta_sup) * y * exp(-beta*y) = u, so z =
    # -beta*y solves z * exp(z) = x = -beta_sup * u, in (-1/e, 0) as u < exp(-beta_sup): z is
    # W_-1(x), the lower branch of Lambert's W (Corless et al. 1996), here by Halley steps
    # from its branch-point series near x = -1/e and its asymptotic form elsewhere
    x = -beta_sup * u
    p = -np.sqrt(2.0 * (1.0 + math.e * x))
    l1 = np.log(-x)
    l2 = np.log(-l1)
    w = np.where(x < -0.25, -1.0 + p * (1.0 + p * (-1.0 / 3.0 + p * 11.0 / 72.0)),
                 l1 - l2 + l2 / l1)
    for _ in range(6):
        ew = np.exp(w)
        f = w * ew - x
        w = w - f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
    return np.exp(-w / beta)


def norming_an(n, L, beta_sup):
    """The row scaling a_n, where n * P(J > a_n) = 1 for the summand J of
    index beta_sup: the tail inverse of ``_jnk_from_uniforms`` at level 1/n,
    n**(1/beta_sup) in closed form for the unit family; inf past the float
    range, with numpy's overflow warning."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < beta_sup < 1.0:
        raise ValueError(f"beta_sup must be in (0, 1), got {beta_sup}")
    if L.kind == "unit":
        return float(np.float64(n) ** (1.0 / beta_sup))
    return float(_jnk_from_uniforms(1.0 / n, beta_sup, beta_sup, L))


def norming_bnk(a_n, beta_kn, beta_sup):
    """Cell scaling b_{nk} = a_n**(beta_sup/beta(k/n)), elementwise for an
    array of index values."""
    if a_n <= 0:
        raise ValueError(f"a_n must be positive, got {a_n}")
    if not np.all((0.0 < beta_kn) & (beta_kn < 1.0)):
        raise ValueError(f"beta must be in (0, 1), got {beta_kn}")
    return a_n ** (beta_sup / beta_kn)


def cell_count(n, horizon):
    """The cells of width 1/n that cover [0, horizon]: ceil(n * horizon),
    where an n * horizon within 1e-9 above an integer rounds to it."""
    return math.ceil(n * horizon - 1e-9)


class RowPlan:
    """What every replication of row n on [0, T], T the horizon of ``idx``,
    shares: beta(k/n) and the cell scalings b_{nk}, k = 1..``cell_count(n, T)``,
    built only once its partial sums are shown to stay in the float range."""

    def __init__(self, n, idx, L):
        cells = cell_count(n, idx.horizon)
        # the largest partial sum: each cell's summand at beta_inf and the least
        # uniform, 2**-53, over the least b_nk, a_n = b_nk at beta_sup as a_n >= 1
        with np.errstate(over="ignore", invalid="ignore"):
            a_n = norming_an(n, L, idx.beta_sup)
            top = cells * float(_jnk_from_uniforms(2.0**-53, idx.beta_inf, idx.beta_sup, L)) / a_n
        if not np.isfinite(top):
            raise ValueError(f"the row n={n} partial sums of the index {idx.spec_string()} can "
                             "overflow the float range; raise the index")
        self.n, self.beta_sup, self.L = int(n), idx.beta_sup, L
        self.beta = idx.evaluate_many(np.minimum(np.arange(1, cells + 1) / n, idx.horizon))
        self.b = norming_bnk(a_n, self.beta, idx.beta_sup)


def partial_sum_path(stream, row, level):
    """The partial-sum path of the ``RowPlan`` ``row``, one fresh J per cell,
    drawn until its sum reaches ``level`` or its last cell: grid[k] is
    sum_{j<=k} b_{nj}**-1 * J_{nj}.  The cells up to max(1, floor(n * level))
    come first, then n/4 at a time; each piece draws the next uniforms and
    adds the running total into its first summand before one cumsum, so the
    grid holds the floats of one draw and one cumsum."""
    n, kmax = row.n, len(row.b)
    grid = np.zeros(kmax + 1)
    k, stop = 0, min(kmax, max(1, math.floor(n * level + 1e-9)))
    while True:
        x = _jnk_from_uniforms(stream.uniform(stop - k), row.beta[k:stop], row.beta_sup, row.L)
        x /= row.b[k:stop]
        x[0] += grid[k]
        np.cumsum(x, out=grid[k + 1:stop + 1])
        k, stop = stop, min(kmax, stop + max(1, n // 4))
        if grid[k] >= level or k == kmax:
            return CtrwPath(n, grid[:k + 1])


def inverse_ctrw(path, levels):
    """E_n(r) = (smallest k with grid[k] >= r) / n at each level r: the
    first passage of the step path that jumps to grid[k] at k/n, attained on
    the grid because the partial sums jump exactly at grid points.  Levels
    past the last partial sum give NaN."""
    levels = np.asarray(levels, dtype=float)
    if not (np.isfinite(levels) & (levels >= 0.0)).all():
        raise ValueError(f"levels must be finite and non-negative, got {levels}")
    return first_passage(np.arange(len(path.grid)) / path.n, path.grid, levels)

