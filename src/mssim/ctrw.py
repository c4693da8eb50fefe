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

from .errors import HorizonExceededError
from .quadrature import bisect

_BISECT_TOL = 1e-12


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

    def value(self, t):
        if self.kind == "unit":
            return np.ones_like(np.asarray(t, dtype=float))
        return np.maximum(1.0, np.log(np.asarray(t, dtype=float)))


UNIT = SlowlyVaryingFamily("unit")
LOG = SlowlyVaryingFamily("log")


@dataclass(frozen=True)
class CtrwPath:
    """Partial sums on the 1/n grid: grid[k] = sum_{j<=k} b_{nj}**-1 * J_{nj}."""

    n: int
    grid: np.ndarray  # length kmax + 1, grid[0] = 0
    idx: object  # StabilityIndex
    L: SlowlyVaryingFamily

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
    drives the limit theorems is untouched.  Levels above exp(-beta_sup)
    invert in closed form on the initial branch; smaller levels invert the
    ultimately strictly decreasing branch by bisection."""
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


def _log_tail_decreasing(t, beta, beta_sup):
    # on t >= exp(1/beta) the ln branch is active and strictly decreasing
    return t ** (-beta) * (beta / beta_sup) * np.log(t)


def _invert_log_tail(u, beta, beta_sup):
    lo = np.exp(1.0 / beta)
    # generous first bracket, capped to stay finite for extreme levels
    hi = np.minimum(np.maximum(2.0 * lo, u ** (-2.0 / beta)), 1e300)
    grow = _log_tail_decreasing(hi, beta, beta_sup) >= u
    while grow.any():
        hi[grow] *= 4.0
        grow = _log_tail_decreasing(hi, beta, beta_sup) >= u
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        high_side = _log_tail_decreasing(mid, beta, beta_sup) >= u
        lo = np.where(high_side, mid, lo)
        hi = np.where(high_side, hi, mid)
        if (hi - lo <= np.maximum(_BISECT_TOL, 4.0 * np.spacing(hi))).all():
            break
    return 0.5 * (lo + hi)


def norming_an(n, L, beta_sup):
    """The row scaling: the solution a of a**(-beta_sup) * L(a) = 1/n.

    Closed form n**(1/beta_sup) for the unit family; bisection on the
    ultimately strictly decreasing left-hand side for the log family (with
    the closed-form initial branch covering small n)."""
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n}")
    if not 0.0 < beta_sup < 1.0:
        raise ValueError(f"beta_sup must be in (0, 1), got {beta_sup}")
    if L.kind == "unit":
        return float(n) ** (1.0 / beta_sup)
    target = 1.0 / n

    def f(a):
        return a ** (-beta_sup) * max(1.0, math.log(a))

    hump_top = math.exp(1.0 / beta_sup)
    if target > f(hump_top):
        # small n: the root sits on the initial a**(-beta_sup) branch
        a = target ** (-1.0 / beta_sup)
        if not 1.0 <= a <= math.e * (1.0 + 1e-12):
            raise RuntimeError(f"no bracket for a_n at n={n}, beta_sup={beta_sup}")
        return a
    hi = 2.0 * hump_top
    while f(hi) >= target:
        hi *= 4.0
    lo, hi = bisect(lambda a: f(a) >= target, hump_top, hi,
                    lambda lo, hi: hi - lo <= _BISECT_TOL * lo)
    return 0.5 * (lo + hi)


def norming_bnk(a_n, beta_kn, beta_sup):
    """Cell scaling b_{nk} = a_n**(beta_sup/beta(k/n))."""
    if a_n <= 0:
        raise ValueError(f"a_n must be positive, got {a_n}")
    if not 0.0 < beta_kn < 1.0:
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
    a_n = norming_an(n, L, idx.beta_sup)
    b = a_n ** (idx.beta_sup / beta)
    j = _jnk_from_uniforms(stream.uniform(kmax), beta, idx.beta_sup, L)
    grid = np.concatenate(([0.0], np.cumsum(j / b)))
    return CtrwPath(int(n), grid, idx, L)


def inverse_ctrw(path, r):
    """E_n(r) = (smallest k with grid[k] >= r) / n; the infimum is attained
    on the grid because the partial sums jump exactly at grid points."""
    if not np.isfinite(r) or r < 0:
        raise ValueError(f"level r must be finite and non-negative, got {r}")
    if r == 0.0:
        return 0.0
    if r > path.grid[-1]:
        raise HorizonExceededError(
            f"level {r} exceeds last partial sum {path.grid[-1]} at horizon {path.horizon}"
        )
    k = np.searchsorted(path.grid, r, side="left")
    return float(k) / path.n


class BernoulliWalk:
    """S(t) = sum of i.i.d. Bernoulli(p) steps up to floor(t).

    The step sequence extends lazily, so evaluating one walk at t1 < t2
    reuses the same steps."""

    def __init__(self, stream, p):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p must be in (0, 1], got {p}")
        self._stream = stream
        self.p = p
        self._steps = np.empty(0, dtype=np.int64)
        self._cum = np.empty(0, dtype=np.int64)

    def value(self, t):
        if not np.isfinite(t) or t < 0:
            raise ValueError(f"t must be finite and non-negative, got {t}")
        m = int(math.floor(t + 1e-12))
        if m == 0:
            return 0
        if m > len(self._steps):
            grow = max(m - len(self._steps), 64)
            new = self._stream.bernoulli(self.p, grow).astype(np.int64)
            self._steps = np.concatenate((self._steps, new))
            self._cum = np.cumsum(self._steps)
        return int(self._cum[m - 1])

