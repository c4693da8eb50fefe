"""Statistical estimators and analytic oracles for the verification suites:
empirical Laplace transforms, two-sample Kolmogorov-Smirnov distance, the
Mittag-Leffler function, and increment-correlation diagnostics."""

from dataclasses import dataclass
import math

import numpy as np

from .errors import DegenerateSampleError
from .quadrature import integrate

# asymptotic two-sample KS quantiles c(alpha)
_KS_CRITICAL = {0.01: 1.63, 0.05: 1.36}

# below this |z| the quadrature cannot resolve the u -> 0 end of the
# Mittag-Leffler integrand (its error grows from 4e-14 here to 7e-11 as
# z -> 0), while four series terms are exact to rounding
_ML_SERIES_BELOW = 1e-4


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo estimate with its standard error."""

    mean: float
    se: float
    n: int


def empirical_laplace(samples, theta):
    """Mean and standard error of exp(-theta * s) over the samples."""
    if theta < 0:
        raise ValueError(f"theta must be non-negative, got {theta}")
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise ValueError(f"need at least 2 samples, got {samples.size}")
    vals = np.exp(-theta * samples)
    n = vals.size
    return McEstimate(float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)), n)


def ks_two_sample(xs, ys):
    """Sup-norm distance between the two empirical CDFs."""
    xs = np.sort(np.asarray(xs, dtype=float))
    ys = np.sort(np.asarray(ys, dtype=float))
    if xs.size == 0 or ys.size == 0:
        raise ValueError("both samples must be non-empty")
    grid = np.concatenate((xs, ys))
    fx = np.searchsorted(xs, grid, side="right") / xs.size
    fy = np.searchsorted(ys, grid, side="right") / ys.size
    return float(np.abs(fx - fy).max())


def ks_critical_value(m, n, alpha=0.01):
    """Asymptotic two-sample critical value c(alpha) * sqrt((m+n)/(m*n))."""
    if alpha not in _KS_CRITICAL:
        raise ValueError(f"alpha must be one of {sorted(_KS_CRITICAL)}, got {alpha}")
    return _KS_CRITICAL[alpha] * math.sqrt((m + n) / (m * n))


def mittag_leffler(beta, z):
    """E_beta(z) = sum_k z**k / Gamma(beta*k + 1) for beta in (0, 1], z <= 0.

    For 0 < beta < 1 and x = -z > 0, the spectral representation
    E_beta(-x) = int_0^inf exp(-r * x**(1/beta)) K(r) dr, with
    K(r) = sin(pi*beta)/pi * r**(beta-1) / (r**(2b) + 2 r**b cos(pi*beta) + 1),
    becomes after r = v**(1/beta) and v = sin(pi*beta*(1-u)) / sin(pi*beta*u)

        E_beta(-x) = int_0^1 exp(-(x * v(u))**(1/beta)) du,

    whose Jacobian cancels the kernel: the integrand rises monotonically
    from 0 at u = 0 to 1 at u = 1, with no peak as beta -> 1.  For
    |z| < 1e-4 the first four series terms are used; the remainder is below
    |z|**4 / Gamma(1 + 4 beta) < 1.2e-16.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if not np.isfinite(z) or z > 0:
        raise ValueError(f"z must be finite and non-positive, got {z}")
    if z == 0.0:
        return 1.0
    if beta == 1.0:
        return math.exp(z)
    if -z < _ML_SERIES_BELOW:
        return sum(z**k / math.gamma(1.0 + beta * k) for k in range(4))

    def f(u):
        # v = inf at u = 0, and a power past the float range is inf: both give 0
        with np.errstate(divide="ignore", over="ignore"):
            v = np.sin(math.pi * beta * (1.0 - u)) / np.sin(math.pi * beta * u)
            return np.exp(-((-z * v) ** (1.0 / beta)))

    # the Richardson estimate is optimistic here: at tol=1e-11 the error
    # reaches 5e-11 for beta = 1/2 near x = 4.5, at 1e-12 it stays below 6e-12
    return integrate(f, 0.0, 1.0, tol=1e-12)


def increment_correlation(inc1, inc2):
    """Sample Pearson correlation of paired path increments over two windows,
    one pair per path.

    Under independent increments the null standard error is about 1/sqrt(n).
    Zero-variance increment samples raise DegenerateSampleError rather than
    propagating a NaN."""
    inc1 = np.asarray(inc1, dtype=float)
    inc2 = np.asarray(inc2, dtype=float)
    if inc1.shape != inc2.shape or inc1.ndim != 1:
        raise ValueError(f"need two paired 1-d samples, got shapes {inc1.shape}, {inc2.shape}")
    n = len(inc1)
    if n < 2:
        raise ValueError(f"need at least 2 paths, got {n}")
    if inc1.std() == 0.0 or inc2.std() == 0.0:
        raise DegenerateSampleError("an increment sample has zero variance")
    corr = float(np.corrcoef(inc1, inc2)[0, 1])
    return McEstimate(corr, 1.0 / math.sqrt(n), n)
