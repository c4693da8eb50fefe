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

_ML_SERIES_CUTOFF = 5.0


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

    Small |z| uses the power series in arbitrary precision sized to the
    largest term, so the alternating cancellation costs no accuracy; large
    |z| uses the spectral integral representation

        E_beta(-x) = int_0^inf exp(-r * x**(1/beta)) K(r) dr,
        K(r) = sin(pi*beta)/pi * r**(beta-1) / (r**(2b) + 2 r**b cos(pi*beta) + 1),

    after the substitution r = v**(1/beta) (which removes the endpoint
    singularity) and v = w/(1-w) (which compactifies the domain).
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if not np.isfinite(z) or z > 0:
        raise ValueError(f"z must be finite and non-positive, got {z}")
    if z == 0.0:
        return 1.0
    if beta == 1.0:
        return math.exp(z)
    if abs(z) <= _ML_SERIES_CUTOFF:
        return _ml_series(beta, z)
    return _ml_tail_integral(beta, -z)


def _ml_series(beta, z):
    # imported here: only this oracle needs it, and every CLI start would pay for it
    import mpmath

    # size the working precision to the largest series term
    logz = math.log(abs(z))
    k_peak = 1
    max_log = 0.0
    k = 1
    while True:
        term_log = k * logz - math.lgamma(beta * k + 1.0)
        if term_log > max_log:
            max_log, k_peak = term_log, k
        if k > k_peak + 8 and term_log < max_log - 80.0:
            break
        k += 1
    dps = 25 + max(0, int(max_log / math.log(10.0)))
    with mpmath.workdps(dps):
        zz = mpmath.mpf(z)
        # beta*k + 1 must be formed in working precision: a float64 product
        # perturbs each Gamma argument enough to wreck the cancellation
        bb = mpmath.mpf(beta)
        total = mpmath.mpf(1)
        k = 1
        while True:
            term = zz**k / mpmath.gamma(bb * k + 1)
            total += term
            if k > k_peak and abs(term) < mpmath.mpf(10) ** (-25):
                break
            k += 1
        return float(total)


def _ml_tail_integral(beta, x):
    c1 = math.sin(math.pi * beta) / (math.pi * beta)
    c2 = 2.0 * math.cos(math.pi * beta)

    def g(w):
        # the integrand tends to 0 at w = 1 (v = inf) and is cut to 0 once
        # expo exceeds 700
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = w / (1.0 - w)
            expo = (v * x) ** (1.0 / beta)
            val = np.exp(-expo) * c1 / ((v * v + c2 * v + 1.0) * (1.0 - w) ** 2)
        return np.where((w >= 1.0) | (expo > 700.0), 0.0, val)

    return integrate(g, 0.0, 1.0, tol=1e-11)


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
