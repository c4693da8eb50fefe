"""Time-varying stability index families with exact range bounds.

Four closed families are supported so that the infimum and supremum of
beta over the working window are exact; those bounds feed the CTRW
normalizing constants and the continuity-bound constant, where an
approximate supremum would silently change the law being tested.
"""

from dataclasses import dataclass, field
import math
from typing import NamedTuple

import numpy as np

from .errors import HorizonError

# relative slack for domain checks at the horizon, to absorb grids like k/n
_EDGE_TOL = 1e-9

# extrema a sin index may have on one window; each is a quadrature piece of
# the truncation solve: at 400 on [0, 1], laplace set-up takes 4 s and 0.5 GB
_MAX_SIN_EXTREMA = 400


def _sin_extrema(p, a, b):
    """Extremum times of c0 + c1*sin(2*pi*c2*t) inside [a, b]; a window
    with more than ``_MAX_SIN_EXTREMA`` of them is a ValueError."""
    c1, c2 = p[1], p[2]
    if c1 == 0.0 or c2 == 0.0:
        return []
    # counted before the k range below is built; the product may overflow to inf
    if 2.0 * (b - a) * abs(c2) > _MAX_SIN_EXTREMA:
        raise ValueError(f"the sin index with c2={c2:g} has more than {_MAX_SIN_EXTREMA} "
                         f"extrema on [{a:g}, {b:g}]; lower c2 or the horizon")
    # extrema where 2*pi*c2*t = pi/2 + k*pi
    k0 = math.floor((2.0 * c2 * a - 0.5))
    k1 = math.ceil((2.0 * c2 * b - 0.5)) + 1
    ks = range(min(k0, k1), max(k0, k1) + 1)
    return [tc for tc in ((0.5 + k) / (2.0 * c2) for k in ks) if a <= tc <= b]


class _Family(NamedTuple):
    n_params: int  # 0 marks the knot table, which takes any number of knots
    value: object  # (params, t array) -> beta(t)
    critical: object  # (params, a, b) -> interior candidates for extrema on [a, b]


_FAMILIES = {
    "constant": _Family(1, lambda p, t: np.full_like(t, p[0]), lambda p, a, b: []),
    "affine": _Family(2, lambda p, t: p[0] + p[1] * t, lambda p, a, b: []),
    "sin": _Family(3, lambda p, t: p[0] + p[1] * np.sin(2.0 * math.pi * p[2] * t), _sin_extrema),
    "table": _Family(0, lambda p, t: np.interp(t, [k[0] for k in p], [k[1] for k in p]),
                     lambda p, a, b: [k[0] for k in p if a < k[0] < b]),
}
FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class StabilityIndex:
    """The index t -> beta(t) on [0, horizon].

    ``params`` per family:
      constant:  (c,)
      affine:    (c0, c1)            beta(t) = c0 + c1*t
      sin:       (c0, c1, c2)        beta(t) = c0 + c1*sin(2*pi*c2*t)
      table:     ((t0, b0), ...)     linear interpolation between knots
    """

    family: str
    params: tuple
    horizon: float
    beta_inf: float = field(init=False)
    beta_sup: float = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if not (np.isfinite(self.horizon) and self.horizon > 0):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        object.__setattr__(self, "params", self._canonical_params())
        lo, hi = self.bounds_on(0.0, self.horizon)
        if not (0.0 < lo <= hi < 1.0):
            raise HorizonError(f"beta must stay inside (0, 1) on [0, {self.horizon}]; "
                               f"this {self.family} index spans [{lo}, {hi}]")
        object.__setattr__(self, "beta_inf", lo)
        object.__setattr__(self, "beta_sup", hi)

    def _canonical_params(self):
        p = self.params
        want = _FAMILIES[self.family].n_params
        if want:
            vals = tuple(float(v) for v in p)
            if len(vals) != want:
                raise ValueError(f"{self.family} family takes {want} parameters, got {len(vals)}")
            if not all(np.isfinite(v) for v in vals):
                raise ValueError(f"non-finite parameter in {vals}")
            return vals
        knots = tuple((float(t), float(b)) for t, b in p)
        if len(knots) < 2:
            raise ValueError("table family needs at least two knots")
        if not np.isfinite(knots).all():
            raise ValueError(f"non-finite knot in {knots}")
        ts = [t for t, _ in knots]
        if ts[0] != 0.0:
            raise ValueError(f"table knots must start at t=0, got {ts[0]}")
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise ValueError("table knot times must be strictly increasing")
        if ts[-1] < self.horizon:
            raise HorizonError(f"last table knot {ts[-1]} does not cover horizon {self.horizon}")
        return knots

    # -- evaluation ------------------------------------------------------

    def _check_domain(self, t):
        t = np.asarray(t, dtype=float)
        # one min and one max pass t inside [0, horizon]; a NaN or an edge
        # overshoot takes the elementwise check and the clip, which keep NaN
        if t.size and not (t.min() >= 0.0 and t.max() <= self.horizon):
            tol = _EDGE_TOL * max(1.0, self.horizon)
            if (t < -tol).any() or (t > self.horizon + tol).any():
                raise ValueError(f"t outside [0, {self.horizon}]")
            t = np.clip(t, 0.0, self.horizon)
        return t

    def evaluate(self, t):
        """beta(t) for t in [0, horizon]: a float for a scalar t, an array of
        the same shape for an array t.  This is the index an integrand of
        the vectorised quadrature reads, one call per quadrature level."""
        beta = self.evaluate_many(t)
        return float(beta) if np.ndim(t) == 0 else beta

    def evaluate_many(self, t):
        """Vectorized beta(t); accepts scalars or arrays."""
        return self._raw_eval(self._check_domain(t))

    def _raw_eval(self, t):
        """Evaluation of a float array or scalar without the horizon check
        (bounds may probe t > horizon knots)."""
        return _FAMILIES[self.family].value(self.params, t)

    def bounds_on(self, a, b):
        """Exact (inf, sup) of beta over the sub-window [a, b]: the extremes
        over its endpoints and the family's interior critical points."""
        if not 0.0 <= a <= b:
            raise ValueError(f"invalid window [{a}, {b}]")
        vals = self._raw_eval(np.array([a, b, *self.critical_points(a, b)], dtype=float))
        return (float(np.min(vals)), float(np.max(vals)))

    def critical_points(self, a, b):
        """The family's candidates for interior extrema of beta on [a, b]:
        the extremum times of a sin index, the knots of a table.  They split
        [a, b] into pieces on which beta is monotone."""
        return _FAMILIES[self.family].critical(self.params, a, b)

    # -- textual spec ----------------------------------------------------

    @classmethod
    def from_spec(cls, spec, horizon):
        """Parse CLI/config strings like ``constant:0.5`` or ``affine:0.4,0.2``.

        Formats: ``constant:c``, ``affine:c0,c1``, ``sin:c0,c1,c2``,
        ``table:t0,b0;t1,b1;...``.
        """
        try:
            name, _, rest = spec.partition(":")
            name = name.strip().lower()
            if name in _FAMILIES and not _FAMILIES[name].n_params:
                params = tuple(
                    tuple(float(v) for v in knot.split(","))
                    for knot in rest.split(";")
                    if knot.strip()
                )
            else:
                params = tuple(float(v) for v in rest.split(","))
        except (ValueError, AttributeError) as exc:
            raise ValueError(f"cannot parse beta spec {spec!r}: {exc}") from None
        return cls(name, params, float(horizon))

    def spec_string(self):
        """Canonical textual form, round-trips through from_spec."""
        if _FAMILIES[self.family].n_params:
            body = ",".join(f"{v:g}" for v in self.params)
        else:
            body = ";".join(f"{t:g},{b:g}" for t, b in self.params)
        return f"{self.family}:{body}"
