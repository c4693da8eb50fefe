"""Counter-based random streams for reproducible parallel Monte Carlo.

Every replication gets its own stream derived statelessly from
``(master_seed, stream_id)``, so replications can be scheduled in any
order on any number of workers and still produce identical output.
"""

import numpy as np

_U64 = 2**64


class RngStream:
    """One independent randomness stream, keyed by ``(master_seed, stream_id)``.

    Backed by the counter-based Philox generator: streams are cheap to
    create, and distinct keys give statistically independent sequences.
    """

    def __init__(self, master_seed, stream_id):
        for name, value in (("master_seed", master_seed), ("stream_id", stream_id)):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def uniform(self, size):
        """An array of ``size`` uniform draws strictly inside (0, 1).

        Zero is redrawn: inverse-transform samplers raise draws to the
        power -1/beta, so the endpoints must never appear.
        """
        u = self._gen.random(size)
        zero = u == 0.0
        while zero.any():
            u[zero] = self._gen.random(int(zero.sum()))
            zero = u == 0.0
        return u

    def poisson(self, mean):
        """A single Poisson(mean) count."""
        if not np.isfinite(mean) or mean < 0:
            raise ValueError(f"mean must be finite and non-negative, got {mean}")
        return int(self._gen.poisson(mean))

    def bernoulli(self, p, size=None):
        """Bernoulli(p) draws as a boolean array."""
        return self._gen.random(size) < p
