"""Counter-based random streams for reproducible parallel Monte Carlo.

Every replication gets its own stream derived statelessly from
``(master_seed, stream_id)``, so replications can be scheduled in any
order on any number of workers and still produce identical output.
"""

import numpy as np

_U64 = 2**64

# generators of collected streams, each re-keyed by a later stream: building a
# Philox draws OS entropy for a seed that its key then overrides, which costs
# about ten times as much as writing the state of a spare
_SPARE = []
_ZEROS = (0, 0, 0, 0)


class RngStream:
    """One independent randomness stream, keyed by ``(master_seed, stream_id)``.

    Backed by the counter-based Philox generator: streams are cheap to
    create, and distinct keys give statistically independent sequences.  A
    stream re-keys the generator of a collected one, so it draws exactly
    what ``Generator(Philox(key=[master_seed, stream_id]))`` draws, and no
    two live streams share a generator.
    """

    def __init__(self, master_seed, stream_id):
        for name, value in (("master_seed", master_seed), ("stream_id", stream_id)):
            if not isinstance(value, (int, np.integer)) or not 0 <= value < _U64:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        try:
            gen = _SPARE.pop()  # one call: no other thread takes the same spare
        except IndexError:
            gen = np.random.Generator(np.random.Philox())
        # the state of a fresh Philox(key=[master_seed, stream_id])
        gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": _ZEROS, "key": (self.master_seed, self.stream_id)},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
        }
        self._gen = gen

    def __del__(self):
        # a stream whose key failed validation has no generator to hand back
        gen = self.__dict__.pop("_gen", None)
        if gen is not None:
            _SPARE.append(gen)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"

    def uniform(self, size):
        """An array of ``size`` uniform draws strictly inside (0, 1).

        Zero is redrawn: inverse-transform samplers raise draws to the
        power -1/beta, so the endpoints must never appear.
        """
        u = self._gen.random(size)
        if not u.all():
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
