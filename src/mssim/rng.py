"""Counter-based random streams for reproducible parallel Monte Carlo.

Every replication gets its own stream derived statelessly from
``(master_seed, stream_id)``, so replications can be scheduled in any
order on any number of workers and still produce identical output.  A
chunk kernel takes the streams of its replications as one ``Streams``
batch, whose key range is checked once, and ``draw_joined`` draws it.
"""

import math
from types import SimpleNamespace

import numpy as np

_U64 = 2**64

# generators of collected streams and batches, each re-keyed later: writing a
# spare's state takes 0.5 us on a 2-vCPU Xeon, building a Philox from a fixed
# seed 14 us, and from OS entropy, which its key overrides, 22 us
_SPARE = []
_ZEROS = (0, 0, 0, 0)


def _u64(name, value):
    """``value`` as an int, or a ValueError if it is not an unsigned 64-bit integer."""
    if not (isinstance(value, (int, np.integer)) and 0 <= value < _U64):
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return int(value)


def _fresh_state():
    """The state of a fresh Philox, keyed by writing its ``["state"]["key"]``."""
    return {"bit_generator": "Philox", "state": {"counter": _ZEROS, "key": None},
            "buffer": _ZEROS, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


def _spare():
    # a process makes its streams from one thread, so the check holds
    return _SPARE.pop() if _SPARE else np.random.Generator(np.random.Philox(0))


def check_mean(mean):
    """A ValueError unless ``mean`` is a Poisson mean: finite and non-negative."""
    if not 0.0 <= mean < math.inf:  # NaN fails too
        raise ValueError(f"mean must be finite and non-negative, got {mean}")


class RngStream:
    """One independent randomness stream, keyed by ``(master_seed, stream_id)``.

    Backed by the counter-based Philox generator: streams are cheap to
    create, and distinct keys give statistically independent sequences.  A
    stream re-keys the generator of a collected one, so it draws exactly
    what ``Generator(Philox(key=[master_seed, stream_id]))`` draws, and no
    two live streams share a generator.
    """

    def __init__(self, master_seed, stream_id):
        self.master_seed = _u64("master_seed", master_seed)
        self.stream_id = _u64("stream_id", stream_id)
        gen, state = _spare(), _fresh_state()
        state["state"]["key"] = (self.master_seed, self.stream_id)
        gen.bit_generator.state = state
        self._gen = gen

    def __del__(self):
        # a stream whose key failed validation has no generator to hand back
        gen = self.__dict__.pop("_gen", None)
        if gen is not None:
            _SPARE.append(gen)

    def uniform(self, size):
        """An array of ``size`` uniform draws strictly inside (0, 1).

        Zero is redrawn: inverse-transform samplers raise draws to the
        power -1/beta, so the endpoints must never appear.
        """
        u = self._gen.random(size)
        while np.count_nonzero(u) < u.size:
            zero = u == 0.0
            u[zero] = self._gen.random(int(zero.sum()))
        return u

    def poisson(self, mean):
        """A single Poisson(mean) count."""
        check_mean(mean)
        return int(self._gen.poisson(mean))

    def bernoulli(self, p, size):
        """An array of ``size`` Bernoulli(p) draws, as booleans."""
        return self._gen.random(size) < p


class Streams:
    """The ``count`` streams of consecutive ids from ``first_id`` under one
    master seed, whose whole id range is checked when the batch is made: the
    i-th draws what ``RngStream(master_seed, first_id + i)`` draws.

    Indexing gives the i-th as that ``RngStream``, and iterating gives each
    in turn, made as it is reached, so a stream dropped after use hands its
    generator to the next.  ``raw`` is the fast way through streams drawn
    one after another."""

    def __init__(self, master_seed, first_id, count):
        self.master_seed = _u64("master_seed", master_seed)
        self.first_id = _u64("stream_id", first_id)
        if not (isinstance(count, (int, np.integer)) and 0 <= count <= _U64 - self.first_id):
            raise ValueError(f"{count!r} streams from id {first_id} leave the 64-bit id range")
        self.count = int(count)

    def __len__(self):
        return self.count

    def __getitem__(self, i):
        # iteration calls this with 0, 1, ... until the IndexError
        if not 0 <= i < self.count:
            raise IndexError(f"stream {i} of {self.count}")
        return RngStream(self.master_seed, self.first_id + i)

    def raw(self):
        """Each stream in turn as one object whose ``poisson`` and ``uniform``
        are a single generator's own draws, re-keyed for each stream, so a
        stream must be drawn before the next is taken.  They skip the checks
        of ``RngStream``: ``draw_joined`` checks the draws for an exact zero,
        and the caller checks the Poisson mean with ``check_mean``."""
        gen, state = _spare(), _fresh_state()
        raw = SimpleNamespace(poisson=gen.poisson, uniform=gen.random)
        try:
            for stream_id in range(self.first_id, self.first_id + self.count):
                state["state"]["key"] = (self.master_seed, stream_id)
                gen.bit_generator.state = state
                yield raw
        finally:
            _SPARE.append(gen)


def draw_joined(streams, draw, arg):
    """``draw(stream, arg)`` from each of ``streams``, a ``Streams`` batch or
    a list of live streams: a tuple of arrays that each hold the stream's K
    draws, then K.  Each array is joined across the streams in stream order,
    then the K make an array of the counts.

    A batch is drawn through ``raw``, so the joined draws are checked once for
    an exact zero (probability 2**-53 a draw): each stream that drew one is
    drawn again from its key as an ``RngStream``, which never draws one."""
    draws = [draw(s, arg) for s in (streams.raw() if isinstance(streams, Streams) else streams)]
    while True:
        *joined, counts = ([d[i] for d in draws] for i in range(len(draws[0])))
        joined = [np.concatenate(a) for a in joined]
        if all(np.count_nonzero(a) == a.size for a in joined):
            return (*joined, np.array(counts))
        zero = np.flatnonzero(np.logical_or.reduce([a == 0.0 for a in joined]))
        for j in np.unique(np.searchsorted(np.cumsum(counts), zero, side="right")).tolist():
            draws[j] = draw(streams[j], arg)
