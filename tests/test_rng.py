"""Tests for the counter-based replication streams."""

import numpy as np
import pytest

from mssim import (
    RngStream, StabilityIndex, Truncation, experiments, inverse_mfpp, plan_block, ppp, rng,
    sample_pattern, sample_poisson_path,
)
from mssim.experiments import stream_for


def test_same_key_same_sequence():
    a = RngStream(42, 0)
    b = RngStream(42, 0)
    assert a.uniform(100).tolist() == b.uniform(100).tolist()


def test_distinct_stream_ids_differ():
    assert (RngStream(42, 0).uniform(4) != RngStream(42, 1).uniform(4)).all()


def test_distinct_seeds_differ():
    assert (RngStream(42, 0).uniform(4) != RngStream(43, 0).uniform(4)).all()


def test_key_validation():
    with pytest.raises(ValueError):
        RngStream(-1, 0)
    with pytest.raises(ValueError):
        RngStream(0, 2**64)
    with pytest.raises(ValueError):
        RngStream(0.5, 0)


def test_uniform_open_interval_and_mean():
    u = RngStream(123, 0).uniform(1_000_000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.002  # 3 * sqrt(1/12) / 1000


def test_streams_pairwise_uncorrelated():
    a = RngStream(9, 0).uniform(100_000)
    b = RngStream(9, 1).uniform(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.01


def test_exponential_mean_and_positivity():
    # the gaps of a rate-2 Poisson clock are Exp(2): about 200,000 of mean 0.5
    x = np.diff(sample_poisson_path(RngStream(5, 0), 2.0, 100_000.0), prepend=0.0)
    assert (x > 0).all()
    assert abs(x.mean() - 0.5) < 0.005
    with pytest.raises(ValueError):
        sample_poisson_path(RngStream(5, 0), 0.0, 1.0)


def test_poisson_draws():
    s = RngStream(11, 0)
    draws = np.array([s.poisson(4.0) for _ in range(20_000)])
    assert abs(draws.mean() - 4.0) < 0.05
    assert s.poisson(0.0) == 0


@pytest.mark.parametrize("mean", (float("nan"), float("inf"), -float("inf"), -1.0))
def test_poisson_rejects_a_mean_that_is_not_finite_and_non_negative(mean):
    with pytest.raises(ValueError, match="finite and non-negative"):
        RngStream(11, 0).poisson(mean)


class _ScriptedGenerator:
    """A generator stand-in whose ``random`` returns scripted draws in turn,
    and whose ``poisson`` returns ``count``."""

    def __init__(self, *draws, count=None):
        self.draws = [np.array(d, dtype=float) for d in draws]
        self.sizes = []
        self.count = count

    def random(self, size):
        self.sizes.append(size)
        return self.draws.pop(0)

    def poisson(self, mean):
        return self.count


def test_uniform_redraws_an_exact_zero_from_the_same_stream():
    s = RngStream(11, 0)
    real, s._gen = s._gen, _ScriptedGenerator([0.25, 0.0, 0.5, 0.0], [0.0, 0.75], [0.125])
    try:
        # the two zeros are redrawn together, then the one zero of that redraw
        assert s.uniform(4).tolist() == [0.25, 0.125, 0.5, 0.75]
        assert s._gen.sizes == [4, 2, 1] and not s._gen.draws
    finally:
        s._gen = real  # the stream hands its generator back to the spares


def test_uniform_in_pieces_draws_what_one_draw_does():
    # the pieces continue the stream, so a path drawn until it passes a level
    # holds the uniforms of one draw; only an exact zero, whose redraw comes
    # right after its piece, would move them, with probability 2**-53 a draw
    whole = RngStream(17, 3).uniform(1000)
    s = RngStream(17, 3)
    pieces = [s.uniform(k) for k in (1, 250, 3, 0, 746)]
    assert np.concatenate(pieces).tolist() == whole.tolist()


@pytest.mark.parametrize("mode", ppp.TRUNCATION_MODES)
def test_an_exact_zero_in_either_half_of_a_pattern_draw_is_redrawn(mode):
    # a stream draws its K unit times and K levels (or keep uniforms) in one
    # uniform(2K) call, so a zero in the times is redrawn after the levels;
    # two calls of K would redraw it before them.  This is the one deliberate
    # change to which draw lands where, with probability 2**-53 a draw
    idx = StabilityIndex.from_spec("constant:0.5", 2.0)
    s = RngStream(11, 0)
    real = s._gen
    try:
        if mode == "stationary":
            s._gen = _ScriptedGenerator([0.25, 0.0, 0.5, 0.0], [0.75, 0.125], count=2)
            pat = sample_pattern([s], plan_block(idx, 0.0, 2.0, Truncation(mode, 4.0)), idx)
            assert pat.times.tolist() == [0.5, 1.5]
            assert pat.sizes.tolist() == [2.0 ** -2.0, 0.5 ** -2.0]
            assert s._gen.sizes == [4, 2]
        else:
            # a constant index keeps every candidate; then the two sizes
            s._gen = _ScriptedGenerator([0.0, 0.5, 0.0, 0.25], [0.375, 0.0], [0.125],
                                        [0.5, 0.0], [0.25], count=2)
            pat = sample_pattern([s], plan_block(idx, 0.0, 1.0, Truncation(mode, 0.01)), idx)
            assert pat.times.tolist() == [0.375, 0.5]
            assert pat.sizes.tolist() == [0.01 * 0.5 ** -2.0, 0.01 * 0.25 ** -2.0]
            assert s._gen.sizes == [4, 2, 1, 2, 1]
        assert not s._gen.draws and (pat.times > 0).all() and (pat.sizes > 0).all()
    finally:
        s._gen = real  # the stream hands its generator back to the spares


def test_bernoulli_frequency():
    hits = RngStream(13, 0).bernoulli(0.3, 200_000)
    assert hits.dtype == bool
    assert abs(hits.mean() - 0.3) < 0.004


KEYS = ((0, 0), (42, (7 << 40) + 5), (2**64 - 1, 2**64 - 1), (3, 11))


def _fresh(key):
    return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))


def _draws(s):
    """A poisson, a uniform and a bernoulli draw from an RngStream."""
    return [s.poisson(3.5), s.uniform(9).tolist(), s.bernoulli(0.4, 7).tolist()]


def _fresh_draws(g):
    """The same draws from a plain Generator."""
    return [int(g.poisson(3.5)), g.random(9).tolist(), (g.random(7) < 0.4).tolist()]


@pytest.mark.parametrize("key", KEYS)
def test_stream_draws_what_a_fresh_philox_draws(key):
    # the stream's generator is a re-keyed spare, drawn from before
    RngStream(1, 2).uniform(5)
    assert _draws(RngStream(*key)) == _fresh_draws(_fresh(key))


def test_live_streams_interleaved_and_after_a_drop():
    a, b = RngStream(*KEYS[1]), RngStream(*KEYS[2])
    ga, gb = _fresh(KEYS[1]), _fresh(KEYS[2])
    for _ in range(3):
        assert _draws(a) == _fresh_draws(ga)
        assert _draws(b) == _fresh_draws(gb)
    del a
    c = RngStream(*KEYS[3])
    gc = _fresh(KEYS[3])
    for _ in range(2):
        assert _draws(c) == _fresh_draws(gc)
        assert _draws(b) == _fresh_draws(gb)


def test_sequential_streams_reuse_their_generators(monkeypatch):
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    for rep in range(1000):
        stream_for(7, 1, rep).uniform(3)
    assert len(built) <= 2


def test_draw_joined_draws_again_each_stream_that_drew_an_exact_zero():
    # streams of 2, 0, 3 and 1 draws in two joined arrays, listed by their
    # index, which a list hands back for the redraw; a second draw is halves
    first = {0: ([0.5, 0.25], [0.0, 0.5]), 1: ([], []),
             2: ([0.125, 0.0, 0.75], [0.25, 0.5, 0.0]), 3: ([0.375], [0.5])}
    calls = []

    def draw(i, zero_at):
        calls.append(i)
        a, b = first[i] if calls.count(i) == 1 else ([0.5] * len(first[i][0]),) * 2
        a, b = np.array(a), np.array(b)
        a[a == zero_at] = 0.0
        return a, b, len(a)

    a, b, counts = rng.draw_joined([0, 1, 2, 3], draw, -1.0)
    assert calls == [0, 1, 2, 3, 0, 2] and counts.tolist() == [2, 0, 3, 1]
    assert a.tolist() == [0.5] * 5 + [0.375] and b.tolist() == [0.5] * 6
    calls.clear()
    assert rng.draw_joined([3, 1], draw, -1.0)[0].tolist() == [0.375] and calls == [3, 1]
    calls.clear()
    assert rng.draw_joined([3, 1], draw, 0.375)[0].tolist() == [0.5] and calls == [3, 1, 3]


BATCHES = ((42, (7 << 40) + 5, 6), (2**64 - 1, 2**64 - 3, 3), (3, 0, 1))


@pytest.mark.parametrize("seed, first, count", BATCHES)
def test_a_batch_draws_what_each_of_its_keys_draws(seed, first, count):
    # by index, by iteration and raw, with a generator reused from before
    RngStream(1, 2).uniform(5)
    batch = rng.Streams(seed, first, count)
    assert len(batch) == count
    want = [_fresh_draws(_fresh((seed, first + i))) for i in range(count)]
    assert [_draws(batch[i]) for i in range(count)] == want
    assert [_draws(s) for s in batch] == want
    raw = [[int(r.poisson(3.5)), r.uniform(9).tolist(), (r.uniform(7) < 0.4).tolist()]
           for r in batch.raw()]
    assert raw == want
    with pytest.raises(IndexError):
        batch[count]


def test_a_batch_checks_its_key_range():
    for args in ((-1, 0, 1), (0.5, 0, 1), (0, -1, 1), (0, 2**64, 0), (0, 2**64 - 2, 3),
                 (0, 0, -1), (0, 5, -1), (0, 0, 1.0)):
        with pytest.raises(ValueError):
            rng.Streams(*args)
    assert len(rng.Streams(0, 2**64 - 2, 2)) == 2


class _Zeroing:
    """A raw stream whose first ``uniform`` call reads an exact zero at ``at``."""

    def __init__(self, raw, at):
        self.poisson, self.raw, self.at = raw.poisson, raw, at

    def uniform(self, size):
        u = self.raw.uniform(size)
        u[self.at(size)] = 0.0
        self.uniform = self.raw.uniform
        return u


def _zero_in_raw_draw(monkeypatch, j, at):
    """Make the j-th stream of every raw batch draw an exact zero at ``at``."""
    raw = rng.Streams.raw

    def zeroing(self):
        for i, r in enumerate(raw(self)):
            yield _Zeroing(r, at) if i == j else r

    monkeypatch.setattr(rng.Streams, "raw", zeroing)


@pytest.mark.parametrize("half", ("times", "levels"))
def test_a_raw_pattern_draw_with_an_exact_zero_is_drawn_again_from_its_key(half, monkeypatch):
    # a raw draw skips the zero check, so the batch checks its joined draws
    # once; a stream that drew a zero is drawn again as an RngStream, whose
    # uniform redraws it, so the pattern is that of the stream's own draws
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("stationary", 3.0))
    want = sample_pattern([RngStream(5, 100 + i) for i in range(8)], blk, idx)
    assert want.counts[2] > 0
    _zero_in_raw_draw(monkeypatch, 2, (lambda size: 0) if half == "times" else
                      (lambda size: size // 2))
    calls = []
    real = ppp.sample_stationary

    def recording(stream, b):
        calls.append(stream)
        return real(stream, b)

    monkeypatch.setattr(ppp, "sample_stationary", recording)
    got = sample_pattern(rng.Streams(5, 100, 8), blk, idx)
    assert [f.tobytes() for f in got] == [f.tobytes() for f in want]
    assert len(calls) == 9 and calls[-1].stream_id == 102


def test_a_raw_arrival_draw_with_an_exact_zero_is_drawn_again_from_its_key(monkeypatch):
    batch = rng.Streams(5, 200, 6)
    e = np.array([[0.0, 1.0, 2.0]] * 6)
    want = inverse_mfpp.time_changed_counts(batch, 3.0, 2.0, e)
    # an arrival at 0 would count at e = 0
    assert want[4].tolist()[0] == 0.0 < want[4, 2]
    _zero_in_raw_draw(monkeypatch, 4, lambda size: 0)
    assert inverse_mfpp.time_changed_counts(batch, 3.0, 2.0, e).tobytes() == want.tobytes()


def test_a_stationary_kernel_call_keeps_one_generator(monkeypatch):
    # its streams are drawn one after another on one re-keyed generator, not
    # held open, since a new worker builds each generator afresh at 14 us
    built = []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    monkeypatch.setattr(rng, "_SPARE", [])
    idx = StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
    blk = plan_block(idx, 0.0, 1.0, Truncation("stationary", 12.5))
    inc = experiments._increments_chunk(0, 2000, 42, 1, idx, blk, [(0.0, 0.5), (0.0, 1.0)])
    assert inc["inc"].shape == (2000, 2) and len(built) <= 2
