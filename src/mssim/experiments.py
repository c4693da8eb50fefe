"""Replication pipelines behind the command-line interface.

Each pipeline draws its Monte Carlo replications from per-replication
random streams (master seed, channel, replication index), reduces them
into a ``Report`` of named columns, and never depends on the number of
worker processes: identical configuration and seed give byte-identical
output.  A replication is one row of a chunk kernel's arrays, and
``_map_reps`` is the only map over replications.  A kernel takes the
streams of its replications on each channel as one ``streams_for`` batch.
Every kernel that draws jumps draws its streams through
``ppp.sample_pattern``: the window increments and the first passages sum
them by keyed ``np.bincount``, in draw order, and the ``paths`` and
criterion-5 kernels sort each stream's path with
``subordinator.build_path``.
"""

from dataclasses import dataclass
import contextlib
import csv
import io
import math
import os
import sys

import numpy as np

from . import __version__ as _VERSION
from . import ctrw, inverse_mfpp, ppp, rng, stats, subordinator
from .errors import HorizonError
from .stability import StabilityIndex

# ---------------------------------------------------------------------------
# stream layout: stream_id = (channel << 40) + replication index, so every
# experiment channel owns 2**40 replication slots and channels never collide
# ---------------------------------------------------------------------------

CH_LAPLACE = 1
CH_CROSS_STATIONARY = 2
CH_CROSS_THRESHOLD = 3
CH_CONTINUITY = 4
CH_INCREMENTS = 5
CH_MONOTONE = 6
CH_PASSAGE = 7
CH_ARRIVALS = 8
CH_TAIL = 9
CH_D_REFERENCE = 10
CH_PATHS_JUMPS = 11
CH_PATHS_ARRIVALS = 12
CH_CTRW_JUMPS = 16  # + 2 * (index of n in the n list); walk channel is +1

_CHANNEL_SHIFT = 40

DEFAULT_MASS_BUDGET = 1e-3
# laplace's default stationary level M: any level gives unbiased rows, but a
# lower one leaves less of D to the sampler; at 8,000 replications a sampler
# that reads its index 0.05 high misses by 4.3 times 3*SE here, 1.4 at M = 3
LAPLACE_LEVEL = 12.5
# points the replications of one run may draw in the mean, on whole-horizon
# blocks, passage plans (each block past the first weighted by a bound on the
# chance the top level is unreached at its start), ctrw cells and walk steps,
# Poisson arrivals and D reference blocks: 100-160 s of drawing at the 50-80
# ns per point measured on one core of a 2-vCPU Xeon, and 3.5 times the full
# verify's largest run (ctrw's 10,000 x 56,400 points, 55,500 of them cells)
_MAX_RUN_POINTS = 2e9
_PASSAGE_BLOCK_LEN = 0.25
_PASSAGE_POINTS_CAP = 3.0e5
_PASSAGE_TAIL_TARGET = 1e-8
_PASSAGE_BINS = 256
_T_END_CANDIDATES = (
    1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0,
    10.0, 12.0, 16.0, 24.0, 32.0, 48.0, 64.0,
)
_ARRIVALS_HINT = "the Poisson process draws about lambda * horizon arrivals; lower --lambda"


def stream_for(seed, channel, rep):
    """The random stream of one replication on one experiment channel."""
    return rng.RngStream(seed, (channel << _CHANNEL_SHIFT) + rep)


def streams_for(seed, channel, lo, hi):
    """The random streams of the replications [lo, hi) on one experiment
    channel, as one ``rng.Streams`` batch."""
    return rng.Streams(seed, (channel << _CHANNEL_SHIFT) + lo, hi - lo)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _fmt(v):
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        x = float(v)
        return "nan" if math.isnan(x) else format(x, ".17g")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


@dataclass
class Report:
    """A finished experiment: config echo plus rows of named columns.

    Serialized as CSV with ``#``-prefixed key=value header lines; reals
    carry 17 significant digits so the file round-trips losslessly.
    """

    command: str
    header: dict
    columns: tuple
    rows: list

    def all_pass(self):
        i = self.columns.index("pass")
        return all(bool(r[i]) for r in self.rows)

    def to_csv(self):
        out = io.StringIO()
        out.write(f"# command={self.command}\n")
        out.write(f"# version={_VERSION}\n")
        for k, v in self.header.items():
            out.write(f"# {k}={_fmt(v)}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_fmt(v) for v in row])
        return out.getvalue()

    def write(self, path):
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(self.to_csv())
        except OSError as exc:
            raise ValueError(f"cannot write the output: {exc}") from None


# ---------------------------------------------------------------------------
# parallel replication mapping
# ---------------------------------------------------------------------------

_MIN_CHUNK = 16
_CHUNKS_PER_WORKER = 8
# a chunk kernel's calls: at most this many replications, and about this
# many expected points, so a call's arrays stay near 64 kB each; criteria 2
# and 4 draw 1,000 points a replication, and at 2**15 points a call and
# more they took longer than one replication at a time
_KERNEL_REPS = 1024
_KERNEL_POINTS = 2**13


def _reps_for(points):
    """The replications of one kernel call whose replications each draw
    ``points`` in the mean: at most ``_KERNEL_REPS`` and about
    ``_KERNEL_POINTS`` points, or one where one replication draws more; a
    zero or subnormal mean, whose quotient is inf, gets ``_KERNEL_REPS``."""
    return max(1, int(min(_KERNEL_REPS, _KERNEL_POINTS / points if points else math.inf)))


def _kernel_reps(blk):
    """The replications of one kernel call that draws ``blk``."""
    return _reps_for(ppp.drawn_count(blk))


class ProcessPoolExecutor:
    """``concurrent.futures.ProcessPoolExecutor``, imported when a pool is
    built: a run that opens none never loads ``multiprocessing``."""

    def __init__(self, max_workers):
        from concurrent import futures

        self._pool = futures.ProcessPoolExecutor(max_workers=max_workers)
        self._max_workers = max_workers

    def submit(self, fn, *args, **kwargs):
        return self._pool.submit(fn, *args, **kwargs)

    def __enter__(self):
        self._pool.__enter__()
        return self

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)


def _splits(reps):
    """Whether a map of ``reps`` replications splits into at least two
    chunks of ``_MIN_CHUNK``: the one rule for whether a run opens a pool.
    It counts chunks only, not what a fork or a chunk's round trip costs."""
    return reps >= 2 * _MIN_CHUNK


def _open_pool(workers, reps):
    """The one process pool of a run, for its plan and every replication
    map, of at most ``workers`` processes and one per CPU.  Use it in a
    ``with`` block, which yields ``None`` for no pool: where that cap is one
    process, or where the run's largest map of ``reps`` replications does not
    ``_splits``, the run is serial, its plan included, and the pool's modules
    are never imported.  A pool's processes start at its first submit."""
    size = min(workers, os.cpu_count() or 1)
    if size <= 1 or not _splits(reps):
        return contextlib.nullcontext()
    return ProcessPoolExecutor(max_workers=size)


def _map_chunk(fn, lo, hi, params, kernel_reps):
    """The chunk kernel ``fn(a, b, **params)`` on consecutive ranges [a, b)
    of at most ``kernel_reps`` replications of [lo, hi), its arrays joined."""
    parts = [fn(a, min(a + kernel_reps, hi), **params) for a in range(lo, hi, kernel_reps)]
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


def _results(futures):
    """The results of ``futures`` in their order; the first one that raises
    cancels the rest, those still queued, and its error propagates."""
    try:
        return [f.result() for f in futures]
    except BaseException:
        for f in futures:
            f.cancel()
        raise


def _map_reps(fn, reps, pool, kernel_reps, **params):
    """Run the chunk kernel ``fn(lo, hi, **params)``, which returns one array
    per name for the replications [lo, hi), over every rep in [0, reps), on
    ``pool`` or serially if it is ``None``, handed at most ``kernel_reps``
    replications a call.

    Each named output becomes one array whose first axis is the
    replication.  Chunks are reduced in replication order, and every
    replication owns its own stream, so the result is independent of the
    pool.  Replication costs are uneven, so the pool gets about eight chunks
    per process, each of at least ``_MIN_CHUNK`` replications; a map that
    does not ``_splits`` runs serially, which keeps ``_open_pool``'s rule for
    the smaller maps of verify's shared pool."""
    if pool is None or not _splits(reps):
        return _map_chunk(fn, 0, reps, params, kernel_reps)
    # _max_workers is the pool's size, at least two: _open_pool builds no
    # pool of one process
    chunk = max(_MIN_CHUNK, -(-reps // (_CHUNKS_PER_WORKER * pool._max_workers)))
    parts = _results([pool.submit(_map_chunk, fn, lo, min(lo + chunk, reps), params, kernel_reps)
                      for lo in range(0, reps, chunk)])
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


# ---------------------------------------------------------------------------
# horizon selection and first-passage planning
# ---------------------------------------------------------------------------


def level_tail_bound(idx, level):
    """Exponential-moment upper bound on P(D(T) < level) at the horizon T.

    For any theta > 0, P(D(T) < r) <= exp(theta*r) * E[exp(-theta*D(T))];
    the exponent is minimized over a logarithmic theta grid.  Its integral
    is composite Simpson on each piece between the index's critical points,
    with 200 intervals over [0, T] and at least 2 per piece, so no grid can
    sit on the zeros of a sin index."""
    T = idx.horizon
    edges = [0.0, *(c for c in idx.critical_points(0.0, T) if 0.0 < c < T), T]
    s, w = [], []
    for a, b in zip(edges, edges[1:]):
        m = 2 * max(1, math.ceil(100.0 * ((b - a) / T)))
        wp = np.ones(m + 1)
        wp[1:-1:2], wp[2:-1:2] = 4.0, 2.0
        s.append(np.linspace(a, b, m + 1))
        w.append(wp * (((b - a) / m) / 3.0))
    beta = idx.evaluate_many(np.concatenate(s))
    wg = np.concatenate(w) * subordinator.gamma_fn(1.0 - beta)
    thetas = np.logspace(-2.0, 8.0, 161)
    exponent = thetas * level - (thetas[:, None] ** beta[None, :]) @ wg
    return math.exp(min(0.0, float(exponent.min())))  # at most 1, and no overflow


def choose_horizon(beta_spec, level, shortest=0.0):
    """Shortest horizon of at least ``shortest`` on which the level is
    reached except with probability below the planning target (or the
    longest horizon the index covers inside (0, 1)); other errors of the
    index, such as the ``sin`` extrema cap, are raised.  Returns
    ``(index, tail_bound)``."""
    best = None
    for T in _T_END_CANDIDATES:
        if T < shortest:
            continue
        try:
            idx = StabilityIndex.from_spec(beta_spec, T)
        except HorizonError:
            continue
        bound = level_tail_bound(idx, level)
        best = (idx, bound)
        if bound <= _PASSAGE_TAIL_TARGET:
            return best
    if best is None:
        raise ValueError(f"beta spec {beta_spec!r} is not valid on any horizon from "
                         f"{shortest:g} to {_T_END_CANDIDATES[-1]:g}")
    return best


@dataclass(frozen=True)
class PassagePlan:
    """Block-by-block truncated simulation plan for first-passage runs:
    ``ppp.Block``s covering [0, horizon] in time order."""

    idx: StabilityIndex
    levels: tuple
    blocks: tuple


def _budget_block(idx, T, mode, reps):
    """The block [0, T] under the truncation of ``mode`` that meets the
    default excluded-mass budget.  A ValueError rejects, before anything is
    drawn, a run whose ``reps`` replications draw more than
    ``_MAX_RUN_POINTS`` points."""
    blk = ppp.plan_block(idx, 0.0, T, ppp.solve_truncation(idx, T, mode, DEFAULT_MASS_BUDGET))
    _check_run_points(reps, ppp.drawn_count(blk))
    return blk


def _check_run_points(reps, drawn, plan=None):
    """Reject, before anything is drawn, a run whose ``reps`` replications
    surely draw ``drawn`` points each, and in the mean the first block of
    ``plan`` and each later block times ``level_tail_bound`` of the top level
    at its start, which bounds the chance that a replication has not passed
    it there and draws the block, more than ``_MAX_RUN_POINTS`` in all.  The
    weights are at most 1, so they are needed only where weights of 1 fail."""
    if plan is not None:
        points = [ppp.drawn_count(b) for b in plan.blocks]
        if reps * (drawn + sum(points)) > _MAX_RUN_POINTS:
            idx, top = plan.idx, plan.levels[-1]
            points[1:] = [x * level_tail_bound(StabilityIndex(idx.family, idx.params, b.t0), top)
                          for x, b in zip(points[1:], plan.blocks[1:])]
        drawn += sum(points)
    _require(reps * drawn <= _MAX_RUN_POINTS,
             f"{reps:g} replications at {drawn:.3g} points per replication draw "
             f"{reps * drawn:.3g}, above the run cap of {_MAX_RUN_POINTS:g}; lower --reps")


def _passage_block(idx, t0, t1, trunc_m=None):
    """The compensated block on [t0, t1], stationary at the level ``trunc_m``
    or else threshold, with the excluded mass of each of its ``_PASSAGE_BINS``
    time bins as its drift.  A threshold block's excluded sd meets the budget
    rate up to t=1; later ones (drawn only before passage) also cap the mean
    count: a small, quantified extra sd buys bounded cost near an index of 1."""
    trunc = ppp.solve_truncation(
        idx, t1, "threshold", DEFAULT_MASS_BUDGET * (t1 - t0), t0=t0, compensated=True,
        max_count=_PASSAGE_POINTS_CAP if t1 > 1.0 else math.inf,
    ) if trunc_m is None else ppp.Truncation("stationary", float(trunc_m))
    blk = ppp.plan_block(idx, t0, t1, trunc, bins=_PASSAGE_BINS)
    _require(np.isfinite(blk.drift).all(), f"the truncation {trunc.mode}:{trunc.parameter:g} "
             "excludes a jump mass beyond the float range; raise trunc-m")
    return blk


def plan_passage(idx, levels, pool=None, trunc_m=None):
    """Compensated blocks covering [0, horizon] for the positive, ascending
    ``levels``, stationary at the level ``trunc_m`` or else threshold, each
    planned from its window alone, so on ``pool`` they are solved side by
    side and read back in time order, the latest windows first, since the
    point-capped ones past t = 1 cost most; one that raises cancels the rest.
    A run whose largest map does not ``_splits`` has no pool (see
    ``_open_pool``), so its plan is solved serially."""
    windows = []
    t0 = 0.0
    while t0 < idx.horizon - 1e-12:
        t1 = min(t0 + _PASSAGE_BLOCK_LEN, idx.horizon)
        windows.append((t0, t1))
        t0 = t1
    if pool is None:
        blocks = [_passage_block(idx, *w, trunc_m) for w in windows]
    else:
        futures = [pool.submit(_passage_block, idx, *w, trunc_m) for w in reversed(windows)]
        blocks = _results(futures[::-1])
    return PassagePlan(idx, tuple(levels), tuple(blocks))


def _block_passage(streams, plan):
    """First-passage times at every plan level of one truncated path per
    stream, one row per stream.

    Each block is drawn only for the streams still below a level, in groups
    of about ``_KERNEL_POINTS`` expected points, and summed by one
    ``np.bincount`` on (stream, bin) keys over ``_PASSAGE_BINS`` equal time
    bins, each with its drift; the last running sum is the block's end.  A
    level is crossed in the first bin whose running sum reaches it, and
    only that bin's points are sorted and searched, by ``first_passage``.
    This is the passage of the block's sorted path up to the rounding of
    its partial sums.  Levels not reached by the horizon stay NaN (the
    caller flags them); a stream draws no block after its last passage."""
    levels = np.asarray(plan.levels)
    e = np.full((len(streams), len(levels)), np.nan)
    total = np.zeros(len(streams))
    nxt = np.zeros(len(streams), dtype=np.intp)
    active = np.arange(len(streams))
    for blk in plan.blocks:
        drift = np.zeros(_PASSAGE_BINS) if blk.drift is None else blk.drift
        # rounding is monotone, so a later time never falls in an earlier bin
        scale = _PASSAGE_BINS / (blk.t1 - blk.t0)
        width = (blk.t1 - blk.t0) / _PASSAGE_BINS
        per = _kernel_reps(blk)
        for g in range(0, len(active), per):
            group = active[g:g + per]
            pat = ppp.sample_pattern([streams[i] for i in group], blk, plan.idx)
            t, x, counts = pat.times, pat.sizes, pat.counts
            bins = np.minimum(((t - blk.t0) * scale).astype(np.intp), _PASSAGE_BINS - 1)
            bins += np.repeat(np.arange(0, len(group) * _PASSAGE_BINS, _PASSAGE_BINS), counts)
            sums = np.bincount(bins, weights=x, minlength=len(group) * _PASSAGE_BINS)
            ends = total[group, None] + np.cumsum(sums.reshape(len(group), -1) + drift, axis=1)
            stops = np.cumsum(counts)
            for r in np.flatnonzero(ends[:, -1] >= levels[nxt[group]]):
                i, row = group[r], ends[r]
                own = slice(stops[r] - counts[r], stops[r])
                tr, xr, keys = t[own], x[own], bins[own]
                crossing = np.searchsorted(row, levels[nxt[i]:], side="left")
                inside_bins = crossing[crossing < _PASSAGE_BINS]  # ascending
                for k in inside_bins[np.diff(inside_bins, prepend=-1) > 0]:
                    inside = np.flatnonzero(keys == r * _PASSAGE_BINS + k)
                    order = inside[np.argsort(tr[inside])]
                    start = row[k - 1] if k else total[i]
                    prefix = start + np.cumsum(xr[order])
                    if not drift[k]:
                        # the bin holds a jump and ends at its bin sum, so a
                        # level placed in it is reached in it
                        prefix[-1] = row[k]
                    b0 = blk.t0 + k * width
                    hit = nxt[i] + np.flatnonzero(crossing == k)
                    e[i, hit] = inverse_mfpp.first_passage(tr[order], prefix, levels[hit], start,
                                                           drift[k] / width, b0, b0 + width)
                nxt[i] += int(np.count_nonzero(crossing < _PASSAGE_BINS))
            total[group] = ends[:, -1]
        active = active[nxt[active] < len(levels)]
        if not len(active):
            break
    return e


# ---------------------------------------------------------------------------
# chunk kernels (top level so worker processes can import them); each takes
# the replications [lo, hi) and returns a dict of named arrays with one row
# per replication, which ``_map_reps`` joins
# ---------------------------------------------------------------------------


def _increments(reps, pool, seed, channel, idx, blk, windows):
    """Increments of D over each (a, b] window for every replication, each
    from one pattern of the block [0, T]: an array of one row per
    replication, worked by ``_increments_chunk``."""
    return _map_reps(_increments_chunk, reps, pool, _kernel_reps(blk), seed=seed,
                     channel=channel, idx=idx, blk=blk, windows=windows)["inc"]


def _increments_chunk(lo, hi, seed, channel, idx, blk, windows):
    """The increments of the replications [lo, hi): one ``sample_pattern``
    of their streams, then each window's sums by one ``np.bincount`` keyed
    by replication, which adds each replication's jumps in the window in
    draw order."""
    pat = ppp.sample_pattern(streams_for(seed, channel, lo, hi), blk, idx)
    t, x = pat.times, pat.sizes
    rep = np.repeat(np.arange(hi - lo), pat.counts)
    inc = np.empty((hi - lo, len(windows)))
    for j, (a, b) in enumerate(windows):
        # positions, not a boolean mask: numpy gathers a long array by
        # position about 4 times faster than it selects by mask
        pos = np.flatnonzero((t > a) & (t <= b))
        inc[:, j] = np.bincount(rep[pos], weights=x[pos], minlength=hi - lo)
    return {"inc": inc}


def _sorted_paths(pat):
    """The path (times, prefix) of each stream's points in the pattern
    ``pat``, by ``subordinator.build_path``."""
    cut = np.cumsum(pat.counts)[:-1]
    return [subordinator.build_path(t, x)
            for t, x in zip(np.split(pat.times, cut), np.split(pat.sizes, cut))]


def _monotone_chunk(lo, hi, seed, idx, blk):
    """Strict-monotonicity and inverse-consistency violations of one path
    on [0, horizon] per replication, probed at 100 random levels and 100
    random times drawn from its stream after its pattern."""
    streams = list(streams_for(seed, CH_MONOTONE, lo, hi))
    paths = _sorted_paths(ppp.sample_pattern(streams, blk, idx))
    bad = np.ones(hi - lo, dtype=np.int64)  # an empty path is one violation
    for r, (s, (times, prefix)) in enumerate(zip(streams, paths)):
        if not len(prefix):
            continue
        bad[r] = int(prefix[0] <= 0.0 or (np.diff(prefix) <= 0.0).any())
        # first-passage consistency: D(E(r)) >= r and the path is still
        # below r just before E(r); and E(D(t)) <= t for every t
        rs = s.uniform(100) * prefix[-1]
        e = inverse_mfpp.first_passage(times, prefix, rs)
        before = np.concatenate(([0.0], prefix))[np.searchsorted(times, e, side="left")]
        bad[r] += int(((subordinator.eval_many(times, prefix, e) < rs) | (before >= rs)).sum())
        ts = idx.horizon * s.uniform(100)
        e = inverse_mfpp.first_passage(times, prefix, subordinator.eval_many(times, prefix, ts))
        bad[r] += int((e > ts * (1.0 + 1e-12)).sum())
    return {"bad": bad}


def _passage_chunk(lo, hi, seed, plan, rate):
    """First-passage times E at each plan level (NaN where the horizon comes
    first), and X = N(min(E, horizon)) for a rate-``rate`` Poisson process,
    of the replications [lo, hi); the counts of all of them are taken at
    once, by ``inverse_mfpp.time_changed_counts``, so a run hands a call
    about ``_KERNEL_POINTS`` arrivals (``_reps_for``)."""
    e = _block_passage(list(streams_for(seed, CH_PASSAGE, lo, hi)), plan)
    T = plan.idx.horizon
    x = inverse_mfpp.time_changed_counts(streams_for(seed, CH_ARRIVALS, lo, hi), rate, T,
                                         np.fmin(e, T))
    return {"e": e, "x": x}


def _ctrw_chunk(lo, hi, seed, channel, idx, row, ts, p_n, lam):
    """S_n(t), E_n(t) and the composed walk at each t of the replications
    [lo, hi), each from one path of the ``RowPlan`` ``row`` drawn until it
    passes the largest t.

    The summands use stream ``channel`` and the walk ``channel + 1``; a level
    past the last partial sum flags the replication.  E_n is censored at the
    horizon T, min(E_n, T), since the last cell can end past T.  The walk is
    the running sum of Bernoulli(p_n) steps, read after floor(lambda * E_n /
    p_n) of them."""
    ts = np.asarray(ts, dtype=float)
    cells = np.floor(row.n * ts + 1e-9).astype(int)
    s, e, x = (np.empty((hi - lo, len(ts))) for _ in range(3))
    walks = streams_for(seed, channel + 1, lo, hi)
    for r, (jumps, walk) in enumerate(zip(streams_for(seed, channel, lo, hi), walks)):
        path = ctrw.partial_sum_path(jumps, row, ts.max())
        s[r] = path.grid[np.minimum(cells, len(path.grid) - 1)]
        e[r] = ctrw.inverse_ctrw(path, ts)
        # an unreached level's NaN becomes T too
        m = np.floor(lam * np.fmin(e[r], idx.horizon) / p_n + 1e-12).astype(np.int64)
        steps = walk.bernoulli(p_n, int(m.max()))
        x[r] = np.concatenate(([0], np.cumsum(steps)))[m]
    return {"s": s, "e": np.fmin(e, idx.horizon), "x": x, "flagged": np.isnan(e).any(axis=1)}


def _paths_chunk(lo, hi, seed, idx, ts, blk, lam, out_prefix):
    """Write one trajectory CSV of D, E and X on the grid ``ts`` per
    replication of [lo, hi); report its name, its flagged rows and whether
    D and X are non-decreasing."""
    T = idx.horizon
    pat = ppp.sample_pattern(streams_for(seed, CH_PATHS_JUMPS, lo, hi), blk, idx)
    out = {"file": [], "nflag": [], "ok": []}
    for rep, (times, prefix), stream in zip(range(lo, hi), _sorted_paths(pat),
                                            streams_for(seed, CH_PATHS_ARRIVALS, lo, hi)):
        arrivals = inverse_mfpp.sample_poisson_path(stream, lam, T)
        d = subordinator.eval_many(times, prefix, ts)
        e = inverse_mfpp.first_passage(times, prefix, ts)
        x = inverse_mfpp.time_changed_count(arrivals, e)
        flags = np.isnan(e)
        header = {
            "beta": idx.spec_string(),
            "seed": seed,
            "rep": rep,
            "lambda": lam,
            "horizon": T,
            "truncation": f"{blk.trunc.mode}:{blk.trunc.parameter:.17g}",
        }
        rows = list(zip(ts.tolist(), d.tolist(), e.tolist(), x.tolist(), flags.tolist()))
        out["file"].append(f"{out_prefix}.rep{rep:05d}.csv")
        Report("paths", header, ("t", "d", "e", "x", "flagged"), rows).write(out["file"][-1])
        out["nflag"].append(int(flags.sum()))
        out["ok"].append(not ((np.diff(d) < 0).any() or (np.diff(x[~flags]) < 0).any()))
    return {k: np.array(v) for k, v in out.items()}


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _positive(v):
    """A positive, finite real: NaN and infinity fail, like non-positive values."""
    return 0.0 < v < math.inf


def _check_seed(seed):
    _require(isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64,
             f"seed must be an unsigned 64-bit integer, got {seed}")
    return int(seed)


def _check_common(reps, seed):
    _require(isinstance(reps, (int, np.integer)) and reps >= 2, f"reps must be >= 2, got {reps}")
    _require(reps <= sys.float_info.max,
             f"reps must be finite as a float, got one past {sys.float_info.max:g}")
    return int(reps), _check_seed(seed)


def _check_times(ts):
    """The t values as ascending floats, each positive and finite."""
    ts = sorted(float(v) for v in ts)
    _require(ts and all(_positive(v) for v in ts), f"t values must be positive and finite, got {ts}")
    return ts


def run_laplace(beta_spec, thetas=(0.5, 1.0, 2.0), ts=(0.5, 1.0), reps=10_000, seed=0, workers=1,
                trunc_m=LAPLACE_LEVEL):
    """Monte Carlo transform values of D(t) against the closed form.

    The jumps a stationary block at the level ``trunc_m`` drops are
    independent of those it keeps, so E exp(-theta D(t)) = F * E exp(-theta
    D_kept(t)) exactly, for F = exp(-``subordinator.dropped_exponent``).  A
    row reads F times the mean and the SE of exp(-theta D_kept(t)), its
    variance floored at 1/reps, and passes if |mean - closed form| <= 3*SE."""
    reps, seed = _check_common(reps, seed)
    thetas = [float(v) for v in thetas]
    _require(thetas and all(_positive(v) for v in thetas),
             f"theta values must be positive and finite, got {thetas}")
    ts = _check_times(ts)
    _require(_positive(trunc_m), f"trunc-m must be positive and finite, got {trunc_m}")
    T = ts[-1]
    idx = StabilityIndex.from_spec(beta_spec, T)
    trunc = ppp.Truncation("stationary", float(trunc_m))
    blk = ppp.plan_block(idx, 0.0, T, trunc)
    _check_run_points(reps, ppp.drawn_count(blk))
    mass = ppp.small_jump_mass_window(idx, 0.0, T, trunc)
    _require(mass < math.inf, f"the truncation {trunc.mode}:{trunc.parameter:g} excludes a jump "
             "mass beyond the float range; raise trunc-m")
    with _open_pool(workers, reps) as pool:
        d = _increments(reps, pool, seed, CH_LAPLACE, idx, blk, [(0.0, t) for t in ts])
    rows = []
    for theta in thetas:
        for j, t in enumerate(ts):
            est = stats.empirical_laplace(d[:, j], theta)
            factor = math.exp(-subordinator.dropped_exponent(idx, theta, t, trunc.parameter))
            mean, se = factor * est.mean, factor * max(est.se, 1.0 / reps)
            oracle = subordinator.laplace_transform(idx, theta, t)
            rows.append((idx.spec_string(), theta, t, mean, se, oracle,
                         abs(mean - oracle) <= 3.0 * se))
    header = {
        "beta": idx.spec_string(),
        "seed": seed,
        "reps": reps,
        "theta": ",".join(_fmt(v) for v in thetas),
        "t": ",".join(_fmt(v) for v in ts),
        "truncation": f"{trunc.mode}:{trunc.parameter:.17g}",
        "excluded_mass": mass,
    }
    return Report("laplace", header,
                  ("beta_spec", "theta", "t", "mc_mean", "mc_se", "oracle", "pass"), rows)


def run_mfpp(beta_spec, lam=1.0, ts=(1.0,), reps=10_000, seed=0, workers=1, trunc_m=None):
    """Marginal law of the time-changed counting process at each t.

    The oracle exists only for a constant index at k = 0 (a Mittag-Leffler
    value); other rows are emitted without a pass judgement of their own."""
    reps, seed = _check_common(reps, seed)
    lam = float(lam)
    _require(_positive(lam), f"lambda must be positive and finite, got {lam}")
    ts = _check_times(ts)
    _require(trunc_m is None or _positive(trunc_m),
             f"trunc-m must be positive and finite, got {trunc_m}")
    idx, tail = choose_horizon(beta_spec, ts[-1])
    ppp.check_points(lam * idx.horizon, 0.0, idx.horizon, hint=_ARRIVALS_HINT)
    with _open_pool(workers, reps) as pool:
        plan = plan_passage(idx, ts, pool, trunc_m)
        _check_run_points(reps, lam * idx.horizon, plan)
        res = _map_reps(_passage_chunk, reps, pool, _reps_for(lam * idx.horizon), seed=seed,
                        plan=plan, rate=lam)
    # the rows condition on the replications that reached the level
    reached = ~np.isnan(res["e"])
    unreached = int((~reached).sum())
    rows = []
    for j, t in enumerate(ts):
        col = res["x"][reached[:, j], j]
        nv = len(col)
        kmax = int(col.max()) if nv else 0
        for k in range(kmax + 1):
            p = float((col == k).mean()) if nv else float("nan")
            se = math.sqrt(p * (1.0 - p) / nv) if nv else float("nan")
            if idx.beta_inf == idx.beta_sup and k == 0:
                b = idx.beta_inf
                oracle = stats.mittag_leffler(b, -lam * t**b / subordinator.gamma_fn(1.0 - b))
                ok = abs(p - oracle) <= 3.0 * se
            else:
                oracle = float("nan")
                ok = True
            rows.append((t, k, p, se, oracle, ok))
    header = {
        "beta": idx.spec_string(),
        "seed": seed,
        "reps": reps,
        "lambda": lam,
        "t": ",".join(_fmt(v) for v in ts),
        "horizon": idx.horizon,
        "horizon_tail_bound": tail,
        "unreached": unreached,
    }
    return Report("mfpp", header, ("t", "k", "p_hat", "se", "oracle", "pass"), rows)


def _d_reference_block(idx, T):
    """The compensated threshold block on [0, T] whose excluded sd meets the
    default budget."""
    trunc = ppp.solve_truncation(idx, T, "threshold", DEFAULT_MASS_BUDGET, compensated=True)
    return ppp.plan_block(idx, 0.0, T, trunc)


def _d_reference(idx, ts, reps, seed, pool, blk):
    """D(t) at each ascending t for every replication, from the compensated
    block ``blk`` on [0, max t]: its jump sum up to t plus the mass it
    excludes up to t, added in place."""
    d = _increments(reps, pool, seed, CH_D_REFERENCE, idx, blk, [(0.0, t) for t in ts])
    d += [ppp.small_jump_mass_window(idx, 0.0, t, blk.trunc) for t in ts]
    return d


def run_ctrw(beta_spec, lfamily="unit", ns=(100, 1000), ts=(1.0,), reps=10_000, seed=0, workers=1,
             lam=1.0, alpha=0.01):
    """KS distances of the array approximations against direct simulation.

    For each n: the normalized partial sum at t vs D(t), its inverse at
    level t vs the first-passage time E(t), and the composed walk vs the
    time-changed count X(t).  Each t is both a time and a level, so the
    horizon is at least the largest t."""
    reps, seed = _check_common(reps, seed)
    lam = float(lam)
    _require(_positive(lam), f"lambda must be positive and finite, got {lam}")
    L = ctrw.SlowlyVaryingFamily(lfamily)
    ns = sorted(int(v) for v in ns)
    _require(ns and all(v >= 2 for v in ns), f"n values must be integers >= 2, got {ns}")
    ts = _check_times(ts)
    longest = _T_END_CANDIDATES[-1]
    _require(ts[-1] <= longest,
             f"t values must be at most {longest:g}, the longest horizon, got {ts[-1]:g}")
    crit = stats.ks_critical_value(reps, reps, alpha)
    idx, tail = choose_horizon(beta_spec, ts[-1], shortest=ts[-1])
    ppp.check_points(lam * idx.horizon, 0.0, idx.horizon, hint=_ARRIVALS_HINT)
    rowplans = []  # (row, p_n) per n
    for n in ns:
        p_n = n ** -0.5  # the walk's step chance, which goes to 0 as the limit needs
        ppp.check_points(ctrw.cell_count(n, idx.horizon), 0.0, idx.horizon,
                         hint=f"the row n={n} draws one summand per cell of width 1/n")
        ppp.check_points(lam * idx.horizon / p_n, 0.0, idx.horizon,
                         hint=f"the row n={n} walk takes lambda * horizon / p_n Bernoulli "
                         "steps; lower --lambda")
        rowplans.append((ctrw.RowPlan(n, idx, L), p_n))
    # reference samples, shared by every n
    with _open_pool(workers, reps) as pool:
        plan = plan_passage(idx, ts, pool)
        dblk = _d_reference_block(idx, ts[-1])
        # each replication draws every row's cells and walk steps, the
        # passage plan, the whole D reference block and the Poisson arrivals
        _check_run_points(reps, sum(len(row.b) + lam * idx.horizon / p_n for row, p_n in rowplans)
                          + ppp.drawn_count(dblk) + lam * idx.horizon, plan)
        dref = _d_reference(idx, ts, reps, seed, pool, dblk)
        ref = _map_reps(_passage_chunk, reps, pool, _reps_for(lam * idx.horizon), seed=seed,
                        plan=plan, rate=lam)
        # censored at the horizon, as E_n and the walk are: E is min(E, T)
        eref, xref = np.fmin(ref["e"], idx.horizon), ref["x"]
        rows = []
        flagged_total = 0
        for i, (row, p_n) in enumerate(rowplans):
            res = _map_reps(_ctrw_chunk, reps, pool, _KERNEL_REPS, seed=seed, idx=idx, row=row,
                            channel=CH_CTRW_JUMPS + 2 * i, ts=ts, p_n=p_n, lam=lam)
            flagged_total += int(res["flagged"].sum())
            for j, t in enumerate(ts):
                ks_d = stats.ks_two_sample(res["s"][:, j], dref[:, j])
                ks_e = stats.ks_two_sample(res["e"][:, j], eref[:, j])
                ks_x = stats.ks_two_sample(res["x"][:, j], xref[:, j])
                ok = max(ks_d, ks_e, ks_x) < crit
                rows.append((row.n, t, ks_d, ks_e, ks_x, crit, ok))
    header = {
        "beta": idx.spec_string(),
        "seed": seed,
        "reps": reps,
        "lfamily": lfamily,
        "n": ",".join(str(v) for v in ns),
        "t": ",".join(_fmt(v) for v in ts),
        "pn_rule": "sqrt",
        "lambda": lam,
        "alpha": float(alpha),
        "horizon": idx.horizon,
        "horizon_tail_bound": tail,
        "flagged": flagged_total,
    }
    return Report("ctrw", header,
                  ("n", "t", "ks_vs_D", "ks_vs_E", "ks_vs_X", "critical_value", "pass"),
                  rows)


def run_paths(beta_spec, reps=10, seed=0, out="paths", workers=1, t=1.0, grid=101, lam=1.0):
    """Per-replication trajectory dumps of D, E and X on the uniform grid of
    [0, t], one file ``<out>.repNNNNN.csv`` each."""
    reps, seed = _check_common(reps, seed)
    _require(isinstance(grid, (int, np.integer)) and grid >= 2,
             f"grid must be an integer >= 2, got {grid}")
    _require(_positive(t), f"t must be positive and finite, got {t}")
    _require(_positive(lam), f"lambda must be positive and finite, got {lam}")
    T, lam, grid = float(t), float(lam), int(grid)
    ppp.check_points(grid, 0.0, T, "each replication writes one row per grid point; lower --grid")
    ppp.check_points(lam * T, 0.0, T, hint=_ARRIVALS_HINT)
    idx = StabilityIndex.from_spec(beta_spec, T)
    blk = _budget_block(idx, T, "threshold", reps)
    _check_run_points(reps, ppp.drawn_count(blk) + lam * T)
    with _open_pool(workers, reps) as pool:
        res = _map_reps(_paths_chunk, reps, pool, _kernel_reps(blk), seed=seed, idx=idx,
                        ts=np.linspace(0.0, T, grid), blk=blk, lam=lam, out_prefix=out)
    rows = list(zip(range(reps), res["file"].tolist(), res["nflag"].tolist(),
                    res["ok"].tolist()))
    header = {
        "beta": idx.spec_string(),
        "seed": seed,
        "reps": reps,
        "lambda": lam,
        "horizon": T,
        "grid": grid,
        "truncation": f"{blk.trunc.mode}:{blk.trunc.parameter:.17g}",
    }
    return Report("paths", header, ("rep", "file", "flagged_rows", "pass"), rows)


# ---------------------------------------------------------------------------
# verification suite
# ---------------------------------------------------------------------------

_VERIFY_FAMILIES = ("constant:0.5", "affine:0.4,0.2")


def _scaled(n, scale, floor=200):
    return max(floor, int(round(n * scale)))


def _count_inversions(seq):
    return sum(1 for a, b in zip(seq, seq[1:]) if b > a + 1e-12)


def run_verify(seed=0, workers=1, quick=False, scale=1.0):
    """The full property suite; one row per check, grouped by criterion."""
    _require(_positive(scale), f"scale must be positive and finite, got {scale}")
    seed = _check_seed(seed)
    if quick:
        sizes = dict(laplace=8000, cross=2000, continuity=2000, increments=2000,
                     monotone=50, mfpp=3000, tail=100_000, ctrw=1000)
        ctrw_ns = (100, 1000)
        ctrw_alpha = 0.05
    else:
        sizes = dict(laplace=100_000, cross=10_000, continuity=10_000, increments=10_000,
                     monotone=200, mfpp=100_000, tail=1_000_000, ctrw=10_000)
        ctrw_ns = (100, 1000, 10_000)
        ctrw_alpha = 0.01
    _require(max(sizes.values()) * scale < math.inf,
             f"scale must keep every replication count finite, got {scale}")
    sizes = {k: _scaled(v, scale, floor=20 if k == "monotone" else 200)
             for k, v in sizes.items()}
    rows = []

    # 1: transform of D(t) against the closed form, both index families
    for spec in _VERIFY_FAMILIES:
        rep = run_laplace(spec, (0.5, 1.0, 2.0), (0.5, 1.0), sizes["laplace"], seed,
                          workers=workers)
        worst = max(abs(r[3] - r[5]) / (3.0 * r[4]) for r in rep.rows)
        rows.append((1, f"laplace {spec} worst error ratio", worst, 1.0, rep.all_pass()))

    # criteria 2 to 5 share one pool, closed before the nested runs open theirs
    n2, n3, n4, n5 = (sizes[k] for k in ("cross", "continuity", "increments", "monotone"))
    with _open_pool(workers, max(n2, n3, n4, n5)) as pool:
        # 2: the two truncated samplers agree in law at t = 1
        idx_c = StabilityIndex.from_spec("constant:0.5", 1.0)
        samples = {}
        for mode, ch in (("stationary", CH_CROSS_STATIONARY), ("threshold", CH_CROSS_THRESHOLD)):
            blk = _budget_block(idx_c, 1.0, mode, n2)
            samples[mode] = _increments(n2, pool, seed, ch, idx_c, blk, [(0.0, 1.0)])[:, 0]
        ks = stats.ks_two_sample(samples["stationary"], samples["threshold"])
        crit = stats.ks_critical_value(n2, n2, 0.01)
        rows.append((2, "sampler cross-validation KS at t=1", ks, crit, ks < crit))

        # 3: small-increment probability against the continuity constant C = 21
        windows = [(t, t + h) for t in (0.0, 0.4) for h in (0.01, 0.05, 0.1)]
        idx3 = StabilityIndex.from_spec("constant:0.5", 0.5)
        inc = _increments(n3, pool, seed, CH_CONTINUITY, idx3,
                          _budget_block(idx3, 0.5, "stationary", n3), windows)
        c_const = 21.0
        for j, (a, b) in enumerate(windows):
            h = b - a
            p = float((inc[:, j] > 0.1).mean())
            se = math.sqrt(max(p * (1.0 - p), 1.0 / n3) / n3)
            bound = c_const * h + 3.0 * se
            rows.append((3, f"continuity P(inc>0.1) t={a:g} h={h:g}", p, bound, p <= bound))

        # 4: increments on (0, 0.5] and (0.5, 1] are uncorrelated
        inc4 = _increments(n4, pool, seed, CH_INCREMENTS, idx_c,
                           _budget_block(idx_c, 1.0, "stationary", n4), [(0.0, 0.5), (0.5, 1.0)])
        corr = abs(stats.increment_correlation(inc4[:, 0], inc4[:, 1]))
        bound4 = 3.0 / math.sqrt(n4)
        rows.append((4, "increment correlation (0,0.5] vs (0.5,1]", corr, bound4, corr <= bound4))

        # 5: strictly increasing prefixes and inverse consistency, zero tolerance
        for spec in _VERIFY_FAMILIES:
            idx5 = StabilityIndex.from_spec(spec, 1.0)
            blk5 = _budget_block(idx5, 1.0, "stationary", n5)
            bad = _map_reps(_monotone_chunk, n5, pool, _kernel_reps(blk5), seed=seed, idx=idx5,
                            blk=blk5)
            total = int(bad["bad"].sum())
            rows.append((5, f"monotone+inverse violations {spec}", total, 0, total == 0))

    # 6: P(X(1) = 0) against the Mittag-Leffler oracle, constant index
    rep6 = run_mfpp("constant:0.5", 1.0, [1.0], sizes["mfpp"], seed, workers=workers)
    row0 = next(r for r in rep6.rows if r[1] == 0)
    rows.append((6, "P(X(1)=0) |error|", abs(row0[2] - row0[4]), 3.0 * row0[3], bool(row0[5])))

    # 7: n * P(normalized summand > 1) = 1 at n = 100, constant index; the
    # full suite's million draws take about 40 ms, so they need no pool
    n_tail, n_row = sizes["tail"], 100
    batch = 10_000
    nbatches = max(2, -(-n_tail // batch))
    bound7 = ctrw.norming_bnk(ctrw.norming_an(n_row, ctrw.UNIT, 0.5), 0.5, 0.5)
    hits = 0
    for rep in range(nbatches):
        u = stream_for(seed, CH_TAIL, rep).uniform(batch)
        hits += int((ctrw._jnk_from_uniforms(u, 0.5, 0.5, ctrw.UNIT) > bound7).sum())
    draws = nbatches * batch
    p = hits / draws
    est = n_row * p
    se = n_row * math.sqrt(p * (1.0 - p) / draws)
    rows.append((7, "tail normalization |n*P - 1|", abs(est - 1.0), 3.0 * se, abs(est - 1.0) <= 3.0 * se))

    # 8: array approximations converge: KS non-increasing in n (at most one
    # inversion) and below the critical value at the largest n
    for spec in _VERIFY_FAMILIES:
        rep8 = run_ctrw(spec, "unit", ctrw_ns, [1.0], sizes["ctrw"], seed,
                        workers=workers, alpha=ctrw_alpha)
        crit8 = rep8.rows[-1][5]
        for col, name in ((2, "S_n(1) vs D(1)"), (3, "E_n(1) vs E(1)"), (4, "walk vs X(1)")):
            seq = [r[col] for r in rep8.rows]
            inv = _count_inversions(seq)
            rows.append((8, f"ctrw {spec} {name} final KS", seq[-1], crit8, seq[-1] < crit8))
            rows.append((8, f"ctrw {spec} {name} inversions", inv, 1, inv <= 1))

    # 9: worker count and reruns never change a report byte
    det_args = ("constant:0.5", (1.0,), (1.0,), 500, seed)
    base = run_laplace(*det_args, workers=1).to_csv()
    again = run_laplace(*det_args, workers=1).to_csv()
    multi = run_laplace(*det_args, workers=2).to_csv()
    rows.append((9, "rerun byte-identical", float(base == again), 1.0, base == again))
    rows.append((9, "worker-count byte-identical", float(base == multi), 1.0, base == multi))

    header = {
        "seed": seed,
        "quick": bool(quick),
        "scale": float(scale),
        "sizes": ";".join(f"{k}={v}" for k, v in sorted(sizes.items())),
        "ctrw_n": ",".join(str(v) for v in ctrw_ns),
        "ctrw_alpha": ctrw_alpha,
    }
    return Report("verify", header, ("criterion", "check", "value", "bound", "pass"), rows)
