"""Replication pipelines behind the command-line interface.

Each pipeline draws its Monte Carlo replications from per-replication
random streams (master seed, channel, replication index), reduces them
into a ``Report`` of named columns, and never depends on the number of
worker processes: identical configuration and seed give byte-identical
output.  A replication is one call of a per-replication worker
``fn(rep, **params)`` returning named values; ``_map_reps`` is the only
loop over replications.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
import contextlib
import csv
import io
import math
import os

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
        if "pass" not in self.columns:
            return True
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


def _open_pool(workers):
    """The one process pool of a run, for its plan and every replication
    map: none (serial) at one worker, else at most one process per CPU.
    Use it in a ``with`` block, which yields ``None`` for no pool; its
    processes start at the first submit."""
    if workers <= 1:
        return contextlib.nullcontext()
    return ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1))


def _map_chunk(fn, lo, hi, params):
    """``fn(rep, **params)`` for each rep in [lo, hi), each named output
    written to its replication's row of one array per name."""
    out = {}
    for i, rep in enumerate(range(lo, hi)):
        for k, v in fn(rep, **params).items():
            if k not in out:
                # strings differ in width from rep to rep, so they stay objects
                dtype = object if isinstance(v, str) else np.asarray(v).dtype
                out[k] = np.empty((hi - lo,) + np.shape(v), dtype)
            out[k][i] = v
    return out


def _map_reps(fn, reps, pool, **params):
    """Run the worker ``fn(rep, **params)`` for every rep in [0, reps), on
    ``pool`` or serially if it is ``None``.

    Each named output becomes one array whose first axis is the
    replication.  Chunks are reduced in replication order, and every
    replication owns its own stream, so the result is independent of the
    pool.  Replication costs are uneven, so the pool gets about eight chunks
    per process, each of at least ``_MIN_CHUNK`` replications; fewer than
    two chunks run serially."""
    if pool is None or reps < 2 * _MIN_CHUNK:
        return _map_chunk(fn, 0, reps, params)
    # _max_workers is the size the executor was built with
    chunk = max(_MIN_CHUNK, -(-reps // (_CHUNKS_PER_WORKER * pool._max_workers)))
    futures = [pool.submit(_map_chunk, fn, lo, min(lo + chunk, reps), params)
               for lo in range(0, reps, chunk)]
    parts = [f.result() for f in futures]
    return {k: np.concatenate([p[k] for p in parts], axis=0) for k in parts[0]}


# ---------------------------------------------------------------------------
# horizon selection and first-passage planning
# ---------------------------------------------------------------------------


def level_tail_bound(idx, level, T):
    """Exponential-moment upper bound on P(D(T) < level).

    For any theta > 0, P(D(T) < r) <= exp(theta*r) * E[exp(-theta*D(T))];
    the exponent is minimized over a logarithmic theta grid."""
    s = np.linspace(0.0, T, 201)
    beta = idx.evaluate_many(s)
    g = subordinator.gamma_fn(1.0 - beta)
    w = np.ones(201)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (T / 200.0) / 3.0
    thetas = np.logspace(-2.0, 8.0, 161)
    exponent = thetas * level - (thetas[:, None] ** beta[None, :]) @ (w * g)
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
        bound = level_tail_bound(idx, level, T)
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


def _budget_block(idx, T, mode):
    """The block [0, T] under the truncation of ``mode`` that meets the
    default excluded-mass budget."""
    return ppp.plan_block(idx, 0.0, T, ppp.solve_truncation(idx, T, mode, DEFAULT_MASS_BUDGET))


def _passage_block(idx, t0, t1):
    """The threshold block on [t0, t1]: up to t=1 it respects the
    excluded-mass rate exactly; later blocks (visited only when passage has
    not yet happened) additionally cap the expected point count, trading a
    small, quantified extra excluded mass for bounded cost where the local
    index is close to 1."""
    trunc = ppp.solve_truncation(idx, t1, "threshold", DEFAULT_MASS_BUDGET * (t1 - t0), t0=t0,
                                 max_count=_PASSAGE_POINTS_CAP if t1 > 1.0 else math.inf)
    return ppp.plan_block(idx, t0, t1, trunc)


def plan_passage(idx, levels, pool=None):
    """Threshold blocks covering [0, horizon], each planned from its window
    alone, so on ``pool`` they are solved side by side and read back in time
    order.  The pool gets the latest windows first, since the point-capped
    ones past t = 1 cost most, and a block that raises cancels the windows
    still queued."""
    levels = tuple(sorted(float(r) for r in levels))
    if not levels or levels[0] <= 0:
        raise ValueError(f"levels must be positive, got {levels}")
    windows = []
    t0 = 0.0
    while t0 < idx.horizon - 1e-12:
        t1 = min(t0 + _PASSAGE_BLOCK_LEN, idx.horizon)
        windows.append((t0, t1))
        t0 = t1
    if pool is None:
        blocks = [_passage_block(idx, t0, t1) for t0, t1 in windows]
    else:
        futures = [pool.submit(_passage_block, idx, t0, t1) for t0, t1 in reversed(windows)]
        try:
            blocks = [f.result() for f in reversed(futures)]
        except BaseException:
            for f in futures:
                f.cancel()
            raise
    return PassagePlan(idx, levels, tuple(blocks))


def _block_passage(stream, plan):
    """First-passage times of one truncated path at every plan level.

    A block that leaves the path below the lowest open level only adds its
    size sum.  A block that reaches a level is summed over ``_PASSAGE_BINS``
    equal time bins, which hold ascending, disjoint time ranges; a level is
    crossed in the first bin whose running sum reaches it, and only that
    bin's points are sorted and searched.  This is the passage of the
    block's sorted path up to the rounding of its partial sums.  Levels not
    reached by the horizon stay NaN (the caller flags them); blocks after
    the last passage are never sampled."""
    levels = np.asarray(plan.levels)
    e = np.full(len(levels), np.nan)
    total = 0.0
    nxt = 0
    for blk in plan.blocks:
        pat = ppp.sample_pattern(stream, blk, plan.idx)
        t, x = pat.times, pat.sizes
        mass = x.sum()
        if total + mass < levels[nxt]:
            total += mass
            continue
        # rounding is monotone, so a later time never falls in an earlier bin
        scale = _PASSAGE_BINS / (blk.t1 - blk.t0)
        bins = np.minimum(((t - blk.t0) * scale).astype(np.intp), _PASSAGE_BINS - 1)
        ends = total + np.cumsum(np.bincount(bins, weights=x, minlength=_PASSAGE_BINS))
        crossing = np.searchsorted(ends, levels[nxt:], side="left")
        for k in np.unique(crossing[crossing < _PASSAGE_BINS]):
            inside = np.flatnonzero(bins == k)
            order = inside[np.argsort(t[inside])]
            prefix = (ends[k - 1] if k else total) + np.cumsum(x[order])
            # the bin ends at its bin sum, so a level placed in it is reached in it
            prefix[-1] = ends[k]
            hit = nxt + np.flatnonzero(crossing == k)
            e[hit] = inverse_mfpp.first_passage(t[order], prefix, levels[hit])
        nxt += int(np.count_nonzero(crossing < _PASSAGE_BINS))
        if nxt >= len(levels):
            break
        total = ends[-1]
    return e


# ---------------------------------------------------------------------------
# per-replication workers (top level so worker processes can import them);
# each returns a dict of named values, which ``_map_reps`` gathers into arrays
# ---------------------------------------------------------------------------


def _increments_rep(rep, seed, channel, idx, blk, windows):
    """Increments of D over each (a, b] window, all from one pattern of the
    block [0, T].  Its jump times T*u lie in (0, T], so the window (0, t]
    gives D(t) from the mask t' <= t alone, and from no mask once t >= T;
    either selects the jumps both masks select, in order, so the sums are
    the same floats."""
    pat = ppp.sample_pattern(stream_for(seed, channel, rep), blk, idx)
    t, x = pat.times, pat.sizes
    return {"inc": np.array([x[(t > a) & (t <= b)].sum() if a > 0.0
                             else x.sum() if b >= blk.t1 else x[t <= b].sum()
                             for a, b in windows])}


def _monotone_rep(rep, seed, idx, blk):
    """Strict-monotonicity and inverse-consistency violations of one path
    on [0, horizon], probed at 100 random levels and 100 random times."""
    s = stream_for(seed, CH_MONOTONE, rep)
    T = idx.horizon
    path = subordinator.build_path(ppp.sample_pattern(s, blk, idx))
    if len(path.prefix) == 0:
        return {"bad": 1}
    bad = int(path.prefix[0] <= 0.0 or (np.diff(path.prefix) <= 0.0).any())
    # first-passage consistency: D(E(r)) >= r and the path is still
    # below r just before E(r); and E(D(t)) <= t for every t
    rs = s.uniform(100) * path.total
    e = inverse_mfpp.first_passage(path.times, path.prefix, rs)
    before = np.concatenate(([0.0], path.prefix))[np.searchsorted(path.times, e, side="left")]
    bad += int(((subordinator.eval_many(path, e) < rs) | (before >= rs)).sum())
    ts = T * s.uniform(100)
    e = inverse_mfpp.first_passage(path.times, path.prefix, subordinator.eval_many(path, ts))
    bad += int((e > ts * (1.0 + 1e-12)).sum())
    return {"bad": bad}


def _passage_rep(rep, seed, plan, rate):
    """First-passage times E at each plan level, and X = N(E) for a
    rate-``rate`` Poisson process."""
    e = _block_passage(stream_for(seed, CH_PASSAGE, rep), plan)
    arrivals = inverse_mfpp.sample_poisson_path(stream_for(seed, CH_ARRIVALS, rep), rate,
                                                plan.idx.horizon)
    return {"e": e, "x": inverse_mfpp.time_changed_count(arrivals, e)}


def _tail_rep(rep, seed, beta, bound, batch):
    """Exceedances of ``bound`` among ``batch`` unit-family array summands
    of constant index beta."""
    u = stream_for(seed, CH_TAIL, rep).uniform(batch)
    return {"hits": int((ctrw._jnk_from_uniforms(u, beta, beta, ctrw.UNIT) > bound).sum())}


def _ctrw_rep(rep, seed, channel, idx, L, n, ts, p_n, lam):
    """S_n(t), E_n(t) and the composed walk at each t for one row-n path.

    The summands use stream ``channel`` and the walk ``channel + 1``; a
    level past the last partial sum clamps E_n to the horizon and flags the
    replication.  The walk is the running sum of Bernoulli(p_n) steps, read
    after floor(lambda * E_n / p_n) of them."""
    path = ctrw.partial_sum_path(stream_for(seed, channel, rep), n, idx.horizon, idx, L)
    ts = np.asarray(ts, dtype=float)
    s = path.grid[np.minimum(np.floor(n * ts + 1e-9).astype(int), len(path.grid) - 1)]
    e = ctrw.inverse_ctrw(path, ts)
    unreached = np.isnan(e)
    e[unreached] = path.horizon
    m = np.floor(lam * e / p_n + 1e-12).astype(np.int64)
    steps = stream_for(seed, channel + 1, rep).bernoulli(p_n, int(m.max()))
    x = np.concatenate(([0], np.cumsum(steps)))[m].astype(float)
    return {"s": s, "e": e, "x": x, "flagged": bool(unreached.any())}


def _paths_rep(rep, seed, idx, ts, blk, lam, out_prefix):
    """Write one trajectory CSV of D, E and X on the grid ``ts``; report its
    name, its flagged rows and whether D and X are non-decreasing."""
    T = idx.horizon
    pat = ppp.sample_pattern(stream_for(seed, CH_PATHS_JUMPS, rep), blk, idx)
    path = subordinator.build_path(pat)
    arrivals = inverse_mfpp.sample_poisson_path(stream_for(seed, CH_PATHS_ARRIVALS, rep), lam, T)
    d = subordinator.eval_many(path, ts)
    e = inverse_mfpp.first_passage(path.times, path.prefix, ts)
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
    name = f"{out_prefix}.rep{rep:05d}.csv"
    Report("paths", header, ("t", "d", "e", "x", "flagged"), rows).write(name)
    ok = not ((np.diff(d) < 0).any() or (np.diff(x[~flags]) < 0).any())
    return {"file": name, "nflag": int(flags.sum()), "ok": ok}


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


def _positive(v):
    """A positive, finite real: NaN and infinity fail, like non-positive values."""
    return 0.0 < v < math.inf


def _check_common(reps, seed):
    _require(isinstance(reps, (int, np.integer)) and reps >= 2, f"reps must be >= 2, got {reps}")
    _require(isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64,
             f"seed must be an unsigned 64-bit integer, got {seed}")


def run_laplace(beta_spec, thetas=(0.5, 1.0, 2.0), ts=(0.5, 1.0), reps=10_000, seed=0, workers=1,
                trunc_m=None, mass_budget=DEFAULT_MASS_BUDGET):
    """Monte Carlo transform values of D(t) against the closed form.

    Row pass: |MC mean - closed form| <= 3*SE + theta * excluded mass."""
    _check_common(reps, seed)
    thetas = [float(v) for v in thetas]
    ts = [float(v) for v in ts]
    _require(thetas and all(_positive(v) for v in thetas),
             f"theta values must be positive and finite, got {thetas}")
    _require(ts and all(_positive(v) for v in ts), f"t values must be positive and finite, got {ts}")
    _require(_positive(mass_budget), f"mass budget must be positive and finite, got {mass_budget}")
    T = max(ts)
    idx = StabilityIndex.from_spec(beta_spec, T)
    if trunc_m is not None:
        _require(_positive(trunc_m), f"trunc-m must be positive and finite, got {trunc_m}")
        trunc = ppp.Truncation("stationary", float(trunc_m))
    else:
        trunc = ppp.solve_truncation(idx, T, "stationary", mass_budget)
    blk = ppp.plan_block(idx, 0.0, T, trunc)
    excluded = ppp.small_jump_mass_window(idx, 0.0, T, trunc)
    _require(excluded < math.inf,
             f"the truncation {trunc.mode}:{trunc.parameter:g} excludes a jump mass beyond "
             "the float range, so no row could fail; raise trunc-m")
    with _open_pool(workers) as pool:
        d = _map_reps(_increments_rep, int(reps), pool, seed=int(seed), channel=CH_LAPLACE,
                      idx=idx, blk=blk, windows=[(0.0, t) for t in ts])["inc"]
    rows = []
    for theta in thetas:
        for t in sorted(range(len(ts)), key=lambda j: ts[j]):
            tv = ts[t]
            est = stats.empirical_laplace(d[:, t], theta)
            oracle = subordinator.laplace_transform(idx, theta, tv)
            bias = theta * ppp.small_jump_mass_window(idx, 0.0, tv, trunc)
            ok = abs(est.mean - oracle) <= 3.0 * est.se + bias
            rows.append((idx.spec_string(), theta, tv, est.mean, est.se, oracle, bias, ok))
    header = {
        "beta": idx.spec_string(),
        "seed": int(seed),
        "reps": int(reps),
        "theta": ",".join(_fmt(v) for v in thetas),
        "t": ",".join(_fmt(v) for v in ts),
        "truncation": f"{trunc.mode}:{trunc.parameter:.17g}",
        "excluded_mass": excluded,
    }
    return Report("laplace", header,
                  ("beta_spec", "theta", "t", "mc_mean", "mc_se", "oracle", "bias_bound", "pass"),
                  rows)


def run_mfpp(beta_spec, lam=1.0, ts=(1.0,), reps=10_000, seed=0, workers=1, trunc_m=None):
    """Marginal law of the time-changed counting process at each t.

    The oracle exists only for a constant index at k = 0 (a Mittag-Leffler
    value); other rows are emitted without a pass judgement of their own."""
    _check_common(reps, seed)
    _require(_positive(lam), f"lambda must be positive and finite, got {lam}")
    ts = sorted(float(v) for v in ts)
    _require(ts and all(_positive(v) for v in ts), f"t values must be positive and finite, got {ts}")
    if trunc_m is not None:
        _require(_positive(trunc_m), f"trunc-m must be positive and finite, got {trunc_m}")
        trunc_m = float(trunc_m)
    idx, tail = choose_horizon(beta_spec, max(ts))
    ppp.check_points(lam * idx.horizon, 0.0, idx.horizon, hint=_ARRIVALS_HINT)
    with _open_pool(workers) as pool:
        if trunc_m is None:
            plan = plan_passage(idx, ts, pool)
        else:
            # one stationary block on the whole horizon: no threshold to solve
            blk = ppp.plan_block(idx, 0.0, idx.horizon, ppp.Truncation("stationary", trunc_m))
            plan = PassagePlan(idx, tuple(ts), (blk,))
        res = _map_reps(_passage_rep, int(reps), pool, seed=int(seed), plan=plan, rate=float(lam))
    xs = res["x"]
    unreached = int(np.isnan(res["e"]).sum())
    rows = []
    for j, t in enumerate(ts):
        col = xs[:, j]
        col = col[~np.isnan(col)]
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
        "seed": int(seed),
        "reps": int(reps),
        "lambda": float(lam),
        "t": ",".join(_fmt(v) for v in ts),
        "horizon": idx.horizon,
        "horizon_tail_bound": tail,
        "unreached": unreached,
    }
    return Report("mfpp", header, ("t", "k", "p_hat", "se", "oracle", "pass"), rows)


def _parse_pn(pn_rule, n):
    if pn_rule == "sqrt":
        return n ** -0.5
    if pn_rule.startswith("const:"):
        v = float(pn_rule.partition(":")[2])
        _require(0.0 < v <= 1.0, f"pn-rule constant must be in (0, 1], got {v}")
        return v
    raise ValueError(f"pn-rule must be 'sqrt' or 'const:<v>', got {pn_rule!r}")


def run_ctrw(beta_spec, lfamily="unit", ns=(100, 1000), ts=(1.0,), reps=10_000, seed=0, workers=1,
             pn_rule="sqrt", lam=1.0, alpha=0.01):
    """KS distances of the array approximations against direct simulation.

    For each n: the normalized partial sum at t vs D(t), its inverse at
    level t vs the first-passage time E(t), and the composed walk vs the
    time-changed count X(t).  Each t is both a time and a level, so the
    horizon is at least the largest t."""
    _check_common(reps, seed)
    _require(_positive(lam), f"lambda must be positive and finite, got {lam}")
    L = ctrw.SlowlyVaryingFamily(lfamily)
    ns = [int(v) for v in ns]
    _require(ns and all(v >= 2 for v in ns), f"n values must be integers >= 2, got {ns}")
    ts = sorted(float(v) for v in ts)
    _require(ts and all(_positive(v) for v in ts), f"t values must be positive and finite, got {ts}")
    longest = _T_END_CANDIDATES[-1]
    _require(ts[-1] <= longest,
             f"t values must be at most {longest:g}, the longest horizon, got {ts[-1]:g}")
    idx, tail = choose_horizon(beta_spec, ts[-1], shortest=ts[-1])
    ppp.check_points(lam * idx.horizon, 0.0, idx.horizon, hint=_ARRIVALS_HINT)
    p_ns = {n: _parse_pn(pn_rule, n) for n in ns}
    # a row's largest partial sum: ceil(nT) summands at beta_inf and the
    # smallest non-zero uniform, 2**-53, each over the smallest b_nk
    with np.errstate(over="ignore", invalid="ignore"):
        j_max = float(ctrw._jnk_from_uniforms(2.0**-53, idx.beta_inf, idx.beta_sup, L))
        for n in ns:
            ppp.check_points(math.ceil(n * idx.horizon), 0.0, idx.horizon,
                             hint=f"the row n={n} draws one summand per cell of width 1/n")
            ppp.check_points(lam * idx.horizon / p_ns[n], 0.0, idx.horizon,
                             hint=f"the row n={n} walk takes lambda * horizon / p_n Bernoulli "
                             "steps; lower --lambda or raise the pn-rule")
            b = ctrw.norming_bnk(ctrw.norming_an(n, L, idx.beta_sup),
                                 np.array([idx.beta_inf, idx.beta_sup]), idx.beta_sup)
            _require(np.isfinite(math.ceil(n * idx.horizon) * j_max / b.min()),
                     f"the row n={n} partial sums of the index {idx.spec_string()} can "
                     "overflow the float range; raise the index")
    # reference samples, shared by every n
    T = max(ts)
    blk_ref = _budget_block(idx, T, "threshold")
    with _open_pool(workers) as pool:
        dref = _map_reps(_increments_rep, int(reps), pool, seed=int(seed), channel=CH_D_REFERENCE,
                         idx=idx, blk=blk_ref, windows=[(0.0, t) for t in ts])["inc"]
        plan = plan_passage(idx, ts, pool)
        ref = _map_reps(_passage_rep, int(reps), pool, seed=int(seed), plan=plan, rate=float(lam))
        eref, xref = ref["e"], ref["x"]
        rows = []
        flagged_total = 0
        for i, n in enumerate(sorted(ns)):
            res = _map_reps(_ctrw_rep, int(reps), pool, seed=int(seed),
                            channel=CH_CTRW_JUMPS + 2 * i, idx=idx, L=L, n=n, ts=ts,
                            p_n=p_ns[n], lam=float(lam))
            flagged_total += int(res["flagged"].sum())
            for j, t in enumerate(ts):
                emask = ~np.isnan(eref[:, j])
                ks_d = stats.ks_two_sample(res["s"][:, j], dref[:, j])
                ks_e = stats.ks_two_sample(res["e"][:, j], eref[emask, j])
                ks_x = stats.ks_two_sample(res["x"][:, j], xref[emask, j])
                crit = stats.ks_critical_value(len(res["s"]), int(emask.sum()), alpha)
                ok = max(ks_d, ks_e, ks_x) < crit
                rows.append((n, t, ks_d, ks_e, ks_x, crit, ok))
    header = {
        "beta": idx.spec_string(),
        "seed": int(seed),
        "reps": int(reps),
        "lfamily": lfamily,
        "n": ",".join(str(v) for v in sorted(ns)),
        "t": ",".join(_fmt(v) for v in ts),
        "pn_rule": pn_rule,
        "lambda": float(lam),
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
    _check_common(reps, seed)
    _require(isinstance(grid, (int, np.integer)) and grid >= 2,
             f"grid must be an integer >= 2, got {grid}")
    _require(_positive(t), f"t must be positive and finite, got {t}")
    _require(_positive(lam), f"lambda must be positive and finite, got {lam}")
    T = float(t)
    ppp.check_points(grid, 0.0, T, "each replication writes one row per grid point; lower --grid")
    ppp.check_points(lam * T, 0.0, T, hint=_ARRIVALS_HINT)
    idx = StabilityIndex.from_spec(beta_spec, T)
    blk = _budget_block(idx, T, "threshold")
    with _open_pool(workers) as pool:
        res = _map_reps(_paths_rep, int(reps), pool, seed=int(seed), idx=idx,
                        ts=np.linspace(0.0, T, int(grid)), blk=blk, lam=float(lam),
                        out_prefix=out)
    rows = list(zip(range(int(reps)), res["file"].tolist(), res["nflag"].tolist(),
                    res["ok"].tolist()))
    header = {
        "beta": idx.spec_string(),
        "seed": int(seed),
        "reps": int(reps),
        "lambda": float(lam),
        "horizon": T,
        "grid": int(grid),
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
    _require(isinstance(seed, (int, np.integer)) and 0 <= seed < 2**64,
             f"seed must be an unsigned 64-bit integer, got {seed}")
    seed = int(seed)
    if quick:
        sizes = dict(laplace=2000, cross=2000, continuity=2000, increments=2000,
                     monotone=50, mfpp=3000, tail=100_000, ctrw=1000)
        ctrw_ns = (100, 1000)
        ctrw_alpha = 0.05
    else:
        sizes = dict(laplace=100_000, cross=10_000, continuity=10_000, increments=10_000,
                     monotone=200, mfpp=100_000, tail=1_000_000, ctrw=10_000)
        ctrw_ns = (100, 1000, 10_000)
        ctrw_alpha = 0.01
    sizes = {k: _scaled(v, scale, floor=20 if k == "monotone" else 200)
             for k, v in sizes.items()}
    rows = []

    # 1: transform of D(t) against the closed form, both index families
    for spec in _VERIFY_FAMILIES:
        rep = run_laplace(spec, (0.5, 1.0, 2.0), (0.5, 1.0), sizes["laplace"], seed,
                          workers=workers)
        worst = max(
            abs(r[3] - r[5]) / (3.0 * r[4] + r[6]) for r in rep.rows
        )
        rows.append((1, f"laplace {spec} worst error ratio", worst, 1.0, rep.all_pass()))

    # criteria 2 to 5 share one pool, closed before the nested runs open theirs
    with _open_pool(workers) as pool:
        # 2: the two truncated samplers agree in law at t = 1
        idx_c = StabilityIndex.from_spec("constant:0.5", 1.0)
        n2 = sizes["cross"]
        samples = {}
        for mode, ch in (("stationary", CH_CROSS_STATIONARY), ("threshold", CH_CROSS_THRESHOLD)):
            samples[mode] = _map_reps(_increments_rep, n2, pool, seed=seed, channel=ch, idx=idx_c,
                                      blk=_budget_block(idx_c, 1.0, mode),
                                      windows=[(0.0, 1.0)])["inc"][:, 0]
        ks = stats.ks_two_sample(samples["stationary"], samples["threshold"])
        crit = stats.ks_critical_value(n2, n2, 0.01)
        rows.append((2, "sampler cross-validation KS at t=1", ks, crit, ks < crit))

        # 3: small-increment probability against the continuity constant C = 21
        n3 = sizes["continuity"]
        windows = [(t, t + h) for t in (0.0, 0.4) for h in (0.01, 0.05, 0.1)]
        idx3 = StabilityIndex.from_spec("constant:0.5", 0.5)
        inc = _map_reps(_increments_rep, n3, pool, seed=seed, channel=CH_CONTINUITY, idx=idx3,
                        blk=_budget_block(idx3, 0.5, "stationary"), windows=windows)["inc"]
        c_const = 21.0
        for j, (a, b) in enumerate(windows):
            h = b - a
            p = float((inc[:, j] > 0.1).mean())
            se = math.sqrt(max(p * (1.0 - p), 1.0 / n3) / n3)
            bound = c_const * h + 3.0 * se
            rows.append((3, f"continuity P(inc>0.1) t={a:g} h={h:g}", p, bound, p <= bound))

        # 4: increments on (0, 0.5] and (0.5, 1] are uncorrelated
        n4 = sizes["increments"]
        inc4 = _map_reps(_increments_rep, n4, pool, seed=seed, channel=CH_INCREMENTS, idx=idx_c,
                         blk=_budget_block(idx_c, 1.0, "stationary"),
                         windows=[(0.0, 0.5), (0.5, 1.0)])["inc"]
        corr = abs(stats.increment_correlation(inc4[:, 0], inc4[:, 1]).mean)
        bound4 = 3.0 / math.sqrt(n4)
        rows.append((4, "increment correlation (0,0.5] vs (0.5,1]", corr, bound4, corr <= bound4))

        # 5: strictly increasing prefixes and inverse consistency, zero tolerance
        n5 = sizes["monotone"]
        for spec in _VERIFY_FAMILIES:
            idx5 = StabilityIndex.from_spec(spec, 1.0)
            bad = _map_reps(_monotone_rep, n5, pool, seed=seed, idx=idx5,
                            blk=_budget_block(idx5, 1.0, "stationary"))
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
    hits = _map_reps(_tail_rep, nbatches, None, seed=seed, beta=0.5, bound=bound7,
                     batch=batch)["hits"]
    draws = nbatches * batch
    p = float(hits.sum()) / draws
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
