"""End-to-end benchmark of the mssim command line, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run every workload with
and without tracing. The load is a closed loop: one CLI invocation at a
time, each in a fresh interpreter built from ``src/`` of the checkout, all
with ``--seed N``. With ``--trace 0`` a run interleaves set-up invocations
(``--reps 2``) with invocations at the pinned replication count until S
seconds have passed and there are at least SETUP_RUNS and FULL_RUNS of
them. With ``--trace 1`` it makes one untraced pinned invocation and one
traced one of the same arguments, plus a pool pass for a pooled workload.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".bench_state")

SETUP_RUNS = 3
FULL_RUNS = 2
SETUP_REPS = 2
RUN_BUDGET_S = 170.0
INVOCATION_TIMEOUT_S = 150.0

# CLI arguments without --reps/--seed, and the pinned --reps; BENCHMARK.json says why
WORKLOADS = {
    "threshold": (
        ["ctrw", "--beta", "affine:0.4,0.2", "--lfamily", "unit", "--n", "100,1000,10000",
         "--t", "1", "--workers", "2"],
        128,
    ),
    "stationary": (["laplace", "--beta", "affine:0.4,0.2", "--theta", "0.5,1,2", "--t", "0.5,1"],
                   20000),
    "array": (["ctrw", "--beta", "constant:0.5", "--lfamily", "log", "--n", "100,1000,10000",
               "--t", "1"], 50),
}

LAYERS = ("cli", "quadrature", "stability", "rng", "ppp", "experiments", "subordinator",
          "inverse_mfpp", "ctrw", "stats")


# -- invocations --------------------------------------------------------------


class Invocation:
    def __init__(self, kind, argv):
        self.kind = kind
        self.argv = argv
        self.wall = self.cpu = self.rss_mb = 0.0
        self.code = None
        self.csv = b""
        self.stderr = b""
        self.trace = None
        self.failure = None
        self.checks_failed = None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # level_tail_bound uses a matrix product; keep BLAS to one thread
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def invoke(kind, argv, timeout, trace_mode=None):
    """Run one CLI invocation in a fresh interpreter and time it."""
    inv = Invocation(kind, argv)
    with tempfile.TemporaryDirectory(dir=STATE) as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        if trace_mode is None:
            cmd = [sys.executable, "-m", "mssim.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), trace_mode, trace_path, *argv]
        with open(os.path.join(tmp, "out"), "w+b") as out, open(os.path.join(tmp, "err"), "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=child_env(),
                                    start_new_session=True)
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            inv.wall = time.perf_counter() - start
            proc.returncode = inv.code = os.waitstatus_to_exitcode(status)
            # the CLI waits for its pool workers; this kills any that outlive it
            _kill_group(proc.pid)
            inv.cpu = usage.ru_utime + usage.ru_stime
            inv.rss_mb = usage.ru_maxrss / 1024.0
            out.seek(0)
            err.seek(0)
            inv.csv, inv.stderr = out.read(), err.read()
        if trace_mode is not None and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                inv.trace = json.load(fh)
    if inv.code not in (0, 1):
        inv.failure = f"exit code {inv.code}" + (" (timeout)" if inv.code == -signal.SIGKILL else "")
    elif b"Traceback" in inv.stderr:
        inv.failure = "traceback on stderr"
    elif trace_mode is not None and inv.trace is None:
        inv.failure = "no trace written"
    return inv


def parse_csv(data):
    """The number of rows with pass=false; raises ValueError if malformed."""
    lines = data.decode("utf-8").splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines[: len(lines) - len(body)]:
        if "=" not in ln:
            raise ValueError(f"malformed header line {ln!r}")
    rows = list(csv.reader(body))
    if len(rows) < 2 or "pass" not in rows[0]:
        raise ValueError("no column header with a pass column, or no rows")
    col = rows[0].index("pass")
    for row in rows[1:]:
        if len(row) != len(rows[0]) or row[col] not in ("true", "false"):
            raise ValueError(f"malformed row {row!r}")
    return sum(row[col] == "false" for row in rows[1:])


def code_hash():
    """Digest of every file under src/, standing in for the commit."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Gate:
    """CSV checks: each output parses, and every output of one configuration
    (the argv without --workers) is byte-identical, within this run and
    against earlier runs of the same code recorded in the checkout."""

    def __init__(self, code):
        self.path = os.path.join(STATE, f"digests-{code[:16]}.json")
        try:
            with open(self.path, encoding="utf-8") as fh:
                self.known = json.load(fh)
        except (OSError, ValueError):
            self.known = {}

    def check(self, inv):
        if inv.failure is None:
            try:
                inv.checks_failed = parse_csv(inv.csv)
            except (UnicodeDecodeError, ValueError) as exc:
                inv.failure = f"malformed CSV: {exc}"
            else:
                key = " ".join(without_workers(inv.argv))
                digest = hashlib.sha256(inv.csv).hexdigest()
                if self.known.setdefault(key, digest) != digest:
                    inv.failure = "CSV bytes differ from another run of this config and seed"

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.known, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


def without_workers(argv):
    out, skip = [], False
    for a in argv:
        if skip:
            skip = False
        elif a == "--workers":
            skip = True
        else:
            out.append(a)
    return out


def with_workers(argv, n):
    return without_workers(argv) + ["--workers", str(n)]


# -- environment --------------------------------------------------------------


def environment(code):
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if head.returncode == 0:
            commit = head.stdout.strip()
            status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                    capture_output=True, text=True)
            dirty = bool(status.stdout.strip())
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": code,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor() or None,
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "blas_threads": 1,
    }


# -- one run ------------------------------------------------------------------


class Run:
    def __init__(self, workload, seed, gate):
        self.workload = workload
        base, self.reps = WORKLOADS[workload]
        self.full_argv = base + ["--reps", str(self.reps), "--seed", str(seed)]
        self.setup_argv = base + ["--reps", str(SETUP_REPS), "--seed", str(seed)]
        self.gate = gate
        self.start = time.perf_counter()
        self.invocations = []

    def elapsed(self):
        return time.perf_counter() - self.start

    def invoke(self, kind, argv, trace_mode=None):
        timeout = min(INVOCATION_TIMEOUT_S, max(1.0, RUN_BUDGET_S - self.elapsed()))
        inv = invoke(kind, argv, timeout, trace_mode)
        self.gate.check(inv)
        self.invocations.append(inv)
        return inv

    def of(self, kind):
        return [i for i in self.invocations if i.kind == kind]

    def failed(self):
        return sum(i.failure is not None for i in self.invocations)

    def over_budget(self):
        return self.elapsed() > RUN_BUDGET_S - 10.0


def measure(workload, seed, seconds, gate):
    """Alternate set-up and pinned invocations until ``seconds`` have passed
    and there are at least SETUP_RUNS and FULL_RUNS of them."""
    run = Run(workload, seed, gate)
    while not run.over_budget() and (
        run.elapsed() < seconds or len(run.of("setup")) < SETUP_RUNS
        or len(run.of("full")) < FULL_RUNS
    ):
        if len(run.of("setup")) <= len(run.of("full")):
            run.invoke("setup", run.setup_argv)
        else:
            run.invoke("full", run.full_argv)
    full, setup = run.of("full"), run.of("setup")
    metrics = {
        "wall_s": (statistics.median(i.wall for i in full), "s"),
        "setup_s": (statistics.median(i.wall for i in setup), "s"),
        "cpu_s": (statistics.median(i.cpu for i in full), "s"),
        "peak_rss_mb": (statistics.median(i.rss_mb for i in full), "MB"),
    }
    return run, metrics


def traced(workload, seed, gate):
    """The traced pass and an untraced invocation of the same argv; a pooled
    workload's traced pass runs at --workers 1, followed by a pool pass at
    its own worker count."""
    run = Run(workload, seed, gate)
    pooled = "--workers" in run.full_argv
    argv = with_workers(run.full_argv, 1) if pooled else run.full_argv
    plain = run.invoke("full", argv)
    layers = run.invoke("traced", argv, "layers")
    pool = run.invoke("pool", run.full_argv, "pool") if pooled else None
    return run, layer_metrics(layers, pool, plain.wall)


# -- per-layer metrics ----------------------------------------------------------


EMPTY_TRACE = {"spans": {}, "edges": [], "counts": {}, "import_s": 0.0}


def span(trace, name):
    """[calls, total_s, self_s] of one span name in a trace."""
    return trace["spans"].get(name, [0, 0.0, 0.0])


def edge_total(trace, parent, name):
    return sum(t for p, n, _, t in trace["edges"] if (p, n) == (parent, name))


def layer_metrics(layers, pool, plain_wall):
    """Per-layer metrics from the traced pass and, if pooled, the pool pass."""
    tr = layers.trace or EMPTY_TRACE
    counts = tr["counts"]

    def spans(*names, units=("calls", "self_s")):
        col = {"calls": (0, "count"), "s": (1, "s"), "self_s": (2, "s")}
        return {f"{n}.{u}": (span(tr, n)[col[u][0]], col[u][1]) for n in names for u in units}

    def counters(*names):
        return {n: (counts.get(n, 0), "count") for n in names}

    candidates = counts.get("rng.uniform.draws@ppp.sample_threshold_times", 0) / 2
    ptr = pool.trace if pool is not None and pool.trace else None
    wait = span(ptr, "pool.wait")[1] if ptr else 0.0
    # the parent's time in the pooled pass outside the plan and the waits
    serial = (span(ptr, "cli.main")[1] - span(ptr, "experiments.plan_passage")[1] - wait
              if ptr else 0.0)
    return {
        "cli.import_s": (tr["import_s"], "s"),
        **spans("quadrature.integrate"),
        **counters("quadrature.evals"),
        **spans("stability.evaluate", "stability.evaluate_many"),
        **counters("stability.evaluate_many.points"),
        "rng.streams": (span(tr, "rng.init")[0], "count"),
        "rng.init_s": (span(tr, "rng.init")[1], "s"),
        **spans("rng.uniform", "rng.poisson"),
        **counters("rng.uniform.draws"),
        **spans("ppp.sample_threshold", "ppp.sample_threshold_times", "ppp.sample_stationary"),
        **counters("ppp.sample_threshold.points", "ppp.sample_threshold_times.points",
                   "ppp.sample_stationary.points"),
        "ppp.sample_threshold_times.accept_ratio": (
            counts.get("ppp.sample_threshold_times.points", 0) / candidates if candidates else 0.0,
            "ratio"),
        **spans("ppp.solve_truncation", units=("calls", "s")),
        **spans("ppp.expected_count_window", "ppp.small_jump_mass_window", units=("calls",)),
        **spans("experiments.choose_horizon", "experiments.plan_passage", units=("s",)),
        **counters("experiments.plan.blocks", "experiments.plan.capped_blocks",
                   "experiments.plan.mean_points"),
        **spans("experiments.run", units=("self_s",)),
        **spans("experiments.stream_for", units=("calls",)),
        "pool.starts": (ptr["counts"].get("pool.starts", 0) if ptr else 0, "count"),
        "pool.wait_s": (wait, "s"),
        "pool.serial_s": (serial, "s"),
        **spans("subordinator.laplace_transform", units=("calls", "s")),
        **spans("subordinator.build_path", units=("calls",)),
        **spans("inverse_mfpp.sample_poisson_path"),
        **spans("ctrw.partial_sum_path"),
        **counters("ctrw.partial_sum_path.cells"),
        **spans("ctrw.norming_an", units=("calls", "s")),
        **spans("ctrw.inverse_ctrw", units=("calls",)),
        **spans("stats.ks_two_sample", "stats.mittag_leffler", units=("calls", "s")),
        **spans("stats.empirical_laplace", units=("s",)),
        **{f"{layer}.self_s": (s, "s") for layer, s in layer_table(tr).items()},
        "trace.overhead": (layers.wall / plain_wall, "ratio"),
        "trace.other_s": (layers.wall - sum(layer_table(tr).values()), "s"),
    }


def layer_table(tr):
    """Self time per layer of a traced pass; with trace.other_s it sums to
    the traced wall time."""
    out = {layer: 0.0 for layer in LAYERS}
    out["cli"] = tr["import_s"]
    for name, (_, _, self_s) in tr["spans"].items():
        out[name.split(".")[0]] += self_s
    return out


# workload -> (claim, share of a traced pass, low, high): the predicted shares
PREDICTIONS = {
    "threshold": [
        ("per-replication quadrature (integrate under sample_threshold) is about half",
         lambda a, b: edge_total(a.trace, "ppp.sample_threshold", "quadrature.integrate") / a.wall,
         0.35, 0.65),
        ("plan_passage is about a third of the pooled invocation",
         lambda a, b: span(b.trace, "experiments.plan_passage")[1] / b.wall, 0.2, 0.45),
    ],
    "stationary": [
        ("RNG streams plus the stationary sampler are about half",
         lambda a, b: (span(a.trace, "ppp.sample_stationary")[1] + span(a.trace, "rng.init")[1])
         / a.wall, 0.35, 0.65),
    ],
    "array": [
        ("partial_sum_path is over 90%",
         lambda a, b: span(a.trace, "ctrw.partial_sum_path")[1] / a.wall, 0.9, 1.0),
    ],
}


# -- reporting ------------------------------------------------------------------


def report_run(run, metrics, trace):
    print(f"workload={run.workload} reps={run.reps} invocations={len(run.invocations)} "
          f"({', '.join(f'{k}={len(run.of(k))}' for k in ('setup', 'full', 'traced', 'pool') if run.of(k))})")
    for inv in run.invocations:
        print(f"  {inv.kind:<6} wall={inv.wall:.3f}s cpu={inv.cpu:.3f}s rss={inv.rss_mb:.1f}MB "
              f"exit={inv.code}" + (f"  FAILED: {inv.failure}" if inv.failure else ""))
    if not trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>12.4f} {unit}")
        checks = run.of("full")[0].checks_failed
        print(f"  {'checks_failed':<14} {'n/a' if checks is None else checks:>12} count "
              "(rows with pass=false at the pinned reps)")
        print(f"  {'runs_failed':<14} {run.failed():>12} count (of {len(run.invocations)} attempted)")
        return
    layers = run.of("traced")[0]
    if layers.trace is None:
        return
    table = layer_table(layers.trace)
    other = metrics["trace.other_s"][0]
    print(f"  traced wall {layers.wall:.3f}s = layer self times {sum(table.values()):.3f}s "
          f"+ trace.other_s {other:.3f}s (overhead x{metrics['trace.overhead'][0]:.2f})")
    for layer, s in table.items():
        print(f"    {layer:<13} {s:>9.3f}s {100 * s / layers.wall:6.1f}%")
    for name, (value, unit) in metrics.items():
        if not name.endswith(".self_s") or name.count(".") > 1:
            print(f"  {name:<42} {value:>14.6g} {unit}")
    pool = run.of("pool")[0] if run.of("pool") else None
    if pool is not None and pool.trace is None:
        return
    for claim, share_of, low, high in PREDICTIONS[run.workload]:
        share = share_of(layers, pool)
        verdict = "confirmed" if low <= share <= high else "DISAGREES"
        print(f"  prediction: {claim}: measured {100 * share:.1f}% "
              f"(expected {100 * low:.0f}-{100 * high:.0f}%) -> {verdict}")


def run_one(workload, seed, seconds, trace, gate):
    run, metrics = traced(workload, seed, gate) if trace else measure(workload, seed, seconds, gate)
    report_run(run, metrics, trace)
    return run, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mssim", "cli.py")):
        print(f"error: no mssim sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be an unsigned 64-bit integer")
    os.makedirs(STATE, exist_ok=True)
    code = code_hash()
    print("env " + json.dumps(environment(code), sort_keys=True))
    gate = Gate(code)
    if args.workload == "all":
        runs, metrics = [], {}
        for name in WORKLOADS:
            for trace in (0, 1):
                run, m = run_one(name, args.seed, args.seconds, trace, gate)
                runs.append(run)
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    else:
        run, metrics = run_one(args.workload, args.seed, args.seconds, args.trace, gate)
        runs = [run]
    gate.save()
    if args.workload != "all":
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: metrics[m["name"]] for m in spec}
    attempted = sum(len(r.invocations) for r in runs)
    failed = sum(r.failed() for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
