"""Span tracer for the benchmark's traced runs.

It wraps the public functions of every ``mssim`` layer from outside the
package, so ``src/`` stays untouched. Each span has a name, a start, an end
and a parent; spans are aggregated per name as they close, because a
threshold run makes about a million scalar index evaluations. A span's self
time is its duration minus the durations of its direct child spans.
"""

import importlib
import pkgutil
import time


class Tracer:
    """Aggregates spans per name and per (parent, name) edge, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent, name) -> [calls, total_s]
        self.counts = {}
        self._stack = []  # open frames: [name, child_total_s]
        self._opaque = 0
        self._patches = []

    def add(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def call(self, name, fn, args=(), kwargs=None, opaque=False):
        """Run ``fn`` inside a span. Under an opaque span no child opens."""
        if self._opaque:
            return fn(*args, **(kwargs or {}))
        parent = self.parent()
        frame = [name, 0.0]
        self._stack.append(frame)
        self._opaque += opaque
        start = self.clock()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dur = self.clock() - start
            self._opaque -= opaque
            self._stack.pop()
            span = self.spans.setdefault(name, [0, 0.0, 0.0])
            span[0] += 1
            span[1] += dur
            span[2] += dur - frame[1]
            edge = self.edges.setdefault((parent, name), [0, 0.0])
            edge[0] += 1
            edge[1] += dur
            if self._stack:
                self._stack[-1][1] += dur

    def wrap(self, name, fn, hook=None, opaque=False):
        """``fn`` traced as span ``name``; ``hook(tracer, parent, out)``
        derives counts from the return value."""

        def traced(*args, **kwargs):
            parent = self.parent()
            out = self.call(name, fn, args, kwargs, opaque)
            if hook is not None and not self._opaque:
                hook(self, parent, out)
            return out

        return traced

    def patch(self, owner, attr, value):
        """Replace ``owner.attr``; ``restore`` puts the original object back."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def to_json(self):
        return {
            "spans": self.spans,
            "edges": [[p, n, c, t] for (p, n), (c, t) in self.edges.items()],
            "counts": self.counts,
        }


# -- what to trace ------------------------------------------------------------


def _counting(key, measure):
    def hook(tr, parent, out):
        tr.add(key, measure(out))

    return hook


def _points(out):
    return len(out.times)


def _size(out):
    return getattr(out, "size", 1)


def _uniform_hook(tr, parent, out):
    n = _size(out)
    tr.add("rng.uniform.draws", n)
    # draws per enclosing span give the rejection sampler's candidate count
    tr.add(f"rng.uniform.draws@{parent}", n)


def _plan_hook(tr, parent, out):
    from mssim import experiments

    cap = experiments._PASSAGE_POINTS_CAP
    tr.add("experiments.plan.blocks", len(out.blocks))
    tr.add("experiments.plan.capped_blocks",
           sum(1 for b in out.blocks if b.t1 > 1.0 and b.mean_count >= cap * (1 - 1e-6)))
    tr.add("experiments.plan.mean_points", sum(b.mean_count for b in out.blocks))


# (module, attribute path, span name, hook, opaque)
LAYER_TARGETS = (
    ("quadrature", "integrate", "quadrature.integrate", None, False),
    # evaluate is opaque: its evaluate_many call and domain check are its own cost
    ("stability", "StabilityIndex.evaluate", "stability.evaluate", None, True),
    ("stability", "StabilityIndex.evaluate_many", "stability.evaluate_many",
     _counting("stability.evaluate_many.points", _size), False),
    ("rng", "RngStream.__init__", "rng.init", None, False),
    ("rng", "RngStream.uniform", "rng.uniform", _uniform_hook, False),
    ("rng", "RngStream.poisson", "rng.poisson", None, False),
    ("ppp", "sample_threshold", "ppp.sample_threshold",
     _counting("ppp.sample_threshold.points", _points), False),
    ("ppp", "sample_threshold_times", "ppp.sample_threshold_times",
     _counting("ppp.sample_threshold_times.points", len), False),
    ("ppp", "sample_stationary", "ppp.sample_stationary",
     _counting("ppp.sample_stationary.points", _points), False),
    ("ppp", "solve_truncation", "ppp.solve_truncation", None, False),
    ("ppp", "expected_count_window", "ppp.expected_count_window", None, False),
    ("ppp", "small_jump_mass_window", "ppp.small_jump_mass_window", None, False),
    ("experiments", "choose_horizon", "experiments.choose_horizon", None, False),
    ("experiments", "plan_passage", "experiments.plan_passage", _plan_hook, False),
    ("experiments", "stream_for", "experiments.stream_for", None, False),
    ("experiments", "run_laplace", "experiments.run", None, False),
    ("experiments", "run_mfpp", "experiments.run", None, False),
    ("experiments", "run_ctrw", "experiments.run", None, False),
    ("experiments", "run_paths", "experiments.run", None, False),
    ("experiments", "run_verify", "experiments.run", None, False),
    ("subordinator", "laplace_transform", "subordinator.laplace_transform", None, False),
    ("subordinator", "build_path", "subordinator.build_path", None, False),
    ("inverse_mfpp", "sample_poisson_path", "inverse_mfpp.sample_poisson_path", None, False),
    ("ctrw", "partial_sum_path", "ctrw.partial_sum_path",
     _counting("ctrw.partial_sum_path.cells", lambda out: len(out.grid) - 1), False),
    ("ctrw", "norming_an", "ctrw.norming_an", None, False),
    ("ctrw", "inverse_ctrw", "ctrw.inverse_ctrw", None, False),
    ("stats", "ks_two_sample", "stats.ks_two_sample", None, False),
    ("stats", "empirical_laplace", "stats.empirical_laplace", None, False),
    ("stats", "mittag_leffler", "stats.mittag_leffler", None, False),
)

# the worker-pool pass wraps only the plan and the executor
POOL_TARGETS = tuple(t for t in LAYER_TARGETS if t[2] == "experiments.plan_passage")


def mssim_modules():
    """Every module of the ``mssim`` package, imported."""
    import mssim

    mods = [mssim]
    for info in pkgutil.iter_modules(mssim.__path__):
        mods.append(importlib.import_module(f"mssim.{info.name}"))
    return mods


def _counted_integrate(tr, integrate):
    def run(f, a, b, *args, **kwargs):
        if getattr(f, "_counted", False):
            return integrate(f, a, b, *args, **kwargs)

        def g(x):
            tr.counts["quadrature.evals"] = tr.counts.get("quadrature.evals", 0) + 1
            return f(x)

        g._counted = True
        return integrate(g, a, b, *args, **kwargs)

    return run


def install(tr, mode="layers"):
    """Patch the targets of ``mode`` ("layers" or "pool") on ``tr``.

    A module-level function is patched under every name that binds it in any
    ``mssim`` module, since ``from .quadrature import integrate`` makes a
    binding of its own in each importer. Methods are patched on the class.
    """
    mods = mssim_modules()
    targets = LAYER_TARGETS if mode == "layers" else POOL_TARGETS
    for modname, path, span, hook, opaque in targets:
        owner = importlib.import_module(f"mssim.{modname}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
            tr.patch(owner, attr, tr.wrap(span, owner.__dict__[attr], hook, opaque))
            continue
        fn = getattr(owner, attr)
        if span == "quadrature.integrate":
            fn_traced = tr.wrap(span, _counted_integrate(tr, fn), hook, opaque)
        else:
            fn_traced = tr.wrap(span, fn, hook, opaque)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    tr.patch(mod, name, fn_traced)
    if mode == "pool":
        from mssim import experiments

        tr.patch(experiments, "ProcessPoolExecutor", _traced_pool(tr, experiments.ProcessPoolExecutor))


def _traced_pool(tr, base):
    class TracedPool(base):
        """The executor with its starts counted and the parent's waits timed."""

        def __init__(self, *args, **kwargs):
            tr.add("pool.starts")
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            fut = super().submit(*args, **kwargs)
            fut.result = tr.wrap("pool.wait", fut.result)
            return fut

        def __exit__(self, *exc):
            return tr.call("pool.wait", super().__exit__, exc)

    return TracedPool
