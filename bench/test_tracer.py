"""Tests for the benchmark's tracer and CSV gate.

Run from the repository root: python3 -m pytest -q bench
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tr = Tracer(clock)

    def leaf():
        clock.advance(1.0)

    def mid():
        clock.advance(2.0)
        tr.call("leaf", leaf)
        clock.advance(0.5)

    def root():
        clock.advance(3.0)
        tr.call("mid", mid)
        tr.call("leaf", leaf)
        clock.advance(0.25)

    tr.call("root", root)
    assert tr.spans == {
        "root": [1, 7.75, 3.25],
        "mid": [1, 3.5, 2.5],
        "leaf": [2, 2.0, 2.0],
    }
    assert sum(s[2] for s in tr.spans.values()) == tr.spans["root"][1]
    assert tr.edges == {
        (None, "root"): [1, 7.75],
        ("root", "mid"): [1, 3.5],
        ("mid", "leaf"): [1, 1.0],
        ("root", "leaf"): [1, 1.0],
    }


def test_opaque_span_hides_its_callees_and_errors_close_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def inner():
        clock.advance(1.0)
        raise KeyError("boom")

    def outer():
        clock.advance(2.0)
        tr.call("inner", lambda: clock.advance(4.0))

    tr.call("outer", outer, opaque=True)
    with pytest.raises(KeyError):
        tr.call("inner", inner)
    assert tr.spans == {"outer": [1, 6.0, 6.0], "inner": [1, 1.0, 1.0]}
    assert tr._stack == [] and tr._opaque == 0


def _bindings():
    out = {}
    for mod in tracer.mssim_modules():
        out.update({(mod.__name__, k): v for k, v in vars(mod).items()})
    from mssim.rng import RngStream
    from mssim.stability import StabilityIndex

    for cls in (RngStream, StabilityIndex):
        out.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return out


def test_restore_puts_back_every_patched_attribute_by_identity():
    from mssim import experiments, quadrature

    before = _bindings()
    tr = Tracer()
    tracer.install(tr, "layers")
    tracer.install(tr, "pool")
    assert quadrature.integrate is not before[("mssim.quadrature", "integrate")]
    assert experiments.ProcessPoolExecutor is not before[("mssim.experiments", "ProcessPoolExecutor")]
    tr.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_every_module_binding_integrate_is_traced():
    from mssim import ppp, quadrature

    original = quadrature.integrate
    sites = {m.__name__: [k for k, v in vars(m).items() if v is original]
             for m in tracer.mssim_modules()}
    sites = {name: attrs for name, attrs in sites.items() if attrs}
    assert {"mssim.quadrature", "mssim.ppp", "mssim.subordinator", "mssim.stats"} <= sites.keys()
    tr = Tracer()
    tracer.install(tr, "layers")
    try:
        for m in tracer.mssim_modules():
            for attr in sites.get(m.__name__, ()):
                assert getattr(m, attr) is not original, f"{m.__name__}.{attr} is not traced"
        idx = __import__("mssim").StabilityIndex.from_spec("affine:0.4,0.2", 1.0)
        ppp.expected_count_window(idx, 0.0, 1.0, ppp.Truncation("threshold", 1e-3))
    finally:
        tr.restore()
    assert tr.spans["quadrature.integrate"][0] == 1
    assert tr.counts["quadrature.evals"] == tr.spans["stability.evaluate"][0] > 0


def test_tracing_changes_no_csv_byte():
    from mssim import experiments

    args = ("constant:0.5", [1.0], [1.0], 40, 7)
    plain = experiments.run_laplace(*args).to_csv()
    tr = Tracer()
    tracer.install(tr, "layers")
    try:
        traced = experiments.run_laplace(*args).to_csv()
    finally:
        tr.restore()
    assert traced == plain
    assert tr.spans["ppp.sample_stationary"][0] == 40
    assert tr.counts["ppp.sample_stationary.points"] == tr.counts["stability.evaluate_many.points"]


def test_pool_pass_counts_starts_and_keeps_bytes():
    from mssim import experiments

    args = ("constant:0.5", 1.0, [1.0], 160, 3)
    serial = experiments.run_mfpp(*args, workers=1).to_csv()
    tr = Tracer()
    tracer.install(tr, "pool")
    try:
        pooled = experiments.run_mfpp(*args, workers=2).to_csv()
    finally:
        tr.restore()
    assert pooled == serial
    assert tr.counts["pool.starts"] == 1
    assert tr.spans["pool.wait"][0] >= 2
    assert tr.counts["experiments.plan.blocks"] >= 1


def test_csv_gate_counts_failed_rows_and_rejects_malformed_output():
    good = b"# command=x\n# seed=1\na,pass\n1,true\n2,false\n"
    assert run.parse_csv(good) == 1
    for bad in (b"", b"# command=x\n", b"a,b\n1,2\n", b"# x\na,pass\n1,maybe\n",
                b"a,pass\n1,true,3\n", b"# no equals sign\na,pass\n1,true\n"):
        with pytest.raises(ValueError):
            run.parse_csv(bad)


def test_workers_flag_is_dropped_from_the_determinism_key():
    argv = ["mfpp", "--workers", "2", "--reps", "5"]
    assert run.without_workers(argv) == ["mfpp", "--reps", "5"]
    assert run.with_workers(argv, 1) == ["mfpp", "--reps", "5", "--workers", "1"]
