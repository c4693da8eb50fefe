"""End-to-end tests of the command-line interface."""

import argparse
import inspect
import subprocess
import sys
import tempfile

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

from mssim import cli, experiments
from test_golden import GOLDEN, VERIFY_QUICK, cli_env

BASE = [sys.executable, "-m", "mssim.cli"]


def run_cli(*args, **kwargs):
    return subprocess.run(BASE + list(args), capture_output=True, text=True, **kwargs)


def test_laplace_roundtrip(tmp_path):
    out = tmp_path / "laplace.csv"
    res = run_cli(
        "laplace", "--beta", "constant:0.5", "--theta", "1", "--t", "1",
        "--reps", "400", "--seed", "3", "--out", str(out),
    )
    assert res.returncode == 0, res.stderr
    text = out.read_text()
    assert text.startswith("# command=laplace\n")
    assert "beta_spec,theta,t,mc_mean,mc_se,oracle,bias_bound,pass" in text
    assert text.rstrip().endswith("true")


def test_same_config_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["mfpp", "--beta", "constant:0.5", "--t", "1", "--reps", "300", "--seed", "5"]
    assert run_cli(*args, "--out", str(a)).returncode == 0
    assert run_cli(*args, "--out", str(b), "--workers", "2").returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_reps_one_is_usage_error():
    res = run_cli("laplace", "--beta", "constant:0.5", "--reps", "1")
    assert res.returncode == 2
    assert "reps" in res.stderr


def test_grid_zero_is_usage_error():
    res = run_cli("paths", "--beta", "constant:0.5", "--grid", "0")
    assert res.returncode == 2
    assert "grid" in res.stderr


def test_bad_beta_spec_is_usage_error():
    res = run_cli("laplace", "--beta", "zigzag:0.5", "--reps", "10")
    assert res.returncode == 2
    assert "beta" in res.stderr or "zigzag" in res.stderr


@pytest.mark.parametrize("args", [
    ("laplace", "--beta", "constant:0.5", "--theta", "inf", "--reps", "10"),
    ("mfpp", "--beta", "constant:0.5", "--lambda", "inf", "--reps", "10"),
    ("verify", "--quick", "--scale", "inf"),
])
def test_non_finite_input_is_usage_error(args):
    res = run_cli(*args, timeout=5)
    assert res.returncode == 2
    assert "finite" in res.stderr
    assert "Traceback" not in res.stderr


def test_tiny_index_reports_without_traceback():
    # the stationary mass bracket starts where M**(1 - 1/beta) overflows
    res = run_cli("laplace", "--beta", "constant:0.01", "--reps", "10", timeout=10)
    assert res.returncode in (0, 1), res.stderr
    assert "Traceback" not in res.stderr


def test_truncation_with_infinite_excluded_mass_is_usage_error():
    # M**(1 - 1/beta) = 1e396 overflows: bias_bound would be inf and every row pass
    res = run_cli("laplace", "--beta", "constant:0.01", "--trunc-m", "1e-4", "--reps", "10",
                  timeout=10)
    assert res.returncode == 2
    assert "jump mass beyond the float range" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    ("laplace", "--beta", "constant:0.95", "--reps", "10"),
    ("mfpp", "--beta", "constant:0.99", "--reps", "10"),
    ("laplace", "--beta", "constant:0.5", "--trunc-m", "1e12", "--reps", "10"),
    ("ctrw", "--beta", "constant:0.5", "--n", "1000000000000", "--t", "1", "--reps", "2"),
    # Poisson arrivals, walk steps and grid rows per replication
    ("mfpp", "--beta", "constant:0.5", "--lambda", "1e13", "--reps", "2"),
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--lambda", "1e13", "--reps", "2"),
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--pn-rule", "const:1e-12", "--reps", "2"),
    ("paths", "--beta", "constant:0.5", "--lambda", "1e13", "--reps", "2"),
    ("paths", "--beta", "constant:0.5", "--grid", "10000000000", "--reps", "2"),
    # a mean count of 1.7e6 under a thinning envelope of 2.2e7
    ("paths", "--beta", "affine:0.2,0.56", "--reps", "2"),
    # raised inside a plan worker of the pool, and in the parent for ctrw's D reference
    ("mfpp", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "2", "--workers", "2"),
    ("ctrw", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "2", "--workers", "2"),
])
def test_too_many_points_is_usage_error(args, tmp_path):
    res = run_cli(*args, timeout=10, cwd=tmp_path, env=cli_env())
    assert res.returncode == 2
    assert "points per replication" in res.stderr
    assert "Traceback" not in res.stderr and "lam value" not in res.stderr
    assert not list(tmp_path.iterdir())


def test_the_cli_does_not_import_mpmath():
    # mpmath is a test dependency only: every module loads, and the k = 0
    # oracle computes, without it
    code = ("import pkgutil, sys, mssim\n"
            "for m in pkgutil.iter_modules(mssim.__path__):\n"
            "    __import__('mssim.' + m.name)\n"
            "mssim.stats.mittag_leffler(0.5, -1.0)\n"
            "print('mpmath' in sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], env=cli_env(), capture_output=True,
                         text=True, timeout=60)
    assert res.stdout.strip() == "False", res.stderr


def _oracle_at_k0(csv):
    row = next(line for line in csv.splitlines() if line.startswith("1,0,"))
    return float(row.split(",")[4])


def test_small_index_oracle_ends_quickly():
    # the oracle's power series took minutes here: |z| = 4.9 at beta = 0.2
    res = run_cli("mfpp", "--beta", "constant:0.2", "--lambda", "5.7", "--t", "1", "--reps", "2",
                  "--seed", "1", timeout=10, env=cli_env())
    assert res.returncode in (0, 1), res.stderr
    assert 0.0 < _oracle_at_k0(res.stdout) < 1.0


def test_index_near_one_still_reports():
    res = run_cli("mfpp", "--beta", "constant:0.999", "--trunc-m", "100", "--t", "1", "--reps",
                  "2", "--seed", "1", timeout=10, env=cli_env())
    assert res.returncode in (0, 1), res.stderr
    assert _oracle_at_k0(res.stdout) == pytest.approx(0.99899950197907, abs=1e-10)


def test_tiny_lambda_oracle_rounds_to_one():
    # z = -1.13e-20: the quadrature alone gave 1 - 7e-11, so p_hat = 1 failed
    res = run_cli("mfpp", "--beta", "constant:0.5", "--lambda", "1e-20", "--t", "1", "--reps",
                  "20", "--seed", "1", timeout=30, env=cli_env())
    assert res.returncode == 0, res.stderr
    assert _oracle_at_k0(res.stdout) == 1.0


def _header(csv, key):
    return next(line.split("=", 1)[1] for line in csv.splitlines() if line.startswith(f"# {key}="))


def test_ctrw_horizon_covers_every_t():
    # D(t) and S_n(t) are read at the time t, past the horizon the level t alone needs
    argv = ("ctrw", "--beta", "constant:0.2", "--n", "100", "--reps", "4", "--seed", "1")
    res = run_cli(*argv, "--t", "48", timeout=60, env=cli_env())
    assert res.returncode in (0, 1), res.stderr
    assert float(_header(res.stdout, "horizon")) >= 48.0
    res = run_cli(*argv, "--t", "100", timeout=30, env=cli_env())
    assert res.returncode == 2
    assert len(res.stderr.strip().splitlines()) == 2  # usage + error
    assert "at most 64" in res.stderr and "Traceback" not in res.stderr


def _commands():
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_option_is_a_parameter_of_its_pipeline():
    for name, sp in _commands().items():
        run = sp.get_default("run")
        assert run is getattr(experiments, f"run_{name}")
        params = inspect.signature(run).parameters
        options = [a for a in sp._actions if a.dest != "help"]
        # no default lives in the parser, and main writes the report to --out
        assert all(a.default is argparse.SUPPRESS for a in options), name
        dests = {a.dest for a in options} - ({"out"} if name != "paths" else set())
        assert dests <= set(params), (name, dests - set(params))
        required = {k for k, v in params.items() if v.default is inspect.Parameter.empty}
        assert required == {a.dest for a in options if a.required}, name


def test_absent_options_are_not_passed(monkeypatch, capsys):
    calls = []

    def record(**kwargs):
        calls.append(kwargs)
        return experiments.Report("laplace", {}, ("pass",), [(True,)])

    monkeypatch.setattr(experiments, "run_laplace", record)
    assert cli.main(["laplace", "--beta", "constant:0.5", "--t", "1,2"]) == 0
    assert calls == [{"beta_spec": "constant:0.5", "ts": [1.0, 2.0]}]
    assert capsys.readouterr().out.startswith("# command=laplace\n")


# each command's argv without the options that have defaults, and the
# defaults the parser used to state, spelled out
DEFAULTED = {
    "laplace": (("laplace", "--beta", "affine:0.4,0.2", "--reps", "50"),
                ("--theta", "0.5,1,2", "--t", "0.5,1", "--mass-budget", "0.001")),
    "mfpp": (("mfpp", "--beta", "constant:0.5", "--reps", "50"), ("--lambda", "1", "--t", "1")),
    "ctrw": (("ctrw", "--beta", "constant:0.5", "--reps", "20"),
             ("--lfamily", "unit", "--n", "100,1000", "--t", "1", "--pn-rule", "sqrt",
              "--lambda", "1", "--alpha", "0.01")),
    "paths": (("paths", "--beta", "constant:0.5"),
              ("--reps", "10", "--t", "1", "--grid", "101", "--lambda", "1", "--out", "paths")),
}


@pytest.mark.parametrize("name", sorted(DEFAULTED))
def test_omitted_options_take_the_former_defaults(name, tmp_path, monkeypatch, capsys):
    short, spelled = DEFAULTED[name]
    outputs = []
    for argv in (short, short + ("--seed", "0", "--workers", "1") + spelled):
        cwd = tmp_path / str(len(outputs))
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert cli.main(list(argv)) in (0, 1)
        files = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].startswith(f"# command={name}\n")


def test_out_of_memory_is_usage_error():
    # 1e14 replications need an 800 TB result array, beyond any address space
    res = run_cli("laplace", "--beta", "constant:0.5", "--t", "1", "--reps", "100000000000000",
                  timeout=10)
    assert res.returncode == 2
    assert "--reps" in res.stderr and len(res.stderr.strip().splitlines()) == 2  # usage + error
    assert "Traceback" not in res.stderr and "ArrayMemoryError" not in res.stderr


@pytest.mark.parametrize("args", [
    ("laplace", "--beta", "constant:0.5", "--t", "1", "--reps", "2", "--out", "missing/x.csv"),
    ("laplace", "--beta", "constant:0.5", "--t", "1", "--reps", "2", "--out", "."),
    ("paths", "--beta", "constant:0.5", "--reps", "2", "--out", "missing/traj"),
])
def test_unwritable_out_is_usage_error(args, tmp_path):
    res = run_cli(*args, timeout=30, cwd=tmp_path, env=cli_env())
    assert res.returncode == 2
    assert "cannot write the output" in res.stderr and "Traceback" not in res.stderr
    assert len(res.stderr.strip().splitlines()) == 2  # usage + error


def test_verify_takes_no_reps():
    res = run_cli("verify", "--quick", "--reps", "10")
    assert res.returncode == 2
    assert "--reps" in res.stderr


def test_bad_lfamily_is_usage_error():
    res = run_cli("ctrw", "--beta", "constant:0.5", "--lfamily", "poly")
    assert res.returncode == 2


def test_paths_emits_valid_trajectories(tmp_path):
    prefix = tmp_path / "traj"
    res = run_cli(
        "paths", "--beta", "constant:0.5", "--t", "1", "--grid", "21",
        "--reps", "3", "--seed", "9", "--out", str(prefix),
    )
    assert res.returncode == 0, res.stderr
    files = sorted(tmp_path.glob("traj.rep*.csv"))
    assert len(files) == 3
    for f in files:
        rows = [line.split(",") for line in f.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        assert len(rows) == 21
        d = np.array([float(r[1]) for r in rows])
        assert (np.diff(d) >= 0).all()  # D non-decreasing
        x = np.array([float(r[3]) for r in rows if r[4] == "false"])
        assert (x == np.round(x)).all()  # X integer-valued
        assert (np.diff(x) >= 0).all()  # X non-decreasing


def test_verify_quick_small_scale_passes():
    res = run_cli(*VERIFY_QUICK, env=cli_env())
    assert res.returncode == 0, res.stderr
    assert "# command=verify" in res.stdout
    assert ",false" not in res.stdout
    assert res.stdout == (GOLDEN / "verify_quick.csv").read_text()


# argv fragments for the property test: valid values next to empty,
# negative, non-finite, oversized and malformed ones
NUMBERS = ("1", "0.5", "0.5,1", "0", "-1", "inf", "nan", "1e300", "1e-300", "abc", "")
BETAS = ("constant:0.5", "affine:0.4,0.2", "sin:0.5,0.2,1", "sin:0.5,0.2,2", "sin:0.5,0.2,1e9",
         "table:0,0.4;1,0.6", "constant:0.99", "constant:1.5", "constant:nan", "affine:0.4",
         "zigzag:0.5", "", "constant:0.01")
# a file, a file in a missing directory, and a directory
OUTS = ("out.csv", "missing/out.csv", ".")
FLAGS = {
    "laplace": {"--theta": NUMBERS, "--t": NUMBERS, "--trunc-m": NUMBERS,
                "--mass-budget": NUMBERS, "--out": OUTS},
    "mfpp": {"--lambda": NUMBERS, "--t": NUMBERS, "--trunc-m": NUMBERS, "--out": OUTS},
    "ctrw": {"--n": ("2", "100", "100,1000", "0", "-5", "x"), "--t": NUMBERS,
             "--lfamily": ("unit", "log", "poly"), "--lambda": NUMBERS,
             "--pn-rule": ("sqrt", "const:0.3", "const:0", "const:nan", "bogus"), "--out": OUTS},
    "paths": {"--t": NUMBERS, "--grid": ("2", "21", "0", "-3", "x"), "--lambda": NUMBERS,
              "--out": OUTS},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command, "--beta", draw(st.sampled_from(BETAS)),
            "--reps", str(draw(st.integers(-2, 50))),
            "--workers", draw(st.sampled_from(("1", "2"))),
            "--seed", draw(st.sampled_from(("0", "42", "-1", str(2**64))))]
    for flag in draw(st.lists(st.sampled_from(sorted(FLAGS[command])), unique=True)):
        argv += [flag, draw(st.sampled_from(FLAGS[command][flag]))]
    return argv


@settings(max_examples=20, deadline=None, derandomize=True)
@given(argvs())
def test_every_argv_reports_or_is_a_usage_error(argv):
    # a report (exit 0 or 1) or a usage error (exit 2), in bounded time, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        res = run_cli(*argv, timeout=60, cwd=tmp, env=cli_env())
    assert res.returncode in (0, 1, 2), res.stderr
    assert "Traceback" not in res.stderr
