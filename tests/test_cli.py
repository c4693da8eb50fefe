"""End-to-end tests of the command-line interface."""

import subprocess
import sys
import tempfile

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest

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
])
def test_too_many_points_is_usage_error(args, tmp_path):
    res = run_cli(*args, timeout=10, cwd=tmp_path, env=cli_env())
    assert res.returncode == 2
    assert "points per replication" in res.stderr
    assert "Traceback" not in res.stderr and "lam value" not in res.stderr
    assert not list(tmp_path.iterdir())


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
