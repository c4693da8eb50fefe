"""End-to-end tests of the command-line interface."""

import argparse
import gc
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
    assert "beta_spec,theta,t,mc_mean,mc_se,oracle,pass" in text
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


# a replication count past the float range
HUGE_REPS = "1" + "0" * 400


@pytest.mark.parametrize("args", [
    ("laplace", "--beta", "constant:0.5", "--theta", "inf", "--reps", "10"),
    ("mfpp", "--beta", "constant:0.5", "--lambda", "inf", "--reps", "10"),
    ("verify", "--quick", "--scale", "inf"),
    # finite, but it takes the replication counts past the float range
    ("verify", "--quick", "--scale", "1.7976931348623157e308"),
    ("laplace", "--beta", "constant:0.5", "--reps", HUGE_REPS),
    ("mfpp", "--beta", "constant:0.5", "--reps", HUGE_REPS),
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--reps", HUGE_REPS),
    ("paths", "--beta", "constant:0.5", "--reps", HUGE_REPS),
])
def test_non_finite_input_is_usage_error(args):
    res = run_cli(*args, timeout=5)
    assert res.returncode == 2
    assert "finite" in res.stderr
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    # a subnormal or zero mean count of jumps, walk steps or arrivals per
    # replication sizes the kernel calls
    ("laplace", "--beta", "constant:0.5", "--t", "1e-310", "--reps", "10"),
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--t", "1e-310", "--reps", "10"),
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--lambda", "1e-310", "--reps", "10"),
    ("paths", "--beta", "constant:0.5", "--t", "1e-310", "--reps", "2"),
    ("mfpp", "--beta", "constant:0.5", "--lambda", "1e-310", "--reps", "10"),
    ("laplace", "--beta", "constant:0.5", "--t", "5e-324", "--trunc-m", "0.5", "--reps", "10"),
    # a subnormal theta, in theta**beta and in z = theta * M**(-1/beta)
    ("laplace", "--beta", "constant:0.5", "--theta", "1e-320", "--reps", "10"),
])
def test_vanishing_input_ends_in_a_report(args, tmp_path):
    res = run_cli(*args, timeout=60, cwd=tmp_path, env=cli_env())
    assert res.returncode in (0, 1), res.stderr
    assert "Traceback" not in res.stderr


def test_a_scale_past_the_float_range_is_rejected_before_any_criterion(monkeypatch, capsys):
    ran = []
    monkeypatch.setattr(experiments, "run_laplace", lambda *args, **kwargs: ran.append(args))
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--quick", "--scale", "1.7976931348623157e308"])
    assert exc.value.code == 2 and not ran
    assert "keep every replication count finite" in capsys.readouterr().err


def test_tiny_index_reports_without_traceback():
    # the dropped jumps' cutoff M**(-1/beta) is 1.9e-110 at the default M
    res = run_cli("laplace", "--beta", "constant:0.01", "--reps", "10", timeout=10)
    assert res.returncode in (0, 1), res.stderr
    assert "Traceback" not in res.stderr


def test_a_row_whose_replications_keep_no_jump_passes():
    # at M = 1e-6 no replication keeps a jump, so every exp(-theta D_kept) is
    # 1 and the sample variance 0; the variance floor of 1/reps gives each
    # row an SE of 1/reps against an error of about M * t
    res = run_cli("laplace", "--beta", "constant:0.5", "--t", "1", "--reps", "200",
                  "--trunc-m", "1e-6", timeout=10)
    assert res.returncode == 0, res.stdout + res.stderr


def test_truncation_with_infinite_excluded_mass_is_usage_error():
    # M**(1 - 1/beta) = 1e396 overflows: the dropped jumps' mass is inf, and
    # every bin of every passage block would drift to inf
    for command in ("laplace", "mfpp"):
        res = run_cli(command, "--beta", "constant:0.01", "--t", "1", "--trunc-m", "1e-4",
                      "--reps", "10", timeout=10)
        assert res.returncode == 2, command
        assert "jump mass beyond the float range" in res.stderr and "raise trunc-m" in res.stderr
        assert "Traceback" not in res.stderr


# 5e6 Poisson arrivals a replication pass its point cap, and 5e7 walk steps
# at p_n = n**(-1/2) = 0.1 do not
WALK_ARGV = ("ctrw", "--beta", "constant:0.5", "--n", "100", "--lambda", "1e6", "--reps", "2")


@pytest.mark.parametrize("args", [
    ("mfpp", "--beta", "constant:0.99", "--trunc-m", "1e12", "--reps", "10"),
    ("laplace", "--beta", "constant:0.5", "--trunc-m", "1e12", "--reps", "10"),
    ("ctrw", "--beta", "constant:0.5", "--n", "1000000000000", "--t", "1", "--reps", "2"),
    # Poisson arrivals, walk steps and grid rows per replication
    ("mfpp", "--beta", "constant:0.5", "--lambda", "1e13", "--reps", "2"),
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--lambda", "1e13", "--reps", "2"),
    WALK_ARGV,
    ("paths", "--beta", "constant:0.5", "--lambda", "1e13", "--reps", "2"),
    ("paths", "--beta", "constant:0.5", "--grid", "10000000000", "--reps", "2"),
    # a mean count of 1.7e6 under a thinning envelope of 2.2e7, and the mass
    # budget's eps of 1e-300 at an index of 0.99: pure-jump blocks
    ("paths", "--beta", "affine:0.2,0.56", "--reps", "2"),
    ("paths", "--beta", "constant:0.99", "--reps", "2"),
    # raised in the parent for ctrw's D reference: 1.1e3 points, 2.2e9 over the run
    ("ctrw", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "2000000", "--workers", "2"),
    # 9.3e5 points per replication, within the replication cap, but 1.9e10 over the run
    ("laplace", "--beta", "sin:0.5,0.2,2", "--theta", "0.5,2", "--t", "1", "--trunc-m", "9.3e5",
     "--reps", "20000", "--seed", "3"),
    # every passage replication draws the plan's first block of 27.5 points,
    # and every ctrw row ceil(n * horizon) cells: 2.75e10, 2.75e9 and 1e12
    ("mfpp", "--beta", "constant:0.5", "--reps", "1000000000", "--seed", "1"),
    ("mfpp", "--beta", "constant:0.5", "--t", "40", "--reps", "100000000", "--seed", "1"),
    ("ctrw", "--beta", "constant:0.5", "--n", "1000000", "--reps", "200000", "--seed", "1"),
    # 1,250 cells and a D reference block of 1.1e3 points: each under the
    # cap over the run, 2.4e9 together
    ("ctrw", "--beta", "affine:0.2,0.56", "--n", "1000", "--t", "1", "--reps", "1000000"),
    # a passage plan's later blocks, each weighted by the chance the level is
    # unreached at its start: 1,785 points a replication, 3.6e10 over the run
    ("mfpp", "--beta", "affine:0.4,0.2", "--t", "2", "--reps", "20000000", "--seed", "1"),
    # the stationary windows of --trunc-m 2000: 2,250 points a replication
    ("mfpp", "--beta", "constant:0.5", "--trunc-m", "2000", "--reps", "1000000"),
    # 5e4 walk steps a replication, 5.57e10 over the run with the rest; and
    # 5e6 Poisson arrivals a replication, 5e11
    ("ctrw", "--beta", "constant:0.5", "--n", "100", "--reps", "1000000", "--lambda", "1000",
     "--seed", "1"),
    ("mfpp", "--beta", "constant:0.5", "--lambda", "1000000", "--reps", "100000", "--seed", "1"),
])
def test_too_many_points_is_usage_error(args, tmp_path):
    res = run_cli(*args, timeout=10, cwd=tmp_path, env=cli_env())
    assert res.returncode == 2
    assert "points per replication" in res.stderr
    assert args != WALK_ARGV or "walk takes" in res.stderr
    assert "Traceback" not in res.stderr and "lam value" not in res.stderr
    assert not list(tmp_path.iterdir())


def test_a_run_cap_error_names_a_huge_count_compactly(tmp_path):
    # the scale makes criterion 1's replication count an int of 304 digits
    res = run_cli("verify", "--quick", "--scale", "1e300", timeout=10, cwd=tmp_path,
                  env=cli_env())
    assert res.returncode == 2
    error = res.stderr.splitlines()[-1]
    assert error.startswith("mssim: error: 8e+303 replications at ") and len(error) < 160
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [
    # 7.3e5 points per compensated block, where a mass budget needed eps = 1e-300
    ("mfpp", "--beta", "constant:0.99", "--reps", "10"),
    # at most 2.6e4 and 1.1e3 points per block, where a mass budget needed 2.2e7
    ("mfpp", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "2", "--workers", "2"),
    ("ctrw", "--beta", "affine:0.2,0.56", "--t", "1", "--reps", "2", "--workers", "2"),
    # a level of 1e81 under the mass budget, and 12.5 by default
    ("laplace", "--beta", "constant:0.95", "--reps", "10"),
    # 9.3e5 points per replication under the mass budget, and 12.5 by default
    ("laplace", "--beta", "sin:0.5,0.2,2", "--theta", "0.5,2", "--t", "1", "--reps", "20000",
     "--seed", "3"),
])
def test_compensated_blocks_keep_an_index_near_one_feasible(args, tmp_path):
    res = run_cli(*args, timeout=10, cwd=tmp_path, env=cli_env())
    assert res.returncode in (0, 1), res.stderr


def test_a_plan_worker_error_is_a_usage_error():
    # no compensated block of a valid index passes the point cap, so the
    # parent lowers it before the pool forks the plan workers that raise;
    # 64 replications split into chunks, so the run opens its pool
    code = ("import sys\nfrom mssim import cli, ppp\nppp.MAX_POINTS = 1000.0\n"
            "sys.exit(cli.main(sys.argv[1:]))")
    res = subprocess.run([sys.executable, "-c", code, "mfpp", "--beta", "affine:0.2,0.56",
                          "--t", "1", "--reps", "64", "--workers", "2"], env=cli_env(),
                         capture_output=True, text=True, timeout=10)
    assert res.returncode == 2
    assert "points per replication expected on [0.75, 1]" in res.stderr
    assert "Traceback" not in res.stderr


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


def _pool_modules_after(*argv):
    """The pool modules loaded once ``cli.main(argv)`` returns, in a fresh
    interpreter that reports two CPUs, so a two-worker run opens a pool."""
    code = ("import os, sys\nfrom mssim import cli\nos.cpu_count = lambda: 2\n"
            "cli.main(sys.argv[1:])\n"
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code, *argv], env=cli_env(),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return res.stdout.splitlines()[-1]


def test_the_pool_modules_load_only_when_a_pool_opens():
    # 32 replications make two chunks of 16, the fewest worth a pool
    assert _pool_modules_after("laplace", "--beta", "constant:0.5", "--reps", "2",
                               "--workers", "1") == "[]"
    ctrw = ("ctrw", "--beta", "constant:0.5", "--n", "100", "--workers", "2", "--reps")
    assert _pool_modules_after(*ctrw, "31") == "[]"
    assert _pool_modules_after(*ctrw, "32") == "['multiprocessing', 'concurrent.futures']"


def test_main_with_an_argv_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert cli.main(["laplace", "--beta", "constant:0.5", "--reps", "2"]) in (0, 1)
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_main_without_an_argv_freezes_the_heap_once_before_the_run(monkeypatch, capsys):
    # a recording freeze, so this process's own heap is never frozen
    events = []
    build = cli.build_parser

    def building():
        events.append("parser")
        return build()

    def record(**kwargs):
        events.append("run")
        return experiments.Report("laplace", {}, ("pass",), [(True,)])

    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    monkeypatch.setattr(cli, "build_parser", building)
    monkeypatch.setattr(experiments, "run_laplace", record)
    monkeypatch.setattr(sys, "argv", ["mssim", "laplace", "--beta", "constant:0.5"])
    assert cli.main() == 0
    assert events == ["freeze", "parser", "run"]


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


def test_every_option_has_help():
    for name, sp in _commands().items():
        bare = [a.option_strings[0] for a in sp._actions if not a.help]
        assert not bare, (name, bare)


# every option of every command: a new option is added here on purpose
OPTIONS = {
    "laplace": ["--seed", "--workers", "--out", "--reps", "--beta", "--theta", "--t", "--trunc-m"],
    "mfpp": ["--seed", "--workers", "--out", "--reps", "--beta", "--lambda", "--t", "--trunc-m"],
    "ctrw": ["--seed", "--workers", "--out", "--reps", "--beta", "--lfamily", "--n", "--t",
             "--lambda", "--alpha"],
    "paths": ["--seed", "--workers", "--out", "--reps", "--beta", "--t", "--grid", "--lambda"],
    "verify": ["--seed", "--workers", "--out", "--quick", "--scale"],
}


def test_every_command_has_exactly_its_listed_options():
    options = {name: [a.option_strings[0] for a in sp._actions if a.dest != "help"]
               for name, sp in _commands().items()}
    assert options == OPTIONS


def test_the_retired_pn_rule_is_an_unrecognized_argument():
    # the walk's p_n is n**(-1/2); a constant p_n never approaches the limit
    res = run_cli("ctrw", "--beta", "constant:0.5", "--pn-rule", "const:0.3", "--reps", "2",
                  timeout=10)
    assert res.returncode == 2
    assert "unrecognized arguments: --pn-rule const:0.3" in res.stderr
    assert "Traceback" not in res.stderr


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
                ("--theta", "0.5,1,2", "--t", "0.5,1")),
    "mfpp": (("mfpp", "--beta", "constant:0.5", "--reps", "50"), ("--lambda", "1", "--t", "1")),
    "ctrw": (("ctrw", "--beta", "constant:0.5", "--reps", "20"),
             ("--lfamily", "unit", "--n", "100,1000", "--t", "1", "--lambda", "1",
              "--alpha", "0.01")),
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


def test_laplace_t_order_does_not_change_the_report(capsys):
    outputs = []
    for ts in ("1,0.5", "0.5,1"):
        argv = ["laplace", "--beta", "affine:0.4,0.2", "--t", ts, "--reps", "50", "--seed", "1"]
        assert cli.main(argv) in (0, 1)
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "# t=0.5,1\n" in outputs[0]


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


def test_paths_help_describes_out_as_the_file_prefix():
    def help_text(name):
        return " ".join(_commands()[name].format_help().split())

    paths = help_text("paths")
    assert "--out OUT prefix of the files <out>.repNNNNN.csv (default: paths)" in paths
    assert "summary to stdout" in paths
    assert "output CSV path" not in paths
    for name in ("laplace", "mfpp", "ctrw", "verify"):
        assert "--out OUT output CSV path (default: stdout)" in help_text(name), name


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
    "laplace": {"--theta": NUMBERS, "--t": NUMBERS, "--trunc-m": NUMBERS, "--out": OUTS},
    "mfpp": {"--lambda": NUMBERS, "--t": NUMBERS, "--trunc-m": NUMBERS, "--out": OUTS},
    "ctrw": {"--n": ("2", "100", "100,1000", "0", "-5", "x"), "--t": NUMBERS,
             "--lfamily": ("unit", "log", "poly"), "--lambda": NUMBERS, "--out": OUTS},
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
