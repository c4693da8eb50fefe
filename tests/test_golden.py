"""Byte-for-byte golden outputs of pinned command-line configurations.

Any change to a golden file must be deliberate: regenerate them all with
``PYTHONPATH=src python tests/test_golden.py`` and record the reason for
the new bytes in CHANGES.md.
"""

import os
import pathlib
import subprocess
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COMMON = ("--reps", "200", "--seed", "42")

# golden name -> CLI arguments; every run writes its CSV to stdout
CASES = {
    "laplace_affine": ("laplace", "--beta", "affine:0.4,0.2", "--theta", "0.5,1,2",
                       "--t", "0.5,1") + COMMON,
    "laplace_table": ("laplace", "--beta", "table:0,0.4;1,0.6", "--t", "1") + COMMON,
    "laplace_trunc_m": ("laplace", "--beta", "constant:0.5", "--trunc-m", "500",
                        "--t", "1") + COMMON,
    "mfpp_threshold": ("mfpp", "--beta", "constant:0.5", "--t", "0.5,1") + COMMON,
    "mfpp_stationary": ("mfpp", "--beta", "constant:0.5", "--t", "1",
                        "--trunc-m", "2000") + COMMON,
    "ctrw_log": ("ctrw", "--beta", "constant:0.5", "--lfamily", "log", "--n", "100,1000",
                 "--t", "1", "--reps", "64", "--seed", "42"),
    "paths": ("paths", "--beta", "sin:0.5,0.2,1", "--grid", "21", "--reps", "3",
              "--seed", "42", "--out", "traj"),
}

# compared by test_cli.test_verify_quick_small_scale_passes, which runs it anyway
VERIFY_QUICK = ("verify", "--quick", "--scale", "0.1", "--seed", "1234")

# the paths command also writes one trajectory file per replication
PATHS_REPS = tuple(f"traj.rep{rep:05d}.csv" for rep in range(3))


def cli_env():
    """The environment of a golden run: the package from this checkout and a
    single BLAS thread, because the horizon tail bound is a matrix product."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_case(name, cwd):
    """The output files of one case, keyed by golden file name."""
    res = subprocess.run([sys.executable, "-m", "mssim.cli", *CASES[name]], cwd=cwd,
                         env=cli_env(), capture_output=True)
    assert res.returncode in (0, 1), res.stderr.decode()
    outputs = {f"{name}.csv": res.stdout}
    if name == "paths":
        for fname in PATHS_REPS:
            outputs[f"paths.{fname}"] = (pathlib.Path(cwd) / fname).read_bytes()
    return outputs


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, tmp_path):
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), f"{fname} differs from its golden"


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, tmp).items():
                (GOLDEN / fname).write_bytes(data)
                print(f"wrote {GOLDEN / fname}")
    res = subprocess.run([sys.executable, "-m", "mssim.cli", *VERIFY_QUICK], env=cli_env(),
                         capture_output=True, check=True)
    (GOLDEN / "verify_quick.csv").write_bytes(res.stdout)
    print(f"wrote {GOLDEN / 'verify_quick.csv'}")
