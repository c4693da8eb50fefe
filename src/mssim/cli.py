"""Command-line entry point.

Subcommands mirror the pipelines in :mod:`mssim.experiments`; every run
is fully determined by its flags plus ``--seed``, and the worker count
never changes a single output byte.  Exit code 0 means every row passed.
"""

import argparse
import gc
import sys

from . import experiments


def _list(flag, convert=float, noun="numbers"):
    def parse(text):
        try:
            vals = [convert(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be a comma-separated list of {noun}")
        if not vals:
            raise argparse.ArgumentTypeError(f"{flag} must list at least one value")
        return vals

    return parse


def build_parser():
    """The parser; each subcommand's ``run`` is its pipeline, read from
    :mod:`mssim.experiments` at this call.  An option left off the command
    line stays out of the namespace, so the pipeline's own default applies."""
    p = argparse.ArgumentParser(
        prog="mssim",
        description="Simulation and statistical verification of a jump process "
        "with time-varying stability index, its inverse clock, the "
        "time-changed counting process, and array approximations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, run, summary, out_help="output CSV path (default: stdout)"):
        sp = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        sp.set_defaults(run=run)
        sp.add_argument("--seed", type=int, help="master seed (unsigned 64-bit)")
        sp.add_argument("--workers", type=int, help="worker processes")
        sp.add_argument("--out", help=out_help)
        if name != "verify":
            sp.add_argument("--reps", type=int, help="Monte Carlo replications")
            sp.add_argument("--beta", dest="beta_spec", required=True,
                            help="index spec, e.g. constant:0.5")
        return sp

    rate = "rate of the Poisson process N in X = N(E)"
    lap = command("laplace", experiments.run_laplace, "transform of D(t) vs the closed form")
    lap.add_argument("--theta", dest="thetas", type=_list("--theta"), help="transform arguments")
    lap.add_argument("--t", dest="ts", type=_list("--t"), help="comma-separated times t of D(t)")
    lap.add_argument("--trunc-m", type=float,
                     help="stationary truncation level M of the block whose jumps are summed; "
                     "the dropped ones enter by their exact transform (default: "
                     f"{experiments.LAPLACE_LEVEL:g})")

    mfpp = command("mfpp", experiments.run_mfpp, "marginal law of the time-changed count X(t)")
    mfpp.add_argument("--lambda", dest="lam", type=float, help=rate)
    mfpp.add_argument("--t", dest="ts", type=_list("--t"), help="comma-separated times t of X(t)")
    mfpp.add_argument("--trunc-m", type=float,
                      help="stationary truncation level M of the compensated passage blocks "
                      "(default: solve threshold blocks)")

    ct = command("ctrw", experiments.run_ctrw, "array approximations vs direct simulation (KS)")
    ct.add_argument("--lfamily", choices=("unit", "log"), help="slowly varying tail factor")
    ct.add_argument("--n", dest="ns", type=_list("--n", int, "integers"), help="array rows n")
    ct.add_argument("--t", dest="ts", type=_list("--t"), help="times t, also the levels of E")
    ct.add_argument("--lambda", dest="lam", type=float, help=rate)
    ct.add_argument("--alpha", type=float, choices=(0.01, 0.05), help="KS significance level")

    pa = command("paths", experiments.run_paths, "per-replication trajectory dumps of D, E, X",
                 "prefix of the files <out>.repNNNNN.csv (default: paths); summary to stdout")
    pa.add_argument("--t", type=float, help="horizon of the evaluation grid")
    pa.add_argument("--grid", type=int, help="number of grid points")
    pa.add_argument("--lambda", dest="lam", type=float, help=rate)

    ver = command("verify", experiments.run_verify, "run the full property suite")
    ver.add_argument("--quick", action="store_true", help="reduced replication counts")
    ver.add_argument("--scale", type=float, help="multiply every replication count by this factor")

    return p


def main(argv=None):
    """Run the command in ``argv``, or in ``sys.argv`` as a process's entry.

    At entry (``argv`` is ``None``) the heap that the imports built is
    frozen, so no later collection, forked worker or interpreter exit walks
    it again; a caller that passes a list keeps its collector as it was."""
    if argv is None:
        gc.freeze()
    parser = build_parser()
    kwargs = vars(parser.parse_args(argv))
    command, run = kwargs.pop("command"), kwargs.pop("run")
    if "workers" in kwargs and kwargs["workers"] < 1:
        parser.error(f"--workers must be at least 1, got {kwargs['workers']}")
    # the paths command takes --out as the per-replication file prefix, so
    # its summary goes to stdout
    out = None if command == "paths" else kwargs.pop("out", None)
    try:
        report = run(**kwargs)
        if out is not None:
            report.write(out)
    except ValueError as exc:
        parser.error(str(exc))
    except MemoryError:
        parser.error("out of memory: the run's arrays do not fit; lower --reps (or --scale "
                     "for verify)")
    if out is None:
        sys.stdout.write(report.to_csv())
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
