"""Command-line entry point.

Subcommands mirror the pipelines in :mod:`mssim.experiments`; every run
is fully determined by its flags plus ``--seed``, and the worker count
never changes a single output byte.  Exit code 0 means every row passed.
"""

import argparse
import sys

from . import experiments


def _float_list(flag):
    def parse(text):
        try:
            vals = [float(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be a comma-separated list of numbers")
        if not vals:
            raise argparse.ArgumentTypeError(f"{flag} must list at least one value")
        return vals

    return parse


def _int_list(flag):
    def parse(text):
        try:
            vals = [int(v) for v in text.split(",") if v.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} must be a comma-separated list of integers")
        if not vals:
            raise argparse.ArgumentTypeError(f"{flag} must list at least one value")
        return vals

    return parse


def _add_common(sp):
    sp.add_argument("--seed", type=int, default=0, help="master seed (unsigned 64-bit)")
    sp.add_argument("--workers", type=int, default=1, help="worker processes")
    sp.add_argument("--out", default=None, help="output CSV path (default: stdout)")


def _add_replicated(sp, reps_default):
    _add_common(sp)
    sp.add_argument("--reps", type=int, default=reps_default, help="Monte Carlo replications")


def build_parser():
    p = argparse.ArgumentParser(
        prog="mssim",
        description="Simulation and statistical verification of a jump process "
        "with time-varying stability index, its inverse clock, the "
        "time-changed counting process, and array approximations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    lap = sub.add_parser("laplace", help="transform of D(t) vs the closed form")
    _add_replicated(lap, 10_000)
    lap.add_argument("--beta", required=True, help="index spec, e.g. constant:0.5")
    lap.add_argument("--theta", type=_float_list("--theta"), default=[0.5, 1.0, 2.0])
    lap.add_argument("--t", type=_float_list("--t"), default=[0.5, 1.0])
    lap.add_argument("--trunc-m", type=float, default=None,
                     help="stationary truncation level (default: solve for the mass budget)")
    lap.add_argument("--mass-budget", type=float, default=experiments.DEFAULT_MASS_BUDGET)

    mfpp = sub.add_parser("mfpp", help="marginal law of the time-changed count X(t)")
    _add_replicated(mfpp, 10_000)
    mfpp.add_argument("--beta", required=True)
    mfpp.add_argument("--lambda", dest="lam", type=float, default=1.0)
    mfpp.add_argument("--t", type=_float_list("--t"), default=[1.0])
    mfpp.add_argument("--trunc-m", type=float, default=None)

    ct = sub.add_parser("ctrw", help="array approximations vs direct simulation (KS)")
    _add_replicated(ct, 10_000)
    ct.add_argument("--beta", required=True)
    ct.add_argument("--lfamily", choices=("unit", "log"), default="unit")
    ct.add_argument("--n", type=_int_list("--n"), default=[100, 1000])
    ct.add_argument("--t", type=_float_list("--t"), default=[1.0])
    ct.add_argument("--pn-rule", default="sqrt", help="'sqrt' or 'const:<v>'")
    ct.add_argument("--lambda", dest="lam", type=float, default=1.0)
    ct.add_argument("--alpha", type=float, choices=(0.01, 0.05), default=0.01)

    pa = sub.add_parser("paths", help="per-replication trajectory dumps of D, E, X")
    _add_replicated(pa, 10)
    pa.add_argument("--beta", required=True)
    pa.add_argument("--t", type=float, default=1.0, help="horizon of the evaluation grid")
    pa.add_argument("--grid", type=int, default=101, help="number of grid points")
    pa.add_argument("--lambda", dest="lam", type=float, default=1.0)

    ver = sub.add_parser("verify", help="run the full property suite")
    _add_common(ver)
    ver.add_argument("--quick", action="store_true", help="reduced replication counts")
    ver.add_argument("--scale", type=float, default=1.0,
                     help="multiply every replication count by this factor")

    return p


def _dispatch(args):
    if args.command == "laplace":
        return experiments.run_laplace(
            args.beta, args.theta, args.t, args.reps, args.seed,
            workers=args.workers, trunc_m=args.trunc_m, mass_budget=args.mass_budget,
        )
    if args.command == "mfpp":
        return experiments.run_mfpp(
            args.beta, args.lam, args.t, args.reps, args.seed,
            workers=args.workers, trunc_m=args.trunc_m,
        )
    if args.command == "ctrw":
        return experiments.run_ctrw(
            args.beta, args.lfamily, args.n, args.t, args.reps, args.seed,
            workers=args.workers, pn_rule=args.pn_rule, lam=args.lam, alpha=args.alpha,
        )
    if args.command == "paths":
        prefix = args.out if args.out else "paths"
        return experiments.run_paths(
            args.beta, args.reps, args.seed, prefix,
            workers=args.workers, t_max=args.t, grid=args.grid, lam=args.lam,
        )
    return experiments.run_verify(
        args.seed, workers=args.workers, quick=args.quick, scale=args.scale
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.workers < 1:
        parser.error(f"--workers must be at least 1, got {args.workers}")
    try:
        report = _dispatch(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.command == "paths" or args.out is None:
        # the paths command uses --out as the per-replication file prefix,
        # so its summary goes to stdout
        sys.stdout.write(report.to_csv())
    else:
        report.write(args.out)
    return 0 if report.all_pass() else 1


if __name__ == "__main__":
    sys.exit(main())
