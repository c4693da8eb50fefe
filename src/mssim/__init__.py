"""Monte Carlo toolkit for an increasing pure-jump process with a
time-varying stability index, its first-passage inverse, the time-changed
counting process, and heavy-tailed random-walk approximations of all three.
"""

__version__ = "0.1.0"

from .ctrw import (
    BernoulliWalk,
    CtrwPath,
    SlowlyVaryingFamily,
    inverse_ctrw,
    norming_an,
    norming_bnk,
    partial_sum_path,
)
from .errors import DegenerateSampleError, HorizonExceededError
from .experiments import (
    Report,
    run_ctrw,
    run_laplace,
    run_mfpp,
    run_paths,
    run_verify,
)
from .inverse_mfpp import (
    PoissonPath,
    first_passage,
    sample_poisson_path,
    time_changed_count,
)
from .ppp import (
    PointPattern,
    Truncation,
    expected_count_window,
    sample_stationary,
    sample_threshold,
    small_jump_mass_window,
    solve_truncation,
)
from .rng import RngStream
from .stability import StabilityIndex
from .stats import (
    McEstimate,
    empirical_laplace,
    increment_correlation,
    ks_critical_value,
    ks_two_sample,
    mittag_leffler,
)
from .subordinator import (
    JumpPath,
    build_path,
    eval_many,
    gamma_fn,
    laplace_transform,
)

__all__ = [
    "BernoulliWalk",
    "CtrwPath",
    "DegenerateSampleError",
    "HorizonExceededError",
    "JumpPath",
    "McEstimate",
    "PointPattern",
    "PoissonPath",
    "Report",
    "RngStream",
    "SlowlyVaryingFamily",
    "StabilityIndex",
    "Truncation",
    "build_path",
    "empirical_laplace",
    "eval_many",
    "expected_count_window",
    "first_passage",
    "gamma_fn",
    "increment_correlation",
    "inverse_ctrw",
    "ks_critical_value",
    "ks_two_sample",
    "laplace_transform",
    "mittag_leffler",
    "norming_an",
    "norming_bnk",
    "partial_sum_path",
    "run_ctrw",
    "run_laplace",
    "run_mfpp",
    "run_paths",
    "run_verify",
    "sample_poisson_path",
    "sample_stationary",
    "sample_threshold",
    "small_jump_mass_window",
    "solve_truncation",
    "time_changed_count",
]
