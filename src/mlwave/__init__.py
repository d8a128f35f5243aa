"""mlwave: spectral solvers for fractional-in-time wave equations.

Mittag-Leffler kernel evaluation, mild solutions of linear problems,
Picard continuation for semilinear problems with blow-up detection, and
the criticality calculator that classifies admissible nonlinearities.
"""

from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    MLWaveError,
    NumericFailure,
    NumericOverflowError,
    OverflowSignal,
)
from .mittag_leffler import (
    DEFAULT_PRECISION,
    MLPrecision,
    MLQuery,
    deriv_kernel_moment,
    kernel_moment,
    ml_bound_probe,
    ml_e,
    ml_identity_residuals,
    ml_row,
    ml_rows,
)
from .criticality import (
    UNBOUNDED,
    Regime,
    Unbounded,
    alpha_0,
    classify,
    exponent_table,
    growth_exponent,
    table_q_A,
    theta_A,
)
from .spectral_operator import (
    Operator,
    OperatorSpecConfig,
    SpectralField,
    evaluate,
    frac_norm,
    make_operator,
    project,
    q_A_of,
)
from .linear_solver import (
    TIME_FUNCTIONS,
    ForcingSpec,
    LinearProblem,
    SolutionTrace,
    convolve_forcing,
    eval_time_function,
    homogeneous_state,
    solve_linear,
    strong_norm_probe,
)
from .diagnostics import (
    RateFit,
    discrete_caputo,
    rate_fit,
    self_convergence,
)
from .semilinear_solver import (
    NONLINEARITY_KINDS,
    NonlinearitySpec,
    PicardConfig,
    RunOutcome,
    SemilinearProblem,
    WindowFailure,
    WindowRecord,
    apply_nonlinearity,
    picard_window,
    run,
    strong_solution_check,
)

__version__ = "0.1.0"
