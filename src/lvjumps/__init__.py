"""Competitive population dynamics driven by Brownian noise and Poisson jumps.

Simulation (positivity-preserving log-Euler), closed-form oracles
(variation of constants, explicit scalar solution), exact regime
classification, and Monte Carlo verification of the analytic statements.
"""

from .coefficients import (
    CoefficientFn,
    Const,
    PiecewiseConst,
    Sinusoid,
)
from .model import (
    InitialState,
    MarkSpace,
    ModelSpec,
    ValidationReport,
    constant_model,
    dump_model,
    load_model,
    validate_model,
)
from .noise import (
    DrivingPath,
    MergedGrid,
    coarsen_path,
    derive_path_seed,
    load_path,
    merge_grid,
    sample_driving_path,
    save_path,
)
from .integrate import (
    Trajectory,
    simulate_lower,
    simulate_system,
    simulate_upper,
    write_trajectory_csv,
)
from .closedform import (
    LinearJumpSDE,
    PathSeries,
    explicit_logistic,
    explicit_logistic_log,
    fundamental_solution,
    voc_solve,
)
from .conditions import (
    RegimeReport,
    SpeciesRegime,
    check_moment_condition,
    compute_regime_report,
    jump_quadratic_rate_bound,
    log_jump_quadratic_bound,
)
from .analysis import (
    MCSeries,
    coupling_contraction,
    estimate_moment,
    invariant_distance,
    inverse_moment_check,
    lyapunov_functional,
    lyapunov_functional_mc,
    sample_lyapunov,
    sample_lyapunov_mc,
)

__version__ = "1.0.0"
