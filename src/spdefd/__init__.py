"""Finite-difference solver for degenerate parabolic SPDEs of Zakai type on
a periodic torus, with Richardson extrapolation of the spatial approximation
and a convergence-order measurement harness."""

from .grids import (
    GridError,
    GridField,
    Stencil,
    TorusGrid,
    basis_stencil,
    composed_difference,
    discrete_sobolev_norm,
    forward_difference,
    grid_norms,
    make_torus_grid,
    subsample,
)
from .problems import (
    DifferenceScheme,
    DifferentialProblem,
    ProblemError,
    build_scheme_example1,
    build_scheme_example2,
    check_consistency,
    check_degenerate_parabolicity,
    make_problem,
)
from .wiener import BrownianIncrements, sample_increments
from .stepper import (
    ImplicitOperator,
    SolveFailure,
    SpectralModeError,
    Trajectory,
    apply_L,
    run_reference_time_scheme,
    run_space_time_scheme,
)
from .correctors import (
    CorrectorSet,
    ResolutionError,
    corrector_operator_L,
    corrector_operator_M,
    expansion_residual,
    run_corrector_system,
)
from .richardson import (
    ConvergenceReport,
    ExtrapolationError,
    RichardsonWeights,
    estimate_order,
    extrapolate_derivative,
    richardson_combine,
    vandermonde_weights,
)
from .experiments import (
    ConfigError,
    ExperimentSpec,
    load_config,
    run_convergence_experiment,
    save_config,
)

__version__ = "0.1.0"
