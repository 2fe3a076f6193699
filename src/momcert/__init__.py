"""Momentum solvers whose convergence proofs run alongside the iterates.

Two discrete methods (a smooth momentum solver and its proximal
counterpart) and one continuous-time flow share a single Lyapunov
energy template. Every step is checked against the energy contraction
the theory promises, and every run reports the certified rate next to
the rate actually observed.
"""

from .agm import (
    AgmState,
    agm_energy,
    agm_init,
    agm_run,
    agm_step,
    nesterov_reference_step,
)
from .certificates import DivergenceError, certify_trace, failed_checks
from .driver import DISCRETE_COLUMNS
from .harness import (
    ConfigError,
    ExperimentConfig,
    fit_linear_rate,
    main,
    rate_table,
    run_experiment,
)
from .ode import (
    ODE_COLUMNS,
    OdeState,
    default_dt,
    flow_vector_field,
    ode_energy,
    ode_run,
    rk4_step,
)
from .oracle import (
    CompositeObjective,
    ProxTerm,
    SmoothObjective,
    composite_from_smooth,
    estimate_pl_constant,
    finite_diff_gradient_check,
    grad_mapping,
    lasso_problem,
    pl_sine_problem,
    quadratic_problem,
    reference_minimizer,
    soft_threshold,
    zero_prox,
)
from .params import (
    AgmParams,
    OdeParams,
    PgmParams,
    Regime,
    agm_params_nesterov,
    agm_params_pl,
    agm_params_qg,
    agm_params_sc,
    check_constraints,
    ode_params_pl,
    ode_params_qg,
    ode_params_sc,
    pgm_params_qg,
    pgm_params_sc,
)
from .pgm import (
    PgmState,
    pgm_energy,
    pgm_init,
    pgm_run,
    pgm_step,
    prox_descent_check,
)
from .trace import Trace

__version__ = "0.1.0"

__all__ = [
    "AgmParams",
    "AgmState",
    "CompositeObjective",
    "ConfigError",
    "DISCRETE_COLUMNS",
    "DivergenceError",
    "ExperimentConfig",
    "ODE_COLUMNS",
    "OdeParams",
    "OdeState",
    "PgmParams",
    "PgmState",
    "ProxTerm",
    "Regime",
    "SmoothObjective",
    "Trace",
    "agm_energy",
    "agm_init",
    "agm_params_nesterov",
    "agm_params_pl",
    "agm_params_qg",
    "agm_params_sc",
    "agm_run",
    "agm_step",
    "certify_trace",
    "check_constraints",
    "composite_from_smooth",
    "default_dt",
    "estimate_pl_constant",
    "failed_checks",
    "finite_diff_gradient_check",
    "fit_linear_rate",
    "grad_mapping",
    "flow_vector_field",
    "lasso_problem",
    "main",
    "nesterov_reference_step",
    "ode_energy",
    "ode_params_pl",
    "ode_params_qg",
    "ode_params_sc",
    "ode_run",
    "pgm_energy",
    "pgm_init",
    "pgm_params_qg",
    "pgm_params_sc",
    "pgm_run",
    "pgm_step",
    "pl_sine_problem",
    "prox_descent_check",
    "quadratic_problem",
    "rate_table",
    "reference_minimizer",
    "rk4_step",
    "run_experiment",
    "soft_threshold",
    "zero_prox",
    "__version__",
]
