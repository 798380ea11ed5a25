"""Laplacian-weighted gradient descent for coupled resource allocation.

A feasible-by-construction first-order method for minimizing a sum of
private, possibly non-convex agent objectives whose decisions must sum
to a shared demand vector, plus a noisy variant that escapes strict
saddles, optimality certifiers for both first and second order, and
reproducible saddle-escape experiments.
"""

from .network import (
    DisconnectedGraphError,
    Graph,
    NetworkOperator,
    apply_lifted,
    block_sum,
    build_laplacian,
    complete_graph,
    component_count,
    cycle_graph,
    is_connected,
    path_graph,
    read_edge_list,
    tangent_perturbation,
    watts_strogatz,
    write_edge_list,
)
from .objectives import (
    ProblemInstance,
    estimate_global_min_sum,
    fd_check,
    hessian_blocks,
    lipschitz_constants,
    portfolio_problem,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
    stacked_gradient,
    stacked_value,
)
from .optimizer import (
    Algorithm,
    DescentViolationError,
    DivergenceError,
    InfeasibleStartError,
    IterateState,
    RunConfig,
    Trace,
    TraceRecord,
    aux_gd_step,
    aux_ngd_step,
    curvature_tolerance,
    initial_state,
    iteration_budget,
    lgd_step,
    nlgd_step,
    run,
    run_many,
    theoretical_step_bound,
    variance_for_tolerance,
)
from .stationarity import (
    Classification,
    Measurement,
    StationarityReport,
    aux_hessian,
    classify,
    default_feas_tol,
    feasibility_residual,
    format_report,
    judge,
    measure,
    projected_grad_norm,
    tangent_min_curvature,
    transfer_certificate,
)
from .experiments import (
    BatchResult,
    RunResult,
    Scenario,
    build_portfolio_scenario,
    build_smart_grid_scenario,
    escape_iteration,
    export_traces,
    final_report,
    replay_manifest,
    run_batch,
    run_comparison,
    start_for_seed,
    summary_rows,
    sweep_sigma,
    write_trace_csv,
)
from .config import Bundle, ConfigError, load_bundle, load_config

__version__ = "0.1.0"
