"""Laplacian-weighted gradient descent and its noisy variant.

The feasible update premultiplies the stacked gradient by the lifted
Laplacian: theta <- theta - alpha * (L (x) I_n) grad F(theta), with
L = B' B formed as two applies of the edge-by-node incidence factor B.
Because the Laplacian's rows sum to zero the block sum of theta never
changes, so every iterate of a feasible start stays feasible. The noisy
variant adds the kick sigma (B' (x) I_n) eta, eta standard normal with
one n-block per edge: its law is N(0, sigma^2 L (x) I_n), each edge can
draw its block locally, and its blocks sum to zero, so it keeps
feasibility too while letting the iterate leave strict saddles.

Both algorithms are exactly mirrored by plain (noisy) gradient descent
on the auxiliary function psi(x) = F(theta_start + B'-lift of x), x in
R^{E n}: the single-step functions ``aux_gd_step`` / ``aux_ngd_step``
reproduce the lap-weighted theta sequence up to rounding, consuming the
same normals as ``nlgd_step``. They are their own few lines of lifted
recursion and share no update code with the lap-weighted steps, so the
equivalence is tested rather than assumed.

One engine, ``run_many``, advances a stack of lap-weighted runs that
share a problem and a network in lockstep: one stacked gradient, one
stacked lifted apply and one stacked update per step for the whole
stack. Budgets and record strides may differ from run to run; each
block of noise covers the steps up to the next record point of any
run. ``run`` is the one-run case, and ``lgd_step`` / ``nlgd_step`` are
one-run calls of the same update kernel.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from enum import Enum

import numpy as np

from .network import NetworkOperator, apply_lifted
from .objectives import (
    ProblemInstance,
    lipschitz_constants,
    stacked_gradient,
    stacked_value,
)
from .stationarity import (
    Classification,
    Measurement,
    default_feas_tol,
    feasibility_residual,
    judge,
    projected_grad_norm,
    row_norms,
    tangent_min_curvature,
)

DIVERGENCE_NORM = 1e12
START_FEAS_RTOL = 1e-10

# Kicks are drawn per record stride in chunks of at most this many normals
# across the stack (E * n per noisy run and step, E the edge count), so
# the block stays small at any network size.
NOISE_CHUNK = 1 << 14


class Algorithm(str, Enum):
    LGD = "lgd"
    NLGD = "nlgd"


class InfeasibleStartError(ValueError):
    """Starting point's blocks do not sum to the demand vector."""


class DivergenceError(RuntimeError):
    """Iterate escaped to non-finite values or past the norm guard.

    Carries the offending iteration and the trace recorded so far.
    """

    def __init__(self, iteration: int, trace):
        super().__init__(f"divergence at iteration {iteration}")
        self.iteration = iteration
        self.trace = trace


class DescentViolationError(RuntimeError):
    """Noiseless sufficient-descent inequality failed at a recorded step;
    carries that step's iteration and the trace recorded so far."""

    def __init__(self, iteration: int, drop: float, bound: float, trace):
        super().__init__(
            f"descent violation at iteration {iteration}: "
            f"objective changed by {drop:g}, bound {bound:g}"
        )
        self.iteration = iteration
        self.trace = trace


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the problem and the network.

    ``noise_variance`` is the per-coordinate variance of the Gaussian
    perturbation; a run is noiseless when it is 0, as lgd requires. ``seed``
    controls the perturbation stream; identical config and inputs give
    identical traces. Records land every ``record_every`` iterations.
    ``monitor_descent`` checks a noiseless run's sufficient-descent
    inequality at recorded steps; noisy runs refuse it. Setting ``stop_eps``
    and ``stop_gamma`` flags the first recorded iterate that ``judge``
    certifies second order against them, feasibility included; with
    ``early_exit`` the run stops there.
    """

    algorithm: Algorithm
    step_size: float
    max_iters: int
    noise_variance: float = 0.0
    seed: int = 0
    record_every: int = 1
    record_curvature: bool = False
    monitor_descent: bool = False
    stop_eps: float | None = None
    stop_gamma: float | None = None
    early_exit: bool = False

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(
                f"step_size must be positive and finite, got {self.step_size}"
            )
        # a fractional budget or stride would stall the run loop; integral
        # floats and numpy integers pass, as plain ints
        for name, least in (("max_iters", 1), ("record_every", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
            object.__setattr__(self, name, int(value))
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ValueError(
                f"noise_variance must be >= 0 and finite, got {self.noise_variance}"
            )
        if self.noise_variance > 0 and self.algorithm is not Algorithm.NLGD:
            raise ValueError(f"noise_variance > 0 is invalid for {self.algorithm.value}")
        if self.noise_variance > 0 and self.monitor_descent:
            raise ValueError("noise_variance > 0 is invalid with monitor_descent")
        if (self.stop_eps is None) != (self.stop_gamma is None):
            raise ValueError("stop_eps and stop_gamma must be set together")
        for name in ("stop_eps", "stop_gamma"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {value}")
        if self.stop_eps is not None and not self.record_curvature:
            raise ValueError("certification thresholds need record_curvature=True")
        if self.early_exit and self.stop_eps is None:
            raise ValueError("early_exit requires stop_eps and stop_gamma")


@dataclass(frozen=True)
class IterateState:
    """One iterate: the allocation, the iteration counter, and (for the
    auxiliary steps) the auxiliary point in R^{E n} and its anchor.
    Whenever ``aux_x`` is present, theta equals the anchor plus the
    B'-lift of aux_x up to rounding; ``initial_state`` sets it to a scalar
    zero, the origin of any R^{E n}, which the first step broadcasts."""

    theta: np.ndarray
    iteration: int
    aux_x: np.ndarray | None = None
    anchor: np.ndarray | None = None


@dataclass(frozen=True)
class TraceRecord:
    """One recorded iterate as ``Trace.records`` lists it: the iteration
    and the values there, None for a field the run does not record."""

    iteration: int
    f_value: float
    feas_residual: float
    proj_grad_norm: float
    tangent_curvature: float | None = None
    dist_to_ref: float | None = None


# Trace's float columns: TraceRecord's fields after the iteration.
_FLOAT_COLUMNS = tuple(field.name for field in fields(TraceRecord))[1:]


@dataclass(frozen=True)
class Trace:
    """Recorded diagnostics plus the final iterate, kept as columns: row k
    of ``iterations`` (int64) and of the float64 columns ``f_value``,
    ``feas_residual`` and ``proj_grad_norm`` is the k-th record.
    ``tangent_curvature`` and ``dist_to_ref`` are columns too, or None
    when the run does not record them (``record_curvature``, a
    ``theta_ref``); a recorded NaN stays NaN. Each column is a read-only
    1-d copy of what it is given, about 48 B a record in all, and
    ``records`` builds the ``TraceRecord`` view of the rows on access.

    Record iterations are strictly increasing; the last record is the final
    iterate, except in the partial trace of a run error, which stops past
    its last record."""

    iterations: np.ndarray
    f_value: np.ndarray
    feas_residual: np.ndarray
    proj_grad_norm: np.ndarray
    final_theta: np.ndarray
    iterations_run: int
    tangent_curvature: np.ndarray | None = None
    dist_to_ref: np.ndarray | None = None
    first_certified_iter: int | None = None

    def __post_init__(self):
        for name in ("iterations", *_FLOAT_COLUMNS):
            value = getattr(self, name)
            if value is None and name in ("tangent_curvature", "dist_to_ref"):
                continue
            column = np.array(value, dtype=np.int64 if name == "iterations" else float)
            if column.shape != (len(self.iterations),):
                raise ValueError(f"trace column {name} has shape {column.shape}, "
                                 f"expected ({len(self.iterations)},)")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    @property
    def records(self) -> tuple:
        """The rows as a tuple of ``TraceRecord``s, built on each access."""
        columns = [self.iterations.tolist()]
        for name in _FLOAT_COLUMNS:
            column = getattr(self, name)
            columns.append([None] * len(self.iterations) if column is None else column.tolist())
        return tuple(TraceRecord(*row) for row in zip(*columns))


def initial_state(theta_start: np.ndarray, with_aux: bool) -> IterateState:
    theta = np.array(theta_start, dtype=float)
    aux = np.zeros(()) if with_aux else None
    anchor = theta.copy() if with_aux else None
    return IterateState(theta=theta, iteration=0, aux_x=aux, anchor=anchor)


# ---------------------------------------------------------------------------
# the update kernel and the single steps


def _advance(
    problem: ProblemInstance,
    net: NetworkOperator,
    theta: np.ndarray,
    step: np.ndarray,
    kick: np.ndarray | None,
    noisy: slice,
) -> np.ndarray:
    """One lap-weighted step of every run in a stack; returns the new theta.

    theta holds one stacked point per row and step is an (R, 1) column of
    step sizes. The rows in ``noisy`` add the edge kicks sigma eta in
    ``kick``, one row each, to their edge differences B grad F, so one
    B' apply lifts both: theta - step B'(B grad F + sigma eta), whose
    kick part sigma B' eta has the law N(0, sigma^2 L (x) I_n).
    """
    n = problem.n
    grad = problem.grad(theta.reshape(len(theta), problem.m, n), *problem.params)
    edge_grad = net.incidence.apply(grad.reshape(theta.shape), n)
    if kick is not None:
        edge_grad[noisy] += kick
    direction = net.incidence_t.apply(edge_grad, n)
    direction *= step
    return np.subtract(theta, direction, out=direction)


def edge_kicks(net: NetworkOperator, sigmas: np.ndarray, rngs, steps: int) -> np.ndarray:
    """The edge kicks sigma eta of the next ``steps`` steps of each run,
    shape (runs, steps, E * n): one n-block per edge, lifted to the nodes
    by the step's B' apply.

    Each run draws its E * n standard normals per step from its own
    stream, straight into its own block, so a run's kicks are the ones
    it draws alone, and a block of steps equals that many one-step draws.
    """
    eta = np.empty((len(rngs), steps, net.edge_count * net.agent_dim))
    for rng, block in zip(rngs, eta):
        rng.standard_normal(out=block)
    eta *= np.asarray(sigmas)[:, None, None]
    return eta


def lgd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
) -> IterateState:
    """One lap-weighted descent step."""
    return nlgd_step(state, problem, net, step_size, 0.0, None)


def nlgd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
    noise_variance: float,
    rng: np.random.Generator | None,
) -> IterateState:
    """One noisy lap-weighted step: the gradient direction is lifted by
    the Laplacian, the Gaussian kick (one n-block per edge) by B', both
    in the same B' apply. With zero variance no kick is drawn."""
    if state.aux_x is not None:
        raise ValueError("lap-weighted step needs a state without aux_x")
    kick = None
    if noise_variance > 0:
        kick = edge_kicks(net, np.sqrt([noise_variance]), [rng], 1)[:, 0]
    theta = _advance(
        problem, net, state.theta[None], np.array([[step_size]]), kick, slice(0, 1)
    )
    return replace(state, theta=theta[0], iteration=state.iteration + 1)


def aux_gd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
) -> IterateState:
    """One plain gradient step on the auxiliary function: x moves against
    the B-lifted gradient, theta is re-derived from the anchor."""
    return aux_ngd_step(state, problem, net, step_size, 0.0, None)


def aux_ngd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
    noise_variance: float,
    rng: np.random.Generator | None,
) -> IterateState:
    """Noisy auxiliary step; the kick's normals enter unlifted, matching
    the noisy lap-weighted route through the change of variables."""
    # x <- x - alpha (B grad F(theta) + sigma eta), then theta = anchor + B' x
    if state.aux_x is None or state.anchor is None:
        raise ValueError("auxiliary step needs a state carrying aux_x and anchor")
    n = problem.n
    direction = apply_lifted(net.incidence, stacked_gradient(problem, state.theta), n)
    if noise_variance > 0:
        direction += edge_kicks(net, np.sqrt([noise_variance]), [rng], 1)[0, 0]
    aux = state.aux_x - step_size * direction
    theta = state.anchor + apply_lifted(net.incidence_t, aux, n)
    return replace(state, theta=theta, aux_x=aux, iteration=state.iteration + 1)


# ---------------------------------------------------------------------------
# parameter calculators


def theoretical_step_bound(
    failure_prob: float, lip_grad: float, sqrt_norm_sq: float
) -> float:
    """Largest safe step size min{1, -2 ln p} / (||S||^2 L_grad) for
    failure probability p in (0, 1); ||S||^2 = ||B||^2 = lambda_max for
    the Laplacian root S and the incidence factor B alike."""
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(f"failure_prob must be in (0, 1), got {failure_prob}")
    if lip_grad <= 0 or sqrt_norm_sq <= 0:
        raise ValueError("lip_grad and sqrt_norm_sq must be positive")
    base = 1.0 / (sqrt_norm_sq * lip_grad)
    return min(base, -2.0 * math.log(failure_prob) * base)


def variance_for_tolerance(grad_tol: float, m: int, n: int) -> float:
    """Per-coordinate noise variance grad_tol^2 / (12 m n) matched to a
    projected-gradient tolerance."""
    if not (math.isfinite(grad_tol) and grad_tol > 0):
        raise ValueError(f"grad_tol must be positive and finite, got {grad_tol}")
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return grad_tol**2 / (12.0 * m * n)


def curvature_tolerance(grad_tol: float, lambda_max: float, lip_hess: float) -> float:
    """Tangent-curvature tolerance sqrt(grad_tol * lambda_max^1.5 * L_hess)
    matched to a projected-gradient tolerance through the Hessian
    smoothness bound and ||B||^2 = lambda_max."""
    for name, value in (
        ("grad_tol", grad_tol), ("lambda_max", lambda_max), ("lip_hess", lip_hess)
    ):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be >= 0 and finite, got {value}")
    return float(np.sqrt(grad_tol * lambda_max**1.5 * lip_hess))


def iteration_budget(
    psi_start: float,
    min_sum: float,
    lip_grad_aux: float,
    grad_tol: float,
    step_size: float,
) -> int:
    """Iterations sufficient to shrink the expected auxiliary gradient
    below grad_tol: ceil(gap / (L_aux * tol^2 * alpha^2)) with gap the
    start-to-lower-bound objective gap. Clamped to at least 1; a negative
    gap (lower bound above the start value) raises, as does any argument
    that is not finite.
    """
    for name, value in (("psi_start", psi_start), ("min_sum", min_sum)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    for name, value in (
        ("lip_grad_aux", lip_grad_aux), ("grad_tol", grad_tol), ("step_size", step_size)
    ):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")
    gap = psi_start - min_sum
    if gap < 0:
        raise ValueError(
            f"start value {psi_start:g} is below the lower bound {min_sum:g}"
        )
    denom = lip_grad_aux * grad_tol**2 * step_size**2
    return max(math.ceil(gap / denom), 1)


# ---------------------------------------------------------------------------
# the run engine


def _checked_start(
    problem: ProblemInstance, net: NetworkOperator, theta_start
) -> np.ndarray:
    theta = np.array(theta_start, dtype=float)
    if net.agent_dim != problem.n:
        raise ValueError(
            f"network agent_dim {net.agent_dim} != problem dimension {problem.n}"
        )
    if theta.shape != (problem.m * problem.n,):
        raise ValueError(
            f"start has shape {theta.shape}, expected ({problem.m * problem.n},)"
        )
    if not np.isfinite(theta).all():
        raise ValueError("start has non-finite values")
    residual = feasibility_residual(theta, problem.demand)
    limit = START_FEAS_RTOL * (1.0 + float(np.linalg.norm(problem.demand)))
    if residual > limit:
        raise InfeasibleStartError(
            f"starting blocks sum to residual {residual:g}, "
            f"limit {limit:g}; the demand constraint must hold at entry"
        )
    return theta


class _Stack:
    """The live runs of one ``run_many`` call, quiet runs before noisy
    ones, so the noisy runs form one contiguous block of rows and stay so
    as finished runs leave."""

    def __init__(self, starts, configs):
        noisy = [c.noise_variance > 0 for c in configs]
        order = sorted(range(len(configs)), key=lambda i: noisy[i])
        self.ids = np.array(order, dtype=int)
        self.noisy_run = np.array(noisy)
        self.step_sizes = np.array([c.step_size for c in configs], dtype=float)
        self.theta = np.stack([starts[i] for i in order])
        self.kicks = None
        self._layout()

    def _layout(self):
        self.step = self.step_sizes[self.ids][:, None]
        quiet = len(self.ids) - int(np.count_nonzero(self.noisy_run[self.ids]))
        self.noisy = slice(quiet, len(self.ids))

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where mask is False."""
        if self.kicks is not None:
            self.kicks = self.kicks[mask[self.noisy]]
        self.ids = self.ids[mask]
        self.theta = self.theta[mask]
        self._layout()
        if self.noisy.start == self.noisy.stop:
            self.kicks = None


class _Columns:
    """One live run's records: an int64 column of iterations and a (rows,
    5) float block of the values in ``_FLOAT_COLUMNS`` order, both doubled
    when full, so a row is written without objects. They are sized by the
    rows recorded so far, never by the budget."""

    def __init__(self, curvature: bool, dist: bool):
        self.unrecorded = {name for name, kept in (("tangent_curvature", curvature),
                                                   ("dist_to_ref", dist)) if not kept}
        self.count = 0
        self.iterations = np.empty(16, dtype=np.int64)
        self.values = np.empty((16, len(_FLOAT_COLUMNS)))

    def append(self, iteration: int, values: np.ndarray) -> None:
        if self.count == len(self.iterations):
            self.iterations = np.concatenate([self.iterations, np.empty_like(self.iterations)])
            self.values = np.concatenate([self.values, np.empty_like(self.values)])
        self.iterations[self.count] = iteration
        self.values[self.count] = values
        self.count += 1

    def last(self) -> tuple:
        """The last row: its iteration, f_value and proj_grad_norm."""
        row = self.count - 1
        f_value, _, proj_grad_norm = self.values[row, :3].tolist()
        return int(self.iterations[row]), f_value, proj_grad_norm

    def trace(self, final_theta, iterations_run: int, first_certified) -> Trace:
        """The rows so far cut from the buffers, as a ``Trace``."""
        rows = self.count
        columns = {
            name: None if name in self.unrecorded else self.values[:rows, j]
            for j, name in enumerate(_FLOAT_COLUMNS)
        }
        return Trace(
            iterations=self.iterations[:rows],
            final_theta=final_theta,
            iterations_run=iterations_run,
            first_certified_iter=first_certified,
            **columns,
        )


def run_many(
    problem: ProblemInstance,
    net: NetworkOperator,
    starts,
    configs,
    theta_ref: np.ndarray | None = None,
) -> list:
    """Run a stack of configured runs in lockstep, one start per config.

    Every setting is per run, the budget and the record stride included,
    and each run's trace is bitwise the one it would get alone: it keeps
    its own ``default_rng(seed)`` stream. A run records at the iterations
    that are multiples of its ``record_every`` and at its ``max_iters``;
    the stack steps up to the next record point of any live run, in
    blocks of noise drawn for that span. Each record is written as one
    row of its run's columns, and a leaving run's columns are cut to its
    rows, so a run holds about 48 B per record whatever its budget.

    Starts are checked as in ``run``, and a bad one raises before any run
    starts. However a run leaves (budget, early exit, divergence, descent
    violation), it leaves one trace; a failed run's ``DivergenceError`` or
    ``DescentViolationError`` carries it and stands in its place in the
    returned list, and the other runs go on. Returns traces or errors in order.
    """
    configs = list(configs)
    starts = [_checked_start(problem, net, start) for start in starts]
    if len(starts) != len(configs):
        raise ValueError(f"{len(starts)} starts for {len(configs)} configs")
    if not configs:
        return []
    if theta_ref is not None:
        theta_ref = np.asarray(theta_ref, dtype=float)

    stack = _Stack(starts, configs)
    rngs = [np.random.default_rng(config.seed) for config in configs]
    sigmas = np.sqrt([config.noise_variance for config in configs])
    budgets = np.array([config.max_iters for config in configs])
    strides = np.array([config.record_every for config in configs])
    lip_grad, _ = lipschitz_constants(problem)
    slopes = [
        -1.0 / c.step_size + net.lambda_max * lip_grad / 2.0 if c.monitor_descent else None
        for c in configs
    ]
    feas_tol = default_feas_tol(problem.demand)
    columns = [_Columns(c.record_curvature, theta_ref is not None) for c in configs]
    first_certified = [None] * len(configs)
    results = [None] * len(configs)

    def record_due(due: np.ndarray) -> None:
        theta = stack.theta[due]
        ids = stack.ids[due]
        # one row per due run, in _FLOAT_COLUMNS order; NaN where unrecorded
        table = np.full((len(ids), len(_FLOAT_COLUMNS)), np.nan)
        table[:, 0] = stacked_value(problem, theta)
        table[:, 1] = feasibility_residual(theta, problem.demand)
        table[:, 2] = projected_grad_norm(theta, problem, net)
        wants = np.array([configs[i].record_curvature for i in ids])
        if wants.any():
            table[wants, 3] = tangent_min_curvature(theta[wants], problem)
        if theta_ref is not None:
            table[:, 4] = row_norms(theta - theta_ref)
        for pos, i in enumerate(ids):
            config = configs[i]
            columns[i].append(t, table[pos])
            if first_certified[i] is None and config.stop_eps is not None:
                measured = Measurement(*table[pos, 1:4].tolist())
                report = judge(measured, config.stop_eps, config.stop_gamma, feas_tol)
                if report.classification is Classification.SECOND_ORDER:
                    first_certified[i] = t

    def retire(mask: np.ndarray, error=None) -> None:
        """Take the rows in mask out of the stack at iteration t. The run
        in row pos leaves its trace, or with ``error`` the exception
        error(pos, trace) that carries it."""
        if not mask.any():
            return
        for pos in np.flatnonzero(mask):
            i = stack.ids[pos]
            trace = columns[i].trace(stack.theta[pos].copy(), t, first_certified[i])
            columns[i] = None
            results[i] = trace if error is None else error(pos, trace)
        stack.keep(~mask)

    def draw_noise(limit: int) -> int:
        """Draw the kicks of the next steps (at most ``limit``) for every
        noisy run; returns how many steps the block covers."""
        noisy_ids = stack.ids[stack.noisy]
        if not len(noisy_ids):
            stack.kicks = None
            return limit
        per_step = len(noisy_ids) * net.edge_count * problem.n
        steps = max(1, min(limit, NOISE_CHUNK // per_step))
        stack.kicks = edge_kicks(
            net, sigmas[noisy_ids], [rngs[i] for i in noisy_ids], steps
        )
        return steps

    def check_divergence() -> None:
        theta = stack.theta
        # No row can reach the guard while the squares of the whole stack
        # sum to less than 0.98 of its square (the margin covers the
        # rounding of the sum); NaN and inf fail this test and take the
        # exact row test, where they fail too.
        flat = theta.reshape(-1)
        if np.dot(flat, flat) < 0.98 * DIVERGENCE_NORM**2:
            return
        failed = ~(row_norms(theta) <= DIVERGENCE_NORM)
        retire(failed, lambda pos, trace: DivergenceError(t, trace))

    def check_descent() -> None:
        """Check the monitored runs whose last record is one step old."""
        rows = np.array(
            [slopes[i] is not None and columns[i].last()[0] == t - 1 for i in stack.ids]
        )
        if not rows.any():
            return
        drop, bound = np.zeros(len(rows)), np.zeros(len(rows))
        after = stacked_value(problem, stack.theta[rows])
        for value, pos in zip(after, np.flatnonzero(rows)):
            i = stack.ids[pos]
            _, f_value, proj_grad_norm = columns[i].last()
            bound[pos] = slopes[i] * (configs[i].step_size * proj_grad_norm) ** 2
            drop[pos] = float(value) - f_value
        retire(
            drop > bound + 1e-9,
            lambda pos, trace: DescentViolationError(t - 1, drop[pos], bound[pos], trace),
        )

    # Overflow and invalid values past the divergence guard's bound are
    # judged by that guard, which turns them into DivergenceError.
    with np.errstate(over="ignore", invalid="ignore"):
        t = 0
        while len(stack.ids):
            due = ((t % strides == 0) | (t == budgets))[stack.ids]
            if due.any():
                record_due(due)
            done = [
                t == configs[i].max_iters or (configs[i].early_exit and first_certified[i] == t)
                for i in stack.ids
            ]
            retire(np.array(done))
            if not len(stack.ids):
                break
            span = int(np.minimum((t // strides + 1) * strides, budgets)[stack.ids].min()) - t
            chunk_start = chunk_end = 0
            for offset in range(span):
                if not len(stack.ids):
                    break
                if offset == chunk_end:
                    chunk_start, chunk_end = offset, offset + draw_noise(span - offset)
                kick = None if stack.kicks is None else stack.kicks[:, offset - chunk_start]
                stack.theta = _advance(problem, net, stack.theta, stack.step, kick, stack.noisy)
                t += 1
                check_divergence()
                if offset == 0:
                    check_descent()
            # The span's kicks are used up; free them now rather than when
            # the next span draws its own.
            stack.kicks = kick = None
    return results


def run(
    problem: ProblemInstance,
    net: NetworkOperator,
    theta_start: np.ndarray,
    config: RunConfig,
    theta_ref: np.ndarray | None = None,
) -> Trace:
    """Run the configured algorithm from a feasible start.

    Guards: the start must be finite and satisfy the demand constraint to
    relative precision; iterates past the norm guard or containing
    non-finite values raise ``DivergenceError`` carrying the partial
    trace. With ``monitor_descent`` (noiseless runs only) a recorded step
    that breaks the sufficient-descent inequality raises ``DescentViolationError``.
    Identical inputs, config and seed reproduce the identical trace. This
    is ``run_many`` on a stack of one.
    """
    (outcome,) = run_many(problem, net, [theta_start], [config], theta_ref)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
