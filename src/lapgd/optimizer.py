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
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .network import NetworkOperator, apply_lifted
from .objectives import (
    ProblemInstance,
    lipschitz_constants,
    stacked_gradient,
    stacked_value,
)
from .stationarity import feasibility_residual, projected_grad_norm, row_norms, tangent_min_curvature

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
    """Noiseless sufficient-descent inequality failed at a recorded step."""

    def __init__(self, iteration: int, drop: float, bound: float):
        super().__init__(
            f"descent violation at iteration {iteration}: "
            f"objective changed by {drop:g}, bound {bound:g}"
        )
        self.iteration = iteration


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs besides the problem and the network.

    ``noise_variance`` is the per-coordinate variance of the Gaussian
    perturbation (must be 0 for the noiseless algorithms). ``seed``
    controls the perturbation stream; identical config and inputs give
    identical traces. Records land every ``record_every`` iterations.
    ``monitor_descent`` checks the noiseless
    sufficient-descent inequality at recorded steps. Setting ``stop_eps``
    and ``stop_gamma`` flags the first recorded iterate whose projected
    gradient and tangent curvature meet them; with ``early_exit`` the run
    stops there.
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
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.noise_variance) and self.noise_variance >= 0):
            raise ValueError(
                f"noise_variance must be >= 0 and finite, got {self.noise_variance}"
            )
        if self.noise_variance > 0 and self.algorithm is not Algorithm.NLGD:
            raise ValueError(
                f"noise_variance > 0 is invalid for {self.algorithm.value}"
            )
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
    iteration: int
    f_value: float
    feas_residual: float
    proj_grad_norm: float
    tangent_curvature: float | None = None
    dist_to_ref: float | None = None


@dataclass(frozen=True)
class Trace:
    """Recorded diagnostics plus the final iterate. Record iterations are
    strictly increasing; the last record is the final iterate."""

    records: tuple
    final_theta: np.ndarray
    iterations_run: int
    first_certified_iter: int | None = None


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
    edge_grad = apply_lifted(net.incidence, grad.reshape(theta.shape), n)
    if kick is not None:
        edge_grad[noisy] += kick
    direction = apply_lifted(net.incidence_t, edge_grad, n)
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


def _direct_step(state, problem, net, step_size, noise_variance=0.0, rng=None):
    if state.aux_x is not None:
        raise ValueError("lap-weighted step needs a state without aux_x")
    kick = None
    if noise_variance > 0:
        kick = edge_kicks(net, np.sqrt([noise_variance]), [rng], 1)[:, 0]
    theta = _advance(
        problem, net, state.theta[None], np.array([[step_size]]), kick, slice(0, 1)
    )
    return replace(state, theta=theta[0], iteration=state.iteration + 1)


def _lifted_step(state, problem, net, step_size, noise_variance=0.0, rng=None):
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


def lgd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
) -> IterateState:
    """One lap-weighted descent step."""
    return _direct_step(state, problem, net, step_size)


def nlgd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
    noise_variance: float,
    rng: np.random.Generator,
) -> IterateState:
    """One noisy lap-weighted step: the gradient direction is lifted by
    the Laplacian, the Gaussian kick (one n-block per edge) by B', both
    in the same B' apply."""
    return _direct_step(state, problem, net, step_size, noise_variance, rng)


def aux_gd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
) -> IterateState:
    """One plain gradient step on the auxiliary function: x moves against
    the B-lifted gradient, theta is re-derived from the anchor."""
    return _lifted_step(state, problem, net, step_size)


def aux_ngd_step(
    state: IterateState,
    problem: ProblemInstance,
    net: NetworkOperator,
    step_size: float,
    noise_variance: float,
    rng: np.random.Generator,
) -> IterateState:
    """Noisy auxiliary step; the kick's normals enter unlifted, matching
    the noisy lap-weighted route through the change of variables."""
    return _lifted_step(state, problem, net, step_size, noise_variance, rng)


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
    if grad_tol <= 0:
        raise ValueError(f"grad_tol must be positive, got {grad_tol}")
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    return grad_tol**2 / (12.0 * m * n)


def curvature_tolerance(grad_tol: float, lambda_max: float, lip_hess: float) -> float:
    """Tangent-curvature tolerance sqrt(grad_tol * lambda_max^1.5 * L_hess)
    matched to a projected-gradient tolerance through the Hessian
    smoothness bound and ||B||^2 = lambda_max."""
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
    gap (lower bound above the start value) raises.
    """
    gap = psi_start - min_sum
    if gap < 0:
        raise ValueError(
            f"start value {psi_start:g} is below the lower bound {min_sum:g}"
        )
    if grad_tol <= 0 or step_size <= 0:
        raise ValueError("grad_tol and step_size must be positive")
    if lip_grad_aux <= 0:
        raise ValueError(f"lip_grad_aux must be positive, got {lip_grad_aux}")
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
    blocks of noise drawn for that span.

    Starts are checked as in ``run``, and a bad one raises before any run
    starts. A run that diverges or breaks the descent inequality stops at
    the iteration where that happens, and its ``DivergenceError`` or
    ``DescentViolationError`` stands in its place in the returned list;
    the other runs go on. Returns traces (or those errors) in input order.
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
    slopes = [None] * len(configs)
    for i, config in enumerate(configs):
        if config.monitor_descent and config.algorithm is Algorithm.LGD:
            lip_grad, _ = lipschitz_constants(problem)
            slopes[i] = -1.0 / config.step_size + net.lambda_max * lip_grad / 2.0
    records = [[] for _ in configs]
    first_certified = [None] * len(configs)
    results = [None] * len(configs)

    def record_due(due: np.ndarray) -> None:
        theta = stack.theta[due]
        values = stacked_value(problem, theta)
        feas = feasibility_residual(theta, problem.demand)
        proj = projected_grad_norm(theta, problem, net)
        dist = None if theta_ref is None else row_norms(theta - theta_ref)
        ids = stack.ids[due]
        wants = np.array([configs[i].record_curvature for i in ids])
        curvature = iter(())
        if wants.any():
            curvature = iter(tangent_min_curvature(theta[wants], problem))
        for pos, i in enumerate(ids):
            config = configs[i]
            record = TraceRecord(
                iteration=t,
                f_value=float(values[pos]),
                feas_residual=float(feas[pos]),
                proj_grad_norm=float(proj[pos]),
                tangent_curvature=float(next(curvature)) if wants[pos] else None,
                dist_to_ref=None if dist is None else float(dist[pos]),
            )
            records[i].append(record)
            if (
                first_certified[i] is None
                and config.stop_eps is not None
                and record.proj_grad_norm <= config.stop_eps
                and record.tangent_curvature >= -config.stop_gamma
            ):
                first_certified[i] = t

    def retire(mask: np.ndarray, outcome) -> None:
        """Take the rows in mask out of the stack at iteration t; what
        stands in run i's place is outcome(i, trace), given the trace it
        leaves without a certified iteration."""
        if not mask.any():
            return
        for pos in np.flatnonzero(mask):
            i = stack.ids[pos]
            trace = Trace(tuple(records[i]), stack.theta[pos].copy(), t)
            results[i] = outcome(i, trace)
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
        retire(failed, lambda i, trace: DivergenceError(t, trace))

    def check_descent() -> None:
        """Check the monitored runs whose last record is one step old."""
        rows = np.array(
            [slopes[i] is not None and records[i][-1].iteration == t - 1 for i in stack.ids]
        )
        if not rows.any():
            return
        after = stacked_value(problem, stack.theta[rows])
        errors = {}
        for value, pos in zip(after, np.flatnonzero(rows)):
            i = stack.ids[pos]
            last = records[i][-1]
            bound = slopes[i] * (configs[i].step_size * last.proj_grad_norm) ** 2
            drop = float(value) - last.f_value
            if drop > bound + 1e-9:
                errors[i] = DescentViolationError(t - 1, drop, bound)
        failed = np.isin(stack.ids, list(errors))
        retire(failed, lambda i, trace: errors[i])

    t = 0
    while len(stack.ids):
        due = ((t % strides == 0) | (t == budgets))[stack.ids]
        if due.any():
            record_due(due)
        done = [
            t == configs[i].max_iters or (configs[i].early_exit and first_certified[i] == t)
            for i in stack.ids
        ]
        retire(
            np.array(done),
            lambda i, trace: replace(trace, first_certified_iter=first_certified[i]),
        )
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
    trace. With ``monitor_descent`` and a noiseless algorithm, each
    recorded step is checked against the sufficient-descent inequality.
    Identical inputs, config and seed reproduce the identical trace. This
    is ``run_many`` on a stack of one.
    """
    (outcome,) = run_many(problem, net, [theta_start], [config], theta_ref)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome
