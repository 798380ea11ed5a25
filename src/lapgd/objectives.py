"""Local objective families and global evaluation.

Each of m agents holds a private smooth objective f_i on R^n; the global
objective is the separable sum F(theta) = sum_i f_i(theta_i) over the
stacked vector theta, subject to the coupling constraint that the blocks
sum to a demand vector r. Objectives may be non-convex; the families
here include a strongly convex quadratic, a quadratic-minus-log profile
with a saddle at the origin, and a portfolio profile mixing linear
return, quadratic risk and a non-convex log penalty.

Separability makes the global gradient the stack of local gradients and
the global Hessian block diagonal, so evaluation returns per-agent
Hessian blocks rather than an (mn, mn) matrix. Problems built by the
family helpers also carry a vectorized whole-problem evaluator used in
iteration-heavy loops; it must agree with the per-agent path and tests
pin that down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.optimize


@dataclass(frozen=True)
class LocalObjective:
    """One agent's objective: callables plus declared smoothness bounds.

    ``eval``, ``grad`` and ``hess`` take a length-``dim`` vector and
    return a float, a (dim,) gradient and a (dim, dim) Hessian. The
    declared constants bound the gradient and Hessian Lipschitz moduli;
    any valid upper bound is acceptable. ``min_value`` is the
    unconstrained minimum when known in closed form.
    """

    dim: int
    eval: Callable
    grad: Callable
    hess: Callable
    lip_grad: float
    lip_hess: float
    min_value: float | None = None


@dataclass(frozen=True)
class BatchEvaluator:
    """Vectorized whole-problem evaluation on a (..., m, n) stacked array;
    leading axes index independent runs.

    ``value`` returns the objective sum per run, ``grad`` a (..., m, n)
    array of local gradients, ``hess`` a (..., m, n, n) array of Hessian
    blocks.
    """

    value: Callable
    grad: Callable
    hess: Callable


@dataclass(frozen=True)
class ProblemInstance:
    """A coupled allocation problem: m agents, per-agent dimension n,
    demand vector r that feasible allocations must sum to.

    ``global_min_sum`` is a lower bound on F over all of (R^n)^m, the
    sum of unconstrained per-agent minima; exact for closed-form
    families, numerically estimated otherwise, None when never computed.
    """

    m: int
    n: int
    objectives: tuple
    demand: np.ndarray
    global_min_sum: float | None = None
    batch: BatchEvaluator | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 agents, got m={self.m}")
        if len(self.objectives) != self.m:
            raise ValueError(
                f"{len(self.objectives)} objectives for m={self.m} agents"
            )
        for idx, obj in enumerate(self.objectives):
            if obj.dim != self.n:
                raise ValueError(
                    f"objective {idx} has dim {obj.dim}, expected n={self.n}"
                )
        demand = np.array(self.demand, dtype=float).reshape(-1)
        if demand.shape != (self.n,):
            raise ValueError(
                f"demand has shape {demand.shape}, expected ({self.n},)"
            )
        demand.flags.writeable = False
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "objectives", tuple(self.objectives))


@dataclass(frozen=True)
class GlobalEval:
    """Value, stacked gradient and Hessian blocks of F at one point."""

    value: float
    gradient: np.ndarray
    hessian_blocks: np.ndarray


def _stacked(problem: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """View a stacked point, or a (..., m * n) stack of them, as (..., m, n)."""
    theta = np.asarray(theta, dtype=float)
    expected = problem.m * problem.n
    if theta.ndim == 0 or theta.shape[-1] != expected:
        raise ValueError(
            f"stacked point has shape {theta.shape}, expected (..., {expected})"
        )
    return theta.reshape(theta.shape[:-1] + (problem.m, problem.n))


def _per_run(fn, blocks: np.ndarray) -> np.ndarray:
    # Per-agent fallback over a leading run axis, one run at a time.
    return np.stack([fn(run_blocks) for run_blocks in blocks.reshape((-1,) + blocks.shape[-2:])])


def stacked_value(problem: ProblemInstance, theta: np.ndarray):
    """F at a stacked point (a float), or at each point of a leading run
    axis (an array)."""
    blocks = _stacked(problem, theta)
    if problem.batch is not None:
        values = problem.batch.value(blocks)
    else:
        values = _per_run(
            lambda b: sum(obj.eval(b[i]) for i, obj in enumerate(problem.objectives)),
            blocks,
        ).reshape(blocks.shape[:-2])
    return float(values) if blocks.ndim == 2 else np.asarray(values, dtype=float)


def stacked_gradient(problem: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """Stacked gradient, shaped like theta (a leading run axis is kept)."""
    blocks = _stacked(problem, theta)
    if problem.batch is not None:
        grad = problem.batch.grad(blocks)
    else:

        def agents(b):
            return np.stack([obj.grad(b[i]) for i, obj in enumerate(problem.objectives)])

        grad = _per_run(agents, blocks)
    return np.asarray(grad, dtype=float).reshape(blocks.shape[:-2] + (-1,))


def hessian_blocks(problem: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """Per-agent Hessian blocks, shape (..., m, n, n)."""
    blocks = _stacked(problem, theta)
    if problem.batch is not None:
        return np.asarray(problem.batch.hess(blocks), dtype=float)

    def agents(b):
        return np.stack([obj.hess(b[i]) for i, obj in enumerate(problem.objectives)])

    lead = blocks.shape[:-2]
    return _per_run(agents, blocks).reshape(lead + (problem.m, problem.n, problem.n))


def eval_global(problem: ProblemInstance, theta: np.ndarray) -> GlobalEval:
    """Evaluate F, its stacked gradient and its Hessian blocks at theta."""
    return GlobalEval(
        value=stacked_value(problem, theta),
        gradient=stacked_gradient(problem, theta),
        hessian_blocks=hessian_blocks(problem, theta),
    )


def lipschitz_constants(problem: ProblemInstance) -> tuple:
    """Global (gradient, Hessian) Lipschitz bounds: the max over agents."""
    lip_grad = max(obj.lip_grad for obj in problem.objectives)
    lip_hess = max(obj.lip_hess for obj in problem.objectives)
    return float(lip_grad), float(lip_hess)


# ---------------------------------------------------------------------------
# objective families


def _as_matrix(a, dim: int) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return np.eye(dim) * float(a)
    if a.shape != (dim, dim):
        raise ValueError(f"matrix has shape {a.shape}, expected ({dim}, {dim})")
    return a.copy()


def quadratic_objective(a, c=0.0, dim: int | None = None) -> LocalObjective:
    """Strongly convex quadratic f(t) = 0.5 t' A t + c' t.

    ``a`` is a positive scalar (isotropic) or a symmetric positive
    definite matrix; ``c`` a scalar or vector. Minimum -0.5 c' A^-1 c at
    -A^-1 c.
    """
    c_arr = np.asarray(c, dtype=float)
    if dim is None:
        if c_arr.ndim == 1:
            dim = c_arr.shape[0]
        elif np.asarray(a).ndim == 2:
            dim = np.asarray(a).shape[0]
        else:
            dim = 1
    mat = _as_matrix(a, dim)
    offset = np.broadcast_to(np.atleast_1d(c_arr), (dim,)).astype(float).copy()
    if not np.allclose(mat, mat.T):
        raise ValueError("quadratic coefficient matrix must be symmetric")
    eigvals = np.linalg.eigvalsh(mat)
    if eigvals[0] <= 0:
        raise ValueError(
            f"quadratic coefficient must be positive definite, "
            f"min eigenvalue {eigvals[0]:g}"
        )
    minimizer = -np.linalg.solve(mat, offset)
    return LocalObjective(
        dim=dim,
        eval=lambda t: float(0.5 * t @ mat @ t + offset @ t),
        grad=lambda t: mat @ t + offset,
        hess=lambda t: mat.copy(),
        lip_grad=float(eigvals[-1]),
        lip_hess=0.0,
        min_value=float(0.5 * offset @ minimizer),
    )


def _smart_grid_min_1d(a: float, b: float) -> float:
    # Critical points: t = 0 and t^2 = b/a - 1 (the latter only when b > a).
    if b <= a:
        return 0.0
    return b - a - b * math.log(b / a)


def smart_grid_objective(a: float, b: float, dim: int = 1) -> LocalObjective:
    """Generation cost minus user satisfaction: f(t) = a ||t||^2 - b sum_j log(1 + t_j^2).

    Coercive for a > 0. When b > a the origin is a strict local maximum
    along every coordinate (curvature 2a - 2b < 0) and the minima sit at
    t_j^2 = b/a - 1. Gradient Lipschitz bound 2a + 2b; the third
    derivative 4 b t (3 - t^2) / (1 + t^2)^3 peaks below 3 b in absolute
    value, so 4 b is a valid Hessian Lipschitz bound.
    """
    if a <= 0:
        raise ValueError(f"need a > 0, got a={a}")
    if b < 0:
        raise ValueError(f"need b >= 0, got b={b}")
    a, b = float(a), float(b)

    def value(t):
        return float(a * (t @ t) - b * np.log1p(t * t).sum())

    def grad(t):
        return 2.0 * a * t - 2.0 * b * t / (1.0 + t * t)

    def hess(t):
        sq = t * t
        curv = 2.0 * a - 2.0 * b * (1.0 - sq) / (1.0 + sq) ** 2
        return np.diag(curv)

    return LocalObjective(
        dim=dim,
        eval=value,
        grad=grad,
        hess=hess,
        lip_grad=2.0 * a + 2.0 * b,
        lip_hess=4.0 * b,
        min_value=dim * _smart_grid_min_1d(a, b),
    )


def portfolio_objective(mu, cov, risk_weight: float, log_weight: float) -> LocalObjective:
    """Negative return plus quadratic risk plus a non-convex log penalty:
    f(t) = -mu' t + risk_weight * t' cov t + log_weight * sum_j log(1 + t_j^2).

    ``cov`` must be symmetric positive definite and risk_weight > 0, so f
    is coercive; log_weight >= 0 scales the concave-at-the-origin term.
    """
    mu = np.asarray(mu, dtype=float).reshape(-1)
    dim = mu.shape[0]
    cov = _as_matrix(cov, dim)
    if not np.allclose(cov, cov.T):
        raise ValueError("covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if eigvals[0] <= 0:
        raise ValueError(
            f"covariance must be positive definite, min eigenvalue {eigvals[0]:g}"
        )
    if risk_weight <= 0:
        raise ValueError(f"need risk_weight > 0, got {risk_weight}")
    if log_weight < 0:
        raise ValueError(f"need log_weight >= 0, got {log_weight}")
    rw, lw = float(risk_weight), float(log_weight)

    def value(t):
        return float(-mu @ t + rw * (t @ cov @ t) + lw * np.log1p(t * t).sum())

    def grad(t):
        return -mu + 2.0 * rw * (cov @ t) + 2.0 * lw * t / (1.0 + t * t)

    def hess(t):
        sq = t * t
        diag = 2.0 * lw * (1.0 - sq) / (1.0 + sq) ** 2
        return 2.0 * rw * cov + np.diag(diag)

    return LocalObjective(
        dim=dim,
        eval=value,
        grad=grad,
        hess=hess,
        lip_grad=2.0 * rw * float(eigvals[-1]) + 2.0 * lw,
        lip_hess=4.0 * lw,
    )


# ---------------------------------------------------------------------------
# whole-problem builders with vectorized evaluators


def quadratic_problem(a_values, demand, c_values=None) -> ProblemInstance:
    """Independent quadratics 0.5 a_i ||t||^2 + c_i' t over a common demand.

    ``a_values`` is a length-m array of positive scalars; ``c_values`` an
    optional (m, n) array. n is taken from the demand vector.
    """
    a = np.asarray(a_values, dtype=float).reshape(-1)
    m = a.shape[0]
    demand = np.atleast_1d(np.asarray(demand, dtype=float))
    n = demand.shape[0]
    if c_values is None:
        c = np.zeros((m, n))
    else:
        c = np.asarray(c_values, dtype=float).reshape(m, n)
    if np.any(a <= 0):
        raise ValueError("quadratic coefficients must be positive")

    objectives = tuple(
        quadratic_objective(a[i], c[i], dim=n) for i in range(m)
    )
    col = a[:, None]

    def value(blocks):
        return (0.5 * col * blocks * blocks + c * blocks).sum(axis=(-2, -1))

    def grad(blocks):
        return col * blocks + c

    def hess(blocks):
        out = np.zeros(blocks.shape + (n,))
        idx = np.arange(n)
        out[..., idx, idx] = col
        return out

    min_sum = float(sum(obj.min_value for obj in objectives))
    return ProblemInstance(
        m=m,
        n=n,
        objectives=objectives,
        demand=demand,
        global_min_sum=min_sum,
        batch=BatchEvaluator(value=value, grad=grad, hess=hess),
    )


def smart_grid_problem(a_values, b_values, demand=0.0, agent_dim: int = 1) -> ProblemInstance:
    a = np.asarray(a_values, dtype=float).reshape(-1)
    b = np.asarray(b_values, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"a and b differ in length: {a.shape} vs {b.shape}")
    m = a.shape[0]
    n = agent_dim
    demand = np.broadcast_to(np.atleast_1d(np.asarray(demand, dtype=float)), (n,))

    objectives = tuple(smart_grid_objective(a[i], b[i], dim=n) for i in range(m))
    ac, bc = a[:, None], b[:, None]

    def value(blocks):
        sq = blocks * blocks
        return (ac * sq - bc * np.log1p(sq)).sum(axis=(-2, -1))

    def grad(blocks):
        return 2.0 * ac * blocks - 2.0 * bc * blocks / (1.0 + blocks * blocks)

    def hess(blocks):
        sq = blocks * blocks
        curv = 2.0 * ac - 2.0 * bc * (1.0 - sq) / (1.0 + sq) ** 2
        out = np.zeros(blocks.shape + (n,))
        idx = np.arange(n)
        out[..., idx, idx] = curv
        return out

    min_sum = float(sum(obj.min_value for obj in objectives))
    return ProblemInstance(
        m=m,
        n=n,
        objectives=objectives,
        demand=demand,
        global_min_sum=min_sum,
        batch=BatchEvaluator(value=value, grad=grad, hess=hess),
    )


def portfolio_problem(mu, cov, risk_weights, log_weights, demand) -> ProblemInstance:
    """Portfolio objectives over a common demand; mu is (m, n), cov is
    (m, n, n), the weights are length m. ``global_min_sum`` is left unset
    (no closed form); see ``estimate_global_min_sum``."""
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    rw = np.asarray(risk_weights, dtype=float).reshape(-1)
    lw = np.asarray(log_weights, dtype=float).reshape(-1)
    m, n = mu.shape
    if cov.shape != (m, n, n) or rw.shape != (m,) or lw.shape != (m,):
        raise ValueError("parameter shapes disagree")
    demand = np.broadcast_to(np.atleast_1d(np.asarray(demand, dtype=float)), (n,))

    objectives = tuple(
        portfolio_objective(mu[i], cov[i], rw[i], lw[i]) for i in range(m)
    )

    def value(blocks):
        risk = np.einsum("...ij,ijk,...ik->...i", blocks, cov, blocks)
        return (
            -(mu * blocks).sum(axis=-1) + rw * risk
            + lw * np.log1p(blocks * blocks).sum(axis=-1)
        ).sum(axis=-1)

    def grad(blocks):
        return (
            -mu
            + 2.0 * rw[:, None] * np.einsum("ijk,...ik->...ij", cov, blocks)
            + 2.0 * lw[:, None] * blocks / (1.0 + blocks * blocks)
        )

    def hess(blocks):
        sq = blocks * blocks
        diag = 2.0 * lw[:, None] * (1.0 - sq) / (1.0 + sq) ** 2
        out = np.broadcast_to(2.0 * rw[:, None, None] * cov, blocks.shape + (n,)).copy()
        idx = np.arange(n)
        out[..., idx, idx] += diag
        return out

    return ProblemInstance(
        m=m,
        n=n,
        objectives=objectives,
        demand=demand,
        batch=BatchEvaluator(value=value, grad=grad, hess=hess),
    )


def sample_smart_grid_params(m: int, rng: np.random.Generator) -> tuple:
    """Default parameter draw: a_i ~ U[0.5, 1.5], b_i ~ U[2, 3], so every
    agent has b_i > a_i and the origin is a saddle of the coupled problem."""
    a = rng.uniform(0.5, 1.5, size=m)
    b = rng.uniform(2.0, 3.0, size=m)
    return a, b


def sample_portfolio_params(m: int, n: int, rng: np.random.Generator) -> tuple:
    """Default parameter draw: mu_i ~ U[0,1]^n, cov_i = A A'/n + 0.1 I with
    A standard normal, risk and log weights ~ U[0.5, 1.5]."""
    mu = rng.uniform(0.0, 1.0, size=(m, n))
    cov = np.empty((m, n, n))
    for i in range(m):
        a = rng.standard_normal((n, n))
        cov[i] = a @ a.T / n + 0.1 * np.eye(n)
    rw = rng.uniform(0.5, 1.5, size=m)
    lw = rng.uniform(0.5, 1.5, size=m)
    return mu, cov, rw, lw


def estimate_min_value(obj: LocalObjective, span: float = 5.0, seed: int = 0) -> float:
    """Estimate the unconstrained minimum of one objective numerically.

    Multistart local descent: candidates on a coarse grid (axis points at
    +-span, the origin) plus a few random draws, each refined with BFGS
    using the analytic gradient. Returns the best value found, an upper
    bound on the true minimum.
    """
    rng = np.random.default_rng(seed)
    n = obj.dim
    starts = [np.zeros(n)]
    for j in range(n):
        for sign in (1.0, -1.0):
            point = np.zeros(n)
            point[j] = sign * span
            starts.append(point)
    starts.extend(rng.uniform(-span, span, size=(6, n)))

    best = min(float(obj.eval(p)) for p in starts)
    for point in starts:
        res = scipy.optimize.minimize(
            obj.eval, point, jac=obj.grad, method="BFGS",
            options={"gtol": 1e-10, "maxiter": 500},
        )
        best = min(best, float(res.fun))
    return best


def estimate_global_min_sum(problem: ProblemInstance, span: float = 5.0, seed: int = 0) -> float:
    """Sum of per-agent minima: closed forms where declared, numeric
    multistart estimates elsewhere."""
    total = 0.0
    for idx, obj in enumerate(problem.objectives):
        if obj.min_value is not None:
            total += obj.min_value
        else:
            total += estimate_min_value(obj, span=span, seed=seed + idx)
    return total


# ---------------------------------------------------------------------------
# derivative checking


def fd_check(obj: LocalObjective, point: np.ndarray, step: float = 1e-5) -> tuple:
    """Central-difference check of grad and hess at one point.

    Returns relative errors (||fd - analytic|| / (1 + ||analytic||)) for
    the gradient against differenced values and the Hessian against the
    differenced gradient.
    """
    point = np.asarray(point, dtype=float)
    n = obj.dim
    grad_fd = np.empty(n)
    hess_fd = np.empty((n, n))
    for j in range(n):
        offset = np.zeros(n)
        offset[j] = step
        grad_fd[j] = (obj.eval(point + offset) - obj.eval(point - offset)) / (2 * step)
        hess_fd[:, j] = (obj.grad(point + offset) - obj.grad(point - offset)) / (2 * step)
    hess_fd = (hess_fd + hess_fd.T) / 2.0

    grad_an = np.asarray(obj.grad(point), dtype=float)
    hess_an = np.asarray(obj.hess(point), dtype=float)
    grad_err = np.linalg.norm(grad_fd - grad_an) / (1.0 + np.linalg.norm(grad_an))
    hess_err = np.linalg.norm(hess_fd - hess_an) / (1.0 + np.linalg.norm(hess_an))
    return float(grad_err), float(hess_err)
