"""Objective families and stacked evaluation.

Each of m agents holds a private smooth objective f_i on R^n; the global
objective is the separable sum F(theta) = sum_i f_i(theta_i) over the
stacked vector theta, subject to the coupling constraint that the blocks
sum to a demand vector r. Objectives may be non-convex; the families
here include a strongly convex quadratic, a quadratic-minus-log profile
with a saddle at the origin, and a portfolio profile mixing linear
return, quadratic risk and a non-convex log penalty.

Each family is written once, as value, gradient and Hessian functions of
a (..., m, n) array of per-agent blocks and the family's per-agent
parameter arrays (leading axis m); leading axes of the blocks index
independent runs. One agent's objective is the same function with the
parameter arrays cut to that agent. Separability makes the global
gradient the stack of local gradients and the global Hessian block
diagonal, so evaluation returns per-agent Hessian blocks rather than an
(mn, mn) matrix. ``FAMILIES`` declares each family's parameter fields,
default draw and builder once, for config files and scenarios alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np


@dataclass(frozen=True)
class ProblemInstance:
    """A coupled allocation problem: m agents, per-agent dimension n,
    demand vector r that feasible allocations must sum to.

    ``value``, ``grad`` and ``hess`` are the family's functions
    ``f(blocks, *params)`` of a (..., m, n) block array: F per run, a
    (..., m, n) array of local gradients and a (..., m, n, n) array of
    Hessian blocks. ``params`` holds the per-agent parameter arrays, each
    with leading axis m. ``lip_grad`` and ``lip_hess`` bound the gradient
    and Hessian Lipschitz moduli of every agent. ``global_min_sum`` is
    the sum of unconstrained per-agent minima, a lower bound on F over
    all of (R^n)^m; None where the family has no closed form.
    """

    m: int
    n: int
    demand: np.ndarray
    params: tuple
    value: Callable
    grad: Callable
    hess: Callable
    lip_grad: float
    lip_hess: float
    global_min_sum: float | None = None

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 agents, got m={self.m}")
        demand = np.array(self.demand, dtype=float).reshape(-1)
        if demand.shape != (self.n,):
            raise ValueError(
                f"demand has shape {demand.shape}, expected ({self.n},)"
            )
        demand.flags.writeable = False
        object.__setattr__(self, "demand", demand)


def _stacked(problem: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """View a stacked point, or a (..., m * n) stack of them, as (..., m, n)."""
    theta = np.asarray(theta, dtype=float)
    expected = problem.m * problem.n
    if theta.ndim == 0 or theta.shape[-1] != expected:
        raise ValueError(
            f"stacked point has shape {theta.shape}, expected (..., {expected})"
        )
    return theta.reshape(theta.shape[:-1] + (problem.m, problem.n))


def stacked_value(problem: ProblemInstance, theta: np.ndarray):
    """F at a stacked point (a float), or at each point of a leading run
    axis (an array)."""
    blocks = _stacked(problem, theta)
    values = problem.value(blocks, *problem.params)
    return float(values) if blocks.ndim == 2 else np.asarray(values, dtype=float)


def stacked_gradient(problem: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """Stacked gradient, shaped like theta (a leading run axis is kept)."""
    blocks = _stacked(problem, theta)
    return problem.grad(blocks, *problem.params).reshape(blocks.shape[:-2] + (-1,))


def hessian_blocks(problem: ProblemInstance, theta: np.ndarray) -> np.ndarray:
    """Per-agent Hessian blocks, shape (..., m, n, n)."""
    return problem.hess(_stacked(problem, theta), *problem.params)


def lipschitz_constants(problem: ProblemInstance) -> tuple:
    """Global (gradient, Hessian) Lipschitz bounds: the max over agents."""
    return problem.lip_grad, problem.lip_hess


def _diagonal_blocks(diag: np.ndarray) -> np.ndarray:
    """(..., m, n) diagonals as (..., m, n, n) Hessian blocks."""
    n = diag.shape[-1]
    out = np.zeros(diag.shape + (n,))
    idx = np.arange(n)
    out[..., idx, idx] = diag
    return out


# ---------------------------------------------------------------------------
# quadratic: f_i(t) = 0.5 a_i ||t||^2 + c_i' t, params a (m, 1), c (m, n)


def _quadratic_value(blocks, a, c):
    return (0.5 * a * blocks * blocks + c * blocks).sum(axis=(-2, -1))


def _quadratic_grad(blocks, a, c):
    return a * blocks + c


def _quadratic_hess(blocks, a, c):
    return _diagonal_blocks(np.broadcast_to(a, blocks.shape))


def quadratic_problem(a_values, demand, c_values=None) -> ProblemInstance:
    """Independent quadratics 0.5 a_i ||t||^2 + c_i' t over a common demand.

    ``a_values`` is a length-m array of positive scalars; ``c_values`` an
    optional (m, n) array. n is taken from the demand vector. Agent i's
    minimum is -||c_i||^2 / (2 a_i), at -c_i / a_i.
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
    return ProblemInstance(
        m=m,
        n=n,
        demand=demand,
        params=(a[:, None], c),
        value=_quadratic_value,
        grad=_quadratic_grad,
        hess=_quadratic_hess,
        lip_grad=float(a.max()),
        lip_hess=0.0,
        global_min_sum=float(-0.5 * ((c * c).sum(axis=1) / a).sum()),
    )


# ---------------------------------------------------------------------------
# smart grid: f_i(t) = a_i ||t||^2 - b_i sum_j log(1 + t_j^2), params a, b (m, 1)


def _smart_grid_value(blocks, a, b):
    sq = blocks * blocks
    return (a * sq - b * np.log1p(sq)).sum(axis=(-2, -1))


def _smart_grid_grad(blocks, a, b):
    return 2.0 * a * blocks - 2.0 * b * blocks / (1.0 + blocks * blocks)


def _smart_grid_hess(blocks, a, b):
    sq = blocks * blocks
    return _diagonal_blocks(2.0 * a - 2.0 * b * (1.0 - sq) / (1.0 + sq) ** 2)


def _smart_grid_min_1d(a: float, b: float) -> float:
    # Critical points: t = 0 and t^2 = b/a - 1 (the latter only when b > a).
    if b <= a:
        return 0.0
    return b - a - b * math.log(b / a)


def smart_grid_problem(a_values, b_values, demand=0.0, agent_dim: int = 1) -> ProblemInstance:
    """Generation cost minus user satisfaction,
    f_i(t) = a_i ||t||^2 - b_i sum_j log(1 + t_j^2), over a common demand.

    Coercive for a_i > 0. When b_i > a_i the origin is a strict local
    maximum along every coordinate (curvature 2a - 2b < 0) and the minima
    sit at t_j^2 = b/a - 1. Gradient Lipschitz bound 2a + 2b; the third
    derivative 4 b t (3 - t^2) / (1 + t^2)^3 peaks below 3 b in absolute
    value, so 4 b is a valid Hessian Lipschitz bound.
    """
    a = np.asarray(a_values, dtype=float).reshape(-1)
    b = np.asarray(b_values, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise ValueError(f"a and b differ in length: {a.shape} vs {b.shape}")
    if np.any(a <= 0):
        raise ValueError(f"need a > 0, got min a={a.min()}")
    if np.any(b < 0):
        raise ValueError(f"need b >= 0, got min b={b.min()}")
    n = agent_dim
    return ProblemInstance(
        m=a.shape[0],
        n=n,
        demand=np.broadcast_to(np.atleast_1d(np.asarray(demand, dtype=float)), (n,)),
        params=(a[:, None], b[:, None]),
        value=_smart_grid_value,
        grad=_smart_grid_grad,
        hess=_smart_grid_hess,
        lip_grad=float((2.0 * a + 2.0 * b).max()),
        lip_hess=float((4.0 * b).max()),
        global_min_sum=float(sum(n * _smart_grid_min_1d(ai, bi) for ai, bi in zip(a, b))),
    )


# ---------------------------------------------------------------------------
# portfolio: f_i(t) = -mu_i' t + rw_i t' cov_i t + lw_i sum_j log(1 + t_j^2),
# params mu (m, n), cov (m, n, n), rw (m,), lw (m,)


def _portfolio_value(blocks, mu, cov, rw, lw):
    risk = np.einsum("...ij,ijk,...ik->...i", blocks, cov, blocks)
    return (
        -(mu * blocks).sum(axis=-1) + rw * risk
        + lw * np.log1p(blocks * blocks).sum(axis=-1)
    ).sum(axis=-1)


def _portfolio_grad(blocks, mu, cov, rw, lw):
    return (
        -mu
        + 2.0 * rw[:, None] * (cov @ blocks[..., None])[..., 0]
        + 2.0 * lw[:, None] * blocks / (1.0 + blocks * blocks)
    )


def _portfolio_hess(blocks, mu, cov, rw, lw):
    sq = blocks * blocks
    out = np.broadcast_to(2.0 * rw[:, None, None] * cov, blocks.shape + (cov.shape[-1],)).copy()
    idx = np.arange(cov.shape[-1])
    out[..., idx, idx] += 2.0 * lw[:, None] * (1.0 - sq) / (1.0 + sq) ** 2
    return out


def portfolio_problem(mu, cov, risk_weights, log_weights, demand) -> ProblemInstance:
    """Negative return plus quadratic risk plus a non-convex log penalty
    over a common demand; mu is (m, n), cov is (m, n, n), the weights are
    length m.

    Every cov_i must be symmetric positive definite and every risk weight
    positive, so each f_i is coercive; log weights >= 0 scale the
    concave-at-the-origin term. ``global_min_sum`` is left unset (no
    closed form); see ``estimate_global_min_sum``.
    """
    mu = np.asarray(mu, dtype=float)
    cov = np.asarray(cov, dtype=float)
    rw = np.asarray(risk_weights, dtype=float).reshape(-1)
    lw = np.asarray(log_weights, dtype=float).reshape(-1)
    m, n = mu.shape
    if cov.shape != (m, n, n) or rw.shape != (m,) or lw.shape != (m,):
        raise ValueError("parameter shapes disagree")
    if not np.allclose(cov, np.swapaxes(cov, -1, -2)):
        raise ValueError("covariance must be symmetric")
    eigvals = np.linalg.eigvalsh(cov)
    if np.any(eigvals[:, 0] <= 0):
        raise ValueError(
            f"covariance must be positive definite, min eigenvalue {eigvals[:, 0].min():g}"
        )
    if np.any(rw <= 0):
        raise ValueError(f"need risk_weight > 0, got min {rw.min()}")
    if np.any(lw < 0):
        raise ValueError(f"need log_weight >= 0, got min {lw.min()}")
    return ProblemInstance(
        m=m,
        n=n,
        demand=np.broadcast_to(np.atleast_1d(np.asarray(demand, dtype=float)), (n,)),
        params=(mu, cov, rw, lw),
        value=_portfolio_value,
        grad=_portfolio_grad,
        hess=_portfolio_hess,
        lip_grad=float((2.0 * rw * eigvals[:, -1] + 2.0 * lw).max()),
        lip_hess=float((4.0 * lw).max()),
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


# ---------------------------------------------------------------------------
# the family table: config files and scenarios build every problem through it


class Family(NamedTuple):
    """Parameter ``fields`` in the order ``draw(m, n, rng)`` returns them,
    the first one's leading axis counting agents; the ``optional`` ones;
    the ``dim_field`` whose second axis (1 if it has none) is the agent
    dimension n; ``build(demand, **params)`` on a length-n demand."""

    fields: tuple
    optional: tuple
    dim_field: str | None
    draw: Callable
    build: Callable

    def draw_params(self, m: int, n: int, rng: np.random.Generator) -> dict:
        return dict(zip(self.fields, self.draw(m, n, rng)))


FAMILIES = {
    "quadratic": Family(
        ("a", "c"), ("c",), "c", lambda m, n, rng: (rng.uniform(0.5, 1.5, size=m),),
        lambda demand, a, c=None: quadratic_problem(a, demand, c_values=c),
    ),
    "smart_grid": Family(
        ("a", "b"), (), None, lambda m, n, rng: sample_smart_grid_params(m, rng),
        lambda demand, a, b: smart_grid_problem(a, b, demand, agent_dim=demand.shape[0]),
    ),
    "portfolio": Family(
        ("mu", "cov", "risk_weights", "log_weights"), (), "mu", sample_portfolio_params,
        lambda demand, **params: portfolio_problem(demand=demand, **params),
    ),
}


def estimate_global_min_sum(problem: ProblemInstance) -> float:
    """Estimate the sum of unconstrained per-agent minima numerically.

    Multistart modified Newton on all agents at once, from the origin, the
    axis points at +-5 and six uniform draws from ``default_rng(i)`` for
    agent i. A pass steps along -|H|^-1 g (|H|: each Hessian block with
    |eigenvalues| clamped at 1e-12), halving a start's step until F falls
    enough (Armijo), until no start's g'|H|^-1 g exceeds 1e-15 (1 + |F|),
    about what F resolves. Each agent's best value bounds its minimum above."""
    m, n, params = problem.m, problem.n, problem.params
    fixed = np.vstack([np.zeros((1, n)), 5.0 * np.eye(n), -5.0 * np.eye(n)])
    draws = [np.random.default_rng(i).uniform(-5.0, 5.0, size=(6, n)) for i in range(m)]
    points = np.stack([np.vstack([fixed, d]) for d in draws], axis=1)
    values = problem.value(points, *params)
    for _ in range(100):
        grad = problem.grad(points, *params)
        eigvals, vecs = np.linalg.eigh(problem.hess(points, *params))
        inverse = vecs / np.maximum(np.abs(eigvals), 1e-12)[..., None, :]
        step = -np.einsum("...ij,...kj,...k->...i", inverse, vecs, grad)
        decrement = -(grad * step).sum(axis=(-2, -1))
        if np.all(decrement <= 1e-15 * (1.0 + np.abs(values))):
            break
        alpha = np.ones(len(points))
        for _ in range(60):
            trial = points + alpha[:, None, None] * step
            trial_values = problem.value(trial, *params)
            ok = trial_values <= values - 1e-4 * alpha * decrement
            if ok.all():
                break
            alpha = np.where(ok, alpha, 0.5 * alpha)
        points = np.where(ok[:, None, None], trial, points)
        values = np.where(ok, trial_values, values)
    best = [problem.value(points[:, [i]], *(p[[i]] for p in params)).min() for i in range(m)]
    return float(sum(best))


# ---------------------------------------------------------------------------
# derivative checking


def fd_check(problem: ProblemInstance, theta: np.ndarray, step: float = 1e-5) -> tuple:
    """Central-difference check of the stacked gradient and the Hessian
    blocks at one stacked point.

    Returns relative errors (||fd - analytic|| / (1 + ||analytic||)) for
    the gradient against differenced values and the block-diagonal
    Hessian against the differenced gradient, which also catches
    coupling between agents.
    """
    theta = np.asarray(theta, dtype=float)
    offsets = step * np.eye(theta.size)
    grad_fd = (stacked_value(problem, theta + offsets) - stacked_value(problem, theta - offsets)) / (2 * step)
    hess_fd = (stacked_gradient(problem, theta + offsets) - stacked_gradient(problem, theta - offsets)) / (2 * step)
    hess_fd = (hess_fd + hess_fd.T) / 2.0

    grad_an = stacked_gradient(problem, theta)
    m, n = problem.m, problem.n
    hess_an = np.zeros((m, n, m, n))
    agents = np.arange(m)
    hess_an[agents, :, agents, :] = hessian_blocks(problem, theta)
    hess_an = hess_an.reshape(m * n, m * n)
    grad_err = np.linalg.norm(grad_fd - grad_an) / (1.0 + np.linalg.norm(grad_an))
    hess_err = np.linalg.norm(hess_fd - hess_an) / (1.0 + np.linalg.norm(hess_an))
    return float(grad_err), float(hess_err)
