"""Optimality certification for coupled allocation problems.

A point theta is feasible when its blocks sum to the demand vector.
Among feasible points, first-order stationarity is measured by the
projected gradient ||S (x) I_n grad F(theta)|| with S the Laplacian
square root: it vanishes exactly when the local gradients agree across
agents, which is the constrained first-order condition. Second-order
quality is measured by the smallest curvature of the Hessian over the
tangent space T = {d : blocks of d sum to zero}.

The auxiliary route certifies in the substituted coordinates instead:
the auxiliary gradient is S-lifted and the auxiliary Hessian is the
two-sided sandwich S H S of the block-diagonal Hessian. A certificate
(eps, gamma) there transfers to an (eps, gamma / lambda_min_plus)
certificate at the corresponding allocation, lambda_min_plus being the
smallest positive Laplacian eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .network import NetworkOperator, apply_lifted, block_sum
from .objectives import (
    ProblemInstance,
    hessian_blocks,
    stacked_gradient,
)


class Classification(str, Enum):
    INFEASIBLE = "infeasible"
    NOT_STATIONARY = "not_stationary"
    FIRST_ORDER_ONLY = "first_order_only"
    SECOND_ORDER = "second_order"


@dataclass(frozen=True)
class StationarityReport:
    """Measured residuals, the thresholds they were judged against, and
    the resulting classification."""

    feasibility_residual: float
    projected_grad_norm: float
    tangent_min_curvature: float
    classification: Classification
    eps: float
    gamma: float
    feas_tol: float


@dataclass(frozen=True)
class AuxCertificate:
    """Auxiliary-coordinate check: gradient norm, smallest Hessian
    eigenvalue, and whether both met their tolerances."""

    grad_norm: float
    min_eigenvalue: float
    passed: bool


def default_feas_tol(demand: np.ndarray) -> float:
    return 1e-8 * (1.0 + float(np.linalg.norm(demand)))


def feasibility_residual(theta: np.ndarray, demand: np.ndarray) -> float:
    """|| sum of blocks - demand ||; the block size is len(demand)."""
    demand = np.atleast_1d(np.asarray(demand, dtype=float))
    return float(np.linalg.norm(block_sum(np.asarray(theta, dtype=float), demand.shape[0]) - demand))


def projected_grad_norm(theta: np.ndarray, problem: ProblemInstance, net: NetworkOperator) -> float:
    grad = stacked_gradient(problem, theta)
    return float(np.linalg.norm(apply_lifted(net.sqrt_laplacian, grad, problem.n)))


@lru_cache(maxsize=32)
def tangent_basis(m: int, n: int) -> np.ndarray:
    """Orthonormal basis of the zero-block-sum subspace, shape (mn, (m-1)n).

    Columns are the lifted Helmert vectors: column block j has weight
    1/sqrt(j(j+1)) on the first j agents and -j/sqrt(j(j+1)) on agent j,
    each tensored with I_n. Computed once per (m, n) and cached.
    """
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    helmert = np.zeros((m, m - 1))
    for j in range(1, m):
        scale = 1.0 / math.sqrt(j * (j + 1))
        helmert[:j, j - 1] = scale
        helmert[j, j - 1] = -j * scale
    basis = np.kron(helmert, np.eye(n))
    basis.flags.writeable = False
    return basis


# Stacked curvature solves go in groups of runs whose restricted Hessians
# hold at most this many values together, so memory stays near that of
# a single solve however many runs a stack has.
CURVATURE_GROUP = 1 << 15


def _lowest_restricted(points: np.ndarray, problem: ProblemInstance, q: np.ndarray) -> np.ndarray:
    m, n = problem.m, problem.n
    blocks = hessian_blocks(problem, points)
    hq = (blocks @ q.reshape(m, n, -1)).reshape((len(points),) + q.shape)
    restricted = q.T @ hq
    del hq
    restricted += np.swapaxes(restricted, -1, -2)
    restricted *= 0.5
    return np.linalg.eigvalsh(restricted)[:, 0]


def tangent_min_curvature(theta: np.ndarray, problem: ProblemInstance):
    """Smallest eigenvalue of the Hessian restricted to the tangent space.

    The Hessian is block diagonal, so the restriction Q' (H Q) is formed
    from the per-agent Hessians and the cached basis by two BLAS products,
    then solved densely. A leading run axis on theta gives one value per
    run (an array) from stacked solves; a single point gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    m, n = problem.m, problem.n
    if theta.ndim == 0 or theta.shape[-1] != m * n:
        raise ValueError(f"stacked point has shape {theta.shape}, expected (..., {m * n})")
    q = tangent_basis(m, n)
    points = theta.reshape(-1, m * n)
    group = max(1, CURVATURE_GROUP // q.shape[1] ** 2)
    lowest = np.concatenate(
        [
            _lowest_restricted(points[k : k + group], problem, q)
            for k in range(0, len(points), group)
        ]
    )
    return float(lowest[0]) if theta.ndim == 1 else lowest.reshape(theta.shape[:-1])


@dataclass(frozen=True)
class Measurement:
    """The three numbers a certificate is judged on."""

    feasibility_residual: float
    projected_grad_norm: float
    tangent_min_curvature: float


def measure(theta: np.ndarray, problem: ProblemInstance, net: NetworkOperator) -> Measurement:
    """Feasibility residual, projected gradient and tangent curvature at
    theta. Non-finite allocations raise ValueError: they have no
    meaningful residuals, and every comparison with NaN is false."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("allocation has non-finite values")
    return Measurement(
        feasibility_residual=feasibility_residual(theta, problem.demand),
        projected_grad_norm=projected_grad_norm(theta, problem, net),
        tangent_min_curvature=tangent_min_curvature(theta, problem),
    )


def judge(
    measured: Measurement, eps: float, gamma: float, feas_tol: float
) -> StationarityReport:
    """Judge measured residuals against feasibility, an eps bound on the
    projected gradient, and a -gamma floor on tangent curvature. All
    comparisons are inclusive, so boundary values pass."""
    if measured.feasibility_residual > feas_tol:
        label = Classification.INFEASIBLE
    elif measured.projected_grad_norm > eps:
        label = Classification.NOT_STATIONARY
    elif measured.tangent_min_curvature >= -gamma:
        label = Classification.SECOND_ORDER
    else:
        label = Classification.FIRST_ORDER_ONLY

    return StationarityReport(
        feasibility_residual=measured.feasibility_residual,
        projected_grad_norm=measured.projected_grad_norm,
        tangent_min_curvature=measured.tangent_min_curvature,
        classification=label,
        eps=float(eps),
        gamma=float(gamma),
        feas_tol=float(feas_tol),
    )


def classify(
    theta: np.ndarray,
    problem: ProblemInstance,
    net: NetworkOperator,
    eps: float,
    gamma: float,
    feas_tol: float | None = None,
) -> StationarityReport:
    """Measure theta and judge it (see ``measure`` and ``judge``);
    non-finite allocations raise ValueError."""
    if feas_tol is None:
        feas_tol = default_feas_tol(problem.demand)
    return judge(measure(theta, problem, net), eps, gamma, feas_tol)


def aux_hessian(theta: np.ndarray, problem: ProblemInstance, net: NetworkOperator) -> np.ndarray:
    """Dense (mn, mn) sandwich S H S of the block-diagonal Hessian at
    theta, assembled without forming the lifted S."""
    blocks = hessian_blocks(problem, theta)
    s = net.sqrt_laplacian
    mn = problem.m * problem.n
    sandwich = np.einsum("ik,kj,kab->iajb", s, s, blocks).reshape(mn, mn)
    return (sandwich + sandwich.T) / 2.0


def aux_second_order_check(
    aux_x: np.ndarray,
    theta_start: np.ndarray,
    problem: ProblemInstance,
    net: NetworkOperator,
    grad_tol: float,
    curv_tol: float,
) -> AuxCertificate:
    """Certify a point of the auxiliary problem anchored at theta_start.

    Evaluates at theta = theta_start + S-lift of aux_x: the auxiliary
    gradient norm is the projected gradient there and the auxiliary
    Hessian is the S H S sandwich. Passes when the norm is within
    grad_tol and the smallest eigenvalue is at least -curv_tol.
    """
    theta_start = np.asarray(theta_start, dtype=float)
    theta = theta_start + apply_lifted(net.sqrt_laplacian, np.asarray(aux_x, dtype=float), problem.n)
    grad_norm = projected_grad_norm(theta, problem, net)
    min_eig = float(np.linalg.eigvalsh(aux_hessian(theta, problem, net))[0])
    passed = grad_norm <= grad_tol and min_eig >= -curv_tol
    return AuxCertificate(grad_norm=grad_norm, min_eigenvalue=min_eig, passed=passed)


def transfer_certificate(grad_tol: float, curv_tol: float, net: NetworkOperator) -> tuple:
    """Map an auxiliary (grad_tol, curv_tol) certificate to the tolerances
    it guarantees for the allocation itself: the gradient tolerance
    carries over and the curvature tolerance weakens by 1/lambda_min_plus.
    Requires curv_tol >= 0."""
    if curv_tol < 0:
        raise ValueError(f"need curv_tol >= 0, got {curv_tol}")
    if net.lambda_min_plus <= 0:
        raise ValueError("network operator has no positive spectral gap")
    return float(grad_tol), float(curv_tol) / net.lambda_min_plus


def format_report(report: StationarityReport) -> str:
    """Flat key-value text block, one field per line."""
    lines = [
        f"feasibility_residual: {report.feasibility_residual!r}",
        f"projected_grad_norm: {report.projected_grad_norm!r}",
        f"tangent_min_curvature: {report.tangent_min_curvature!r}",
        f"classification: {report.classification.value}",
        f"eps: {report.eps!r}",
        f"gamma: {report.gamma!r}",
        f"feas_tol: {report.feas_tol!r}",
    ]
    return "\n".join(lines)
