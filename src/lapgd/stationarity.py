"""Optimality certification for coupled allocation problems.

A point theta is feasible when its blocks sum to the demand vector.
Among feasible points, first-order stationarity is measured by the
projected gradient ||S (x) I_n grad F(theta)|| with S the Laplacian
square root: it vanishes exactly when the local gradients agree across
agents, which is the constrained first-order condition. Second-order
quality is measured by the smallest curvature of the Hessian over the
tangent space T = {d : blocks of d sum to zero}, which a Householder
reflector turns into a closed form in the per-agent Hessian blocks: no
basis of T is stored.

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


def default_feas_tol(demand: np.ndarray) -> float:
    return 1e-8 * (1.0 + float(np.linalg.norm(demand)))


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis. One BLAS dot per row, so each
    value is the one np.linalg.norm gives that row alone."""
    flat = rows.reshape(-1, rows.shape[-1])
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0]).reshape(rows.shape[:-1])


def feasibility_residual(theta: np.ndarray, demand: np.ndarray):
    """|| sum of blocks - demand ||; the block size is len(demand). A
    leading run axis on theta gives one value per run."""
    theta = np.asarray(theta, dtype=float)
    demand = np.atleast_1d(np.asarray(demand, dtype=float))
    norms = row_norms(block_sum(theta, demand.shape[0]) - demand)
    return float(norms) if theta.ndim == 1 else norms


def projected_grad_norm(theta: np.ndarray, problem: ProblemInstance, net: NetworkOperator):
    """||S (x) I_n grad F(theta)||; a leading run axis on theta gives one
    value per run."""
    theta = np.asarray(theta, dtype=float)
    grad = stacked_gradient(problem, theta)
    norms = row_norms(apply_lifted(net.sqrt_laplacian, grad, problem.n))
    return float(norms) if theta.ndim == 1 else norms


# Stacked curvature solves go in groups of runs whose restricted Hessians
# hold at most this many values together, so memory stays near that of
# a single solve however many runs a stack has.
CURVATURE_GROUP = 1 << 15


def tangent_min_curvature(theta: np.ndarray, problem: ProblemInstance):
    """Smallest eigenvalue of the Hessian restricted to the tangent space.

    With u = ones / sqrt(m) and v = (u - e_m) / ||u - e_m||, the
    Householder reflector W = I - 2 v v' maps u to e_m, so its first m - 1
    columns, lifted by I_n, are an orthonormal basis of T. Block (i, j)
    of (W (x) I) H (W (x) I) is delta_ij H_i + v_i v_j (4K - 2H_i - 2H_j)
    with K = sum_k v_k^2 H_k (Golub, SIAM Rev. 1973), and its leading
    m - 1 block rows and columns, formed in O(m^2 n^2), are solved
    densely. Needs m >= 2. A leading run axis on theta gives one value per
    run (an array), each bitwise its one-run value; a point gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    m, n = problem.m, problem.n
    if theta.ndim == 0 or theta.shape[-1] != m * n:
        raise ValueError(f"stacked point has shape {theta.shape}, expected (..., {m * n})")
    if m < 2:
        raise ValueError(f"the tangent space needs m >= 2 agents, got m={m}")
    blocks = hessian_blocks(problem, theta.reshape(-1, m * n))
    blocks = 0.5 * (blocks + np.swapaxes(blocks, -1, -2))
    s = 1.0 / math.sqrt(m)
    weights = np.full(m, s * s / (2.0 * (1.0 - s)))  # v_k^2
    weights[-1] = (1.0 - s) / 2.0
    k = np.matmul(weights, blocks.reshape(-1, m, n * n)).reshape(-1, 1, n, n)
    # v_i v_j = weights[0] for i, j < m: block (i, j) is delta_ij H_i + g_i + g_j
    g = (2.0 * weights[0]) * (k - blocks[:, :-1])
    diag = np.arange(m - 1)
    size = (m - 1) * n
    group = max(1, CURVATURE_GROUP // size**2)
    lowest = np.empty(len(blocks))
    for start in range(0, len(blocks), group):
        part = slice(start, start + group)
        # restricted[r, i, a, j, b] is entry (a, b) of block (i, j)
        restricted = g[part, :, :, None, :] + np.swapaxes(g[part], 1, 2)[:, None]
        restricted[:, diag, :, diag, :] += np.swapaxes(blocks[part, :-1], 0, 1)
        lowest[part] = np.linalg.eigvalsh(restricted.reshape(-1, size, size))[:, 0]
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
