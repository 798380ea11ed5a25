"""Optimality certification for coupled allocation problems.

A point theta is feasible when its blocks sum to the demand vector.
Among feasible points, first-order stationarity is measured by the
projected gradient ||B (x) I_n grad F(theta)|| with B the edge-by-node
incidence factor of the Laplacian L = B' B (the same number as with the
Laplacian square root S in place of B): the differences of the local
gradients across the edges, which vanish exactly when the local
gradients agree across agents, the constrained first-order condition. Second-order
quality is measured by the smallest curvature of the Hessian over the
tangent space T = {d : blocks of d sum to zero}. No basis of T is
formed: inertia counts of the bordered matrix
[[H - mu I, 1 (x) I], [1' (x) I, 0]], taken through n x n Schur
complements of the per-agent eigendecompositions (one row larger per
pole a trial point sits close to), bracket that curvature between the
interlacing bounds lambda_1(H) and lambda_{n+1}(H), and the lower end of
the bracket is reported.

The auxiliary route certifies in the substituted coordinates instead:
the auxiliary gradient is S-lifted and the auxiliary Hessian is the
two-sided sandwich S H S of the block-diagonal Hessian. A certificate
(eps, gamma) there transfers to an (eps, gamma / lambda_min_plus)
certificate at the corresponding allocation, lambda_min_plus being the
smallest positive Laplacian eigenvalue.
"""

from __future__ import annotations

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
    """||B (x) I_n grad F(theta)||, the norm of the edge differences of
    the local gradients; a leading run axis on theta gives one value per
    run."""
    theta = np.asarray(theta, dtype=float)
    grad = stacked_gradient(problem, theta)
    norms = row_norms(apply_lifted(net.incidence, grad, problem.n))
    return float(norms) if theta.ndim == 1 else norms


# The first pass counts at seven evenly spaced points of the interlacing
# bracket, each later one at centre + spread * _SIDES.
_FIRST = np.arange(1, 8) / 8.0
_SIDES = np.array([-1.0, 0.0, 1.0])


def tangent_min_curvature(theta: np.ndarray, problem: ProblemInstance):
    """Smallest eigenvalue of the Hessian restricted to the tangent space,
    returned as the lower end of a bracket proven by inertia counts.

    The count: with H_i = V_i diag(d_i) V_i' the per-agent blocks, the
    number of restricted eigenvalues below mu is neg(H - mu I) +
    pos(M(mu)) - n, where M(mu) = sum_i V_i diag(1 / (d_i - mu)) V_i' is
    the n x n Schur complement of the bordered matrix
    [[H - mu I, 1 (x) I], [1' (x) I, 0]] (Haynsworth inertia additivity).
    Poles d within (n - 1) max|d| / (256 m) of mu, and any pole mu sits
    on, are kept in the bordered matrix instead of being eliminated (see
    ``_count_and_step``): with n >= 2 a 1 / (d - mu) one ulp from its pole
    swamps the other eigenvalues of M in rounding, and the count there is
    noise. With n = 1 only a pole mu sits on is kept.

    The search: interlacing puts the smallest restricted eigenvalue in
    [lambda_1(H), lambda_{n+1}(H)]. A first pass counts at seven evenly
    spaced points of it; each later pass counts at three points around a
    Halley step on the eigenvalue that crosses zero at the root, spaced by
    the step's expected error, or quarters the bracket when they do not
    fit in it. Every count shrinks the bracket. It stops at a width of
    4 ulp of max|d| and returns the lower end, so no curvature is reported
    that the counts did not prove.

    Needs m >= 2. A leading run axis on theta gives one value per run (an
    array), each bitwise its one-run value; a point gives a float.
    """
    theta = np.asarray(theta, dtype=float)
    m, n = problem.m, problem.n
    if theta.ndim == 0 or theta.shape[-1] != m * n:
        raise ValueError(f"stacked point has shape {theta.shape}, expected (..., {m * n})")
    if m < 2:
        raise ValueError(f"the tangent space needs m >= 2 agents, got m={m}")
    blocks = hessian_blocks(problem, theta.reshape(-1, m * n))
    blocks = 0.5 * (blocks + np.swapaxes(blocks, -1, -2))
    poles, vectors = np.linalg.eigh(blocks)
    runs = len(blocks)
    poles = poles.reshape(runs, m * n)
    # row i * n + a is V_i[:, a], the direction of pole d_ia
    rows = np.swapaxes(vectors, -1, -2).reshape(runs, m * n, n)
    ordered = np.sort(poles, axis=-1)
    # a run whose Hessian is not finite gets NaN: nothing is proven there
    finite = np.isfinite(ordered).all(axis=1)
    lowest = np.where(finite, ordered[:, 0], np.nan)
    scale = np.maximum(-ordered[:, 0], ordered[:, -1])
    live = np.flatnonzero(finite & (ordered[:, n] - lowest > 4.0 * np.finfo(float).eps * scale))
    lo, hi, d, v, scale = lowest[live], ordered[live, n], poles[live], rows[live], scale[live]
    # outer[r, p] is the flattened v_p v_p' of pole p, so that
    # M(mu) = (1 / (d - mu)) @ outer
    outer = (v[..., :, None] * v[..., None, :]).reshape(len(live), m * n, n * n)
    ulp = np.finfo(float).eps * scale
    # Rounding in a pole's term of M, about eps max|d| / |d - mu|, can flip
    # the sign of another eigenvalue of M; poles this close are kept. The
    # 1 / (256 m) is empirical: hard cases (repeated agents, coinciding
    # poles) stay within 5e-15 max|H| of a dense QR solve with it, drift
    # to 1e-13 at 1 / (16384 m), and are wrong by up to 0.06 with only
    # the poles a trial point sits on kept.
    radius = (n - 1) / (256.0 * m) * scale
    spread = np.zeros(len(live))
    stepped = np.zeros(len(live), dtype=bool)
    mu = lo[:, None] + (hi - lo)[:, None] * _FIRST
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while live.size:
            points = mu.shape[1]
            gap = d[:, None, :] - mu[:, :, None]
            kept = np.abs(gap) <= radius[:, None, None]
            inv = 1.0 / gap
            deflate = kept.any()
            if deflate:
                inv[kept] = 0.0
            schur = np.matmul(inv, outer).reshape(-1, n, n)
            square = inv * inv
            dschur = np.matmul(square, outer).reshape(-1, n, n)
            ddschur = np.matmul(square * inv, outer).reshape(-1, n, n)
            gap, kept = gap.reshape(-1, m * n), kept.reshape(-1, m * n)
            if deflate:
                neg = np.add.reduce((gap < 0) & ~kept, axis=-1)
                size = np.add.reduce(kept, axis=-1)
                below, step = np.empty(mu.size, dtype=bool), np.empty(mu.size)
                for c in np.unique(size):
                    at = np.flatnonzero(size == c)
                    which = np.nonzero(kept[at])[1].reshape(len(at), c)
                    border, offset = v[at[:, None] // points, which], gap[at[:, None], which]
                    below[at], step[at] = _count_and_step(
                        schur[at], dschur[at], ddschur[at], neg[at], border, offset
                    )
            else:
                neg = np.add.reduce(gap < 0, axis=-1)
                below, step = _count_and_step(schur, dschur, ddschur, neg)
            below = below.reshape(mu.shape)
            lo = np.maximum(np.maximum.reduce(mu, axis=1, where=below, initial=-np.inf), lo)
            hi = np.minimum(np.minimum.reduce(mu, axis=1, where=~below, initial=np.inf), hi)
            # The next centre is a Halley step from the point with the
            # shortest one. Its error is about |step|^3 / reach^2, reach the
            # distance to the nearest pole not kept; the next points
            # straddle it by four times that, or by four times this pass's
            # spread after a Halley pass that missed the root, within the
            # bracket. When they do not fit, the bracket is quartered.
            best = np.arange(len(mu)) * points + np.abs(step).reshape(mu.shape).argmin(axis=1)
            step = step[best]
            reach = np.maximum(np.abs(gap[best]).min(axis=1), radius)
            width = hi - lo
            guard = 4.0 * np.abs(step) ** 3 / (reach * reach)
            missed = stepped & (width > 2.0 * spread)
            spread = np.maximum(guard, np.where(missed, 4.0 * spread, ulp))
            stepped = 2.0 * spread < width
            centre = np.fmin(np.fmax(mu.reshape(-1)[best] - step, lo + spread), hi - spread)
            centre = np.where(stepped, centre, lo + 0.5 * width)
            spread = np.where(stepped, spread, 0.25 * width)
            mu = centre[:, None] + spread[:, None] * _SIDES
            done = width <= 4.0 * ulp
            if done.any():
                lowest[live[done]] = lo[done]
                keep = ~done
                live, lo, hi = live[keep], lo[keep], hi[keep]
                d, v, outer = d[keep], v[keep], outer[keep]
                ulp, radius, spread, stepped = ulp[keep], radius[keep], spread[keep], stepped[keep]
                mu = mu[keep]
    return float(lowest[0]) if theta.ndim == 1 else lowest.reshape(theta.shape[:-1])


def _count_and_step(schur, dschur, ddschur, neg, border=None, offset=None):
    """Whether each trial point lies below the smallest restricted
    eigenvalue, and a Halley step toward it.

    schur, dschur and ddschur are (N, n, n): M over the eliminated poles,
    its derivative in mu and half its second derivative; neg (N,) counts
    eliminated poles below mu. With c kept poles per point, border (N, c, n)
    holds their directions and offset (N, c) their d - mu; eliminating only
    the other poles leaves K = [[M, border'], [border, -diag(offset)]],
    whose pos(K) stands in for pos(M) exactly (a kept d - mu may be 0).
    The count changes where an eigenvalue of K crosses zero: the largest
    non-positive one below the root, the smallest positive one above it.
    Its slope is u' K' u with K' = [[dM, 0], [0, I]], and its curvature
    u' K'' u + 2 sum_k (u_k' K' u)^2 / (nu - nu_k) over the other
    eigenpairs (nu_k, u_k).
    """
    points, n, _ = schur.shape
    k = schur
    if border is not None:
        c = border.shape[1]
        k = np.zeros((points, n + c, n + c))
        k[:, :n, :n] = schur
        k[:, n:, :n] = border
        k[:, :n, n:] = np.swapaxes(border, 1, 2)
        k[:, np.arange(n, n + c), np.arange(n, n + c)] = -offset
    eig, vec = np.linalg.eigh(k)
    pos = (eig > 0).sum(axis=-1)
    below = neg + pos == n
    rows, crossing = np.arange(points), k.shape[-1] - pos - below
    val, u = eig[rows, crossing], vec[rows, :, crossing, None]
    slope = np.matmul(dschur, u[:, :n])
    if border is not None:
        slope = np.concatenate([slope, u[:, n:]], axis=1)
    rate = (u * slope).sum(axis=(1, 2))
    curvature = 2.0 * (u[:, :n] * np.matmul(ddschur, u[:, :n])).sum(axis=(1, 2))
    if k.shape[-1] > 1:
        coupling = np.matmul(np.swapaxes(vec, 1, 2), slope)[..., 0]
        spacing = val[:, None] - eig
        spacing[rows, crossing] = np.inf
        curvature += 2.0 * (coupling * coupling / spacing).sum(axis=1)
    newton = val / rate
    return below, newton / (1.0 - 0.5 * newton * curvature / rate)


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
