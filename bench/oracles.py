"""Independent oracles and output checks for the lapgd benchmark.

Nothing here calls the package's network operator or certifier. The
oracles recompute what the program reports by another route:

- the projected gradient in edge form, since ||S g||^2 = g' L g is the
  sum of ||g_i - g_j||^2 over the graph's edges;
- the smallest tangent curvature on an orthonormal basis of the
  zero-block-sum subspace built here by QR, not the package's Helmert
  basis;
- for n = 1, that same curvature as the smallest root of the secular
  equation sum_i 1 / (h_i - mu) = 0, which lies between the two smallest
  diagonal Hessian entries (Golub, SIAM Review 1973); O(m) instead of a
  dense (m-1)-dimensional eigensolve;
- lambda_2 and lambda_max from ARPACK (scipy.sparse.linalg.eigsh) on a
  sparse Laplacian assembled here from the graph's edge list.

Each check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.sparse.linalg


def edge_projected_grad(grad_blocks: np.ndarray, edges) -> float:
    """sqrt(sum over edges (i, j) of ||g_i - g_j||^2) for (m, n) gradients."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    diff = grad_blocks[pairs[:, 0]] - grad_blocks[pairs[:, 1]]
    return float(math.sqrt(float((diff * diff).sum())))


def tangent_projection(grad_blocks: np.ndarray) -> np.ndarray:
    """Euclidean projection of (m, n) blocks onto zero block sum."""
    return grad_blocks - grad_blocks.mean(axis=0)


def complement_basis(m: int) -> np.ndarray:
    """Orthonormal basis of the complement of the all-ones vector in R^m,
    shape (m, m - 1), from the QR factor of [1, e_1, ..., e_{m-1}]."""
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    spanning = np.column_stack([np.ones(m), np.eye(m)[:, : m - 1]])
    q, _ = np.linalg.qr(spanning)
    return q[:, 1:]


def dense_tangent_curvature(hess_blocks: np.ndarray) -> float:
    """Smallest eigenvalue of blockdiag(H_1..H_m) restricted to zero block
    sum, via U' H U with U = complement_basis(m) (x) I_n."""
    m, n, _ = hess_blocks.shape
    u = complement_basis(m)
    restricted = np.einsum("ip,iq,iab->paqb", u, u, hess_blocks)
    restricted = restricted.reshape((m - 1) * n, (m - 1) * n)
    return float(np.linalg.eigvalsh((restricted + restricted.T) / 2.0)[0])


def secular_tangent_curvature(diag: np.ndarray) -> float:
    """Smallest eigenvalue of diag(h) restricted to the complement of the
    all-ones vector: the root of sum 1 / (h_i - mu) between the two
    smallest h_i, or h_1 itself when the two smallest coincide."""
    h = np.sort(np.asarray(diag, dtype=float).reshape(-1))
    if h.size < 2:
        raise ValueError("need at least two entries")
    lo_h, hi_h = float(h[0]), float(h[1])
    gap = hi_h - lo_h
    if gap <= 4.0 * np.finfo(float).eps * max(1.0, abs(lo_h), abs(hi_h)):
        return lo_h

    def secular(mu):
        return float(np.sum(1.0 / (h - mu)))

    # The secular function rises from -inf just above h_1 to +inf just
    # below h_2; shrink the bracket's ends inward until both signs show.
    shrink = 1e-3
    while True:
        lo, hi = lo_h + shrink * gap, hi_h - shrink * gap
        if secular(lo) < 0.0 < secular(hi):
            break
        if shrink < 1e-15:
            return lo_h if secular(lo) >= 0.0 else hi_h
        shrink *= 1e-3
    root = scipy.optimize.brentq(
        secular, lo, hi, xtol=1e-15 * max(1.0, abs(lo_h)), rtol=4 * np.finfo(float).eps, maxiter=500
    )
    return float(root)


def tangent_curvature(hess_blocks: np.ndarray) -> float:
    """Secular root for n = 1, the dense QR-basis route otherwise."""
    m, n, _ = hess_blocks.shape
    if n == 1:
        return secular_tangent_curvature(hess_blocks[:, 0, 0])
    return dense_tangent_curvature(hess_blocks)


def sparse_laplacian(m: int, edges) -> scipy.sparse.csr_matrix:
    """L = D - A assembled from an undirected edge list."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    i, j = pairs[:, 0], pairs[:, 1]
    ones = np.ones(len(pairs))
    adjacency = scipy.sparse.coo_matrix(
        (np.concatenate([ones, ones]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(m, m),
    ).tocsr()
    degree = np.asarray(adjacency.sum(axis=1)).reshape(-1)
    return (scipy.sparse.diags(degree) - adjacency).tocsr()


def laplacian_extremes(m: int, edges) -> tuple:
    """(lambda_2, lambda_max) of the graph Laplacian by ARPACK: the largest
    directly, lambda_2 by shift-invert just below zero."""
    lap = sparse_laplacian(m, edges)
    top = scipy.sparse.linalg.eigsh(lap, k=1, which="LA", tol=0.0, return_eigenvectors=False)
    v0 = np.random.default_rng(0).standard_normal(m)
    bottom = scipy.sparse.linalg.eigsh(
        lap, k=2, sigma=-1e-3, which="LM", tol=0.0, v0=v0, return_eigenvectors=False
    )
    return float(np.sort(bottom)[1]), float(top[0])


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages


def close(reported: float, oracle: float, rtol: float, atol: float) -> bool:
    return bool(abs(reported - oracle) <= atol + rtol * abs(oracle))


def block_sum_residual(theta, demand) -> float:
    """|| sum of the blocks of theta - demand ||."""
    demand = np.atleast_1d(np.asarray(demand, dtype=float))
    sums = np.asarray(theta, dtype=float).reshape(-1, demand.shape[0]).sum(axis=0)
    return float(np.linalg.norm(sums - demand))


def check_feasible(label, theta, demand, feas_tol) -> list:
    """Block sums equal demand within the program's own tolerance."""
    residual = block_sum_residual(theta, demand)
    if not residual <= feas_tol:
        return [f"{label}: block sums miss demand by {residual:.3e} > {feas_tol:.3e}"]
    return []


def check_reported(label, name, reported, oracle, rtol, atol) -> list:
    if not close(float(reported), float(oracle), rtol, atol):
        return [f"{label}: reported {name} {reported!r} disagrees with oracle {oracle!r}"]
    return []


def check_derivatives(label, value_fn, grad_fn, hess_fn, theta, m, n, rng) -> list:
    """Central differences along one random tangent direction: the
    gradient against the value, the Hessian blocks against the gradient.
    These are what the oracles above take from the program."""
    theta = np.asarray(theta, dtype=float)
    direction = tangent_projection(rng.standard_normal((m, n))).reshape(-1)
    direction /= np.linalg.norm(direction)
    step = 1e-4 * (1.0 + float(np.abs(theta).max()))
    grad = grad_fn(theta)
    slope_fd = (value_fn(theta + step * direction) - value_fn(theta - step * direction)) / (2 * step)
    slope = float(grad @ direction)
    failures = []
    # rounding in the value difference scales with |F| / step
    slope_tol = 1e-5 * (1.0 + abs(slope)) + 1e-12 * (1.0 + abs(value_fn(theta))) / step
    if not abs(slope_fd - slope) <= slope_tol:
        failures.append(f"{label}: gradient slope {slope!r} vs central difference {slope_fd!r}")
    curv_fd = (grad_fn(theta + step * direction) - grad_fn(theta - step * direction)) / (2 * step)
    blocks = direction.reshape(m, n)
    curv = np.einsum("iab,ib->ia", hess_fn(theta), blocks).reshape(-1)
    if not np.linalg.norm(curv_fd - curv) <= 1e-5 * (1.0 + np.linalg.norm(curv)):
        failures.append(f"{label}: Hessian blocks disagree with central differences of the gradient")
    return failures


def check_local_min(label, grad_blocks, curvature, lip_hess) -> list:
    """Noiseless runs end at a strict local minimum on the feasible set.

    With tangent curvature mu > 0 at theta and a Hessian that is
    lip_hess-Lipschitz, a tangent gradient below mu^2 / (4 lip_hess)
    puts a strict local minimizer within 2 ||P g|| / mu of theta: on that
    ball the restricted Hessian stays above mu / 2, enough for the
    gradient at the centre to be cancelled inside it.
    """
    tangent_grad = float(np.linalg.norm(tangent_projection(grad_blocks)))
    if not curvature > 0.0:
        return [f"{label}: noiseless run ends with tangent curvature {curvature:.3e} <= 0"]
    limit = curvature**2 / (4.0 * lip_hess) if lip_hess > 0 else math.inf
    if not tangent_grad < limit:
        return [
            f"{label}: noiseless run ends with tangent gradient {tangent_grad:.3e}, "
            f"not below mu^2/(4 M) = {limit:.3e}"
        ]
    return []


def check_escaped(label, final_f, f_ref, delta) -> list:
    """Noisy runs end below the saddle value by more than the escape margin."""
    if not final_f < f_ref - delta:
        return [f"{label}: noisy run ends at {final_f!r}, not below f_ref - delta = {f_ref - delta!r}"]
    return []


def check_rises(name, means) -> list:
    """Values listed in order of increasing sigma rise strictly."""
    values = list(means)
    if not all(a < b for a, b in zip(values, values[1:])):
        return [f"{name}: means {values} do not rise with sigma"]
    return []


def check_spectrum(label, reported: tuple, oracle: tuple, rtol: float = 1e-9) -> list:
    failures = []
    for name, rep, ref in zip(("lambda_2", "lambda_max"), reported, oracle):
        failures += check_reported(label, name, rep, ref, rtol, rtol)
    return failures
