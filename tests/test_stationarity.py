"""Feasibility, projected gradients, tangent curvature, and certificates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag
from scipy.optimize import brentq

from lapgd.network import DENSE_MAX_M, build_laplacian, cycle_graph, path_graph, watts_strogatz
from lapgd.objectives import (
    ProblemInstance,
    hessian_blocks,
    portfolio_problem,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
)
from lapgd.stationarity import (
    Classification,
    Measurement,
    aux_hessian,
    classify,
    default_feas_tol,
    feasibility_residual,
    format_report,
    judge,
    projected_grad_norm,
    tangent_min_curvature,
    transfer_certificate,
)


def two_agent_net():
    return build_laplacian(path_graph(2))


# ---------------------------------------------------------------------------
# feasibility


def test_feasibility_residual_frozen():
    theta = np.array([0.3, 0.7])
    assert feasibility_residual(theta, np.array([1.0])) == pytest.approx(0.0, abs=1e-15)
    assert feasibility_residual(theta, np.array([2.0])) == pytest.approx(1.0, abs=1e-15)


def test_feasibility_residual_blockwise():
    # block sums (4, 6) against demand (4, 5): residual 1
    theta = np.array([1.0, 2.0, 3.0, 4.0])
    res = feasibility_residual(theta, np.array([4.0, 5.0]))
    assert res == pytest.approx(1.0, abs=1e-14)


def test_default_feas_tol_scales_with_demand():
    assert default_feas_tol(np.zeros(1)) == pytest.approx(1e-8)
    assert default_feas_tol(np.array([3.0, 4.0])) == pytest.approx(6e-8)


# ---------------------------------------------------------------------------
# projected gradient


def test_projected_grad_norm_frozen():
    # gradient (1, 0); root maps it to (1, -1)/sqrt2 which has norm 1
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    value = projected_grad_norm(np.array([1.0, 0.0]), problem, two_agent_net())
    assert value == pytest.approx(1.0, abs=1e-14)


def test_projected_grad_vanishes_on_consensus_gradient():
    # equal local gradients lie in the root's kernel
    problem = quadratic_problem([2.0, 2.0], demand=1.0)
    value = projected_grad_norm(np.array([0.5, 0.5]), problem, two_agent_net())
    assert value <= 1e-14


# ---------------------------------------------------------------------------
# tangent space


def test_tangent_min_curvature_saddle_frozen():
    # both local Hessians are -2 at the origin, so every tangent
    # direction has curvature -2
    problem = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    curv = tangent_min_curvature(np.zeros(2), problem)
    assert curv == pytest.approx(-2.0, abs=1e-12)


def test_tangent_min_curvature_quadratic_frozen():
    # Hessian diag(1, 3) restricted to span{(1,-1)/sqrt2}: (1+3)/2 = 2
    problem = quadratic_problem([1.0, 3.0], demand=1.0)
    curv = tangent_min_curvature(np.zeros(2), problem)
    assert curv == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("c", [0.7, 1.0, 2.5])
def test_tangent_min_curvature_isotropic(c):
    # identical isotropic Hessians c I restrict to c on the tangent space
    problem = quadratic_problem([c] * 4, demand=1.0)
    curv = tangent_min_curvature(np.full(4, 0.25), problem)
    assert curv == pytest.approx(c, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3])
def test_tangent_min_curvature_stacked_equals_single(n):
    rng = np.random.default_rng(21 + n)
    mu, cov, rw, lw = sample_portfolio_params(7, n, rng)
    problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(n))
    points = rng.normal(size=(4, 7 * n))
    stacked = tangent_min_curvature(points, problem)
    assert stacked.shape == (4,)
    for point, value in zip(points, stacked):
        assert value == tangent_min_curvature(point, problem)


def dense_tangent_curvature(blocks):
    # lowest eigenvalue of Q' H Q, with Q an orthonormal basis of the
    # zero-block-sum subspace completed from the lifted ones by QR
    m, n, _ = blocks.shape
    ones = np.kron(np.ones((m, 1)), np.eye(n))
    q = np.linalg.qr(ones, mode="complete")[0][:, n:]
    return np.linalg.eigvalsh(q.T @ block_diag(*blocks) @ q)[0]


def sampled_problem(family, m, n, rng):
    if family == "quadratic":
        return quadratic_problem(
            rng.uniform(0.5, 2.0, size=m), rng.normal(size=n), rng.normal(size=(m, n))
        )
    if family == "smart_grid":
        a, b = sample_smart_grid_params(m, rng)
        return smart_grid_problem(a, b, demand=float(rng.normal()), agent_dim=n)
    mu, cov, rw, lw = sample_portfolio_params(m, n, rng)
    return portfolio_problem(mu, cov, rw, lw, demand=rng.normal(size=n))


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["quadratic", "smart_grid", "portfolio"]),
    m=st.integers(2, 12),
    n=st.integers(1, 4),
    runs=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
def test_tangent_min_curvature_matches_dense_oracle(family, m, n, runs, seed):
    rng = np.random.default_rng(seed)
    problem = sampled_problem(family, m, n, rng)
    points = rng.normal(size=(runs, m * n))
    stacked = tangent_min_curvature(points, problem)
    assert stacked.shape == (runs,)
    for point, value in zip(points, stacked):
        assert value == tangent_min_curvature(point, problem)
        blocks = hessian_blocks(problem, point)
        oracle = dense_tangent_curvature(blocks)
        assert abs(value - oracle) <= 1e-10 * (1.0 + np.abs(blocks).max())


def fixed_hessian_problem(blocks):
    # a quadratic with the given (m, n, n) Hessian blocks at every point
    blocks = np.asarray(blocks, dtype=float)
    m, n, _ = blocks.shape
    return ProblemInstance(
        m=m,
        n=n,
        demand=np.zeros(n),
        params=(blocks,),
        value=lambda theta, h: np.einsum("...ia,iab,...ib->...", theta, h, theta) / 2.0,
        grad=lambda theta, h: np.einsum("iab,...ib->...ia", h, theta),
        hess=lambda theta, h: np.broadcast_to(h, theta.shape[:-2] + h.shape),
        lip_grad=float(np.abs(blocks).sum(axis=-1).max()),
        lip_hess=0.0,
    )


def hard_blocks(case, m, n, rng):
    # Hessian blocks whose restricted spectrum meets a pole of the count
    if case == "isotropic":
        # c I everywhere: lambda_1(H) = lambda_{n+1}(H), a bracket of width 0
        return np.broadcast_to(rng.normal() * np.eye(n), (m, n, n))
    if case == "grid_values":
        # eigenvalues on a coarse grid, in a basis shared by all agents or
        # one per agent: poles coincide and trial points land on them
        values = rng.choice([0.0, 0.5, 1.0, 3.0], size=(m, n))
        basis = np.linalg.qr(rng.normal(size=(m if rng.integers(2) else 1, n, n)))[0]
        basis = np.broadcast_to(basis, (m, n, n))
        blocks = np.einsum("iab,ib,icb->iac", basis, values, basis)
        return (blocks + np.swapaxes(blocks, 1, 2)) / 2.0
    a = rng.normal(size=(m, n, n))
    blocks = (a + np.swapaxes(a, 1, 2)) / 2.0
    if case == "repeated":
        # repeated agents: each agent copies one of the first two
        blocks = blocks[rng.integers(0, 2, size=m)]
    if case == "lowest_repeated":
        # the agent holding lambda_1(H) appears twice, so the restricted
        # minimum equals lambda_1(H), which is a pole
        blocks[1] = blocks[0]
        shift = np.linalg.eigvalsh(blocks).min() - np.linalg.eigvalsh(blocks[0])[0] - 1.0
        blocks[:2] += shift * np.eye(n)
    return blocks


@settings(max_examples=80, deadline=None)
@given(
    case=st.sampled_from(["isotropic", "grid_values", "repeated", "lowest_repeated", "generic"]),
    m=st.integers(2, 12),
    n=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
def test_tangent_min_curvature_hard_cases(case, m, n, seed):
    blocks = hard_blocks(case, m, n, np.random.default_rng(seed))
    value = tangent_min_curvature(np.zeros(m * n), fixed_hessian_problem(blocks))
    spectrum = np.sort(np.linalg.eigh(blocks)[0].reshape(-1))
    assert spectrum[0] <= value <= spectrum[n]
    oracle = dense_tangent_curvature(blocks)
    scale = 1.0 + np.abs(blocks).max()
    assert abs(value - oracle) <= 1e-10 * scale
    assert value <= oracle + 1e-13 * scale


@pytest.mark.parametrize("seed", [409, 939])
def test_tangent_min_curvature_needs_its_pole_radius(seed):
    # draws of the grid_values case that the hypothesis test above does not
    # reach: with a zero radius around the poles the result is off by
    # 0.026 (1 + max|H|) at seed 409 (m = 3, n = 2) and 0.0031 at 939
    # (m = 2, n = 4)
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 13), rng.integers(1, 5)
    blocks = hard_blocks("grid_values", m, n, rng)
    value = tangent_min_curvature(np.zeros(m * n), fixed_hessian_problem(blocks))
    oracle = dense_tangent_curvature(blocks)
    assert abs(value - oracle) <= 1e-10 * (1.0 + np.abs(blocks).max())


def test_tangent_min_curvature_pole_at_first_midpoint():
    # the interlacing bracket is [0, 1] and its midpoint 0.5, a trial
    # point of the first pass, is a pole; the restricted Hessian is
    # (H_1 + H_2) / 2 = diag(0.25, 2)
    blocks = np.array([np.diag([0.0, 1.0]), np.diag([0.5, 3.0])])
    value = tangent_min_curvature(np.zeros(4), fixed_hessian_problem(blocks))
    assert 0.25 - 1e-15 <= value <= 0.25


def test_tangent_min_curvature_large_m_secular_root():
    # m = 10^4 at the saddle: the restricted minimum of diag(h) is the root
    # of sum_i 1 / (h_i - mu) between the two smallest h_i
    m = 10_000
    a, b = sample_smart_grid_params(m, np.random.default_rng(3))
    problem = smart_grid_problem(a, b)
    h = np.sort(2.0 * a - 2.0 * b)
    secular = lambda mu: np.sum(1.0 / (h - mu))
    margin = 1e-9 * (h[1] - h[0])
    root = brentq(secular, h[0] + margin, h[1] - margin, xtol=1e-300, rtol=4 * np.finfo(float).eps)
    value = tangent_min_curvature(np.zeros(m), problem)
    assert abs(value - root) <= 1e-10 * abs(root)

    rng = np.random.default_rng(4)
    points = np.stack([np.zeros(m), *(rng.normal(scale=0.1, size=(2, m)))])
    points -= points.mean(axis=1, keepdims=True)
    stacked = tangent_min_curvature(points, problem)
    assert stacked[0] == value
    for point, got in zip(points, stacked):
        assert got == tangent_min_curvature(point, problem)


def test_tangent_min_curvature_non_finite_hessian_is_nan():
    # at |theta| = 1e200 the smart_grid Hessian overflows to NaN: no
    # curvature is proven there, and other runs of the stack keep theirs
    problem = smart_grid_problem([1.0, 1.2, 0.8], [2.0, 2.5, 2.2])
    points = np.array([[1e200, -1e200, 0.0], [0.1, -0.2, 0.1]])
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = tangent_min_curvature(points, problem)
        assert np.isnan(tangent_min_curvature(points[0], problem))
    assert np.isnan(stacked[0])
    assert stacked[1] == tangent_min_curvature(points[1], problem)


def test_tangent_min_curvature_nan_in_a_block_is_nan():
    # at 2.5e299 the portfolio log term (1 - s^2) / (1 + s^2)^2 is inf / inf,
    # a NaN on each 2 x 2 block's diagonal; eigh returns finite poles for
    # such blocks, and the count of poles crossing zero used to index past
    # the block (IndexError)
    mu, cov, rw, lw = sample_portfolio_params(4, 2, np.random.default_rng(0))
    problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(2))
    points = np.stack([np.full(8, 2.5e299), np.tile([0.25, 0.25], 4)])
    with np.errstate(invalid="ignore", over="ignore"):
        stacked = tangent_min_curvature(points, problem)
        assert np.isnan(tangent_min_curvature(points[0], problem))
    assert np.isnan(stacked[0])
    assert stacked[1] == tangent_min_curvature(points[1], problem)


@pytest.mark.parametrize("seed", range(6))
def test_tangent_min_curvature_rayleigh_oracle(seed):
    # sampled tangent Rayleigh quotients can only sit above the minimum
    rng = np.random.default_rng(seed)
    a, b = sample_smart_grid_params(5, rng)
    problem = smart_grid_problem(a, b)
    theta = rng.normal(size=5)
    curv = tangent_min_curvature(theta, problem)

    sq = theta * theta
    hess = np.diag(2.0 * a - 2.0 * b * (1.0 - sq) / (1.0 + sq) ** 2)
    best = np.inf
    for _ in range(2000):
        d = rng.normal(size=5)
        d -= d.mean()
        d /= np.linalg.norm(d)
        best = min(best, float(d @ hess @ d))
    assert curv <= best + 1e-9
    # and never below the unconstrained spectrum
    assert curv >= np.linalg.eigvalsh(hess)[0] - 1e-9


# ---------------------------------------------------------------------------
# classification


def test_classify_infeasible():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    report = classify(np.array([2.0, 2.0]), problem, two_agent_net(), 1.0, 1.0)
    assert report.classification is Classification.INFEASIBLE
    assert report.feasibility_residual == pytest.approx(3.0, abs=1e-14)


def test_classify_not_stationary():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    report = classify(np.array([1.0, 0.0]), problem, two_agent_net(), 0.5, 1.0)
    assert report.classification is Classification.NOT_STATIONARY


def test_classify_second_order_at_optimum():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    report = classify(np.array([0.5, 0.5]), problem, two_agent_net(), 1e-6, 1e-6)
    assert report.classification is Classification.SECOND_ORDER
    assert report.tangent_min_curvature == pytest.approx(1.0, abs=1e-12)


def test_classify_first_order_only_at_saddle():
    # gradient vanishes at the origin but tangent curvature is -2
    problem = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    report = classify(np.zeros(2), problem, two_agent_net(), 1e-8, 1e-8)
    assert report.classification is Classification.FIRST_ORDER_ONLY
    assert report.projected_grad_norm <= 1e-14
    assert report.tangent_min_curvature == pytest.approx(-2.0, abs=1e-12)


def test_classify_boundaries_inclusive():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    net = two_agent_net()
    theta = np.array([1.0, 0.0])
    pg = projected_grad_norm(theta, problem, net)
    # eps exactly at the measured norm still passes the gradient test
    report = classify(theta, problem, net, pg, 1.0)
    assert report.classification is Classification.SECOND_ORDER
    assert classify(theta, problem, net, pg * (1 - 1e-12), 1.0).classification is (
        Classification.NOT_STATIONARY
    )

    saddle = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    curv = tangent_min_curvature(np.zeros(2), saddle)
    at_boundary = classify(np.zeros(2), saddle, net, 1e-8, -curv)
    assert at_boundary.classification is Classification.SECOND_ORDER
    below = classify(np.zeros(2), saddle, net, 1e-8, -curv - 1e-9)
    assert below.classification is Classification.FIRST_ORDER_ONLY


@pytest.mark.parametrize(
    "measured, label",
    [
        ((np.nan, np.nan, 0.0), Classification.INFEASIBLE),
        ((0.0, np.nan, 0.0), Classification.NOT_STATIONARY),
        ((0.0, 0.0, np.nan), Classification.FIRST_ORDER_ONLY),
    ],
    ids=["feasibility", "gradient", "curvature"],
)
def test_judge_never_certifies_nan(measured, label):
    # every comparison with NaN is false, so only a true comparison may pass a test
    assert judge(Measurement(*measured), 1e-6, 1e-6, 1e-8).classification is label


def test_classify_feas_tol_override():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    theta = np.array([1.05, 0.05])
    report = classify(theta, problem, two_agent_net(), 1.0, 1.0, feas_tol=0.2)
    assert report.classification is not Classification.INFEASIBLE
    tight = classify(theta, problem, two_agent_net(), 1.0, 1.0, feas_tol=0.05)
    assert tight.classification is Classification.INFEASIBLE


@pytest.mark.parametrize(
    "theta", [[np.nan, 1.0, 2.0], [np.inf, -np.inf, 3.0]], ids=["nan", "inf"]
)
def test_classify_rejects_non_finite_allocation(theta):
    # every comparison with NaN is false, so without the check such a
    # point would pass as second order
    problem = quadratic_problem([1.0, 2.0, 4.0], 3.0)
    net = build_laplacian(cycle_graph(3))
    with pytest.raises(ValueError, match="non-finite"):
        classify(np.array(theta), problem, net, 1e-6, 1e-6)


def test_report_records_inputs():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    report = classify(np.array([0.5, 0.5]), problem, two_agent_net(), 1e-3, 1e-2)
    assert report.eps == 1e-3
    assert report.gamma == 1e-2
    text = format_report(report)
    for key in (
        "feasibility_residual",
        "projected_grad_norm",
        "tangent_min_curvature",
        "classification",
    ):
        assert key in text
    assert "second_order" in text


# ---------------------------------------------------------------------------
# auxiliary-space certificates


def test_aux_hessian_identity_blocks():
    # local Hessians I make the sandwich B B', the edge-space Gram matrix
    problem = quadratic_problem([1.0, 1.0, 1.0], demand=1.0)
    net = build_laplacian(cycle_graph(3))
    sandwich = aux_hessian(np.zeros(3), problem, net)
    assert np.allclose(sandwich, net.incidence.toarray() @ net.incidence_t.toarray(), atol=1e-10)


def test_aux_hessian_saddle_frozen():
    # local Hessians -2 I on the one edge: B B' = 2, so the single
    # eigenvalue is -4
    problem = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    eigs = np.linalg.eigvalsh(aux_hessian(np.zeros(2), problem, two_agent_net()))
    assert eigs.shape == (1,)
    assert eigs[0] == pytest.approx(-4.0, abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_aux_hessian_matches_fd_oracle(seed):
    # central differences of the lifted gradient of x -> F(anchor + B' x)
    rng = np.random.default_rng(seed)
    mu, cov, rw, lw = sample_portfolio_params(3, 2, rng)
    problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(2))
    net = build_laplacian(cycle_graph(3), agent_dim=2)
    anchor = np.tile(problem.demand / 3.0, 3)
    x = rng.normal(scale=0.4, size=6)

    from lapgd.network import apply_lifted
    from lapgd.objectives import stacked_gradient

    def lifted_grad(point):
        theta = anchor + apply_lifted(net.incidence_t, point, 2)
        return apply_lifted(net.incidence, stacked_gradient(problem, theta), 2)

    theta_x = anchor + apply_lifted(net.incidence_t, x, 2)
    sandwich = aux_hessian(theta_x, problem, net)
    h = 1e-6
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        col = (lifted_grad(x + e) - lifted_grad(x - e)) / (2.0 * h)
        assert np.allclose(col, sandwich[:, j], atol=1e-5)


@pytest.mark.parametrize("m, n", [(6, 2), (DENSE_MAX_M + 2, 1)])
def test_aux_hessian_equals_kron_sandwich(m, n):
    # more edges than nodes, and an incidence applied as a bare edge list
    # above DENSE_MAX_M
    rng = np.random.default_rng(m)
    problem = smart_grid_problem(*sample_smart_grid_params(m, rng), agent_dim=n)
    net = build_laplacian(watts_strogatz(m, 4, 0.3, m), agent_dim=n)
    theta = rng.normal(scale=0.5, size=m * n)
    lift = np.kron(net.incidence.toarray(), np.eye(n))
    reference = lift @ block_diag(*hessian_blocks(problem, theta)) @ lift.T
    sandwich = aux_hessian(theta, problem, net)
    assert sandwich.shape == (net.edge_count * n, net.edge_count * n)
    assert np.allclose(sandwich, reference, rtol=1e-12, atol=1e-12)


def test_transfer_certificate_frozen():
    # curvature tolerance weakens by the spectral gap (here 2)
    eps, gamma = transfer_certificate(0.1, 0.3, two_agent_net())
    assert eps == pytest.approx(0.1)
    assert gamma == pytest.approx(0.15)


def test_transfer_certificate_rejects_negative():
    with pytest.raises(ValueError, match="curv_tol"):
        transfer_certificate(0.1, -0.2, two_agent_net())


def _random_problem(rng):
    m = int(rng.integers(2, 7))
    n = int(rng.integers(1, 4))
    family = ("quadratic", "smart_grid", "portfolio")[int(rng.integers(3))]
    return sampled_problem(family, m, 1 if family == "quadratic" else n, rng)


def _feasible_point(problem, rng, scale=0.8):
    theta = rng.normal(scale=scale, size=problem.m * problem.n)
    blocks = theta.reshape(problem.m, problem.n)
    blocks += (problem.demand - blocks.sum(axis=0)) / problem.m
    return blocks.reshape(-1)


@pytest.mark.parametrize("seed", range(30))
def test_transfer_consistency(seed):
    # an auxiliary certificate measured at theta must certify theta itself
    # once the curvature tolerance is widened by the spectral gap
    rng = np.random.default_rng(seed + 1000)
    problem = _random_problem(rng)
    if problem.m == 2:
        net = build_laplacian(path_graph(2), agent_dim=problem.n)
    else:
        net = build_laplacian(cycle_graph(problem.m), agent_dim=problem.n)
    theta = _feasible_point(problem, rng)

    grad_norm = projected_grad_norm(theta, problem, net)
    min_eig = float(np.linalg.eigvalsh(aux_hessian(theta, problem, net))[0])
    eps = grad_norm + 1e-9
    gamma_aux = max(-min_eig, 0.0)
    _, gamma = transfer_certificate(eps, gamma_aux, net)
    report = classify(theta, problem, net, eps, gamma + 1e-9)
    assert report.classification is Classification.SECOND_ORDER
