"""Local objective families, stacked evaluation, and derivative checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lapgd.objectives import (
    LocalObjective,
    ProblemInstance,
    estimate_global_min_sum,
    estimate_min_value,
    eval_global,
    fd_check,
    hessian_blocks,
    lipschitz_constants,
    portfolio_objective,
    portfolio_problem,
    quadratic_objective,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_objective,
    smart_grid_problem,
    stacked_gradient,
    stacked_value,
)


# ---------------------------------------------------------------------------
# quadratic family


def test_quadratic_scalar_frozen():
    obj = quadratic_objective(2.0)
    t = np.array([3.0])
    assert obj.eval(t) == pytest.approx(9.0, abs=1e-14)
    assert obj.grad(t) == pytest.approx([6.0], abs=1e-14)
    assert np.allclose(obj.hess(t), [[2.0]], atol=1e-14)
    assert obj.lip_grad == pytest.approx(2.0)
    assert obj.lip_hess == 0.0
    assert obj.min_value == pytest.approx(0.0, abs=1e-15)


def test_quadratic_with_linear_term():
    # f(t) = t^2 + t has minimum -1/4 at -1/2
    obj = quadratic_objective(2.0, c=1.0)
    assert obj.min_value == pytest.approx(-0.25, abs=1e-14)
    assert obj.grad(np.array([-0.5])) == pytest.approx([0.0], abs=1e-14)


def test_quadratic_matrix_form():
    mat = np.array([[2.0, 0.0], [0.0, 5.0]])
    obj = quadratic_objective(mat)
    t = np.array([1.0, 1.0])
    assert obj.eval(t) == pytest.approx(3.5, abs=1e-14)
    assert np.allclose(obj.grad(t), [2.0, 5.0], atol=1e-14)
    assert obj.lip_grad == pytest.approx(5.0)
    assert obj.dim == 2


def test_quadratic_rejects_indefinite():
    with pytest.raises(ValueError, match="positive definite"):
        quadratic_objective(np.array([[1.0, 0.0], [0.0, -1.0]]))


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        quadratic_objective(np.array([[1.0, 1.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# smart-grid family


def test_smart_grid_values_at_origin():
    obj = smart_grid_objective(1.0, 2.0)
    zero = np.zeros(1)
    assert obj.eval(zero) == 0.0
    assert np.array_equal(obj.grad(zero), [0.0])
    # curvature 2a - 2b = -2: strict local maximum along the axis
    assert np.allclose(obj.hess(zero), [[-2.0]], atol=1e-14)


def test_smart_grid_frozen_point():
    # at t = 1 with a = 1, b = 2: f = 1 - 2 ln 2, f' = 2 - 4/2 = 0,
    # f'' = 2 - 4 (1 - 1)/4 = 2
    obj = smart_grid_objective(1.0, 2.0)
    one = np.ones(1)
    assert obj.eval(one) == pytest.approx(1.0 - 2.0 * math.log(2.0), abs=1e-14)
    assert obj.grad(one) == pytest.approx([0.0], abs=1e-14)
    assert np.allclose(obj.hess(one), [[2.0]], atol=1e-14)


def test_smart_grid_zero_penalty_is_quadratic():
    obj = smart_grid_objective(1.5, 0.0)
    t = np.array([2.0])
    assert obj.eval(t) == pytest.approx(6.0, abs=1e-14)
    assert obj.grad(t) == pytest.approx([6.0], abs=1e-14)
    assert obj.min_value == 0.0
    assert obj.lip_hess == 0.0


def test_smart_grid_min_closed_form_matches_grid():
    # dense-grid oracle for the 1d minimum
    a, b = 1.0, 2.0
    obj = smart_grid_objective(a, b)
    grid = np.linspace(-4.0, 4.0, 400001)
    grid_min = float(np.min(a * grid**2 - b * np.log1p(grid**2)))
    expected = b - a - b * math.log(b / a)
    assert obj.min_value == pytest.approx(expected, abs=1e-14)
    assert obj.min_value == pytest.approx(grid_min, abs=1e-8)


def test_smart_grid_min_scales_with_dim():
    per_coord = smart_grid_objective(1.0, 3.0).min_value
    assert smart_grid_objective(1.0, 3.0, dim=4).min_value == pytest.approx(
        4.0 * per_coord
    )


def test_smart_grid_convex_when_penalty_small():
    # b <= a keeps curvature nonnegative everywhere: min stays at 0
    obj = smart_grid_objective(2.0, 1.0)
    assert obj.min_value == 0.0
    grid = np.linspace(-6.0, 6.0, 2001)
    curv = 2.0 * 2.0 - 2.0 * 1.0 * (1.0 - grid**2) / (1.0 + grid**2) ** 2
    assert curv.min() >= 0.0


def test_smart_grid_lip_bounds_hold_on_grid():
    a, b = 0.8, 2.6
    obj = smart_grid_objective(a, b)
    grid = np.linspace(-8.0, 8.0, 20001)
    second = 2.0 * a - 2.0 * b * (1.0 - grid**2) / (1.0 + grid**2) ** 2
    third = 4.0 * b * grid * (3.0 - grid**2) / (1.0 + grid**2) ** 3
    assert np.abs(second).max() <= obj.lip_grad + 1e-12
    assert np.abs(third).max() <= obj.lip_hess + 1e-12


def test_smart_grid_validation():
    with pytest.raises(ValueError, match="a > 0"):
        smart_grid_objective(0.0, 1.0)
    with pytest.raises(ValueError, match="b >= 0"):
        smart_grid_objective(1.0, -0.1)


# ---------------------------------------------------------------------------
# portfolio family


def test_portfolio_values_at_origin():
    mu = np.array([1.0, 0.0])
    obj = portfolio_objective(mu, np.eye(2), risk_weight=0.5, log_weight=1.0)
    zero = np.zeros(2)
    assert obj.eval(zero) == 0.0
    assert np.allclose(obj.grad(zero), -mu, atol=1e-14)
    # 2 * 0.5 * I + 2 * 1 * I
    assert np.allclose(obj.hess(zero), 3.0 * np.eye(2), atol=1e-14)


def test_portfolio_lipschitz_constants():
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    obj = portfolio_objective(np.zeros(2), cov, risk_weight=1.5, log_weight=0.7)
    top = np.linalg.eigvalsh(cov)[-1]
    assert obj.lip_grad == pytest.approx(2.0 * 1.5 * top + 2.0 * 0.7, rel=1e-12)
    assert obj.lip_hess == pytest.approx(4.0 * 0.7, rel=1e-12)
    assert obj.min_value is None


@pytest.mark.parametrize("seed", range(4))
def test_portfolio_coercive_along_rays(seed):
    rng = np.random.default_rng(seed)
    mu, cov, rw, lw = sample_portfolio_params(1, 3, rng)
    obj = portfolio_objective(mu[0], cov[0], rw[0], lw[0])
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    values = [obj.eval(r * direction) for r in (1e1, 1e2, 1e3)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.0


def test_portfolio_validation():
    with pytest.raises(ValueError, match="positive definite"):
        portfolio_objective(np.zeros(2), np.diag([1.0, 0.0]), 1.0, 1.0)
    with pytest.raises(ValueError):
        portfolio_objective(np.zeros(2), np.eye(2), -1.0, 1.0)
    with pytest.raises(ValueError):
        portfolio_objective(np.zeros(2), np.eye(2), 1.0, -0.5)


# ---------------------------------------------------------------------------
# finite-difference oracle


@pytest.mark.parametrize("seed", range(5))
def test_fd_check_smart_grid(seed):
    rng = np.random.default_rng(seed)
    obj = smart_grid_objective(rng.uniform(0.5, 1.5), rng.uniform(2.0, 3.0))
    point = rng.normal(scale=1.5, size=1)
    grad_err, hess_err = fd_check(obj, point)
    assert grad_err <= 1e-7
    assert hess_err <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_fd_check_quadratic(seed):
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(3, 3))
    obj = quadratic_objective(w @ w.T + 0.5 * np.eye(3), c=rng.normal(size=3))
    grad_err, hess_err = fd_check(obj, rng.normal(size=3))
    assert grad_err <= 1e-7
    assert hess_err <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_fd_check_portfolio(seed):
    rng = np.random.default_rng(seed)
    mu, cov, rw, lw = sample_portfolio_params(1, 3, rng)
    obj = portfolio_objective(mu[0], cov[0], rw[0], lw[0])
    grad_err, hess_err = fd_check(obj, rng.normal(size=3))
    assert grad_err <= 1e-6
    assert hess_err <= 1e-6


def test_fd_check_flags_wrong_gradient():
    # negative control: a corrupted gradient must be caught
    base = smart_grid_objective(1.0, 2.0)
    broken = LocalObjective(
        dim=1,
        eval=base.eval,
        grad=lambda t: 1.1 * base.grad(t),
        hess=base.hess,
        lip_grad=base.lip_grad,
        lip_hess=base.lip_hess,
    )
    grad_err, _ = fd_check(broken, np.array([0.9]))
    assert grad_err > 1e-3


# ---------------------------------------------------------------------------
# stacked problems


def _random_theta(rng, m, n, scale=1.2):
    return rng.normal(scale=scale, size=m * n)


def test_quadratic_problem_frozen():
    problem = quadratic_problem([1.0, 3.0, 2.0], demand=6.0)
    assert problem.m == 3 and problem.n == 1
    assert np.array_equal(problem.demand, [6.0])
    assert lipschitz_constants(problem) == (3.0, 0.0)
    assert problem.global_min_sum == pytest.approx(0.0, abs=1e-15)
    theta = np.array([1.0, 2.0, 3.0])
    # 0.5 (1 + 3*4 + 2*9) = 15.5
    assert stacked_value(problem, theta) == pytest.approx(15.5, abs=1e-12)
    assert np.allclose(stacked_gradient(problem, theta), [1.0, 6.0, 6.0], atol=1e-14)


def test_quadratic_problem_with_linear_terms():
    problem = quadratic_problem([2.0, 2.0], demand=1.0, c_values=[1.0, -1.0])
    # minima -1/4 each: unconstrained sum -1/2
    assert problem.global_min_sum == pytest.approx(-0.5, abs=1e-14)


def test_global_value_is_sum_of_locals():
    rng = np.random.default_rng(0)
    a, b = sample_smart_grid_params(4, rng)
    problem = smart_grid_problem(a, b)
    theta = _random_theta(rng, 4, 1)
    total = sum(
        problem.objectives[i].eval(theta[i : i + 1]) for i in range(4)
    )
    assert stacked_value(problem, theta) == pytest.approx(total, rel=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_batch_matches_per_agent_loop(seed):
    rng = np.random.default_rng(seed)
    family = seed % 3
    if family == 0:
        problem = quadratic_problem(
            rng.uniform(0.5, 2.0, size=5), demand=2.0, c_values=rng.normal(size=5)
        )
    elif family == 1:
        a, b = sample_smart_grid_params(5, rng)
        problem = smart_grid_problem(a, b)
    else:
        mu, cov, rw, lw = sample_portfolio_params(5, 3, rng)
        problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(3))
    theta = _random_theta(rng, problem.m, problem.n)
    blocks = theta.reshape(problem.m, problem.n)

    loop_value = sum(
        problem.objectives[i].eval(blocks[i]) for i in range(problem.m)
    )
    loop_grad = np.concatenate(
        [problem.objectives[i].grad(blocks[i]) for i in range(problem.m)]
    )
    loop_hess = np.stack(
        [problem.objectives[i].hess(blocks[i]) for i in range(problem.m)]
    )
    assert stacked_value(problem, theta) == pytest.approx(loop_value, rel=1e-12)
    assert np.allclose(stacked_gradient(problem, theta), loop_grad, atol=1e-12)
    assert np.allclose(hessian_blocks(problem, theta), loop_hess, atol=1e-12)

    # a leading run axis: the vectorized and the per-agent paths agree,
    # and each run gets exactly what it gets alone
    stack = np.stack([theta, _random_theta(rng, problem.m, problem.n)])
    loop = replace(problem, batch=None)
    for evaluate in (stacked_value, stacked_gradient, hessian_blocks):
        stacked = evaluate(problem, stack)
        assert np.allclose(stacked, evaluate(loop, stack), rtol=1e-12, atol=1e-12)
        for run_point, value in zip(stack, stacked):
            assert np.array_equal(value, evaluate(problem, run_point))
        assert np.array_equal(evaluate(loop, stack)[0], evaluate(loop, stack[0]))


def test_eval_global_shapes():
    rng = np.random.default_rng(1)
    mu, cov, rw, lw = sample_portfolio_params(4, 3, rng)
    problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(3))
    theta = _random_theta(rng, 4, 3)
    out = eval_global(problem, theta)
    assert out.gradient.shape == (12,)
    assert out.hessian_blocks.shape == (4, 3, 3)
    assert out.value == pytest.approx(stacked_value(problem, theta), rel=1e-13)


def test_problem_validation():
    with pytest.raises(ValueError, match="m"):
        quadratic_problem([1.0], demand=1.0)
    objs = (smart_grid_objective(1.0, 2.0), smart_grid_objective(1.0, 2.0, dim=2))
    with pytest.raises(ValueError, match="dim"):
        ProblemInstance(m=2, n=1, objectives=objs, demand=np.zeros(1))


def test_demand_broadcast():
    problem = smart_grid_problem([1.0, 1.0], [2.0, 2.0], demand=3.0, agent_dim=2)
    assert np.array_equal(problem.demand, [3.0, 3.0])
    assert problem.demand.shape == (2,)


# ---------------------------------------------------------------------------
# parameter samplers


def test_sample_smart_grid_ranges():
    rng = np.random.default_rng(5)
    a, b = sample_smart_grid_params(200, rng)
    assert a.shape == b.shape == (200,)
    assert np.all((0.5 <= a) & (a <= 1.5))
    assert np.all((2.0 <= b) & (b <= 3.0))
    assert np.all(b > a)  # every agent has a saddle at the origin


def test_sample_portfolio_shapes():
    rng = np.random.default_rng(6)
    mu, cov, rw, lw = sample_portfolio_params(7, 4, rng)
    assert mu.shape == (7, 4)
    assert cov.shape == (7, 4, 4)
    assert all(np.linalg.eigvalsh(c)[0] > 0.0 for c in cov)
    assert rw.shape == lw.shape == (7,)
    assert np.all((0.5 <= rw) & (rw <= 1.5))
    assert np.all((0.5 <= lw) & (lw <= 1.5))


def test_samplers_deterministic():
    a1, b1 = sample_smart_grid_params(5, np.random.default_rng(3))
    a2, b2 = sample_smart_grid_params(5, np.random.default_rng(3))
    assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


# ---------------------------------------------------------------------------
# numeric minimum estimation


def test_estimate_min_matches_closed_form_smart_grid():
    obj = smart_grid_objective(1.0, 2.5)
    assert estimate_min_value(obj) == pytest.approx(obj.min_value, abs=1e-8)


def test_estimate_min_matches_closed_form_quadratic():
    obj = quadratic_objective(2.0, c=np.array([1.0, -2.0]))
    assert estimate_min_value(obj) == pytest.approx(obj.min_value, abs=1e-8)


def test_estimate_global_min_sum():
    a = [1.0, 0.8]
    b = [2.0, 2.4]
    problem = smart_grid_problem(a, b)
    expected = sum(smart_grid_objective(ai, bi).min_value for ai, bi in zip(a, b))
    assert problem.global_min_sum == pytest.approx(expected, abs=1e-12)
    assert estimate_global_min_sum(problem) == pytest.approx(expected, abs=1e-6)
