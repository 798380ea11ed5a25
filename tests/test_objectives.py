"""Objective families, stacked evaluation, and derivative checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lapgd.experiments import build_portfolio_scenario
from lapgd.objectives import (
    FAMILIES,
    estimate_global_min_sum,
    fd_check,
    hessian_blocks,
    lipschitz_constants,
    portfolio_problem,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
    stacked_gradient,
    stacked_value,
)


def _agent(problem, i):
    # agent i's parameter arrays, cut from the problem's own
    return tuple(p[i : i + 1] for p in problem.params)


# ---------------------------------------------------------------------------
# the family table


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_table_draws_and_builds_declared_sizes(name):
    family = FAMILIES[name]
    assert set(family.optional) <= set(family.fields)
    assert family.dim_field in (None, *family.fields)
    params = family.draw_params(4, 3, np.random.default_rng(5))
    assert set(family.fields) - set(family.optional) <= set(params) <= set(family.fields)
    assert all(np.shape(value)[0] == 4 for value in params.values())
    problem = family.build(np.arange(3.0), **params)
    assert (problem.m, problem.n) == (4, 3)
    assert np.array_equal(problem.demand, np.arange(3.0))


def test_family_table_draws_with_the_samplers():
    drawn = FAMILIES["smart_grid"].draw_params(5, 1, np.random.default_rng(9))
    sampled = sample_smart_grid_params(5, np.random.default_rng(9))
    assert all(map(np.array_equal, drawn.values(), sampled))
    drawn = FAMILIES["portfolio"].draw_params(5, 2, np.random.default_rng(9))
    sampled = sample_portfolio_params(5, 2, np.random.default_rng(9))
    assert all(map(np.array_equal, drawn.values(), sampled))


# ---------------------------------------------------------------------------
# quadratic family


def test_quadratic_scalar_frozen():
    problem = quadratic_problem([2.0, 4.0], demand=0.0)
    theta = np.array([3.0, 1.0])
    # 0.5 * 2 * 9 + 0.5 * 4 * 1
    assert stacked_value(problem, theta) == pytest.approx(11.0, abs=1e-14)
    assert stacked_gradient(problem, theta) == pytest.approx([6.0, 4.0], abs=1e-14)
    assert np.allclose(hessian_blocks(problem, theta), [[[2.0]], [[4.0]]], atol=1e-14)
    assert lipschitz_constants(problem) == (4.0, 0.0)
    assert problem.global_min_sum == pytest.approx(0.0, abs=1e-15)


def test_quadratic_with_linear_term():
    # f(t) = t^2 + t has minimum -1/4 at -1/2
    problem = quadratic_problem([2.0, 2.0], demand=-1.0, c_values=[1.0, 1.0])
    assert problem.global_min_sum == pytest.approx(-0.5, abs=1e-14)
    assert stacked_gradient(problem, np.array([-0.5, -0.5])) == pytest.approx([0.0, 0.0], abs=1e-14)


def test_quadratic_rejects_indefinite():
    for a in ([1.0, -1.0], [0.0, 1.0]):
        with pytest.raises(ValueError, match="positive"):
            quadratic_problem(a, demand=1.0)


# ---------------------------------------------------------------------------
# smart-grid family


def test_smart_grid_values_at_origin():
    problem = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    zero = np.zeros(2)
    assert stacked_value(problem, zero) == 0.0
    assert np.array_equal(stacked_gradient(problem, zero), [0.0, 0.0])
    # curvature 2a - 2b = -2: strict local maximum along each axis
    assert np.allclose(hessian_blocks(problem, zero), -2.0, atol=1e-14)


def test_smart_grid_frozen_point():
    # at t = 1 with a = 1, b = 2: f = 1 - 2 ln 2, f' = 2 - 4/2 = 0,
    # f'' = 2 - 4 (1 - 1)/4 = 2
    problem = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    one = np.ones(2)
    assert stacked_value(problem, one) == pytest.approx(2.0 * (1.0 - 2.0 * math.log(2.0)), abs=1e-14)
    assert stacked_gradient(problem, one) == pytest.approx([0.0, 0.0], abs=1e-14)
    assert np.allclose(hessian_blocks(problem, one), 2.0, atol=1e-14)


def test_smart_grid_zero_penalty_is_quadratic():
    problem = smart_grid_problem([1.5, 1.5], [0.0, 0.0])
    t = np.array([2.0, 2.0])
    assert stacked_value(problem, t) == pytest.approx(12.0, abs=1e-14)
    assert stacked_gradient(problem, t) == pytest.approx([6.0, 6.0], abs=1e-14)
    assert problem.global_min_sum == 0.0
    assert problem.lip_hess == 0.0


def test_smart_grid_min_closed_form_matches_grid():
    # dense-grid oracle for the 1d minimum
    a, b = 1.0, 2.0
    problem = smart_grid_problem([a, a], [b, b])
    grid = np.linspace(-4.0, 4.0, 400001)
    grid_min = float(np.min(a * grid**2 - b * np.log1p(grid**2)))
    expected = b - a - b * math.log(b / a)
    assert problem.global_min_sum == pytest.approx(2.0 * expected, abs=1e-14)
    assert problem.global_min_sum / 2.0 == pytest.approx(grid_min, abs=1e-8)


def test_smart_grid_min_scales_with_dim():
    per_coord = smart_grid_problem([1.0, 1.0], [3.0, 3.0]).global_min_sum
    assert smart_grid_problem([1.0, 1.0], [3.0, 3.0], agent_dim=4).global_min_sum == pytest.approx(
        4.0 * per_coord
    )


def test_smart_grid_convex_when_penalty_small():
    # b <= a keeps curvature nonnegative everywhere: min stays at 0
    problem = smart_grid_problem([2.0, 2.0], [1.0, 1.0])
    assert problem.global_min_sum == 0.0
    grid = np.linspace(-6.0, 6.0, 2001)
    curv = hessian_blocks(problem, np.repeat(grid, 2).reshape(-1, 2))
    assert curv.min() >= 0.0


def test_smart_grid_lip_bounds_hold_on_grid():
    a, b = np.array([0.8, 0.5]), np.array([2.6, 1.0])
    problem = smart_grid_problem(a, b)
    grid = np.linspace(-8.0, 8.0, 20001)
    second = hessian_blocks(problem, np.repeat(grid, 2).reshape(-1, 2))[..., 0, 0]
    third = 4.0 * b * (grid * (3.0 - grid**2) / (1.0 + grid**2) ** 3)[:, None]
    assert np.abs(second).max() <= problem.lip_grad + 1e-12
    assert np.abs(third).max() <= problem.lip_hess + 1e-12
    assert problem.lip_grad == pytest.approx(2.0 * 0.8 + 2.0 * 2.6)
    assert problem.lip_hess == pytest.approx(4.0 * 2.6)


def test_smart_grid_validation():
    with pytest.raises(ValueError, match="a > 0"):
        smart_grid_problem([1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError, match="b >= 0"):
        smart_grid_problem([1.0, 1.0], [1.0, -0.1])


# ---------------------------------------------------------------------------
# portfolio family


def _eyes(m, n):
    return np.broadcast_to(np.eye(n), (m, n, n))


def test_portfolio_values_at_origin():
    mu = np.array([[1.0, 0.0], [0.0, -2.0]])
    problem = portfolio_problem(mu, _eyes(2, 2), [0.5, 0.5], [1.0, 1.0], demand=np.zeros(2))
    zero = np.zeros(4)
    assert stacked_value(problem, zero) == 0.0
    assert np.allclose(stacked_gradient(problem, zero), -mu.reshape(-1), atol=1e-14)
    # 2 * 0.5 * I + 2 * 1 * I
    assert np.allclose(hessian_blocks(problem, zero), 3.0 * _eyes(2, 2), atol=1e-14)


def test_portfolio_lipschitz_constants():
    cov = np.stack([np.array([[2.0, 0.5], [0.5, 1.0]]), np.eye(2)])
    problem = portfolio_problem(np.zeros((2, 2)), cov, [1.5, 0.5], [0.7, 0.1], demand=np.zeros(2))
    top = np.linalg.eigvalsh(cov[0])[-1]
    assert problem.lip_grad == pytest.approx(2.0 * 1.5 * top + 2.0 * 0.7, rel=1e-12)
    assert problem.lip_hess == pytest.approx(4.0 * 0.7, rel=1e-12)
    assert problem.global_min_sum is None


@pytest.mark.parametrize("seed", range(4))
def test_portfolio_coercive_along_rays(seed):
    rng = np.random.default_rng(seed)
    mu, cov, rw, lw = sample_portfolio_params(2, 3, rng)
    problem = portfolio_problem(mu, cov, rw, lw, demand=np.zeros(3))
    direction = rng.normal(size=6)
    direction /= np.linalg.norm(direction)
    values = stacked_value(problem, np.outer([1e1, 1e2, 1e3], direction))
    assert values[0] < values[1] < values[2]
    assert values[2] > 0.0


def test_portfolio_validation():
    mu, zero = np.zeros((2, 2)), np.zeros(2)
    with pytest.raises(ValueError, match="positive definite"):
        portfolio_problem(mu, np.stack([np.eye(2), np.diag([1.0, 0.0])]), [1.0, 1.0], [1.0, 1.0], zero)
    with pytest.raises(ValueError, match="symmetric"):
        portfolio_problem(mu, np.stack([np.eye(2), [[1.0, 0.5], [0.0, 1.0]]]), [1.0, 1.0], [1.0, 1.0], zero)
    with pytest.raises(ValueError, match="risk_weight"):
        portfolio_problem(mu, _eyes(2, 2), [1.0, -1.0], [1.0, 1.0], zero)
    with pytest.raises(ValueError, match="log_weight"):
        portfolio_problem(mu, _eyes(2, 2), [1.0, 1.0], [-0.5, 1.0], zero)


# ---------------------------------------------------------------------------
# finite-difference oracle


@pytest.mark.parametrize("seed", range(5))
def test_fd_check_smart_grid(seed):
    rng = np.random.default_rng(seed)
    problem = smart_grid_problem(rng.uniform(0.5, 1.5, size=2), rng.uniform(2.0, 3.0, size=2))
    grad_err, hess_err = fd_check(problem, rng.normal(scale=1.5, size=2))
    assert grad_err <= 1e-7
    assert hess_err <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_fd_check_quadratic(seed):
    rng = np.random.default_rng(seed)
    problem = quadratic_problem(
        rng.uniform(0.5, 3.0, size=2), demand=np.zeros(3), c_values=rng.normal(size=(2, 3))
    )
    grad_err, hess_err = fd_check(problem, rng.normal(size=6))
    assert grad_err <= 1e-7
    assert hess_err <= 1e-6


@pytest.mark.parametrize("seed", range(5))
def test_fd_check_portfolio(seed):
    rng = np.random.default_rng(seed)
    mu, cov, rw, lw = sample_portfolio_params(2, 3, rng)
    problem = portfolio_problem(mu, cov, rw, lw, demand=np.zeros(3))
    grad_err, hess_err = fd_check(problem, rng.normal(size=6))
    assert grad_err <= 1e-6
    assert hess_err <= 1e-6


def test_fd_check_flags_wrong_gradient():
    # negative controls: a corrupted gradient and a Hessian that leaks
    # across agents must both be caught
    base = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    broken = replace(base, grad=lambda blocks, *params: 1.1 * base.grad(blocks, *params))
    grad_err, _ = fd_check(broken, np.array([0.9, -0.3]))
    assert grad_err > 1e-3
    coupled = replace(
        base, grad=lambda blocks, *params: base.grad(blocks, *params) + 0.1 * blocks[..., ::-1, :]
    )
    _, hess_err = fd_check(coupled, np.array([0.9, -0.3]))
    assert hess_err > 1e-3


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
    # an agent's objective is the family's definition cut to that agent
    rng = np.random.default_rng(0)
    a, b = sample_smart_grid_params(4, rng)
    problem = smart_grid_problem(a, b)
    theta = _random_theta(rng, 4, 1)
    total = sum(
        float(problem.value(theta[i : i + 1].reshape(1, 1), *_agent(problem, i))) for i in range(4)
    )
    assert stacked_value(problem, theta) == pytest.approx(total, rel=1e-13)


# Reference per-agent formulas, written independently of the package.


def _quadratic_reference(t, a, c):
    return 0.5 * a * (t @ t) + c @ t, a * t + c, a * np.eye(t.size)


def _smart_grid_reference(t, a, b):
    sq = t * t
    value = a * (t @ t) - b * np.log1p(sq).sum()
    grad = 2.0 * a * t - 2.0 * b * t / (1.0 + sq)
    return value, grad, np.diag(2.0 * a - 2.0 * b * (1.0 - sq) / (1.0 + sq) ** 2)


def _portfolio_reference(t, mu, cov, rw, lw):
    sq = t * t
    value = -mu @ t + rw * (t @ cov @ t) + lw * np.log1p(sq).sum()
    grad = -mu + 2.0 * rw * (cov @ t) + 2.0 * lw * t / (1.0 + sq)
    return value, grad, 2.0 * rw * cov + np.diag(2.0 * lw * (1.0 - sq) / (1.0 + sq) ** 2)


@pytest.mark.parametrize("seed", range(6))
def test_batch_matches_per_agent_loop(seed):
    rng = np.random.default_rng(seed)
    family = seed % 3
    if family == 0:
        a, c = rng.uniform(0.5, 2.0, size=5), rng.normal(size=5)
        problem = quadratic_problem(a, demand=2.0, c_values=c)
        agents = [(_quadratic_reference, (a[i], c[i : i + 1])) for i in range(5)]
    elif family == 1:
        a, b = sample_smart_grid_params(5, rng)
        problem = smart_grid_problem(a, b)
        agents = [(_smart_grid_reference, (a[i], b[i])) for i in range(5)]
    else:
        mu, cov, rw, lw = sample_portfolio_params(5, 3, rng)
        problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(3))
        agents = [(_portfolio_reference, (mu[i], cov[i], rw[i], lw[i])) for i in range(5)]

    def loop(theta):
        blocks = theta.reshape(problem.m, problem.n)
        parts = [ref(blocks[i], *params) for i, (ref, params) in enumerate(agents)]
        return (
            sum(part[0] for part in parts),
            np.concatenate([part[1] for part in parts]),
            np.stack([part[2] for part in parts]),
        )

    theta = _random_theta(rng, problem.m, problem.n)
    assert stacked_gradient(problem, theta).shape == (problem.m * problem.n,)
    assert hessian_blocks(problem, theta).shape == (problem.m, problem.n, problem.n)
    loop_value, loop_grad, loop_hess = loop(theta)
    assert stacked_value(problem, theta) == pytest.approx(loop_value, rel=1e-12)
    assert np.allclose(stacked_gradient(problem, theta), loop_grad, atol=1e-12)
    assert np.allclose(hessian_blocks(problem, theta), loop_hess, atol=1e-12)

    # a leading run axis: each run matches the per-agent reference, and
    # gets exactly what it gets alone
    stack = np.stack([theta, _random_theta(rng, problem.m, problem.n)])
    for index, evaluate in enumerate((stacked_value, stacked_gradient, hessian_blocks)):
        stacked = evaluate(problem, stack)
        assert stacked.shape[0] == 2
        for run_point, value in zip(stack, stacked):
            assert np.allclose(value, loop(run_point)[index], rtol=1e-12, atol=1e-12)
            assert np.array_equal(value, evaluate(problem, run_point))


def test_problem_validation():
    with pytest.raises(ValueError, match="m"):
        quadratic_problem([1.0], demand=1.0)
    with pytest.raises(ValueError, match="differ in length"):
        smart_grid_problem([1.0, 1.0], [2.0, 2.0, 2.0])
    with pytest.raises(ValueError, match="shapes disagree"):
        portfolio_problem(np.zeros((2, 2)), _eyes(2, 3), [1.0, 1.0], [1.0, 1.0], np.zeros(2))


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
    problem = smart_grid_problem([1.0, 0.7, 2.0], [2.5, 2.2, 1.0], agent_dim=2)
    assert estimate_global_min_sum(problem) == pytest.approx(problem.global_min_sum, abs=1e-12)


def test_estimate_min_matches_closed_form_quadratic():
    problem = quadratic_problem(
        [2.0, 0.5], demand=np.zeros(2), c_values=[[1.0, -2.0], [0.3, 0.7]]
    )
    assert estimate_global_min_sum(problem) == pytest.approx(problem.global_min_sum, abs=1e-12)


def test_estimate_global_min_sum():
    a = [1.0, 0.8]
    b = [2.0, 2.4]
    problem = smart_grid_problem(a, b)
    expected = sum(bi - ai - bi * math.log(bi / ai) for ai, bi in zip(a, b))
    assert problem.global_min_sum == pytest.approx(expected, abs=1e-12)
    assert estimate_global_min_sum(problem) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize(
    "seed, expected",
    [
        (0, -4.9897935715523865),
        (1, -5.566860747070508),
        (2, -6.624028893956099),
        (3, -5.2778921811726525),
    ],
)
def test_estimate_min_portfolio_scenarios_frozen(seed, expected):
    # per-agent multistart BFGS (scipy, gtol 1e-10) gave these values from
    # the same starts; the portfolio family has no closed form
    problem = build_portfolio_scenario(seed).problem
    assert estimate_global_min_sum(problem) == pytest.approx(expected, rel=1e-14, abs=0)


def test_estimate_min_takes_each_agents_best_start():
    # each coordinate of each agent is g(t) = -t + t^2 / 100 + 2 log(1 + t^2)
    # or its mirror g(-t): a shallow minimum near the origin and the global
    # one near +-45.6, past a local maximum near +-4.1. Only agent 1's first
    # coordinate is mirrored, so no start reaches both agents' global
    # minima (per-agent BFGS from the same starts summed to -28.71)
    problem = portfolio_problem(
        mu=[[1.0, 1.0], [-1.0, 1.0]], cov=[np.eye(2), np.eye(2)], risk_weights=[0.01, 0.01],
        log_weights=[2.0, 2.0], demand=[1.0, 1.0],
    )
    t = np.linspace(45.0, 46.0, 100001)
    coordinate_min = (-t + 0.01 * t * t + 2.0 * np.log1p(t * t)).min()
    assert estimate_global_min_sum(problem) == pytest.approx(4 * coordinate_min, rel=1e-12, abs=0)


def test_estimate_min_converges_at_a_degenerate_minimum():
    # f(t) = -mu t + t^2 / 8 + log(1 + t^2) with mu = 3 sqrt(3) / 4 has
    # f' = f'' = f''' = 0 at its minimum t = sqrt(3), where Newton gains
    # only a constant factor per pass; the minimum is 2 log 2 - 15/8
    # (BFGS from the same starts was off by 2e-14)
    mu = 0.75 * math.sqrt(3.0)
    problem = portfolio_problem(
        mu=[[mu], [mu]], cov=[[[1.0]], [[1.0]]], risk_weights=[0.125, 0.125],
        log_weights=[1.0, 1.0], demand=1.0,
    )
    expected = 2 * (2 * math.log(2.0) - 1.875)
    assert estimate_global_min_sum(problem) == pytest.approx(expected, rel=0, abs=1e-13)
