"""Acceptance suite: ten end-to-end checks at fixed tolerances.

Each test prints one [criterion NN] PASS/FAIL line (visible with -s);
under plain ``pytest -v`` the per-test PASSED/FAILED verdict carries the
same information. Criteria 8 and 9 share one 20-seed comparison batch
through a session-scoped fixture, so the suite runs the expensive
saddle-escape experiment only once.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from lapgd.experiments import (
    build_smart_grid_scenario,
    run_comparison,
    tangent_perturbation,
)
from lapgd.network import (
    build_laplacian,
    complete_graph,
    cycle_graph,
    path_graph,
    watts_strogatz,
)
from lapgd.objectives import (
    fd_check,
    portfolio_problem,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
    stacked_value,
)
from lapgd.optimizer import (
    Algorithm,
    RunConfig,
    aux_gd_step,
    aux_ngd_step,
    initial_state,
    iteration_budget,
    lgd_step,
    nlgd_step,
    run,
    variance_for_tolerance,
)
from lapgd.stationarity import (
    Classification,
    aux_hessian,
    classify,
    projected_grad_norm,
    transfer_certificate,
)


@contextmanager
def criterion(number, description, limit_seconds):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        status = "FAIL" if failed or elapsed >= limit_seconds else "PASS"
        print(
            f"[criterion {number:02d}] {status} "
            f"({elapsed:.2f}s / limit {limit_seconds:.0f}s) {description}"
        )
    assert elapsed < limit_seconds, (
        f"criterion {number} exceeded its {limit_seconds}s budget: {elapsed:.1f}s"
    )


def _max_route_deviation(problem, net, theta0, step_size, iters, variance=0.0, seed=None):
    direct = initial_state(theta0, with_aux=False)
    lifted = initial_state(theta0, with_aux=True)
    rng_direct = np.random.default_rng(seed)
    rng_lifted = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(iters):
        if variance > 0.0:
            direct = nlgd_step(direct, problem, net, step_size, variance, rng_direct)
            lifted = aux_ngd_step(lifted, problem, net, step_size, variance, rng_lifted)
        else:
            direct = lgd_step(direct, problem, net, step_size)
            lifted = aux_gd_step(lifted, problem, net, step_size)
        worst = max(worst, float(np.abs(direct.theta - lifted.theta).max()))
    return worst


def _six_agent_instance():
    rng = np.random.default_rng(42)
    a, b = sample_smart_grid_params(6, rng)
    problem = smart_grid_problem(a, b)
    net = build_laplacian(watts_strogatz(6, 2, 0.3, seed=4))
    theta0 = tangent_perturbation(6, 1, 0.5, rng)
    lip = problem.lip_grad
    return problem, net, theta0, 0.4 / (net.lambda_max * lip)


@pytest.fixture(scope="session")
def escape_batch():
    scenario = build_smart_grid_scenario(0)
    start = time.perf_counter()
    batch = run_comparison(scenario, seeds=range(20))
    return batch, time.perf_counter() - start


def test_criterion_01_route_equivalence_noiseless():
    with criterion(
        1, "direct and lifted noiseless iterates agree to 1e-10 over 1000 steps", 1.0
    ):
        problem = quadratic_problem([1.0, 1.0], demand=1.0)
        net = build_laplacian(path_graph(2))
        dev_quad = _max_route_deviation(
            problem, net, np.array([1.0, 0.0]), 0.1, 1000
        )
        grid_problem, grid_net, theta0, step = _six_agent_instance()
        dev_grid = _max_route_deviation(grid_problem, grid_net, theta0, step, 1000)
        assert dev_quad <= 1e-10, f"two-agent deviation {dev_quad:.3e}"
        assert dev_grid <= 1e-10, f"six-agent deviation {dev_grid:.3e}"


def test_criterion_02_route_equivalence_noisy():
    with criterion(
        2, "noisy routes with a shared noise stream agree to 1e-10 over 100 steps", 1.0
    ):
        problem, net, theta0, step = _six_agent_instance()
        dev = _max_route_deviation(
            problem, net, theta0, step, 100, variance=0.01, seed=7
        )
        assert dev <= 1e-10, f"deviation {dev:.3e}"


def test_criterion_03_feasibility_preserved_under_noise():
    with criterion(
        3, "demand mismatch stays below 1e-8 across 100000 noisy iterations", 30.0
    ):
        scenario = build_smart_grid_scenario(0)
        config = replace(scenario.configs["nlgd"], max_iters=100_000)
        trace = run(
            scenario.problem,
            scenario.net,
            scenario.theta_start,
            config,
            theta_ref=scenario.theta_ref,
        )
        final = trace.records[-1]
        assert final.iteration == 100_000
        assert final.feas_residual <= 1e-8, f"residual {final.feas_residual:.3e}"


def test_criterion_04_convex_case_reaches_closed_form():
    with criterion(
        4,
        "20-agent quadratic run certifies grad < 1e-6 and hits the closed-form split",
        5.0,
    ):
        rng = np.random.default_rng(11)
        a = rng.uniform(0.5, 1.5, size=20)
        demand = 4.0
        problem = quadratic_problem(a, demand=demand)
        net = build_laplacian(watts_strogatz(20, 4, 0.2, seed=2))
        lip = float(a.max())
        step = 1.0 / (net.lambda_max * lip)
        theta0 = np.full(20, demand / 20.0)
        psi_start = stacked_value(problem, theta0)
        budget = iteration_budget(
            psi_start, problem.global_min_sum, net.lambda_max * lip, 1e-6, step
        )
        # stop below the target so the gradient bound also pins the iterate
        # to the optimum within 1e-6 (the conversion factor is ~2 here)
        config = RunConfig(
            Algorithm.LGD,
            step_size=step,
            max_iters=min(budget, 200_000),
            record_curvature=True,
            stop_eps=2e-7,
            stop_gamma=1.0,
            early_exit=True,
        )
        trace = run(problem, net, theta0, config)
        assert trace.first_certified_iter is not None, "tolerance never reached"
        assert trace.first_certified_iter <= budget
        # stationarity plus conservation pin down theta_i = (r / sum 1/a) / a_i
        closed_form = (demand / float((1.0 / a).sum())) / a
        gap = float(np.abs(trace.final_theta - closed_form).max())
        assert gap <= 1e-6, f"distance to closed form {gap:.3e}"
        pg = projected_grad_norm(trace.final_theta, problem, net)
        assert pg <= 1e-6, f"projected gradient {pg:.3e}"


def test_criterion_05_derivatives_match_finite_differences():
    with criterion(
        5, "analytic derivatives of all three families pass 100-point fd checks", 5.0
    ):
        worst_grad = worst_hess = 0.0
        for index in range(100):
            rng = np.random.default_rng(900 + index)
            dim = int(rng.integers(1, 4))
            zero = np.zeros(dim)
            quad = quadratic_problem(
                rng.uniform(0.5, 3.0, size=2), zero, c_values=rng.normal(size=(2, dim))
            )
            grid = smart_grid_problem(
                rng.uniform(0.5, 1.5, size=2), rng.uniform(2.0, 3.0, size=2), agent_dim=dim
            )
            folio = portfolio_problem(*sample_portfolio_params(2, dim, rng), zero)
            for problem in (quad, grid, folio):
                point = rng.normal(scale=1.5, size=2 * dim)
                grad_err, hess_err = fd_check(problem, point)
                worst_grad = max(worst_grad, grad_err)
                worst_hess = max(worst_hess, hess_err)
        assert worst_grad <= 1e-6, f"worst gradient error {worst_grad:.3e}"
        assert worst_hess <= 1e-6, f"worst Hessian error {worst_hess:.3e}"


def test_criterion_06_operator_root_is_consistent():
    with criterion(
        6, "root operator squares back to the coupling matrix on 10 sampled graphs", 5.0
    ):
        for seed in range(10):
            net = build_laplacian(watts_strogatz(20, 4, 0.2, seed=seed))
            residual = np.linalg.norm(
                net.sqrt_laplacian @ net.sqrt_laplacian - net.laplacian
            )
            assert residual <= 1e-10 * np.linalg.norm(net.laplacian), f"seed {seed}"
            norm_sq = float(np.linalg.norm(net.sqrt_laplacian, 2) ** 2)
            assert abs(net.lambda_max - norm_sq) <= 1e-10 * max(1.0, net.lambda_max)


def _random_certifiable_instance(rng):
    m = int(rng.integers(2, 7))
    n = int(rng.integers(1, 4))
    family = int(rng.integers(3))
    if family == 0:
        n = 1
        problem = quadratic_problem(
            rng.uniform(0.5, 2.0, size=m),
            demand=float(rng.normal()),
            c_values=rng.normal(size=m),
        )
    elif family == 1:
        a, b = sample_smart_grid_params(m, rng)
        problem = smart_grid_problem(a, b, demand=float(rng.normal()), agent_dim=n)
    else:
        mu, cov, rw, lw = sample_portfolio_params(m, n, rng)
        problem = portfolio_problem(mu, cov, rw, lw, demand=rng.normal(size=n))
    builders = [path_graph, cycle_graph, complete_graph]
    graph = builders[int(rng.integers(3))](m) if m >= 3 else path_graph(2)
    net = build_laplacian(graph, agent_dim=n)
    theta = rng.normal(scale=0.8, size=m * n).reshape(m, n)
    theta += (problem.demand - theta.sum(axis=0)) / m
    return problem, net, theta.reshape(-1)


def test_criterion_07_certificate_transfer():
    with criterion(
        7,
        "lifted-space certificates transfer to the allocation on 100 random instances",
        30.0,
    ):
        for index in range(100):
            rng = np.random.default_rng(5000 + index)
            problem, net, theta = _random_certifiable_instance(rng)
            grad_norm = projected_grad_norm(theta, problem, net)
            min_eig = float(np.linalg.eigvalsh(aux_hessian(theta, problem, net))[0])
            eps = grad_norm + 1e-9
            _, gamma = transfer_certificate(eps, max(-min_eig, 0.0), net)
            report = classify(theta, problem, net, eps, gamma + 1e-9)
            assert report.classification is Classification.SECOND_ORDER, (
                f"instance {index}: {report.classification}"
            )


def test_criterion_08_noise_speeds_saddle_escape(escape_batch):
    batch, build_seconds = escape_batch
    with criterion(
        8,
        "noisy runs escape the saddle within budget and no later than noiseless ones "
        "on at least 18 of 20 seeds",
        5.0,
    ):
        # the run budget is dominated by the shared batch, timed separately
        lgd = {r.seed: r.escape_iteration for r in batch.runs if r.label == "lgd"}
        nlgd = {r.seed: r.escape_iteration for r in batch.runs if r.label == "nlgd"}
        assert set(lgd) == set(nlgd) == set(range(20))

        escaped = sum(1 for it in nlgd.values() if it is not None)
        as_number = lambda it: math.inf if it is None else it
        wins = sum(
            1 for seed in nlgd if as_number(nlgd[seed]) <= as_number(lgd[seed])
        )
        assert escaped >= 18, f"only {escaped}/20 noisy runs escaped"
        assert wins >= 18, f"noisy runs beat noiseless on only {wins}/20 seeds"
    assert build_seconds < 300.0, f"comparison batch took {build_seconds:.0f}s"
    print(f"[criterion 08] batch wall time {build_seconds:.0f}s / limit 300s")


def test_criterion_09_escaped_runs_end_second_order(escape_batch):
    batch, build_seconds = escape_batch
    with criterion(
        9,
        "every escaped noisy run terminates with tangent curvature above the "
        "transferred tolerance",
        5.0,
    ):
        escaped = [
            r
            for r in batch.runs
            if r.label == "nlgd" and r.escape_iteration is not None
        ]
        assert escaped, "no escaped runs to certify"
        for result in escaped:
            report = result.final_report
            assert report.tangent_min_curvature >= -report.gamma, (
                f"seed {result.seed}: curvature {report.tangent_min_curvature:.3e} "
                f"below -{report.gamma:.3e}"
            )
            assert report.classification is Classification.SECOND_ORDER
    assert build_seconds < 300.0


def test_criterion_10_parameter_calculators_frozen():
    with criterion(
        10, "variance and budget calculators reproduce hand-computed values", 1.0
    ):
        variance = variance_for_tolerance(0.1, 20, 1)
        assert variance == 0.1**2 / (12 * 20 * 1)
        assert abs(variance - 4.1667e-5) <= 1e-9
        assert iteration_budget(1.0, 0.0, 1.0, 0.1, 0.1) == 10000
