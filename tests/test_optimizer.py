"""Update rules, run loop behavior, and parameter calculators."""

import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from lapgd import optimizer
from lapgd.network import (
    apply_lifted,
    block_sum,
    build_laplacian,
    cycle_graph,
    path_graph,
    watts_strogatz,
)
from lapgd.objectives import (
    quadratic_problem,
    sample_smart_grid_params,
    smart_grid_problem,
)
from lapgd.optimizer import (
    DIVERGENCE_NORM,
    Algorithm,
    DescentViolationError,
    DivergenceError,
    InfeasibleStartError,
    RunConfig,
    Trace,
    TraceRecord,
    aux_gd_step,
    aux_ngd_step,
    curvature_tolerance,
    initial_state,
    iteration_budget,
    lgd_step,
    edge_kicks,
    nlgd_step,
    run,
    theoretical_step_bound,
    variance_for_tolerance,
)
from lapgd.stationarity import Classification, default_feas_tol, judge, projected_grad_norm


def two_agent_quadratic():
    problem = quadratic_problem([1.0, 1.0], demand=1.0)
    return problem, build_laplacian(path_graph(2))


# ---------------------------------------------------------------------------
# single steps


def test_lgd_step_frozen():
    # gradient (1, 0), coupled direction (1, -1): step 0.1 gives (0.9, 0.1)
    problem, net = two_agent_quadratic()
    state = initial_state(np.array([1.0, 0.0]), with_aux=False)
    out = lgd_step(state, problem, net, 0.1)
    assert np.allclose(out.theta, [0.9, 0.1], atol=1e-15)
    assert out.iteration == 1


def test_lgd_step_fixed_at_consensus_gradient():
    # equal local gradients produce a bitwise-zero update direction
    problem = quadratic_problem([2.0, 2.0], demand=1.4)
    net = build_laplacian(path_graph(2))
    state = initial_state(np.array([0.7, 0.7]), with_aux=False)
    out = lgd_step(state, problem, net, 0.3)
    assert np.array_equal(out.theta, state.theta)


def test_steps_preserve_block_sums():
    rng = np.random.default_rng(2)
    a, b = sample_smart_grid_params(6, rng)
    problem = smart_grid_problem(a, b, demand=2.0)
    net = build_laplacian(watts_strogatz(6, 2, 0.3, seed=1))
    theta = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    state = initial_state(theta, with_aux=False)
    noise_rng = np.random.default_rng(7)
    for k in range(200):
        if k % 2:
            state = nlgd_step(state, problem, net, 0.01, 0.04, noise_rng)
        else:
            state = lgd_step(state, problem, net, 0.01)
    # noisy steps move along the root, whose kernel root is exactly 0
    assert abs(float(block_sum(state.theta, 1)[0]) - 2.0) <= 1e-12

    plain = initial_state(theta, with_aux=False)
    for _ in range(200):
        plain = lgd_step(plain, problem, net, 0.01)
    assert abs(float(block_sum(plain.theta, 1)[0]) - 2.0) <= 1e-12


def test_aux_step_matches_direct_step_from_anchor():
    problem, net = two_agent_quadratic()
    theta0 = np.array([1.0, 0.0])
    direct = lgd_step(initial_state(theta0, with_aux=False), problem, net, 0.1)
    lifted = aux_gd_step(initial_state(theta0, with_aux=True), problem, net, 0.1)
    assert np.allclose(lifted.theta, direct.theta, atol=1e-15)


def test_direct_step_rejects_lifted_state():
    # a lap-weighted step would move theta away from anchor + S aux_x
    problem, net = two_agent_quadratic()
    lifted = initial_state(np.array([1.0, 0.0]), with_aux=True)
    with pytest.raises(ValueError, match="aux_x"):
        lgd_step(lifted, problem, net, 0.1)
    with pytest.raises(ValueError, match="aux_x"):
        nlgd_step(lifted, problem, net, 0.1, 0.01, np.random.default_rng(0))


def test_run_config_rejects_lifted_algorithm():
    with pytest.raises(ValueError, match="aux_gd"):
        RunConfig(algorithm="aux_gd", step_size=0.1, max_iters=10)


# ---------------------------------------------------------------------------
# noise


def test_zero_variance_aux_ngd_step_draws_nothing():
    problem, net = two_agent_quadratic()
    state = initial_state(np.array([1.0, 0.0]), with_aux=True)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    silent = aux_ngd_step(state, problem, net, 0.1, 0.0, rng)
    # the generator must not advance, so a later draw is unaffected
    assert rng.bit_generator.state == before
    plain = aux_gd_step(state, problem, net, 0.1)
    assert np.array_equal(silent.theta, plain.theta)
    assert np.array_equal(silent.aux_x, plain.aux_x)


@pytest.mark.parametrize("n", [1, 2])
def test_lifted_kick_has_the_law_sigma_squared_laplacian(n):
    # the step lifts the edge kicks sigma eta by B'; sigma (B' (x) I_n) eta
    # with eta ~ N(0, I) has covariance sigma^2 L (x) I_n
    net = build_laplacian(watts_strogatz(6, 2, 0.3, seed=4), agent_dim=n)
    sigma, draws = 0.3, 20_000
    edge = edge_kicks(net, np.array([sigma]), [np.random.default_rng(17)], draws)[0]
    assert edge.shape == (draws, net.edge_count * n)
    kicks = apply_lifted(net.incidence_t, edge, n)
    assert np.abs(block_sum(kicks, n)).max() <= 1e-13
    want = sigma**2 * np.kron(net.laplacian, np.eye(n))
    got = kicks.T @ kicks / draws
    # a zero-mean Gaussian's empirical second moment has entry variance
    # (C_ii C_jj + C_ij^2) / N; allow five standard deviations per entry
    diag = np.diag(want)
    bound = 5.0 * np.sqrt((np.outer(diag, diag) + want**2) / draws)
    assert (np.abs(got - want) <= bound).all()


def test_noisy_step_adds_the_lifted_kick():
    problem, net = two_agent_quadratic()
    state = initial_state(np.array([1.0, 0.0]), with_aux=False)
    noisy = nlgd_step(state, problem, net, 0.1, 0.04, np.random.default_rng(3))
    quiet = lgd_step(state, problem, net, 0.1)
    edge = edge_kicks(net, np.array([0.2]), [np.random.default_rng(3)], 1)[0, 0]
    kick = apply_lifted(net.incidence_t, edge, 1)
    assert np.allclose(noisy.theta - quiet.theta, -0.1 * kick, rtol=0, atol=1e-15)


def test_edge_kicks_use_each_runs_own_stream():
    net = build_laplacian(cycle_graph(5), agent_dim=2)
    sigmas = np.array([0.5, 2.0])
    stacked = edge_kicks(net, sigmas, [np.random.default_rng(s) for s in (1, 2)], 3)
    assert stacked.shape == (2, 3, net.edge_count * 2)
    for row, seed in enumerate((1, 2)):
        rng = np.random.default_rng(seed)
        alone = [edge_kicks(net, sigmas[row:row + 1], [rng], 1)[0, 0] for _ in range(3)]
        assert np.array_equal(stacked[row], np.array(alone))


def test_zero_variance_noisy_run_is_bitwise_deterministic():
    problem, net = two_agent_quadratic()
    theta0 = np.array([1.0, 0.0])
    base = RunConfig(Algorithm.LGD, step_size=0.1, max_iters=50)
    noisy = RunConfig(Algorithm.NLGD, step_size=0.1, max_iters=50, noise_variance=0.0)
    plain = run(problem, net, theta0, base)
    silent = run(problem, net, theta0, noisy)
    assert np.array_equal(plain.final_theta, silent.final_theta)
    assert [r.f_value for r in plain.records] == [r.f_value for r in silent.records]


def test_noise_changes_the_path():
    problem, net = two_agent_quadratic()
    theta0 = np.array([1.0, 0.0])
    noisy = RunConfig(Algorithm.NLGD, step_size=0.1, max_iters=5, noise_variance=0.01)
    out = run(problem, net, theta0, noisy)
    quiet = run(problem, net, theta0, replace(noisy, noise_variance=0.0))
    assert not np.array_equal(out.final_theta, quiet.final_theta)


def test_noisy_runs_deterministic_per_seed():
    problem, net = two_agent_quadratic()
    theta0 = np.array([1.0, 0.0])
    cfg = RunConfig(Algorithm.NLGD, step_size=0.1, max_iters=40, noise_variance=0.01, seed=5)
    first = run(problem, net, theta0, cfg)
    second = run(problem, net, theta0, cfg)
    assert np.array_equal(first.final_theta, second.final_theta)
    other = run(problem, net, theta0, replace(cfg, seed=6))
    assert not np.array_equal(first.final_theta, other.final_theta)


# ---------------------------------------------------------------------------
# the two numerical routes agree


def test_routes_agree_noiseless():
    problem, net = two_agent_quadratic()
    theta0 = np.array([1.0, 0.0])
    direct = initial_state(theta0, with_aux=False)
    lifted = initial_state(theta0, with_aux=True)
    worst = 0.0
    for _ in range(100):
        direct = lgd_step(direct, problem, net, 0.1)
        lifted = aux_gd_step(lifted, problem, net, 0.1)
        worst = max(worst, float(np.linalg.norm(direct.theta - lifted.theta)))
    assert worst <= 1e-10


def test_routes_agree_with_shared_noise():
    rng = np.random.default_rng(3)
    a, b = sample_smart_grid_params(4, rng)
    problem = smart_grid_problem(a, b)
    net = build_laplacian(cycle_graph(4))
    theta0 = np.zeros(4) + np.array([0.02, -0.01, 0.0, -0.01])
    direct = initial_state(theta0, with_aux=False)
    lifted = initial_state(theta0, with_aux=True)
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        direct = nlgd_step(direct, problem, net, 0.05, 0.01, rng_a)
        lifted = aux_ngd_step(lifted, problem, net, 0.05, 0.01, rng_b)
        worst = max(worst, float(np.linalg.norm(direct.theta - lifted.theta)))
    assert worst <= 1e-10


# ---------------------------------------------------------------------------
# run loop mechanics


def test_run_rejects_infeasible_start():
    problem, net = two_agent_quadratic()
    with pytest.raises(InfeasibleStartError):
        run(problem, net, np.array([1.0, 1.0]), RunConfig(Algorithm.LGD, 0.1, 10))


def test_run_rejects_wrong_shapes():
    problem, net = two_agent_quadratic()
    with pytest.raises(ValueError):
        run(problem, net, np.ones(3), RunConfig(Algorithm.LGD, 0.1, 10))
    wide = build_laplacian(path_graph(2), agent_dim=3)
    with pytest.raises(ValueError, match="agent_dim"):
        run(problem, wide, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 0.1, 10))


def test_run_converges_to_constrained_optimum():
    problem, net = two_agent_quadratic()
    trace = run(problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 0.1, 2000))
    assert np.allclose(trace.final_theta, [0.5, 0.5], atol=1e-12)
    assert projected_grad_norm(trace.final_theta, problem, net) <= 1e-12


def test_run_stationary_start_stays_put():
    problem, net = two_agent_quadratic()
    start = np.array([0.5, 0.5])
    trace = run(problem, net, start, RunConfig(Algorithm.LGD, 0.1, 10))
    assert np.array_equal(trace.final_theta, start)
    assert trace.records[-1].f_value == trace.records[0].f_value


def test_run_divergence_guard():
    problem, net = two_agent_quadratic()
    with pytest.raises(DivergenceError) as err:
        run(problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 1e3, 10000))
    assert err.value.iteration >= 1
    assert isinstance(err.value.trace, Trace)
    assert len(err.value.trace.records) >= 1


def test_divergence_guard_stops_at_the_first_iterate_past_its_norm():
    # step 1.1 multiplies the tangent part (1, -1) d / 2 of the iterate by
    # -1.2 per step, so the first iterate past the guard is less than 1.2
    # times it: a run alone must stop there, and a stack-sum pre-check
    # that let squared norms up to 1.44 times the guard's through would
    # miss it
    problem, net = two_agent_quadratic()
    past = next(t for t in range(1, 1000) if 0.5 + 1.44**t / 2 > DIVERGENCE_NORM**2)
    with pytest.raises(DivergenceError) as err:
        run(problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 1.1, 1000))
    assert err.value.iteration == past == 154


def test_diverged_run_keeps_its_first_certified_iteration():
    # thresholds no record can miss certify the start; step 3 then
    # diverges, and the error's trace still says where it was certified
    problem, net = two_agent_quadratic()
    cfg = RunConfig(Algorithm.LGD, 3.0, 100, record_curvature=True, stop_eps=1e9, stop_gamma=1e9)
    with pytest.raises(DivergenceError) as err:
        run(problem, net, np.array([1.0, 0.0]), cfg)
    assert err.value.iteration == 18
    assert err.value.trace.first_certified_iter == 0


def test_record_stride_includes_endpoints():
    problem, net = two_agent_quadratic()
    trace = run(
        problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 0.1, 10, record_every=3)
    )
    assert [r.iteration for r in trace.records] == [0, 3, 6, 9, 10]
    aligned = run(
        problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 0.1, 9, record_every=3)
    )
    assert [r.iteration for r in aligned.records] == [0, 3, 6, 9]
    assert trace.iterations_run == 10


def test_record_optional_fields():
    problem, net = two_agent_quadratic()
    ref = np.array([0.5, 0.5])
    bare = run(problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 0.1, 5))
    assert bare.records[0].tangent_curvature is None
    assert bare.records[0].dist_to_ref is None
    rich = run(
        problem,
        net,
        np.array([1.0, 0.0]),
        RunConfig(Algorithm.LGD, 0.1, 5, record_curvature=True),
        theta_ref=ref,
    )
    assert rich.records[0].tangent_curvature == pytest.approx(1.0, abs=1e-12)
    # start sits at distance sqrt(0.5) from the reference point
    assert rich.records[0].dist_to_ref == pytest.approx(math.sqrt(0.5), abs=1e-12)


def smart_grid_run_setup():
    rng = np.random.default_rng(5)
    a, b = sample_smart_grid_params(5, rng)
    problem = smart_grid_problem(a, b, demand=0.5)
    start = np.full(5, 0.1) + np.array([0.2, -0.1, 0.0, 0.05, -0.15])
    return problem, build_laplacian(cycle_graph(5)), start


@pytest.mark.parametrize("curvature", [False, True])
@pytest.mark.parametrize("with_ref", [False, True])
def test_trace_records_read_the_columns(curvature, with_ref):
    problem, net, start = smart_grid_run_setup()
    config = RunConfig(Algorithm.NLGD, 0.05, 40, noise_variance=1e-3, seed=2,
                       record_every=3, record_curvature=curvature)
    trace = run(problem, net, start, config, theta_ref=np.full(5, 0.1) if with_ref else None)
    columns = {
        "iteration": trace.iterations, "f_value": trace.f_value,
        "feas_residual": trace.feas_residual, "proj_grad_norm": trace.proj_grad_norm,
        "tangent_curvature": trace.tangent_curvature, "dist_to_ref": trace.dist_to_ref,
    }
    assert (columns["tangent_curvature"] is None) is not curvature
    assert (columns["dist_to_ref"] is None) is not with_ref
    assert trace.iterations.tolist() == [*range(0, 40, 3), 40]
    records = trace.records
    assert all(isinstance(record, TraceRecord) for record in records)
    for name, column in columns.items():
        got = [getattr(record, name) for record in records]
        if column is None:
            assert got == [None] * len(records)
            continue
        assert column.dtype == (np.int64 if name == "iteration" else np.float64)
        assert got == column.tolist()
        assert all(type(value) is (int if name == "iteration" else float) for value in got)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0


def test_recorded_nan_curvature_stays_nan(monkeypatch):
    problem, net, start = smart_grid_run_setup()
    monkeypatch.setattr(
        optimizer, "tangent_min_curvature", lambda theta, problem: np.full(len(theta), np.nan)
    )
    trace = run(problem, net, start, RunConfig(Algorithm.LGD, 0.05, 6, record_curvature=True))
    assert np.isnan(trace.tangent_curvature).all() and len(trace.tangent_curvature) == 7
    assert all(math.isnan(record.tangent_curvature) for record in trace.records)
    assert trace.dist_to_ref is None


def test_overflowing_step_diverges_without_a_warning():
    problem, net = two_agent_quadratic()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run(problem, net, np.array([1.0, 0.0]), RunConfig(Algorithm.LGD, 1e300, 10))
    assert err.value.iteration == 1


def test_early_exit_under_a_budget_of_1e15_steps():
    # nothing is sized from max_iters: the run starts and stops at its
    # first certified record
    problem, net = two_agent_quadratic()
    cfg = RunConfig(Algorithm.LGD, 0.1, 10**15, record_curvature=True,
                    stop_eps=1e-3, stop_gamma=1.0, early_exit=True)
    trace = run(problem, net, np.array([1.0, 0.0]), cfg)
    feas_tol = default_feas_tol(problem.demand)
    verdicts = [judge(r, 1e-3, 1.0, feas_tol).classification for r in trace.records]
    assert verdicts[-1] is Classification.SECOND_ORDER
    assert Classification.SECOND_ORDER not in verdicts[:-1]
    assert trace.iterations_run == trace.first_certified_iter == trace.records[-1].iteration


def test_early_exit_on_certificate():
    problem, net = two_agent_quadratic()
    cfg = RunConfig(
        Algorithm.LGD,
        0.1,
        10000,
        record_curvature=True,
        stop_eps=1e-3,
        stop_gamma=1.0,
        early_exit=True,
    )
    trace = run(problem, net, np.array([1.0, 0.0]), cfg)
    assert trace.first_certified_iter is not None
    assert trace.iterations_run == trace.first_certified_iter < 10000
    assert trace.records[-1].proj_grad_norm <= 1e-3


def test_certificate_marked_without_early_exit():
    problem, net = two_agent_quadratic()
    cfg = RunConfig(
        Algorithm.LGD,
        0.1,
        60,
        record_curvature=True,
        stop_eps=1e-3,
        stop_gamma=1.0,
        early_exit=False,
    )
    trace = run(problem, net, np.array([1.0, 0.0]), cfg)
    assert trace.iterations_run == 60
    assert trace.first_certified_iter is not None
    assert trace.first_certified_iter < 60


def test_descent_monitor_accepts_valid_step():
    rng = np.random.default_rng(4)
    a, b = sample_smart_grid_params(6, rng)
    problem = smart_grid_problem(a, b)
    net = build_laplacian(watts_strogatz(6, 2, 0.2, seed=3))
    lip = problem.lip_grad
    cfg = RunConfig(
        Algorithm.LGD,
        step_size=0.5 / (net.lambda_max * lip),
        max_iters=300,
        monitor_descent=True,
    )
    theta0 = np.concatenate([[0.01], np.zeros(5)])
    theta0 -= theta0.mean()
    trace = run(problem, net, theta0, cfg)  # must not raise
    assert trace.iterations_run == 300


def test_descent_monitor_catches_lying_smoothness_bound():
    # a problem that understates its gradient Lipschitz constant makes
    # the guaranteed decrease fail, which the monitor must report for lgd
    # and for nlgd at zero variance alike: both take the same update
    problem, net = two_agent_quadratic()
    bad = replace(problem, lip_grad=1e-6)
    start = np.array([1.0, 0.0])
    for algorithm in Algorithm:
        cfg = RunConfig(algorithm, step_size=3.0, max_iters=50, monitor_descent=True)
        with pytest.raises(DescentViolationError) as err:
            run(bad, net, start, cfg)
        assert err.value.iteration == 0
        # the error carries the records up to the violation and the
        # iterate one step past it
        one_step = run(bad, net, start, replace(cfg, max_iters=1, monitor_descent=False))
        assert err.value.trace.records == one_step.records[:1]
        assert np.array_equal(err.value.trace.final_theta, one_step.final_theta)
        assert err.value.trace.iterations_run == 1


def test_descent_monitor_catches_a_small_violation():
    # lip_grad understated by delta = 1e-4: the objective drops by 0.09,
    # short of its bound 0.090001 by 4 alpha^2 x^2 delta = 1e-6, which is
    # far above the check's 1e-9 rounding allowance
    problem = replace(quadratic_problem([1.0, 1.0], 0.0), lip_grad=1.0 - 1e-4)
    net = build_laplacian(path_graph(2))
    cfg = RunConfig(Algorithm.LGD, step_size=0.1, max_iters=5, monitor_descent=True)
    with pytest.raises(DescentViolationError) as err:
        run(problem, net, np.array([0.5, -0.5]), cfg)
    assert err.value.iteration == 0
    assert [record.iteration for record in err.value.trace.records] == [0]


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(Algorithm.LGD, step_size=0.0, max_iters=10)
    with pytest.raises(ValueError):
        RunConfig(Algorithm.LGD, step_size=0.1, max_iters=0)
    with pytest.raises(ValueError):
        RunConfig(Algorithm.NLGD, step_size=0.1, max_iters=10, noise_variance=-1.0)
    with pytest.raises(ValueError, match="noise"):
        RunConfig(Algorithm.LGD, step_size=0.1, max_iters=10, noise_variance=0.5)
    with pytest.raises(ValueError, match="stop"):
        RunConfig(Algorithm.LGD, 0.1, 10, stop_eps=1e-3)
    with pytest.raises(ValueError, match="record_curvature"):
        RunConfig(Algorithm.LGD, 0.1, 10, stop_eps=1e-3, stop_gamma=1.0)
    with pytest.raises(ValueError, match="early_exit"):
        RunConfig(Algorithm.LGD, 0.1, 10, early_exit=True)
    # the descent inequality holds only for noiseless runs
    with pytest.raises(ValueError, match="monitor_descent"):
        RunConfig(Algorithm.NLGD, 0.1, 10, noise_variance=0.5, monitor_descent=True)


@pytest.mark.parametrize(
    "fields",
    [
        {"step_size": math.nan},
        {"algorithm": Algorithm.NLGD, "noise_variance": math.nan},
        {"record_curvature": True, "stop_eps": math.nan, "stop_gamma": 1.0},
        {"record_curvature": True, "stop_eps": -1e-3, "stop_gamma": 1.0},
        {"record_curvature": True, "stop_eps": 1e-3, "stop_gamma": math.nan},
        {"record_curvature": True, "stop_eps": 1e-3, "stop_gamma": -1.0},
    ],
    ids=[
        "nan_step_size",
        "nan_noise_variance",
        "nan_stop_eps",
        "negative_stop_eps",
        "nan_stop_gamma",
        "negative_stop_gamma",
    ],
)
def test_config_rejects_non_finite_and_negative(fields):
    base = {"algorithm": Algorithm.LGD, "step_size": 0.1, "max_iters": 10}
    with pytest.raises(ValueError):
        RunConfig(**{**base, **fields})


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"max_iters": 2.5}, "max_iters must be an integer, got 2.5"),
        ({"max_iters": True}, "max_iters must be an integer, got True"),
        ({"max_iters": "3"}, "max_iters must be an integer, got '3'"),
        ({"record_every": 1.5}, "record_every must be an integer, got 1.5"),
        ({"record_every": True}, "record_every must be an integer, got True"),
        ({"record_every": 0}, "record_every must be >= 1, got 0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"seed": -1}, "seed must be >= 0, got -1"),
    ],
    ids=[
        "max_iters_fraction",
        "max_iters_bool",
        "max_iters_string",
        "record_every_fraction",
        "record_every_bool",
        "record_every_zero",
        "seed_fraction",
        "seed_bool",
        "seed_negative",
    ],
)
def test_config_refuses_counts_that_are_not_integers(fields, message):
    # a fractional max_iters or record_every used to stall the run loop:
    # at t = 2, max_iters = 2.5 left a span of int(2.5) - 2 = 0 steps
    with pytest.raises(ValueError) as err:
        RunConfig(**{"algorithm": Algorithm.LGD, "step_size": 0.1, "max_iters": 3, **fields})
    assert str(err.value) == message


def test_config_reads_integral_counts_as_ints():
    cfg = RunConfig(Algorithm.LGD, 0.1, np.int64(3), seed=np.int64(2), record_every=1.0)
    counts = (cfg.max_iters, cfg.record_every, cfg.seed)
    assert counts == (3, 1, 2) and all(type(count) is int for count in counts)
    problem = quadratic_problem([1.0, 2.0, 4.0], 3.0)
    trace = run(problem, build_laplacian(cycle_graph(3)), np.ones(3), cfg)
    assert [record.iteration for record in trace.records] == [0, 1, 2, 3]


@pytest.mark.parametrize(
    "start", [[math.nan, 1.0], [math.inf, -math.inf]], ids=["nan", "inf"]
)
def test_run_rejects_non_finite_start_as_input_error(start):
    problem, net = two_agent_quadratic()
    with pytest.raises(ValueError, match="non-finite") as err:
        run(problem, net, np.array(start), RunConfig(Algorithm.LGD, 0.1, 10))
    assert not isinstance(err.value, InfeasibleStartError)


def test_algorithm_coerced_from_string():
    cfg = RunConfig("nlgd", step_size=0.1, max_iters=10, noise_variance=0.1)
    assert cfg.algorithm is Algorithm.NLGD


# ---------------------------------------------------------------------------
# parameter calculators


def test_step_bound_frozen():
    # p = e^-1: -2 ln p = 2 caps at the base value 1/(2*1)
    assert theoretical_step_bound(math.exp(-1.0), 1.0, 2.0) == pytest.approx(0.5)
    # p = e^-0.25: -2 ln p = 0.5 halves the base value 1/(1*2)
    assert theoretical_step_bound(math.exp(-0.25), 2.0, 1.0) == pytest.approx(0.25)


def test_step_bound_monotone_in_failure_prob():
    # rarer failures require smaller steps
    loose = theoretical_step_bound(0.5, 1.0, 1.0)
    tight = theoretical_step_bound(0.99, 1.0, 1.0)
    assert tight < loose <= 1.0


def test_step_bound_validation():
    with pytest.raises(ValueError):
        theoretical_step_bound(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_step_bound(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        theoretical_step_bound(0.5, -1.0, 1.0)


def test_variance_for_tolerance_frozen():
    assert variance_for_tolerance(1.0, 2, 1) == pytest.approx(1.0 / 24.0, rel=1e-15)
    # exact expression, not just approximate
    assert variance_for_tolerance(0.1, 20, 1) == 0.1**2 / (12 * 20 * 1)
    # quadratic scaling in the tolerance
    assert variance_for_tolerance(0.2, 5, 3) == pytest.approx(
        4.0 * variance_for_tolerance(0.1, 5, 3), rel=1e-14
    )
    with pytest.raises(ValueError):
        variance_for_tolerance(0.0, 2, 1)
    with pytest.raises(ValueError):
        variance_for_tolerance(0.1, 0, 1)


def test_iteration_budget_frozen():
    # gap 1 over (1 * 0.01 * 0.01) = 10000, an exact integer
    assert iteration_budget(1.0, 0.0, 1.0, 0.1, 0.1) == 10000
    # gap 2.5 over (2 * 0.25 * 1e-4) = 50000
    assert iteration_budget(2.5, 0.0, 2.0, 0.5, 0.01) == 50000
    # zero gap clamps to a single iteration
    assert iteration_budget(3.0, 3.0, 1.0, 0.1, 0.1) == 1


def test_iteration_budget_validation():
    with pytest.raises(ValueError, match="below the lower bound"):
        iteration_budget(0.0, 1.0, 1.0, 0.1, 0.1)
    with pytest.raises(ValueError):
        iteration_budget(1.0, 0.0, -1.0, 0.1, 0.1)


BAD_REALS = [math.inf, -math.inf, math.nan, -0.1]
BAD_IDS = ["inf", "-inf", "nan", "negative"]


@pytest.mark.parametrize("bad", BAD_REALS, ids=BAD_IDS)
def test_variance_for_tolerance_refuses_bad_grad_tol(bad):
    with pytest.raises(ValueError, match="grad_tol must be positive and finite"):
        variance_for_tolerance(bad, 2, 1)


@pytest.mark.parametrize("bad", BAD_REALS, ids=BAD_IDS)
@pytest.mark.parametrize("name", ["grad_tol", "lambda_max", "lip_hess"])
def test_curvature_tolerance_refuses_bad_arguments(name, bad):
    args = {"grad_tol": 0.1, "lambda_max": 4.0, "lip_hess": 1.0}
    with pytest.raises(ValueError, match=f"{name} must be >= 0 and finite"):
        curvature_tolerance(**{**args, name: bad})


def test_curvature_tolerance_frozen():
    # sqrt(0.1 * 4^1.5 * 1.25) = sqrt(1) and a quadratic's L_hess = 0
    assert curvature_tolerance(0.1, 4.0, 1.25) == pytest.approx(1.0, rel=1e-15)
    assert curvature_tolerance(0.0, 4.0, 1.0) == 0.0
    assert curvature_tolerance(0.1, 4.0, 0.0) == 0.0


@pytest.mark.parametrize(
    "name, bad",
    [
        (name, bad)
        for name in ["psi_start", "min_sum", "lip_grad_aux", "grad_tol", "step_size"]
        # objective values may be negative; only their gap may not
        for bad in (BAD_REALS[:3] if name in ("psi_start", "min_sum") else BAD_REALS)
    ],
)
def test_iteration_budget_refuses_bad_arguments(name, bad):
    args = {"psi_start": 1.0, "min_sum": 0.0, "lip_grad_aux": 1.0, "grad_tol": 0.1, "step_size": 0.1}
    with pytest.raises(ValueError, match=name):
        iteration_budget(**{**args, name: bad})


# Last in the file: under tracemalloc the run takes seconds, which tests
# that stop at an earlier failure do not pay.
def test_trace_holds_under_100_bytes_per_record():
    # a record is one row of int64 and float64 columns, 40 B with a
    # reference: objects per record would take a few hundred bytes
    problem, net = two_agent_quadratic()
    start, ref = np.array([1.0, 0.0]), np.array([0.5, 0.5])
    config = RunConfig(Algorithm.LGD, 0.1, 19_999)
    run(problem, net, start, replace(config, max_iters=10), theta_ref=ref)  # warm caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = run(problem, net, start, config, theta_ref=ref)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace.records) == 20_000
    assert held / 20_000 <= 100
