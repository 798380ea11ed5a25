"""The stacked run engine: every run in a stack gets the trace it would
get alone, failures are per run, and block noise equals per-step noise."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import scipy.sparse
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lapgd.experiments import (
    Scenario,
    final_report,
    run_batch,
    start_for_seed,
    tangent_perturbation,
)
from lapgd.network import DENSE_MAX_M, build_laplacian, cycle_graph, path_graph, watts_strogatz
from lapgd import optimizer
from lapgd.objectives import (
    lipschitz_constants,
    portfolio_problem,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
    stacked_value,
)
from lapgd.optimizer import (
    Algorithm,
    DescentViolationError,
    DivergenceError,
    RunConfig,
    initial_state,
    edge_kicks,
    lgd_step,
    nlgd_step,
    run,
    run_many,
)

ENGINE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FAMILIES = ("quadratic", "smart_grid_1", "smart_grid_2", "portfolio")


def build_problem(family: str, m: int, rng):
    if family == "quadratic":
        problem = quadratic_problem(
            rng.uniform(0.5, 2.0, size=m), demand=1.5, c_values=rng.normal(size=m)
        )
    elif family == "portfolio":
        mu, cov, rw, lw = sample_portfolio_params(m, 3, rng)
        problem = portfolio_problem(mu, cov, rw, lw, demand=np.ones(3))
    else:
        n = 1 if family == "smart_grid_1" else 2
        a, b = sample_smart_grid_params(m, rng)
        problem = smart_grid_problem(a, b, demand=0.5, agent_dim=n)
    graph = cycle_graph(m) if m >= 3 else path_graph(2)
    return problem, build_laplacian(graph, agent_dim=problem.n)


def scenario_for(problem, net, graph=None) -> Scenario:
    base = np.tile(problem.demand / problem.m, problem.m)
    return Scenario(
        name="engine_test",
        seed=0,
        problem=problem,
        net=net,
        graph=graph,
        theta_start=base,
        theta_ref=base,
        base_point=base,
        init_scale=0.3,
        configs={},
    )


def safe_step(problem, net) -> float:
    lip_grad, _ = lipschitz_constants(problem)
    return 1.0 / (net.lambda_max * lip_grad)


config_spec = st.fixed_dictionaries(
    {
        "algorithm": st.sampled_from(list(Algorithm)),
        "step_scale": st.sampled_from([0.1, 0.3, 0.5]),
        "sigma": st.sampled_from([0.0, 0.05, 0.2]),
        "record_every": st.sampled_from([1, 4, 7]),
        "max_iters": st.sampled_from([9, 20]),
        "record_curvature": st.booleans(),
        "stop_eps": st.sampled_from([None, 0.05, 0.5]),
        "early_exit": st.booleans(),
        "monitor_descent": st.booleans(),
    }
)


def make_config(spec: dict, step: float) -> RunConfig:
    noisy = spec["algorithm"] is Algorithm.NLGD
    stop_eps = spec["stop_eps"]
    return RunConfig(
        algorithm=spec["algorithm"],
        step_size=spec["step_scale"] * step,
        max_iters=spec["max_iters"],
        noise_variance=spec["sigma"] ** 2 if noisy else 0.0,
        record_every=spec["record_every"],
        record_curvature=spec["record_curvature"] or stop_eps is not None,
        monitor_descent=spec["monitor_descent"],
        stop_eps=stop_eps,
        stop_gamma=None if stop_eps is None else 0.5,
        early_exit=spec["early_exit"] and stop_eps is not None,
    )


def assert_same_trace(got, want):
    assert got.records == want.records
    assert np.array_equal(got.final_theta, want.final_theta)
    assert got.iterations_run == want.iterations_run
    assert got.first_certified_iter == want.first_certified_iter


def assert_same_error(got, want):
    assert type(got) is type(want)
    assert got.iteration == want.iteration
    assert str(got) == str(want)
    if isinstance(want, DivergenceError):
        assert_same_trace(got.trace, want.trace)


def serial_outcome(scenario, seed, config):
    start = start_for_seed(scenario, seed)
    try:
        return run(scenario.problem, scenario.net, start, config, theta_ref=scenario.theta_ref)
    except (DivergenceError, DescentViolationError) as exc:
        return exc


@ENGINE_SETTINGS
@given(
    family=st.sampled_from(FAMILIES),
    # the last size is above the dense-storage constant: CSR operators
    m=st.sampled_from([2, 3, 4, 5, DENSE_MAX_M + 1]),
    param_seed=st.integers(0, 2**16),
    specs=st.lists(config_spec, min_size=1, max_size=5),
    seeds=st.lists(st.integers(0, 50), min_size=1, max_size=3, unique=True),
)
def test_batch_traces_equal_independent_runs(family, m, param_seed, specs, seeds):
    problem, net = build_problem(family, m, np.random.default_rng(param_seed))
    step = safe_step(problem, net)
    configs = {f"c{k}": make_config(spec, step) for k, spec in enumerate(specs)}
    scenario = scenario_for(problem, net)
    with mock.patch("lapgd.experiments.run_many", wraps=run_many) as engine:
        try:
            batch = run_batch(scenario, seeds, configs)
        except (DivergenceError, DescentViolationError) as exc:
            batch = exc
    # every pair, whatever its budget and record stride, is in one stack
    assert engine.call_count == 1
    if isinstance(batch, Exception):
        # the batch raises the error of the first failing run in serial order
        for seed in seeds:
            for index, (label, config) in enumerate(configs.items()):
                seeded = replace(config, seed=_noise_seed(seed, index))
                outcome = serial_outcome(scenario, seed, seeded)
                if isinstance(outcome, Exception):
                    assert_same_error(batch, outcome)
                    return
        pytest.fail("batch raised but no serial run fails")
    assert [(r.seed, r.label) for r in batch.runs] == [
        (seed, label) for seed in seeds for label in configs
    ]
    for result in batch.runs:
        alone = serial_outcome(scenario, result.seed, result.config)
        assert not isinstance(alone, Exception)
        assert_same_trace(result.trace, alone)


def test_sparse_batch_never_builds_the_dense_references():
    m = DENSE_MAX_M + 1
    a, b = sample_smart_grid_params(m, np.random.default_rng(3))
    problem = smart_grid_problem(a, b)
    net = build_laplacian(watts_strogatz(m, 4, 0.2, seed=3))
    assert scipy.sparse.issparse(net.incidence)
    step = safe_step(problem, net)
    configs = {
        "lgd": RunConfig(Algorithm.LGD, 0.5 * step, 60, record_every=20, record_curvature=True),
        "nlgd": RunConfig(Algorithm.NLGD, 0.5 * step, 60, noise_variance=0.01, record_every=30),
    }
    batch = run_batch(scenario_for(problem, net), [0, 1], configs)
    assert len(batch.runs) == 4
    for result in batch.runs:
        assert final_report(result.trace, problem, net) == result.final_report
    assert "laplacian" not in vars(net)
    assert "sqrt_laplacian" not in vars(net)


def _noise_seed(seed, index):
    return int(np.random.SeedSequence([seed, 1 + index]).generate_state(1)[0])


def diverging_setup():
    rng = np.random.default_rng(5)
    a, b = sample_smart_grid_params(6, rng)
    problem = smart_grid_problem(a, b)
    net = build_laplacian(watts_strogatz(6, 2, 0.3, seed=2))
    step = safe_step(problem, net)
    return problem, net, step


def test_one_diverging_run_does_not_stop_the_stack():
    problem, net, step = diverging_setup()
    configs = [
        RunConfig(Algorithm.NLGD, 0.3 * step, 400, noise_variance=0.01, seed=3, record_every=25),
        RunConfig(Algorithm.NLGD, 60.0 * step, 400, noise_variance=0.01, seed=4, record_every=25),
        RunConfig(Algorithm.LGD, 80.0 * step, 400, record_every=25),
        RunConfig(Algorithm.NLGD, 0.2 * step, 400, noise_variance=0.04, seed=5, record_every=25),
        RunConfig(Algorithm.LGD, 0.3 * step, 400, record_every=25, monitor_descent=True),
    ]
    rng = np.random.default_rng(8)
    starts = [tangent_perturbation(6, 1, 0.4, rng) for _ in configs]
    outcomes = run_many(problem, net, starts, configs)
    for start, config, outcome in zip(starts, configs, outcomes):
        try:
            alone = run(problem, net, start, config)
        except DivergenceError as exc:
            alone = exc
        if isinstance(alone, Exception):
            assert_same_error(outcome, alone)
        else:
            assert_same_trace(outcome, alone)
    for failed in (outcomes[1], outcomes[2]):
        assert isinstance(failed, DivergenceError)
        assert failed.iteration > 1
        assert len(failed.trace.records) >= 1
    assert outcomes[1].iteration % 25 != 0
    for kept in (outcomes[0], outcomes[3], outcomes[4]):
        assert kept.iterations_run == 400


def test_batch_raises_first_serial_failure_with_its_partial_trace():
    problem, net, step = diverging_setup()
    scenario = scenario_for(problem, net)
    configs = {
        "calm": RunConfig(Algorithm.LGD, 0.3 * step, 300, record_every=20),
        "wild": RunConfig(Algorithm.NLGD, 60.0 * step, 300, noise_variance=0.04, record_every=20),
        "wilder": RunConfig(Algorithm.LGD, 200.0 * step, 300, record_every=20),
    }
    with pytest.raises(DivergenceError) as err:
        run_batch(scenario, [4, 9], configs)
    seeded = replace(configs["wild"], seed=_noise_seed(4, 1))
    with pytest.raises(DivergenceError) as alone:
        run(problem, net, start_for_seed(scenario, 4), seeded, theta_ref=scenario.theta_ref)
    assert_same_error(err.value, alone.value)


def test_run_many_mixes_schedules_in_one_stack(monkeypatch):
    problem, net, step = diverging_setup()
    configs = [
        RunConfig(Algorithm.LGD, 0.4 * step, 90, record_every=4, record_curvature=True,
                  stop_eps=1.5, stop_gamma=0.5, early_exit=True),
        RunConfig(Algorithm.LGD, 0.3 * step, 37, record_every=5, monitor_descent=True),
        RunConfig(Algorithm.NLGD, 0.3 * step, 44, noise_variance=0.02, seed=1,
                  record_every=7, record_curvature=True),
    ]
    rng = np.random.default_rng(4)
    starts = [tangent_perturbation(6, 1, 0.4, rng) for _ in configs]
    steps = []
    advance = optimizer._advance

    def counted(problem, net, theta, *rest):
        steps.append(len(theta))
        return advance(problem, net, theta, *rest)

    monkeypatch.setattr(optimizer, "_advance", counted)
    outcomes = run_many(problem, net, starts, configs)
    monkeypatch.undo()
    # one stacked step per iteration, the first for all three runs
    assert len(steps) == max(trace.iterations_run for trace in outcomes)
    assert steps[0] == len(configs)
    for start, config, trace in zip(starts, configs, outcomes):
        assert_same_trace(trace, run(problem, net, start, config))
    early, monitored, noisy = outcomes
    assert early.first_certified_iter == early.iterations_run == 76
    assert [r.iteration for r in monitored.records] == [0, 5, 10, 15, 20, 25, 30, 35, 37]
    assert [r.iteration for r in noisy.records] == [0, 7, 14, 21, 28, 35, 42, 44]

    start = np.zeros(6)
    with pytest.raises(ValueError, match="starts"):
        run_many(problem, net, [start], configs[:1] * 2)
    assert run_many(problem, net, [], []) == []


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(2, 6),
    n=st.integers(1, 3),
    steps=st.integers(1, 9),
    chunks=st.integers(1, 3),
    variance=st.sampled_from([0.0, 1e-3, 0.25, 4.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_noise_equals_per_step_noise(m, n, steps, chunks, variance, seed):
    net = build_laplacian(cycle_graph(m) if m >= 3 else path_graph(2), agent_dim=n)
    sigma = np.sqrt([variance])
    blocks = np.random.default_rng(seed)
    single = np.random.default_rng(seed)
    drawn = np.concatenate(
        [edge_kicks(net, sigma, [blocks], steps)[0] for _ in range(chunks)]
    )
    one_by_one = np.concatenate(
        [edge_kicks(net, sigma, [single], 1)[0] for _ in range(steps * chunks)]
    )
    assert drawn.shape == (steps * chunks, net.edge_count * n)
    assert np.array_equal(drawn, one_by_one)
    assert blocks.bit_generator.state == single.bit_generator.state


STEPPERS = {
    Algorithm.LGD: lambda s, p, net, cfg, rng: lgd_step(s, p, net, cfg.step_size),
    Algorithm.NLGD: lambda s, p, net, cfg, rng: nlgd_step(
        s, p, net, cfg.step_size, cfg.noise_variance, rng
    ),
}


@pytest.mark.parametrize("chunk", [1 << 17, 40, 7])
def test_stack_matches_step_by_step_runs(monkeypatch, chunk):
    # the stack draws noise in blocks; the single-step functions draw it
    # one kick at a time from their own stream
    monkeypatch.setattr(optimizer, "NOISE_CHUNK", chunk)
    problem, net, step = diverging_setup()
    configs = [
        RunConfig(Algorithm.LGD, 0.4 * step, 37, record_every=10),
        RunConfig(Algorithm.NLGD, 0.3 * step, 37, noise_variance=0.02, seed=1,
                  record_every=10),
        RunConfig(Algorithm.NLGD, 0.3 * step, 37, noise_variance=0.0, seed=3,
                  record_every=10),
    ]
    rng = np.random.default_rng(4)
    starts = [tangent_perturbation(6, 1, 0.4, rng) for _ in configs]
    outcomes = run_many(problem, net, starts, configs)
    for start, config, trace in zip(starts, configs, outcomes):
        state = initial_state(start, with_aux=False)
        noise = np.random.default_rng(config.seed)
        values = {0: stacked_value(problem, state.theta)}
        for _ in range(config.max_iters):
            state = STEPPERS[config.algorithm](state, problem, net, config, noise)
            values[state.iteration] = stacked_value(problem, state.theta)
        assert np.array_equal(trace.final_theta, state.theta)
        assert [r.iteration for r in trace.records] == [0, 10, 20, 30, 37]
        assert [r.f_value for r in trace.records] == [
            values[r.iteration] for r in trace.records
        ]
