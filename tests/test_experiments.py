"""Scenario builders, batch runs, escape bookkeeping, and trace export."""

from dataclasses import replace

import numpy as np
import pytest
import yaml

from lapgd import experiments
from lapgd.config import ConfigError, build_run_config
from lapgd.experiments import (
    SUMMARY_FIELDS,
    TRACE_HEADER,
    build_portfolio_scenario,
    build_smart_grid_scenario,
    config_to_dict,
    escape_iteration,
    export_traces,
    noisy_config,
    replay_manifest,
    run_batch,
    run_comparison,
    start_for_seed,
    summary_rows,
    sweep_sigma,
    tangent_perturbation,
)
from lapgd.network import block_sum, is_connected
from lapgd.objectives import lipschitz_constants, stacked_value
from lapgd.optimizer import Algorithm, RunConfig, Trace, curvature_tolerance, run
from lapgd.stationarity import Classification, classify, default_feas_tol, transfer_certificate


def truncated(scenario, max_iters=2000, record_every=100):
    configs = {
        label: replace(cfg, max_iters=max_iters, record_every=record_every)
        for label, cfg in scenario.configs.items()
    }
    return replace(scenario, configs=configs)


# ---------------------------------------------------------------------------
# scenario builders


def test_smart_grid_scenario_shape():
    sc = build_smart_grid_scenario(0)
    assert sc.name == "smart_grid"
    assert sc.problem.m == 20 and sc.problem.n == 1
    assert sc.graph.edge_count == 40  # rewiring preserves the edge budget
    assert is_connected(sc.graph)
    assert np.array_equal(sc.problem.demand, [0.0])
    assert np.array_equal(sc.theta_ref, np.zeros(20))
    assert set(sc.configs) == {"lgd", "nlgd"}
    assert sc.configs["lgd"].algorithm is Algorithm.LGD
    assert sc.configs["lgd"].monitor_descent
    assert sc.configs["nlgd"].noise_variance == pytest.approx(0.05**2)
    for cfg in sc.configs.values():
        assert cfg.step_size == pytest.approx(1e-3)
        assert cfg.max_iters == 200_000
        assert cfg.record_every == 100
        assert cfg.record_curvature


def test_smart_grid_reference_is_first_order_only():
    # the reference point is a stationary saddle: zero gradient, strictly
    # negative tangent curvature
    sc = build_smart_grid_scenario(0)
    report = classify(sc.theta_ref, sc.problem, sc.net, 1e-10, 1e-10)
    assert report.classification is Classification.FIRST_ORDER_ONLY
    assert report.tangent_min_curvature < -0.5


def test_smart_grid_start_is_perturbed_and_feasible():
    sc = build_smart_grid_scenario(0)
    assert abs(float(block_sum(sc.theta_start, 1).sum())) <= 1e-12
    assert np.linalg.norm(sc.theta_start - sc.theta_ref) == pytest.approx(
        sc.init_scale, rel=1e-12
    )
    assert sc.init_scale == pytest.approx(1e-3)


def test_scenario_deterministic_in_seed():
    a, b = build_smart_grid_scenario(3), build_smart_grid_scenario(3)
    assert a.graph.edges == b.graph.edges
    assert np.array_equal(a.theta_start, b.theta_start)
    probe = np.linspace(-1.0, 1.0, 20)
    assert stacked_value(a.problem, probe) == stacked_value(b.problem, probe)
    other = build_smart_grid_scenario(4)
    assert (
        other.graph.edges != a.graph.edges
        or stacked_value(other.problem, probe) != stacked_value(a.problem, probe)
    )


def test_portfolio_scenario_shape():
    sc = build_portfolio_scenario(0)
    assert sc.problem.m == 20 and sc.problem.n == 5
    assert np.array_equal(sc.problem.demand, np.ones(5))
    assert np.allclose(sc.base_point, np.tile(np.ones(5) / 20.0, 20), atol=1e-15)
    assert list(sc.configs) == ["lgd", "nlgd_sigma_0.1", "nlgd_sigma_0.5", "nlgd_sigma_1"]
    assert sc.configs["nlgd_sigma_0.1"].noise_variance == pytest.approx(0.01)
    assert sc.configs["nlgd_sigma_0.5"].noise_variance == pytest.approx(0.25)
    assert sc.configs["nlgd_sigma_1"].noise_variance == pytest.approx(1.0)
    res = np.linalg.norm(block_sum(sc.theta_start, 5) - sc.problem.demand)
    assert res <= 1e-12


@pytest.mark.parametrize(
    "builder, noisy",
    [
        (build_smart_grid_scenario, {"nlgd": 0.05}),
        (build_portfolio_scenario, {f"nlgd_sigma_{s:g}": s for s in (0.1, 0.5, 1.0)}),
    ],
)
def test_scenario_configs_are_baseline_and_noisy_twins(builder, noisy):
    # one rule makes every noisy config: the baseline's twin at sigma
    configs = builder(0).configs
    lgd = configs["lgd"]
    assert configs == {"lgd": lgd, **{label: noisy_config(lgd, s) for label, s in noisy.items()}}
    twin = noisy_config(lgd, 0.3)
    assert twin == replace(
        lgd, algorithm=Algorithm.NLGD, noise_variance=0.3**2, monitor_descent=False
    )
    with pytest.raises(ValueError, match="sigma"):
        noisy_config(lgd, -0.1)


def test_sweep_sigma_configs_are_noisy_twins():
    sc = truncated(build_portfolio_scenario(1), max_iters=200)
    batch = sweep_sigma(sc, [0.2, 1], [0])
    lgd = sc.configs["lgd"]
    assert batch.configs == {
        "lgd": lgd,
        "nlgd_sigma_0.2": noisy_config(lgd, 0.2),
        "nlgd_sigma_1": noisy_config(lgd, 1.0),
    }


# ---------------------------------------------------------------------------
# perturbations and per-seed starts


def test_tangent_perturbation_properties():
    rng = np.random.default_rng(9)
    for m, n, scale in [(4, 1, 1e-3), (6, 3, 0.5)]:
        d = tangent_perturbation(m, n, scale, rng)
        assert d.shape == (m * n,)
        assert np.abs(block_sum(d, n)).max() <= 1e-12 * max(1.0, scale)
        assert np.linalg.norm(d) == pytest.approx(scale, rel=1e-12)


def test_start_for_seed_deterministic_and_feasible():
    sc = build_smart_grid_scenario(0)
    s0a, s0b = start_for_seed(sc, 0), start_for_seed(sc, 0)
    assert np.array_equal(s0a, s0b)
    s1 = start_for_seed(sc, 1)
    assert not np.array_equal(s0a, s1)
    for theta in (s0a, s1):
        assert abs(float(block_sum(theta, 1).sum())) <= 1e-12
        assert np.linalg.norm(theta - sc.theta_ref) == pytest.approx(1e-3, rel=1e-12)


# ---------------------------------------------------------------------------
# escape bookkeeping


def _synthetic_trace(f_values, stride=100):
    rows = len(f_values)
    return Trace(
        iterations=np.arange(rows) * stride,
        f_value=f_values,
        feas_residual=np.zeros(rows),
        proj_grad_norm=np.ones(rows),
        final_theta=np.zeros(2),
        iterations_run=(rows - 1) * stride,
    )


def test_escape_iteration_first_crossing():
    trace = _synthetic_trace([0.0, -0.5e-4, -2e-4, -5e-4])
    assert escape_iteration(trace, 0.0, 1e-4) == 200


def test_escape_iteration_requires_strict_crossing():
    # exactly hitting f_ref - delta does not count
    trace = _synthetic_trace([0.0, -1e-4])
    assert escape_iteration(trace, 0.0, 1e-4) is None
    below = _synthetic_trace([0.0, -1.0000001e-4])
    assert escape_iteration(below, 0.0, 1e-4) == 100


def test_escape_iteration_none_when_flat():
    trace = _synthetic_trace([0.0, 0.0, 1e-5])
    assert escape_iteration(trace, 0.0, 1e-4) is None


def test_noiseless_run_from_exact_saddle_never_escapes():
    # the gradient vanishes identically at the reference point, so the
    # noiseless method is pinned there forever
    sc = build_smart_grid_scenario(0)
    cfg = replace(sc.configs["lgd"], max_iters=2000)
    trace = run(sc.problem, sc.net, sc.theta_ref, cfg, theta_ref=sc.theta_ref)
    f_ref = stacked_value(sc.problem, sc.theta_ref)
    assert all(r.f_value == f_ref for r in trace.records)
    assert escape_iteration(trace, f_ref, 1e-4) is None
    assert np.array_equal(trace.final_theta, sc.theta_ref)


# ---------------------------------------------------------------------------
# batches


def test_run_batch_structure():
    sc = truncated(build_smart_grid_scenario(0))
    batch = run_batch(sc, [0, 1], sc.configs)
    assert batch.scenario_name == "smart_grid"
    assert batch.seeds == (0, 1)
    assert [(r.seed, r.label) for r in batch.runs] == [
        (0, "lgd"),
        (0, "nlgd"),
        (1, "lgd"),
        (1, "nlgd"),
    ]
    assert batch.f_ref == pytest.approx(0.0, abs=1e-15)
    assert batch.escape_delta == pytest.approx(1e-4)
    for result in batch.runs:
        assert isinstance(result.final_report.classification, Classification)
        assert result.trace.records[0].iteration == 0
        assert result.trace.records[-1].iteration == 2000


def test_run_batch_shares_start_within_seed():
    sc = truncated(build_smart_grid_scenario(0))
    batch = run_batch(sc, [0], sc.configs)
    first = [r.trace.records[0] for r in batch.runs]
    assert first[0].f_value == first[1].f_value
    assert first[0].dist_to_ref == first[1].dist_to_ref


def test_run_batch_deterministic():
    sc = truncated(build_smart_grid_scenario(0))
    one = run_batch(sc, [0, 1], sc.configs)
    two = run_batch(sc, [0, 1], sc.configs)
    for ra, rb in zip(one.runs, two.runs):
        assert [r.f_value for r in ra.trace.records] == [
            r.f_value for r in rb.trace.records
        ]
        assert ra.escape_iteration == rb.escape_iteration


def test_noise_streams_independent_across_configs():
    sc = build_smart_grid_scenario(0)
    noisy = replace(sc.configs["nlgd"], max_iters=500)
    batch = run_batch(sc, [0], {"first": noisy, "second": noisy})
    a, b = batch.runs
    assert a.config.seed != b.config.seed
    assert a.trace.records[-1].f_value != b.trace.records[-1].f_value


def test_final_report_judges_the_last_record(monkeypatch):
    import lapgd.experiments as experiments

    sc = truncated(build_smart_grid_scenario(0), max_iters=600)
    batch = run_batch(sc, [0], sc.configs)
    # the certifier is not run again when the last record holds curvature
    monkeypatch.setattr(experiments, "measure", None)
    _, lip_hess = lipschitz_constants(sc.problem)
    for result in batch.runs:
        report = experiments.final_report(result.trace, sc.problem, sc.net)
        again = classify(
            result.trace.final_theta, sc.problem, sc.net, report.eps, report.gamma
        )
        assert report == again == result.final_report
        # the tolerances are the last record's own gradient and the
        # curvature tolerance that follows from it
        eps = result.trace.records[-1].proj_grad_norm
        curv_tol = curvature_tolerance(eps, sc.net.lambda_max, lip_hess)
        assert report.eps == eps
        assert report.gamma == transfer_certificate(eps, curv_tol, sc.net)[1]


def test_final_report_measures_without_curvature_records():
    from lapgd.experiments import final_report

    sc = build_smart_grid_scenario(0)
    config = replace(sc.configs["lgd"], max_iters=300, record_curvature=False)
    trace = run(sc.problem, sc.net, sc.theta_start, config)
    assert trace.records[-1].tangent_curvature is None
    report = final_report(trace, sc.problem, sc.net)
    again = classify(trace.final_theta, sc.problem, sc.net, report.eps, report.gamma)
    assert report == again


def test_noisy_portfolio_run_keeps_block_sum():
    # scenario 12's graph has a kernel eigenvalue that rounds away from 0;
    # unit-variance noise through the root must still conserve the demand
    scenario = build_portfolio_scenario(12)
    configs = {"nlgd": replace(scenario.configs["nlgd_sigma_1"], max_iters=3000)}
    (result,) = run_batch(scenario, [0], configs).runs
    tol = default_feas_tol(scenario.problem.demand)
    assert max(rec.feas_residual for rec in result.trace.records) <= tol
    assert result.final_report.feasibility_residual <= tol


def test_run_batch_rejects_negative_seed():
    sc = truncated(build_smart_grid_scenario(0))
    with pytest.raises(ValueError, match="non-negative"):
        run_batch(sc, [-1], sc.configs)


def test_run_comparison_uses_scenario_configs():
    sc = truncated(build_smart_grid_scenario(0), max_iters=500)
    batch = run_comparison(sc, [0])
    assert set(batch.configs) == {"lgd", "nlgd"}


def test_sweep_sigma_labels_and_zero_noise_reduction():
    sc = truncated(build_smart_grid_scenario(0), max_iters=800)
    batch = sweep_sigma(sc, [0.0, 0.05], [0])
    assert list(batch.configs) == ["lgd", "nlgd_sigma_0", "nlgd_sigma_0.05"]
    by_label = {r.label: r for r in batch.runs}
    base = [r.f_value for r in by_label["lgd"].trace.records]
    silent = [r.f_value for r in by_label["nlgd_sigma_0"].trace.records]
    assert base == silent  # variance zero runs the noiseless path bitwise
    loud = [r.f_value for r in by_label["nlgd_sigma_0.05"].trace.records]
    assert base != loud


def test_sweep_sigma_requires_baseline():
    sc = build_smart_grid_scenario(0)
    bare = replace(sc, configs={"only": sc.configs["nlgd"]})
    with pytest.raises(ValueError, match="baseline"):
        sweep_sigma(bare, [0.1], [0])


# ---------------------------------------------------------------------------
# summaries and export


def test_summary_rows_sorted_and_complete():
    sc = truncated(build_smart_grid_scenario(0), max_iters=500)
    batch = run_batch(sc, [1, 0], sc.configs)
    rows = summary_rows(batch)
    assert len(rows) == 4
    keys = [(row["config"], row["seed"]) for row in rows]
    assert keys == sorted(keys)
    for row in rows:
        assert tuple(row) == SUMMARY_FIELDS
        assert row["classification"] in {c.value for c in Classification}


def test_config_to_dict_round_trip():
    sc = build_smart_grid_scenario(0)
    payload = config_to_dict(sc.configs["nlgd"])
    assert "seed" not in payload
    assert payload["algorithm"] == "nlgd"
    rebuilt = RunConfig(**payload)
    assert rebuilt.noise_variance == sc.configs["nlgd"].noise_variance
    assert rebuilt.max_iters == sc.configs["nlgd"].max_iters


def test_manifest_form_reads_back_through_the_config_parser():
    # one parser reads YAML run sections and manifest entries alike
    for builder in (build_smart_grid_scenario, build_portfolio_scenario):
        for config in builder(0).configs.values():
            config = replace(config, stop_eps=0.1, stop_gamma=0.2, early_exit=True)
            assert build_run_config(config_to_dict(config), path="configs.x") == config


def test_export_traces_files(tmp_path):
    sc = truncated(build_smart_grid_scenario(0), max_iters=300)
    batch = run_batch(sc, [0, 1], sc.configs)
    paths = export_traces(batch, tmp_path)
    names = sorted(p.name for p in paths)
    assert names == [
        "manifest.yaml",
        "summary.csv",
        "trace_lgd_seed0.csv",
        "trace_lgd_seed1.csv",
        "trace_nlgd_seed0.csv",
        "trace_nlgd_seed1.csv",
    ]
    trace_lines = (tmp_path / "trace_lgd_seed0.csv").read_text().splitlines()
    assert trace_lines[0] == TRACE_HEADER
    assert len(trace_lines) == 1 + 4  # records at 0, 100, 200, 300
    summary_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert summary_lines[0] == ",".join(SUMMARY_FIELDS)
    assert len(summary_lines) == 5

    manifest = yaml.safe_load((tmp_path / "manifest.yaml").read_text())
    assert manifest["kind"] == "batch"
    assert manifest["scenario"] == {"name": "smart_grid", "seed": 0}
    assert manifest["seeds"] == [0, 1]
    assert manifest["configs"]["lgd"]["step_size"] == 0.001
    assert manifest["configs"]["nlgd"]["noise_variance"] == 0.05**2


def test_export_empty_batch(tmp_path):
    sc = truncated(build_smart_grid_scenario(0), max_iters=300)
    batch = run_batch(sc, [], sc.configs)
    paths = export_traces(batch, tmp_path)
    assert sorted(p.name for p in paths) == ["manifest.yaml", "summary.csv"]
    assert (tmp_path / "summary.csv").read_text().splitlines() == [
        ",".join(SUMMARY_FIELDS)
    ]


def test_replay_reproduces_bytes(tmp_path):
    sc = truncated(build_smart_grid_scenario(0), max_iters=400)
    batch = run_batch(sc, [0, 1], sc.configs)
    first = tmp_path / "first"
    second = tmp_path / "second"
    export_traces(batch, first)
    replay_manifest(first / "manifest.yaml", second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def edited_manifest(tmp_path, edit):
    """Export a short batch and apply ``edit`` to its lgd manifest config."""
    sc = truncated(build_smart_grid_scenario(0), max_iters=100)
    export_traces(run_batch(sc, [0], sc.configs), tmp_path / "first")
    path = tmp_path / "first" / "manifest.yaml"
    manifest = yaml.safe_load(path.read_text())
    edit(manifest["configs"]["lgd"])
    path.write_text(yaml.safe_dump(manifest, sort_keys=False))
    return path


def test_replay_names_unknown_manifest_field(tmp_path):
    def misspell(config):
        config["record_curvatur"] = config.pop("record_curvature")

    path = edited_manifest(tmp_path, misspell)
    with pytest.raises(ValueError, match="unknown field configs.lgd.record_curvatur") as err:
        replay_manifest(path, tmp_path / "replay")
    assert str(path) in str(err.value)


def test_replay_names_missing_manifest_field(tmp_path):
    path = edited_manifest(tmp_path, lambda config: config.pop("step_size"))
    with pytest.raises(ValueError, match="missing field configs.lgd.step_size") as err:
        replay_manifest(path, tmp_path / "replay")
    assert str(path) in str(err.value)


def test_replay_rejects_a_run_manifest(tmp_path):
    path = tmp_path / "manifest.yaml"
    path.write_text(yaml.safe_dump({"kind": "run", "config": {"run": {}}}))
    with pytest.raises(ConfigError, match="kind 'run' is not a batch manifest") as err:
        replay_manifest(path, tmp_path / "replay")
    assert str(path) in str(err.value)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("seeds", None, "missing field seeds"),
        ("seeds", 3, "seeds must be of type list, got 3"),
        ("configs", ["lgd"], "configs must be of type dict, got ['lgd']"),
        # seeds are config integers: an integral float passes, these do not
        ("seeds", [1.5], "seeds.0 must be an integer, got 1.5"),
        ("seeds", [0, True], "seeds.1 must be an integer, got True"),
        ("seeds", ["a"], "seeds.0 must be an integer, got 'a'"),
        ("seeds", [-1], "seeds.0 must be >= 0, got -1"),
        ("scenario", {"name": "smart_grid", "seed": True}, "scenario.seed must be an integer, got True"),
        ("scenario", {"name": "smart_grid", "seed": -2}, "scenario.seed must be >= 0, got -2"),
        ("scenario", {"name": "smart_grid", "seed": "0"}, "scenario.seed must be an integer, got '0'"),
    ],
)
def test_replay_names_missing_or_malformed_fields(tmp_path, key, value, message):
    path = edited_manifest(tmp_path, lambda config: None)
    manifest = yaml.safe_load(path.read_text())
    if value is None:
        del manifest[key]
    else:
        manifest[key] = value
    path.write_text(yaml.safe_dump(manifest, sort_keys=False))
    with pytest.raises(ConfigError) as err:
        replay_manifest(path, tmp_path / "replay")
    assert str(err.value) == f"{path}: {message}"


def test_replay_accepts_integral_float_seeds(tmp_path):
    # as in config files, 1.0 is the integer 1
    path = edited_manifest(tmp_path, lambda config: None)
    manifest = yaml.safe_load(path.read_text())
    manifest["scenario"]["seed"] = 0.0
    manifest["seeds"] = [0.0]
    path.write_text(yaml.safe_dump(manifest, sort_keys=False))
    batch = replay_manifest(path, tmp_path / "replay")
    assert (batch.scenario_seed, batch.seeds) == (0, (0,))
    for name in ("summary.csv", "trace_lgd_seed0.csv", "trace_nlgd_seed0.csv"):
        assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "replay" / name).read_bytes()


@pytest.mark.parametrize("label", ["../escaped", "x/../../y"])
def test_replay_refuses_a_label_that_names_a_path_before_any_run(tmp_path, monkeypatch, label):
    path = edited_manifest(tmp_path, lambda config: None)
    manifest = yaml.safe_load(path.read_text())
    manifest["configs"][label] = manifest["configs"].pop("nlgd")
    path.write_text(yaml.safe_dump(manifest, sort_keys=False))
    # with trace_x there, trace_x/../../y_seed0.csv would resolve beside replay/
    (tmp_path / "replay" / "trace_x").mkdir(parents=True)
    before = set(tmp_path.rglob("*"))

    def no_batch(*args):
        raise AssertionError("a run started")

    monkeypatch.setattr(experiments, "run_batch", no_batch)
    with pytest.raises(ConfigError) as err:
        replay_manifest(path, tmp_path / "replay")
    assert str(err.value) == f"{path}: configs.{label}: label {label!r} holds a path separator or NUL"
    assert set(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("label", ["../escaped", "x/../../y", "x\\..\\..\\y", "nul\0"])
def test_export_refuses_a_label_that_names_a_path(tmp_path, label):
    sc = truncated(build_smart_grid_scenario(0), max_iters=100)
    batch = run_batch(sc, [0], {"lgd": sc.configs["lgd"]})
    batch = replace(batch, runs=tuple(replace(run, label=label) for run in batch.runs))
    out = tmp_path / "out"
    (out / "trace_x").mkdir(parents=True)
    before = set(tmp_path.rglob("*"))
    with pytest.raises(ValueError, match="path separator or NUL"):
        export_traces(batch, out)
    assert set(tmp_path.rglob("*")) == before
