"""Saddle-escape studies: scenario builders, batch runs, trace export.

A scenario bundles a problem instance, its network operator, a feasible
reference point (the saddle the noiseless method stalls near), and a set
of labeled run configurations. Both scenarios come from one recipe:
twenty agents on a small-world graph, the uniform demand split as the
reference, a noiseless lgd baseline, and its noisy twins
(``noisy_config``), the rule ``sweep_sigma`` uses as well. Batch helpers
run every (seed, config) pair from a shared per-seed start, measure when
each run escapes the reference value, and certify the final iterate.
A batch's runs advance together in one stack.

Randomness is split deterministically: the scenario seed spawns child
streams for the graph, the objective parameters and the scenario's own
starting point, in that order; each batch seed s derives its start
perturbation from SeedSequence([s, 0]) and the noise seed of the j-th
config from SeedSequence([s, 1 + j]). Exports hold one row per run as
``summary_rows`` defines it, and the manifest's configs read back
through ``config.build_run_config``, so re-running a manifest
reproduces every trace byte for byte.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from .config import ConfigError, build_run_config, config_to_dict
from .network import Graph, NetworkOperator, build_laplacian, tangent_perturbation, watts_strogatz
from .objectives import (
    ProblemInstance,
    lipschitz_constants,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
    portfolio_problem,
    stacked_value,
)
from .optimizer import Algorithm, RunConfig, Trace, curvature_tolerance, run_many
from .stationarity import Measurement, StationarityReport, default_feas_tol, judge, measure

TRACE_HEADER = "iter,f_value,feas_residual,proj_grad_norm,tangent_curvature,dist_to_ref"

SUMMARY_FIELDS = (
    "seed",
    "config",
    "escape_iter",
    "final_f",
    "final_feas_residual",
    "final_proj_grad_norm",
    "final_tangent_curvature",
    "eps",
    "gamma",
    "classification",
)


@dataclass(frozen=True)
class Scenario:
    """A reproducible experiment setup. ``base_point`` is the feasible
    anchor that per-seed starts perturb; ``theta_start`` is the start for
    the scenario's own seed; ``theta_ref`` the escape reference."""

    name: str
    seed: int
    problem: ProblemInstance
    net: NetworkOperator
    graph: Graph
    theta_start: np.ndarray
    theta_ref: np.ndarray
    base_point: np.ndarray
    init_scale: float
    configs: dict


@dataclass(frozen=True)
class RunResult:
    seed: int
    label: str
    config: RunConfig
    trace: Trace
    escape_iteration: int | None
    final_report: StationarityReport


@dataclass(frozen=True)
class BatchResult:
    scenario_name: str
    scenario_seed: int
    seeds: tuple
    configs: dict
    runs: tuple
    f_ref: float
    escape_delta: float


def _scenario_streams(seed: int) -> tuple:
    graph_ss, param_ss, init_ss = np.random.SeedSequence(seed).spawn(3)
    graph_seed = int(graph_ss.generate_state(1)[0])
    return graph_seed, np.random.default_rng(param_ss), np.random.default_rng(init_ss)


def start_for_seed(scenario: Scenario, seed: int) -> np.ndarray:
    """The shared starting point every config uses under batch seed s."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    kick = tangent_perturbation(
        scenario.problem.m, scenario.problem.n, scenario.init_scale, rng
    )
    return scenario.base_point + kick


def _noise_seed(seed: int, config_index: int) -> int:
    return int(np.random.SeedSequence([seed, 1 + config_index]).generate_state(1)[0])


def noisy_config(baseline: RunConfig, sigma: float) -> RunConfig:
    """The noisy twin of a noiseless baseline: the same step, budget and
    records, nlgd with noise standard deviation ``sigma``, no descent
    monitor (noisy steps need not descend)."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    return replace(
        baseline, algorithm=Algorithm.NLGD, noise_variance=sigma**2, monitor_descent=False
    )


def _sigma_label(sigma: float) -> str:
    return f"nlgd_sigma_{sigma:g}"


def _scenario(name, seed, make_problem, step, budget, noisy) -> Scenario:
    """Twenty agents on WS(20, 4, 0.2); ``make_problem(m, rng)`` draws the
    instance, which sets the agent dimension. The reference is the uniform demand split, starts are 1e-3
    tangent kicks off it, and the configs are a monitored lgd baseline
    recording every 100 steps plus one noisy twin per (label, sigma)."""
    m, scale = 20, 1e-3
    graph_seed, param_rng, init_rng = _scenario_streams(seed)
    graph = watts_strogatz(m, 4, 0.2, graph_seed)
    problem = make_problem(m, param_rng)
    net = build_laplacian(graph, agent_dim=problem.n)
    base = np.tile(problem.demand / m, m)
    lgd = RunConfig(
        algorithm=Algorithm.LGD,
        step_size=step,
        max_iters=budget,
        record_every=100,
        record_curvature=True,
        monitor_descent=True,
    )
    return Scenario(
        name=name,
        seed=seed,
        problem=problem,
        net=net,
        graph=graph,
        theta_start=base + tangent_perturbation(m, problem.n, scale, init_rng),
        theta_ref=base.copy(),
        base_point=base,
        init_scale=scale,
        configs={"lgd": lgd, **{label: noisy_config(lgd, s) for label, s in noisy}},
    )


def build_smart_grid_scenario(seed: int = 0) -> Scenario:
    """Twenty generators on a small-world grid, each with a quadratic
    cost minus a log satisfaction term, zero net demand. The origin is a
    feasible stationary saddle; starts are tiny tangent perturbations of
    it. Noise level 0.05 (standard deviation) with step 0.001, budget
    2e5 iterations, recording every 100."""

    def make_problem(m, rng):
        a, b = sample_smart_grid_params(m, rng)
        return smart_grid_problem(a, b, demand=0.0, agent_dim=1)

    return _scenario("smart_grid", seed, make_problem, 1e-3, 200_000, [("nlgd", 0.05)])


def build_portfolio_scenario(seed: int = 0) -> Scenario:
    """Twenty traders with five assets each on the same small-world
    topology; expected-return, risk and log-penalty parameters are drawn
    from the documented defaults. Demand is the all-ones vector, split
    uniformly for the reference point. Step 0.005 with noise levels 0.1,
    0.5 and 1 plus a noiseless baseline, budget 1e5, recording every 100."""

    def make_problem(m, rng):
        return portfolio_problem(*sample_portfolio_params(m, 5, rng), np.ones(5))

    noisy = [(_sigma_label(sigma), sigma) for sigma in (0.1, 0.5, 1.0)]
    return _scenario("portfolio", seed, make_problem, 5e-3, 100_000, noisy)


SCENARIO_BUILDERS = {
    "smart_grid": build_smart_grid_scenario,
    "portfolio": build_portfolio_scenario,
}


def escape_iteration(trace: Trace, f_ref: float, delta: float) -> int | None:
    """First recorded iteration whose objective sits below f_ref - delta,
    None when the trace never does."""
    for record in trace.records:
        if record.f_value < f_ref - delta:
            return record.iteration
    return None


def final_report(
    trace: Trace, problem: ProblemInstance, net: NetworkOperator
) -> StationarityReport:
    """Certify the final iterate. Its last record already holds the
    residuals when it recorded curvature; only otherwise is it measured
    again."""
    # Self-consistent tolerances: the gradient tolerance is the measured
    # final projected gradient; the curvature tolerance follows from it
    # through the declared Hessian smoothness and the spectral gap.
    last = trace.records[-1]
    eps = last.proj_grad_norm
    _, lip_hess = lipschitz_constants(problem)
    gamma = curvature_tolerance(eps, net.lambda_max, lip_hess) / net.lambda_min_plus
    if last.tangent_curvature is None:
        measured = measure(trace.final_theta, problem, net)
    else:
        measured = Measurement(
            feasibility_residual=last.feas_residual,
            projected_grad_norm=last.proj_grad_norm,
            tangent_min_curvature=last.tangent_curvature,
        )
    return judge(measured, eps, gamma, default_feas_tol(problem.demand))


def run_batch(scenario: Scenario, seeds, configs: dict) -> BatchResult:
    """Run every (seed, config) pair; all configs under one seed share the
    same starting point.

    All pairs advance together in one ``run_many`` stack, whatever their
    budgets and record strides; each run's trace is the one it gets
    alone. Results come seeds outermost, configs in insertion order, and
    a failing run raises its error, the first in that order.
    """
    seeds = tuple(int(s) for s in seeds)
    if any(s < 0 for s in seeds):
        raise ValueError("batch seeds must be non-negative")
    f_ref = stacked_value(scenario.problem, scenario.theta_ref)
    delta = 1e-4 * (1.0 + abs(f_ref))

    starts = {seed: start_for_seed(scenario, seed) for seed in seeds}
    pairs = [
        (seed, label, replace(config, seed=_noise_seed(seed, index)))
        for seed in seeds
        for index, (label, config) in enumerate(configs.items())
    ]
    outcomes = run_many(
        scenario.problem,
        scenario.net,
        [starts[seed] for seed, _, _ in pairs],
        [config for _, _, config in pairs],
        theta_ref=scenario.theta_ref,
    )

    runs = []
    for (seed, label, config), trace in zip(pairs, outcomes):
        if isinstance(trace, Exception):
            raise trace
        runs.append(
            RunResult(
                seed=seed,
                label=label,
                config=config,
                trace=trace,
                escape_iteration=escape_iteration(trace, f_ref, delta),
                final_report=final_report(trace, scenario.problem, scenario.net),
            )
        )
    return BatchResult(
        scenario_name=scenario.name,
        scenario_seed=scenario.seed,
        seeds=seeds,
        configs=dict(configs),
        runs=tuple(runs),
        f_ref=f_ref,
        escape_delta=delta,
    )


def run_comparison(scenario: Scenario, seeds) -> BatchResult:
    """Noiseless-versus-noisy comparison over the scenario's own configs."""
    return run_batch(scenario, seeds, scenario.configs)


def sweep_sigma(scenario: Scenario, sigmas, seeds) -> BatchResult:
    """Noise-level sweep: one noisy config per sigma (variance sigma^2)
    alongside the scenario's noiseless baseline."""
    if "lgd" not in scenario.configs:
        raise ValueError("scenario has no 'lgd' baseline config")
    baseline = scenario.configs["lgd"]
    configs = {"lgd": baseline}
    for sigma in map(float, sigmas):
        label = _sigma_label(sigma)
        if label in configs:
            raise ValueError(f"noise level {sigma:g} repeats config {label!r}")
        configs[label] = noisy_config(baseline, sigma)
    return run_batch(scenario, seeds, configs)


# ---------------------------------------------------------------------------
# export and replay


def _cell(value) -> str:
    """One exported field: floats by repr, so identical runs give
    byte-identical files; None as an empty field."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_trace_csv(trace: Trace, path) -> None:
    """Write one run's records as CSV under ``TRACE_HEADER``, floats by
    repr, so identical traces give byte-identical files."""
    lines = [TRACE_HEADER]
    for rec in trace.records:
        values = (rec.f_value, rec.feas_residual, rec.proj_grad_norm, rec.tangent_curvature, rec.dist_to_ref)
        lines.append(",".join(map(_cell, (rec.iteration, *values))))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def summary_rows(batch: BatchResult) -> list:
    """One dict per run, keyed by ``SUMMARY_FIELDS`` and sorted by (config
    label, seed) so the summary is independent of execution order."""
    rows = []
    for result in sorted(batch.runs, key=lambda r: (r.label, r.seed)):
        report = result.final_report
        values = (
            result.seed,
            result.label,
            result.escape_iteration,
            result.trace.records[-1].f_value,
            report.feasibility_residual,
            report.projected_grad_norm,
            report.tangent_min_curvature,
            report.eps,
            report.gamma,
            report.classification.value,
        )
        rows.append(dict(zip(SUMMARY_FIELDS, values)))
    return rows


def export_traces(batch: BatchResult, out_dir) -> list:
    """Write one CSV per run, a summary CSV, and a replay manifest.

    Floats are serialized with repr, so identical batches produce
    byte-identical files. Returns the written paths.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    for result in batch.runs:
        path = out / f"trace_{result.label}_seed{result.seed}.csv"
        write_trace_csv(result.trace, path)
        written.append(path)

    summary_path = out / "summary.csv"
    with open(summary_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SUMMARY_FIELDS)
        writer.writerows([_cell(v) for v in row.values()] for row in summary_rows(batch))
    written.append(summary_path)

    manifest = {
        "kind": "batch",
        "scenario": {"name": batch.scenario_name, "seed": batch.scenario_seed},
        "seeds": list(batch.seeds),
        "configs": {
            label: config_to_dict(config) for label, config in batch.configs.items()
        },
    }
    manifest_path = out / "manifest.yaml"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        yaml.safe_dump(manifest, handle, sort_keys=False)
    written.append(manifest_path)
    return written


def _manifest_field(manifest, path: str, kind=object):
    value = manifest
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ConfigError(f"missing field {path}")
        value = value[key]
    if not isinstance(value, kind):
        raise ConfigError(f"{path} must be of type {kind.__name__}, got {value!r}")
    return value


def replay_manifest(manifest_path, out_dir) -> BatchResult:
    """Rebuild the scenario named in a batch manifest, re-run its batch,
    and export to ``out_dir``; output files match the original byte for
    byte. A manifest of another kind or with a missing or invalid field
    raises ``ConfigError`` naming the manifest and the field."""
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = yaml.safe_load(handle)
    try:
        kind = _manifest_field(manifest, "kind")
        if kind != "batch":
            raise ConfigError(f"kind {kind!r} is not a batch manifest")
        name = _manifest_field(manifest, "scenario.name")
        if name not in SCENARIO_BUILDERS:
            raise ConfigError(f"unknown scenario {name!r}")
        seed = _manifest_field(manifest, "scenario.seed", int)
        seeds = _manifest_field(manifest, "seeds", list)
        configs = {
            label: build_run_config(values, path=f"configs.{label}")
            for label, values in _manifest_field(manifest, "configs", dict).items()
        }
    except ConfigError as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    batch = run_batch(SCENARIO_BUILDERS[name](seed), seeds, configs)
    export_traces(batch, out_dir)
    return batch
