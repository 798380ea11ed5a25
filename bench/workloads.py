"""The three benchmark workloads: inputs from a seed, one batch round,
and the checks on what a round wrote.

A round is one whole batch: every (seed, config) run, its final
certificate, and the export to disk. Each run and each certification is
one operation.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lapgd.experiments import (
    RunResult,
    Scenario,
    build_portfolio_scenario,
    build_smart_grid_scenario,
    escape_iteration,
    export_traces,
    final_report,
    run_batch,
    start_for_seed,
)
from lapgd.objectives import hessian_blocks, lipschitz_constants, stacked_gradient, stacked_value
from lapgd.optimizer import run
from lapgd.stationarity import default_feas_tol

# Budgets cut from the scenarios' own (2e5 and 1e5 steps) so that a round
# takes seconds; both are long enough for the noiseless runs to settle.
GRID_BUDGET = 20_000
GRID_SEEDS = 20
PORTFOLIO_BUDGET = 3_000
PORTFOLIO_SEEDS = 5

LARGE_M = 2000
LARGE_CONFIG = """\
problem:
  family: smart_grid
  m: {m}
  n: 1
  demand: 0.0
  param_seed: {seed}
network:
  kind: watts_strogatz
  m: {m}
  k: 4
  p: 0.2
  seed: {seed}
run:
  algorithm: nlgd
  step_size: 0.001
  max_iters: 600
  noise_sigma: 0.05
  record_every: 600
  record_curvature: true
init:
  kind: uniform_split
"""


@dataclass(frozen=True)
class Inputs:
    """What set-up builds: the scenario, the batch seeds and the configs."""

    scenario: Scenario
    seeds: tuple
    configs: dict


def _cut(configs: dict, budget: int) -> dict:
    return {label: replace(config, max_iters=budget) for label, config in configs.items()}


def build_inputs(workload: str, seed: int, out_dir) -> Inputs:
    if workload == "grid_escape":
        scenario = build_smart_grid_scenario(seed)
        return Inputs(scenario, tuple(range(GRID_SEEDS)), _cut(scenario.configs, GRID_BUDGET))
    if workload == "portfolio_sweep":
        scenario = build_portfolio_scenario(seed)
        return Inputs(
            scenario, tuple(range(PORTFOLIO_SEEDS)), _cut(scenario.configs, PORTFOLIO_BUDGET)
        )
    if workload == "large_saddle":
        from lapgd.config import load_bundle

        path = Path(out_dir) / "large_saddle.yaml"
        path.write_text(LARGE_CONFIG.format(m=LARGE_M, seed=seed), encoding="utf-8")
        bundle = load_bundle(path)
        start = bundle.theta_start
        scenario = Scenario(
            name="large_saddle",
            seed=seed,
            problem=bundle.problem,
            net=bundle.net,
            graph=bundle.graph,
            theta_start=start,
            theta_ref=start,
            base_point=start,
            init_scale=0.0,
            configs={"nlgd": bundle.run_config},
        )
        return Inputs(scenario, (seed,), dict(scenario.configs))
    raise ValueError(f"unknown workload {workload!r}")


def ops_per_round(inputs: Inputs) -> int:
    return 2 * len(inputs.seeds) * len(inputs.configs)


def noise_seed(seed: int, index: int) -> int:
    """The noise seed run_batch gives the index-th config under batch seed
    ``seed``, by the rule the lapgd.experiments docstring states."""
    return int(np.random.SeedSequence([seed, 1 + index]).generate_state(1)[0])


def run_isolated(scenario: Scenario, seeds, configs: dict) -> tuple:
    """run_batch over every pair, returning (batch, failed operations).

    run_batch stops at the first run that raises. When one does, the
    pairs are run again one at a time with the same starts and noise
    seeds, so that every other run still completes: a run that raises
    counts as failed together with the certification it leaves undone,
    and a certification that raises counts on its own.
    """
    try:
        return run_batch(scenario, seeds, configs), 0
    except Exception as exc:
        print(f"batch raised {type(exc).__name__}: {exc}; running pairs one by one", file=sys.stderr)
    empty = run_batch(scenario, (), configs)
    runs, failed = [], 0
    for seed in seeds:
        start = start_for_seed(scenario, seed)
        for index, (label, config) in enumerate(configs.items()):
            seeded = replace(config, seed=noise_seed(seed, index))
            try:
                trace = run(scenario.problem, scenario.net, start, seeded, theta_ref=scenario.theta_ref)
            except Exception as exc:
                print(f"run {label} seed {seed} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 2
                continue
            try:
                report = final_report(trace, scenario.problem, scenario.net)
            except Exception as exc:
                print(f"certification {label} seed {seed} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed += 1
                continue
            escape = escape_iteration(trace, empty.f_ref, empty.escape_delta)
            runs.append(RunResult(seed, label, seeded, trace, escape, report))
    return replace(empty, seeds=tuple(seeds), runs=tuple(runs)), failed


def batch_round(inputs: Inputs, out_dir) -> tuple:
    """One whole batch: the runs, their certificates and the export.
    Returns (batch, written paths, failed operations)."""
    batch, failed = run_isolated(inputs.scenario, inputs.seeds, inputs.configs)
    written = export_traces(batch, out_dir)
    return batch, written, failed


# ---------------------------------------------------------------------------
# checks


def read_summary(path) -> dict:
    with open(path, newline="", encoding="utf-8") as handle:
        return {(int(row["seed"]), row["config"]): row for row in csv.DictReader(handle)}


def check_round(inputs: Inputs, batch, written) -> tuple:
    """Check a round's exported results against the oracles and against
    properties the method must have. Returns (failures, notes)."""
    # Imported here so that set-up times only the program's own imports.
    import oracles

    scenario = inputs.scenario
    problem, net, graph = scenario.problem, scenario.net, scenario.graph
    m, n = problem.m, problem.n
    failures = []

    spectrum = oracles.laplacian_extremes(m, graph.edges)
    failures += oracles.check_spectrum("network", (net.lambda_min_plus, net.lambda_max), spectrum)

    summary_path = next(Path(p) for p in written if Path(p).name == "summary.csv")
    rows = read_summary(summary_path)
    if len(rows) != len(batch.runs):
        failures.append(f"summary has {len(rows)} rows for {len(batch.runs)} runs")
    traces = {Path(p).name for p in written}

    # The program's dense root S of L takes the square root of a zero
    # eigenvalue that rounds to about eps * lambda_max, so S 1 != 0. The
    # projected gradient it reports is then off by up to about root_floor
    # * ||g||, and noisy steps, which apply S, drift off the demand by a
    # seed-dependent amount: their block sums are reported, not judged.
    root_floor = math.sqrt(m * np.finfo(float).eps * net.lambda_max)
    feas_tol = default_feas_tol(problem.demand)
    _, lip_hess = lipschitz_constants(problem)

    def value_fn(t):
        return stacked_value(problem, t)

    def grad_fn(t):
        return stacked_gradient(problem, t)

    def hess_fn(t):
        return hessian_blocks(problem, t)

    rng = np.random.default_rng(0)
    finals = {}
    leak = 0.0
    for result in batch.runs:
        label = f"{result.label} seed {result.seed}"
        row = rows.get((result.seed, result.label))
        if row is None:
            failures.append(f"{label}: missing from summary.csv")
            continue
        if f"trace_{result.label}_seed{result.seed}.csv" not in traces:
            failures.append(f"{label}: trace file not written")
        theta = result.trace.final_theta
        failures += oracles.check_derivatives(label, value_fn, grad_fn, hess_fn, theta, m, n, rng)

        grad = grad_fn(theta).reshape(m, n)
        hess = hess_fn(theta)
        curvature = oracles.tangent_curvature(hess)
        final_f = float(row["final_f"])
        failures += oracles.check_reported(label, "final_f", final_f, value_fn(theta), 1e-9, 1e-12)
        failures += oracles.check_reported(
            label, "projected gradient", float(row["final_proj_grad_norm"]),
            oracles.edge_projected_grad(grad, graph.edges),
            1e-6, root_floor * float(np.linalg.norm(grad)),
        )
        failures += oracles.check_reported(
            label, "tangent curvature", float(row["final_tangent_curvature"]), curvature,
            1e-9, 1e-9 * (1.0 + float(np.abs(hess).max())),
        )
        if result.config.noise_variance > 0:
            leak = max(leak, oracles.block_sum_residual(theta, problem.demand))
            failures += oracles.check_escaped(label, final_f, batch.f_ref, batch.escape_delta)
        else:
            failures += oracles.check_feasible(label, theta, problem.demand, feas_tol)
            failures += oracles.check_local_min(label, grad, curvature, lip_hess)
        finals.setdefault(result.label, []).append(final_f)

    noisy = sorted(
        (config.noise_variance, label)
        for label, config in inputs.configs.items()
        if config.noise_variance > 0
    )
    if len(noisy) > 1 and all(label in finals for _, label in noisy):
        means = [float(np.mean(finals[label])) for _, label in noisy]
        failures += oracles.check_rises("mean final objective", means)
    notes = [f"largest block-sum residual of a noisy run {leak:.3e} (feas_tol {feas_tol:.3e}, not judged)"]
    return failures, notes
