"""Command-line harness.

Subcommands: run (one configured run), compare (noiseless vs noisy batch
on a named scenario), sweep (noise-level sweep), check (certify a saved
allocation), spectrum (graph spectral summary), params (theory-backed
parameter calculator).

Exit codes: 0 success, 1 negative domain answer, 2 input or config
error, 3 runtime failure (infeasible start, divergence). Code 1 comes
only from the negative answers of check (not certified) and spectrum
(disconnected graph).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from .config import ConfigError, load_bundle
from .experiments import (
    SCENARIO_BUILDERS,
    export_traces,
    final_report,
    run_comparison,
    sweep_sigma,
    write_trace_csv,
)
from .network import build_laplacian, component_count, read_edge_list
from .objectives import estimate_global_min_sum, lipschitz_constants, stacked_value
from .optimizer import (
    InfeasibleStartError,
    curvature_tolerance,
    iteration_budget,
    run,
    theoretical_step_bound,
    variance_for_tolerance,
)
from .stationarity import Classification, classify, format_report, transfer_certificate

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_RUNTIME = 3


def _default_out_dir() -> str:
    return os.environ.get("LAPGD_OUT_DIR", "lapgd_out")


def cmd_run(args) -> int:
    bundle = load_bundle(args.config, require_run=True)
    trace = run(bundle.problem, bundle.net, bundle.theta_start, bundle.run_config)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trace_path = out / "trace.csv"
    write_trace_csv(trace, trace_path)
    manifest_path = out / "manifest.yaml"
    with open(manifest_path, "w", encoding="utf-8") as handle:
        yaml.safe_dump({"kind": "run", "config": bundle.raw}, handle, sort_keys=False)
    report = final_report(trace, bundle.problem, bundle.net)
    print(format_report(report))
    print(f"iterations: {trace.iterations_run}")
    print(f"trace: {trace_path}")
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_batch(args) -> int:
    """compare: the scenario's own configs; sweep: its baseline and one
    noisy twin per --sigmas value."""
    for flag, value, least in (
        ("--seeds", args.seeds, 1),
        ("--scenario-seed", args.scenario_seed, 0),
        ("--max-iters", args.max_iters, 1),
    ):
        if value is not None and value < least:
            raise ConfigError(f"{flag} must be >= {least}, got {value}")
    if args.command == "sweep":
        try:
            sigmas = [float(s) for s in args.sigmas.split(",") if s.strip() != ""]
        except ValueError as exc:
            raise ConfigError(f"--sigmas: {exc}") from exc
        if not sigmas:
            raise ConfigError("--sigmas needs at least one value")
        if not all(math.isfinite(s) and s >= 0 for s in sigmas):
            raise ConfigError(f"--sigmas values must be finite and >= 0, got {args.sigmas}")
    scenario = SCENARIO_BUILDERS[args.scenario](args.scenario_seed)
    if args.max_iters is not None:
        configs = {
            label: replace(cfg, max_iters=args.max_iters) for label, cfg in scenario.configs.items()
        }
        scenario = replace(scenario, configs=configs)
    if args.command == "sweep":
        batch = sweep_sigma(scenario, sigmas, range(args.seeds))
    else:
        batch = run_comparison(scenario, range(args.seeds))
    written = export_traces(batch, args.out_dir)
    for label in batch.configs:
        results = [r for r in batch.runs if r.label == label]
        escapes = [r.escape_iteration for r in results if r.escape_iteration is not None]
        line = f"{label}: escaped {len(escapes)}/{len(results)} runs"
        if escapes:
            line += f", median escape iteration {int(np.median(escapes))}"
        print(line)
    print(f"wrote {len(written)} files to {args.out_dir}")
    return EXIT_OK


def cmd_check(args) -> int:
    bundle = load_bundle(args.config, require_run=False)
    try:
        values = np.loadtxt(args.state, dtype=float).reshape(-1)
    except Exception as exc:
        raise ConfigError(f"{args.state}: cannot read allocation values: {exc}")
    expected = bundle.problem.m * bundle.problem.n
    if values.shape != (expected,):
        raise ConfigError(
            f"{args.state}: holds {values.shape[0]} values, expected {expected}"
        )
    report = classify(values, bundle.problem, bundle.net, args.eps, args.gamma)
    print(format_report(report))
    if report.classification is Classification.SECOND_ORDER:
        return EXIT_OK
    return EXIT_NEGATIVE


def cmd_spectrum(args) -> int:
    graph = read_edge_list(args.graph)
    components = component_count(graph)
    print(f"nodes: {graph.m}")
    print(f"edges: {graph.edge_count}")
    print(f"components: {components}")
    if components != 1:
        print("disconnected: spectral quantities need a connected graph")
        return EXIT_NEGATIVE
    net = build_laplacian(graph)
    print(f"lambda_min_plus: {net.lambda_min_plus!r}")
    print(f"lambda_max: {net.lambda_max!r}")
    return EXIT_OK


def cmd_params(args) -> int:
    bundle = load_bundle(args.config, require_run=False)
    lip_grad, lip_hess = lipschitz_constants(bundle.problem)
    net = bundle.net
    step_bound = theoretical_step_bound(args.failure_prob, lip_grad, net.lambda_max)
    variance = variance_for_tolerance(
        args.grad_tol, bundle.problem.m, bundle.problem.n
    )
    curv_tol = curvature_tolerance(args.grad_tol, net.lambda_max, lip_hess)
    min_sum = bundle.problem.global_min_sum
    if min_sum is None:
        min_sum = estimate_global_min_sum(bundle.problem)
    psi_start = stacked_value(bundle.problem, bundle.theta_start)
    budget = iteration_budget(
        psi_start, min_sum, net.lambda_max * lip_grad, args.grad_tol, step_bound
    )
    print(f"step_size_bound: {step_bound!r}")
    print(f"noise_variance: {variance!r}")
    print(f"curvature_tolerance: {curv_tol!r}")
    # the allocation-space gamma that classify and final_report judge by
    _, allocation_tol = transfer_certificate(args.grad_tol, curv_tol, net)
    print(f"curvature_tolerance_allocation: {allocation_tol!r}")
    print(f"iteration_budget: {budget}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lapgd",
        description=(
            "Laplacian-weighted gradient descent for coupled resource "
            "allocation: run it, compare its noisy variant's saddle escape, "
            "and certify the results."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one configured experiment")
    p_run.add_argument("config", help="YAML config with problem/network/run/init")
    p_run.add_argument(
        "--out-dir",
        default=_default_out_dir(),
        help="output directory (default: $LAPGD_OUT_DIR or ./lapgd_out)",
    )
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser(
        "compare", help="noiseless vs noisy batch on a named scenario"
    )
    p_sweep = sub.add_parser("sweep", help="noise-level sweep on a named scenario")
    p_sweep.add_argument(
        "--sigmas", required=True, help="comma-separated noise levels (std dev)"
    )
    batch_parsers = ((p_cmp, 20, "instance-generation seed"), (p_sweep, 5, None))
    for p_batch, seeds, seed_help in batch_parsers:
        p_batch.add_argument("scenario", choices=sorted(SCENARIO_BUILDERS))
        p_batch.add_argument("--seeds", type=int, default=seeds, help="run seeds 0..N-1")
        p_batch.add_argument("--scenario-seed", type=int, default=0, help=seed_help)
        p_batch.add_argument("--max-iters", type=int, default=None, help="budget override")
        p_batch.add_argument("--out-dir", default=_default_out_dir())
        p_batch.set_defaults(func=cmd_batch)

    p_check = sub.add_parser(
        "check", help="certify a saved allocation against a problem config"
    )
    p_check.add_argument("config", help="YAML config with problem/network sections")
    p_check.add_argument(
        "state", help="text file of allocation values, whitespace separated"
    )
    p_check.add_argument("--eps", type=float, default=1e-6,
                         help="projected-gradient tolerance")
    p_check.add_argument("--gamma", type=float, default=1e-6,
                         help="tangent-curvature tolerance")
    p_check.set_defaults(func=cmd_check)

    p_spec = sub.add_parser("spectrum", help="spectral summary of an edge list")
    p_spec.add_argument("graph", help="edge-list file: first line m, then 'i j' lines")
    p_spec.set_defaults(func=cmd_spectrum)

    p_par = sub.add_parser(
        "params", help="step bound, noise variance, curvature tolerance, budget"
    )
    p_par.add_argument("config", help="YAML config with problem/network/init")
    p_par.add_argument(
        "--grad-tol", type=float, required=True, help="target projected-gradient accuracy"
    )
    p_par.add_argument(
        "--failure-prob",
        type=float,
        default=0.1,
        help="acceptable per-run failure probability (default 0.1)",
    )
    p_par.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleStartError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
