"""Escaping a strict saddle: noiseless versus noisy runs.

The twenty-agent generation-cost scenario starts each batch seed a tiny
tangent kick away from the allocation where every agent sits at zero.
That point is a strict saddle of the coupled problem, and the noiseless
method started exactly there never moves at all. Started nearby it
drifts away only as fast as the kick seeds; the noisy variant injects
feasibility-preserving Gaussian kicks and leaves sooner. A run counts
as escaped at the first recorded iterate whose objective drops below
the reference value by a fixed margin.
"""

from dataclasses import replace

import numpy as np

from lapgd.experiments import build_smart_grid_scenario, run_comparison, summary_rows
from lapgd.objectives import stacked_value
from lapgd.optimizer import RunConfig, run
from lapgd.stationarity import tangent_min_curvature


def main():
    scenario = build_smart_grid_scenario(seed=0)
    problem, net = scenario.problem, scenario.net
    f_ref = stacked_value(problem, scenario.theta_ref)
    curv = tangent_min_curvature(scenario.theta_ref, problem)
    print(
        f"scenario {scenario.name}: {problem.m} agents,"
        f" {len(scenario.graph.edges)} links"
    )
    print(
        f"reference value {f_ref:.6f},"
        f" tangent curvature there {curv:.3f} (strict saddle)"
    )

    pinned = run(
        problem,
        net,
        scenario.theta_ref,
        RunConfig(algorithm="lgd", step_size=1e-3, max_iters=2000, record_every=500),
    )
    drift = max(abs(r.f_value - f_ref) for r in pinned.records)
    moved = float(np.abs(pinned.final_theta - scenario.theta_ref).max())
    print(f"noiseless run from the exact saddle: value drift {drift:.1e},"
          f" iterate drift {moved:.1e}")

    # the full comparison budgets a couple hundred thousand iterations;
    # a short budget is enough to watch both methods leave
    short = replace(
        scenario,
        configs={
            label: replace(config, max_iters=20000)
            for label, config in scenario.configs.items()
        },
    )
    batch = run_comparison(short, seeds=range(3))
    print(f"escape margin below the reference: {batch.escape_delta:.2e}")
    print()
    header = f"{'seed':>4}  {'config':<6}  {'escape_iter':>11}  {'final_f':>12}  classification"
    print(header)
    print("-" * len(header))
    for row in summary_rows(batch):
        esc = row["escape_iter"]
        print(
            f"{row['seed']:>4}  {row['config']:<6}"
            f"  {'never' if esc is None else esc:>11}"
            f"  {row['final_f']:>12.6f}  {row['classification']}"
        )


if __name__ == "__main__":
    main()
