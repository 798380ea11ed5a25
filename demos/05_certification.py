"""Certifying what a run found.

A candidate allocation is judged on three residuals: distance from the
demand constraint, projected gradient norm, and the smallest curvature
of the objective restricted to directions that keep the block sums
fixed. This demo classifies three qualitatively different points of a
four-agent quadratic instance, certifies one of them through the
auxiliary coordinates, and shows how an auxiliary certificate transfers
back to the allocation with the curvature tolerance divided by the
spectral gap.
"""

import numpy as np

from lapgd import (
    aux_hessian,
    build_laplacian,
    build_smart_grid_scenario,
    classify,
    cycle_graph,
    format_report,
    projected_grad_norm,
    quadratic_problem,
    transfer_certificate,
)


def main():
    a = np.array([1.0, 2.0, 4.0, 8.0])
    demand = 2.0
    problem = quadratic_problem(a, demand)
    net = build_laplacian(cycle_graph(4))

    # 0.5 a_i t^2 splits optimally in proportion to 1/a_i
    optimum = (demand / np.sum(1.0 / a)) / a
    uniform = np.full(4, demand / 4)
    off_budget = uniform + 0.1

    print("four-agent quadratic, demand 2.0, cycle network\n")
    for name, point in [
        ("closed-form optimum", optimum),
        ("uniform split", uniform),
        ("uniform split + 0.1", off_budget),
    ]:
        report = classify(point, problem, net, eps=1e-8, gamma=1e-8)
        print(f"{name}:")
        print(format_report(report))
        print()

    # the auxiliary gradient is the projected gradient, the auxiliary
    # Hessian the S H S sandwich
    grad_norm = projected_grad_norm(optimum, problem, net)
    min_eig = float(np.linalg.eigvalsh(aux_hessian(optimum, problem, net))[0])
    passed = grad_norm <= 1e-8 and min_eig >= -1e-8
    print(
        f"auxiliary certificate at the optimum: grad {grad_norm:.2e},"
        f" min eigenvalue {min_eig:.3f}, passed={passed}"
    )
    eps, gamma = transfer_certificate(1e-8, 1e-8, net)
    print(
        f"transferred tolerances: eps {eps:g}, gamma {gamma:g}"
        f" (spectral gap {net.lambda_min_plus:g})\n"
    )

    scenario = build_smart_grid_scenario(seed=0)
    saddle = classify(
        scenario.theta_ref, scenario.problem, scenario.net, eps=1e-8, gamma=0.5
    )
    print("twenty-agent generation-cost reference point:")
    print(format_report(saddle))


if __name__ == "__main__":
    main()
