"""Choosing run parameters from problem constants.

Three calculators turn smoothness constants and spectral data into run
parameters with guarantees attached: a step size safe with a chosen
failure probability, a noise variance matched to a target gradient
tolerance, and an iteration budget sufficient to reach it in
expectation. The demo computes all three for the twenty-agent scenario
and then confirms the budget empirically with an actual run.
"""

from lapgd.experiments import build_smart_grid_scenario
from lapgd.objectives import estimate_global_min_sum, lipschitz_constants, stacked_value
from lapgd.optimizer import (
    RunConfig,
    iteration_budget,
    run,
    theoretical_step_bound,
    variance_for_tolerance,
)


def main():
    scenario = build_smart_grid_scenario(seed=0)
    problem, net = scenario.problem, scenario.net
    lip_grad, _ = lipschitz_constants(problem)
    grad_tol = 0.1

    step = theoretical_step_bound(
        failure_prob=0.1, lip_grad=lip_grad, sqrt_norm_sq=net.lambda_max
    )
    variance = variance_for_tolerance(grad_tol, problem.m, problem.n)
    print(f"smoothness constant {lip_grad:.3f}, ||S||^2 = {net.lambda_max:.3f}")
    print(f"step bound at failure probability 0.1: {step:.5f}")
    print(f"noise variance for gradient tolerance {grad_tol}: {variance:.3e}")

    start = scenario.theta_start
    psi_start = stacked_value(problem, start)
    min_sum = problem.global_min_sum
    if min_sum is None:
        min_sum = estimate_global_min_sum(problem)
    # the auxiliary problem inherits smoothness scaled by ||S||^2
    budget = iteration_budget(
        psi_start, min_sum, net.lambda_max * lip_grad, grad_tol, step
    )
    print(f"objective gap {psi_start - min_sum:.3f}, iteration budget {budget}")

    config = RunConfig(
        algorithm="nlgd",
        step_size=step,
        max_iters=budget,
        noise_variance=variance,
        seed=0,
        record_every=max(budget // 20, 1),
    )
    trace = run(problem, net, start, config)
    grads = [r.proj_grad_norm for r in trace.records]
    print(
        f"run of {trace.iterations_run} iterations: best recorded projected"
        f" gradient {min(grads):.4f} against tolerance {grad_tol}"
    )


if __name__ == "__main__":
    main()
