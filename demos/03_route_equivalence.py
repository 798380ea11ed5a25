"""Two numerical routes to the same trajectory.

The coupled update moves the stacked allocation along the Laplacian
times the gradient. An equivalent route runs plain gradient descent on
a lifted problem: substitute theta = anchor + B' x with B the signed
edge-by-node incidence matrix (L = B' B), step x, and map back. This
demo advances both routes side by side, noiseless and noisy with a
shared noise stream, and prints the worst deviation. Agreement to near
machine precision is what makes lifted-space certificates transferable.
"""

import numpy as np

from lapgd import (
    aux_gd_step,
    aux_ngd_step,
    build_laplacian,
    initial_state,
    lgd_step,
    nlgd_step,
    sample_smart_grid_params,
    smart_grid_problem,
    watts_strogatz,
)


def main():
    rng = np.random.default_rng(42)
    a, b = sample_smart_grid_params(6, rng)
    problem = smart_grid_problem(a, b)
    net = build_laplacian(watts_strogatz(6, 2, 0.3, seed=4))
    theta0 = rng.normal(scale=0.3, size=6)
    theta0 -= theta0.mean()  # feasible for zero demand
    step = 0.4 / (net.lambda_max * problem.lip_grad)

    direct = initial_state(theta0, with_aux=False)
    lifted = initial_state(theta0, with_aux=True)
    worst = 0.0
    for _ in range(1000):
        direct = lgd_step(direct, problem, net, step)
        lifted = aux_gd_step(lifted, problem, net, step)
        worst = max(worst, float(np.abs(direct.theta - lifted.theta).max()))
    print(f"noiseless: max deviation over 1000 steps = {worst:.2e}")

    direct = initial_state(theta0, with_aux=False)
    lifted = initial_state(theta0, with_aux=True)
    rng_direct = np.random.default_rng(7)
    rng_lifted = np.random.default_rng(7)  # identical noise realization
    worst = 0.0
    for _ in range(200):
        direct = nlgd_step(direct, problem, net, step, 0.01, rng_direct)
        lifted = aux_ngd_step(lifted, problem, net, step, 0.01, rng_lifted)
        worst = max(worst, float(np.abs(direct.theta - lifted.theta).max()))
    print(f"noisy:     max deviation over 200 steps  = {worst:.2e}")


if __name__ == "__main__":
    main()
