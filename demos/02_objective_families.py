"""Tour the three objective families.

Each agent owns a smooth local cost over its allocation block. The
library ships a strongly convex quadratic, a generation-cost family
whose log term carves a saddle at the origin, and a portfolio family
with a non-convex log penalty. Each family is one vectorized definition
over all agents' blocks with analytic gradients, Hessian blocks and
smoothness constants; a finite-difference check keeps the derivations
honest.
"""

import numpy as np

from lapgd.objectives import (
    fd_check,
    hessian_blocks,
    portfolio_problem,
    quadratic_problem,
    sample_portfolio_params,
    smart_grid_problem,
    stacked_value,
)


def main():
    quad = quadratic_problem([2.0, 2.0], demand=0.0, c_values=[1.0, 1.0])
    print("two quadratics 0.5*2*t^2 + t:")
    print(f"  minimum sum {quad.global_min_sum:+.4f} (closed form), lip_grad {quad.lip_grad}")

    grid = smart_grid_problem([1.0, 1.0], [2.0, 2.0])
    zero, one = np.zeros(2), np.ones(2)
    print("two generation costs a*t^2 - b*log(1+t^2), a=1, b=2:")
    print(f"  value at 0: {stacked_value(grid, zero):+.4f}, curvature there: "
          f"{hessian_blocks(grid, zero)[0, 0, 0]:+.4f} (a strict local max along each axis)")
    print(f"  value at 1: {stacked_value(grid, one):+.4f}, curvature there: "
          f"{hessian_blocks(grid, one)[0, 0, 0]:+.4f}")
    print(f"  closed-form minimum sum: {grid.global_min_sum:+.4f}")

    rng = np.random.default_rng(0)
    folio = portfolio_problem(*sample_portfolio_params(2, 3, rng), demand=np.zeros(3))
    point = rng.normal(size=6)
    print("two portfolios -mu't + rw*t'Ct + lw*sum log(1+t_j^2), three assets each:")
    print(f"  value at a random point: {stacked_value(folio, point):+.4f}")
    print(f"  lip_grad {folio.lip_grad:.4f}, lip_hess {folio.lip_hess:.4f}")

    print("\nfinite-difference check (gradient error, Hessian error):")
    for name, problem in (("quadratic", quad), ("generation", grid), ("portfolio", folio)):
        errs = fd_check(problem, rng.normal(size=problem.m * problem.n))
        print(f"  {name:10s} {errs[0]:.2e}  {errs[1]:.2e}")


if __name__ == "__main__":
    main()
