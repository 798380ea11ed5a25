"""Build coupling graphs and inspect the operators the optimizer uses.

Every update the library takes moves along a graph Laplacian L = B' B,
applied blockwise to the stacked allocation through its incidence
factor B. This demo builds a few graphs, prints their spectra, and
shows why the construction conserves block sums: L and its matrix
square root, the dense references, annihilate the all-ones direction.
"""

import numpy as np

from lapgd.network import (
    apply_lifted,
    block_sum,
    build_laplacian,
    cycle_graph,
    path_graph,
    watts_strogatz,
)


def describe(name, net):
    print(f"{name}:")
    print(f"  lambda_min_plus = {net.lambda_min_plus:.6f}")
    print(f"  lambda_max      = {net.lambda_max:.6f}")
    residual = np.linalg.norm(net.sqrt_laplacian @ net.sqrt_laplacian - net.laplacian)
    print(f"  ||S S - L||_F   = {residual:.2e}")
    ones = np.ones(net.m)
    print(f"  ||L 1||         = {np.linalg.norm(net.laplacian @ ones):.2e}")
    print()


def main():
    describe("two-agent path", build_laplacian(path_graph(2)))
    describe("six-agent cycle", build_laplacian(cycle_graph(6)))

    graph = watts_strogatz(20, 4, 0.2, seed=0)
    net = build_laplacian(graph)
    print(f"small-world graph: {graph.m} nodes, {graph.edge_count} edges")
    describe("20-agent small world", net)

    # the lifted action applies the matrix to each coordinate slot without
    # ever materializing a Kronecker product
    net2 = build_laplacian(path_graph(2), agent_dim=2)
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    moved = apply_lifted(net2.laplacian, vec, block_dim=2)
    print(f"lifted action on {vec}: {moved}")
    print(f"block sums before: {block_sum(vec, 2)}, after moving: "
          f"{block_sum(vec - 0.1 * moved, 2)}")


if __name__ == "__main__":
    main()
