"""Communication graphs and lifted Laplacian operators.

An allocation problem couples m agents through a connected undirected
graph. The graph Laplacian L = D - A drives everything in this package:
descent directions are premultiplied by L acting block-wise on stacked
per-agent vectors, and the change of variables behind the convergence
analysis uses the symmetric PSD square root of L. Both operators act on
a stacked vector v = (v_1, ..., v_m) with v_i in R^n through
``apply_lifted``, so the Kronecker product with the identity is never
materialized.

Stacking convention: a stacked vector has length m * n with agent i's
block at ``v[i * n : (i + 1) * n]``, i.e. ``v.reshape(m, n)`` puts one
agent per row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Relative cutoff below which a Laplacian eigenvalue counts as zero.
ZERO_EIG_RTOL = 1e-10

# Connected-graph generation retries before giving up.
MAX_GRAPH_ATTEMPTS = 100


class DisconnectedGraphError(ValueError):
    """Raised when an operation needs a connected graph but got components."""

    def __init__(self, n_components: int):
        super().__init__(
            f"graph is disconnected: {n_components} connected components"
        )
        self.n_components = n_components


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on nodes 0..m-1.

    Edges are unordered pairs stored as (i, j) tuples with i < j, sorted
    lexicographically. Self-loops and duplicates are rejected.
    """

    m: int
    edges: tuple

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"need at least 2 nodes, got m={self.m}")
        normalized = []
        for pair in self.edges:
            i, j = int(pair[0]), int(pair[1])
            if i == j:
                raise ValueError(f"self-loop on node {i}")
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ValueError(f"edge ({i}, {j}) out of range for m={self.m}")
            normalized.append((min(i, j), max(i, j)))
        if len(set(normalized)) != len(normalized):
            raise ValueError("duplicate edges")
        object.__setattr__(self, "edges", tuple(sorted(normalized)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def component_count(graph: Graph) -> int:
    """Number of connected components, by breadth-first traversal."""
    neighbors = [[] for _ in range(graph.m)]
    for i, j in graph.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = [False] * graph.m
    count = 0
    for start in range(graph.m):
        if seen[start]:
            continue
        count += 1
        stack = [start]
        seen[start] = True
        while stack:
            node = stack.pop()
            for other in neighbors[node]:
                if not seen[other]:
                    seen[other] = True
                    stack.append(other)
    return count


def is_connected(graph: Graph) -> bool:
    return component_count(graph) == 1


def path_graph(m: int) -> Graph:
    return Graph(m, tuple((i, i + 1) for i in range(m - 1)))


def cycle_graph(m: int) -> Graph:
    if m < 3:
        raise ValueError(f"cycle needs at least 3 nodes, got m={m}")
    edges = tuple((i, (i + 1) % m) for i in range(m))
    return Graph(m, edges)


def complete_graph(m: int) -> Graph:
    edges = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    return Graph(m, edges)


def watts_strogatz(m: int, k: int, p: float, seed: int) -> Graph:
    """Connected small-world graph on m nodes.

    Starts from a ring lattice where every node links to its k nearest
    neighbors (k/2 on each side), then scans the lattice edges in fixed
    order (offset-major, node-minor) and rewires the far endpoint of each
    with probability p, redrawing targets that would create a self-loop
    or duplicate. Nodes already adjacent to everyone are skipped. If the
    rewired graph is disconnected the whole construction is regenerated
    with seed + 1, seed + 2, ... up to ``MAX_GRAPH_ATTEMPTS`` tries.

    The edge count is always m * k / 2. Identical (m, k, p, seed) inputs
    reproduce the identical graph.
    """
    if k % 2 != 0:
        raise ValueError(f"k must be even, got k={k}")
    if not 2 <= k < m:
        raise ValueError(f"need 2 <= k < m, got k={k}, m={m}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"rewiring probability must be in [0, 1], got {p}")

    for attempt in range(MAX_GRAPH_ATTEMPTS):
        rng = np.random.default_rng(seed + attempt)
        edge_set = set()
        degree = [0] * m

        def add(u, v):
            edge_set.add((min(u, v), max(u, v)))
            degree[u] += 1
            degree[v] += 1

        def drop(u, v):
            edge_set.discard((min(u, v), max(u, v)))
            degree[u] -= 1
            degree[v] -= 1

        for offset in range(1, k // 2 + 1):
            for i in range(m):
                add(i, (i + offset) % m)

        for offset in range(1, k // 2 + 1):
            for i in range(m):
                if rng.random() >= p:
                    continue
                if degree[i] >= m - 1:
                    continue
                old = (i + offset) % m
                if (min(i, old), max(i, old)) not in edge_set:
                    continue
                new = int(rng.integers(m))
                while new == i or (min(i, new), max(i, new)) in edge_set:
                    new = int(rng.integers(m))
                drop(i, old)
                add(i, new)

        graph = Graph(m, tuple(sorted(edge_set)))
        if is_connected(graph):
            return graph

    raise RuntimeError(
        f"no connected graph after {MAX_GRAPH_ATTEMPTS} attempts "
        f"(m={m}, k={k}, p={p}, seed={seed})"
    )


@dataclass(frozen=True)
class NetworkOperator:
    """Laplacian of a connected graph with its spectral data, ready for
    lifted block-wise use on stacked vectors of per-agent dimension
    ``agent_dim``.

    ``lambda_min_plus`` is the smallest eigenvalue above the zero cutoff
    (the algebraic connectivity) and ``lambda_max`` the largest; for the
    PSD square root S = sqrt_laplacian the spectral norm satisfies
    ||S||^2 = lambda_max. Arrays are read-only after construction.
    """

    laplacian: np.ndarray
    sqrt_laplacian: np.ndarray
    lambda_min_plus: float
    lambda_max: float
    agent_dim: int

    @property
    def m(self) -> int:
        return self.laplacian.shape[0]


def build_laplacian(graph: Graph, agent_dim: int = 1) -> NetworkOperator:
    """Assemble L = D - A and its spectral data for a connected graph.

    Connectivity is determined from the second-smallest eigenvalue and
    cross-checked by traversal; a disconnected graph raises
    ``DisconnectedGraphError`` carrying the component count.
    """
    if agent_dim < 1:
        raise ValueError(f"agent_dim must be >= 1, got {agent_dim}")
    m = graph.m
    lap = np.zeros((m, m))
    for i, j in graph.edges:
        lap[i, j] -= 1.0
        lap[j, i] -= 1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0

    eigvals, eigvecs = np.linalg.eigh(lap)
    lam_max = float(eigvals[-1])
    cutoff = ZERO_EIG_RTOL * max(lam_max, 0.0)
    positive = eigvals > cutoff

    components = component_count(graph)
    spectral_connected = int(positive.sum()) == m - 1
    if (components == 1) != spectral_connected:
        raise RuntimeError(
            "connectivity disagreement between spectrum and traversal"
        )
    if components != 1:
        raise DisconnectedGraphError(components)

    # The kernel eigenvalue comes out at rounding level (about eps *
    # lambda_max, either sign); its root must be exactly 0, or S picks up
    # a component along the ones vector and S (x) I leaks block sums.
    roots = np.sqrt(np.where(positive, eigvals, 0.0))
    sqrt_lap = (eigvecs * roots) @ eigvecs.T
    sqrt_lap = (sqrt_lap + sqrt_lap.T) / 2.0
    lap.flags.writeable = False
    sqrt_lap.flags.writeable = False
    return NetworkOperator(
        laplacian=lap,
        sqrt_laplacian=sqrt_lap,
        lambda_min_plus=float(eigvals[positive][0]),
        lambda_max=lam_max,
        agent_dim=agent_dim,
    )


def apply_lifted(mat: np.ndarray, vec: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply mat (x) I_{block_dim} to a stacked vector without forming it.

    For mat of shape (q, m) and vec of length m * block_dim the result
    block i is sum_j mat[i, j] * vec_j, computed as a single (q, m) by
    (m, block_dim) product in O(q * m * block_dim). A leading run axis on
    vec is kept, and each run gets the same product it would get alone.
    """
    mat = np.asarray(mat)
    vec = np.asarray(vec)
    if block_dim < 1:
        raise ValueError(f"block_dim must be >= 1, got {block_dim}")
    m = mat.shape[1]
    if vec.ndim == 0 or vec.shape[-1] != m * block_dim:
        raise ValueError(
            f"stacked vector has shape {vec.shape}, expected (..., {m * block_dim})"
        )
    lead = vec.shape[:-1]
    return (mat @ vec.reshape(lead + (m, block_dim))).reshape(lead + (-1,))


def block_sum(vec: np.ndarray, block_dim: int) -> np.ndarray:
    """Sum of the per-agent blocks of a stacked vector, shape (block_dim,),
    or (..., block_dim) for a leading run axis."""
    vec = np.asarray(vec)
    if block_dim < 1 or vec.shape[-1] % block_dim != 0:
        raise ValueError(
            f"vector of length {vec.shape[-1]} does not split into blocks "
            f"of {block_dim}"
        )
    return vec.reshape(vec.shape[:-1] + (-1, block_dim)).sum(axis=-2)


def read_edge_list(path) -> Graph:
    """Parse a graph from text: first line the node count m, then one
    ``i j`` pair of 0-based node indices per line."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    rows = [(k, ln.strip()) for k, ln in enumerate(lines, start=1) if ln.strip()]
    if not rows:
        raise ValueError(f"{path}: empty edge-list file")
    lineno, head = rows[0]
    try:
        m = int(head)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected node count, got {head!r}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                f"{path}:{lineno}: expected 'i j', got {line!r}"
            )
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: non-integer node index in {line!r}"
            )
    try:
        return Graph(m, tuple(edges))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_edge_list(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{graph.m}\n")
        for i, j in graph.edges:
            handle.write(f"{i} {j}\n")
