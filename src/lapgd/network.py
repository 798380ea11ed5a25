"""Communication graphs and lifted incidence operators.

An allocation problem couples m agents through a connected undirected
graph with E edges. Its Laplacian L = D - A factors as L = B' B, B the
signed (E, m) edge-by-node incidence matrix, and the run path uses B
only: descent directions are premultiplied by L as B' (B g), noisy kicks
are B' eta with one Gaussian block per edge, and the projected gradient
is ||B g||. The factor acts block-wise on stacked per-agent vectors
through ``apply_lifted``, so the Kronecker product with the identity is
never materialized. It is stored dense on small graphs and as CSR on
large ones, where nothing of size m x m is ever formed; the dense L and
its PSD square root remain available as references built on demand.

Stacking convention: a stacked vector has length m * n with agent i's
block at ``v[i * n : (i + 1) * n]``, i.e. ``v.reshape(m, n)`` puts one
agent per row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

# Largest node count whose operators are stored dense; above it they are
# CSR. Set from the measured crossover of the stacked apply (CHANGES.md).
DENSE_MAX_M = 48

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
    """The signed incidence factor of a connected graph with its spectral
    data, ready for lifted block-wise use on stacked vectors of per-agent
    dimension ``agent_dim``.

    ``incidence`` is B, one row per edge (i, j), i < j, with +1 at i and
    -1 at j, so L = B' B; ``incidence_t`` is B' stored on its own. Both
    are dense arrays for m <= ``DENSE_MAX_M`` and CSR matrices above.
    ``lambda_min_plus`` is the second-smallest eigenvalue of L (the
    algebraic connectivity) and ``lambda_max`` the largest, which equals
    ||B||^2.

    ``laplacian`` and the PSD square root ``sqrt_laplacian`` (||S||^2 =
    lambda_max, S S = L) are dense (m, m) references, built on first
    access and cached; nothing on the run or certification path uses
    them. Arrays are read-only.
    """

    incidence: object
    incidence_t: object
    lambda_min_plus: float
    lambda_max: float
    agent_dim: int

    @property
    def m(self) -> int:
        return self.incidence.shape[1]

    @property
    def edge_count(self) -> int:
        return self.incidence.shape[0]

    @cached_property
    def laplacian(self) -> np.ndarray:
        lap = self.incidence_t @ self.incidence
        lap = lap.toarray() if scipy.sparse.issparse(lap) else lap
        lap.flags.writeable = False
        return lap

    @cached_property
    def sqrt_laplacian(self) -> np.ndarray:
        eigvals, eigvecs = np.linalg.eigh(self.laplacian)
        # The kernel eigenvalue comes out at rounding level (about eps *
        # lambda_max, either sign); its root must be exactly 0, or S picks
        # up a component along the ones vector and S (x) I leaks block sums.
        roots = np.sqrt(np.maximum(eigvals, 0.0))
        roots[0] = 0.0
        root = (eigvecs * roots) @ eigvecs.T
        root = (root + root.T) / 2.0
        root.flags.writeable = False
        return root


def _read_only(mat):
    for array in (mat.data, mat.indices, mat.indptr) if scipy.sparse.issparse(mat) else (mat,):
        array.flags.writeable = False
    return mat


def build_laplacian(graph: Graph, agent_dim: int = 1) -> NetworkOperator:
    """The incidence factor of a connected graph and the extreme nonzero
    eigenvalues of L = B' B.

    Connectivity is checked by traversal; a disconnected graph raises
    ``DisconnectedGraphError`` carrying the component count. Up to
    ``DENSE_MAX_M`` nodes the spectrum comes from a dense ``eigvalsh``;
    above it, from ARPACK on the sparse L: the largest eigenvalue
    directly, lambda_2 by shift-invert just below zero. ARPACK starts
    from a fixed vector, so equal graphs give equal numbers.
    """
    if agent_dim < 1:
        raise ValueError(f"agent_dim must be >= 1, got {agent_dim}")
    components = component_count(graph)
    if components != 1:
        raise DisconnectedGraphError(components)
    m, count = graph.m, graph.edge_count
    incidence = scipy.sparse.csr_array(
        (
            np.tile([1.0, -1.0], count),
            np.asarray(graph.edges, dtype=np.int32).reshape(-1),
            np.arange(0, 2 * count + 1, 2, dtype=np.int32),
        ),
        shape=(count, m),
    )
    incidence_t = incidence.T.tocsr()
    if m <= DENSE_MAX_M:
        # Column-major: numpy then hands BLAS each run's product as the
        # axpy-form gemv, measured 15-25% faster on these shapes.
        incidence, incidence_t = incidence.toarray("F"), incidence_t.toarray("F")
        eigvals = np.linalg.eigvalsh(incidence_t @ incidence)
        lam_min_plus, lam_max = eigvals[1], eigvals[-1]
    else:
        lap = incidence_t @ incidence
        start = np.random.default_rng(0).standard_normal(m)
        (lam_max,) = scipy.sparse.linalg.eigsh(
            lap, k=1, which="LA", v0=start, return_eigenvectors=False
        )
        bottom = scipy.sparse.linalg.eigsh(
            lap, k=2, sigma=-1e-3, which="LM", v0=start, return_eigenvectors=False
        )
        lam_min_plus = np.sort(bottom)[1]
    return NetworkOperator(
        incidence=_read_only(incidence),
        incidence_t=_read_only(incidence_t),
        lambda_min_plus=float(lam_min_plus),
        lambda_max=float(lam_max),
        agent_dim=agent_dim,
    )


def apply_lifted(mat, vec: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply mat (x) I_{block_dim} to a stacked vector without forming it.

    mat is a (q, m) dense array or CSR matrix; for vec of length
    m * block_dim the result block i is sum_j mat[i, j] * vec_j. Leading
    run axes on vec are kept, and each run gets the same product it would
    get alone: a dense mat makes one (q, m) by (m, block_dim) product per
    run, and a CSR mat makes one product with every run's blocks as
    columns, each column summed over the stored entries in row order.
    """
    vec = np.asarray(vec)
    if block_dim < 1:
        raise ValueError(f"block_dim must be >= 1, got {block_dim}")
    dense = isinstance(mat, np.ndarray) or not scipy.sparse.issparse(mat)
    if dense:
        mat = np.asarray(mat)
    q, m = mat.shape
    if vec.ndim == 0 or vec.shape[-1] != m * block_dim:
        raise ValueError(
            f"stacked vector has shape {vec.shape}, expected (..., {m * block_dim})"
        )
    lead = vec.shape[:-1]
    if dense:
        return (mat @ vec.reshape(lead + (m, block_dim))).reshape(lead + (-1,))
    columns = vec.reshape(-1, m, block_dim).transpose(1, 0, 2).reshape(m, -1)
    out = (mat @ columns).reshape(q, -1, block_dim).transpose(1, 0, 2)
    # Row-major like the dense result: BLAS sums a strided row in another
    # order than a contiguous one, so later row reductions would differ.
    return np.ascontiguousarray(out).reshape(lead + (-1,))


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
