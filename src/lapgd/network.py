"""Communication graphs and lifted incidence operators.

An allocation problem couples m agents through a connected undirected
graph with E edges. Its Laplacian L = D - A factors as L = B' B, B the
signed (E, m) edge-by-node incidence matrix, and the run path uses B
only: descent directions are premultiplied by L as B' (B g), noisy kicks
are B' eta with one Gaussian block per edge, and the projected gradient
is ||B g||. The factor acts block-wise on stacked per-agent vectors
through ``apply_lifted``, so the Kronecker product with the identity is
never materialized. B is one edge list on every graph, multiplied as a
dense copy on small graphs; on large ones nothing of size m x m is formed
unless a spectrum falls back to the dense solver: plain Lanczos finds
the extremes from two vectors at a time, with no stored basis. The
dense L and its PSD square root are references built on demand. Every
graph size is numpy only: scipy is not loaded by anything in this
module.

Stacking convention: a stacked vector has length m * n with agent i's
block at ``v[i * n : (i + 1) * n]``, i.e. ``v.reshape(m, n)`` puts one
agent per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

# Largest node count whose incidence operators multiply by a dense copy
# and whose spectrum is a dense eigvalsh; above it they apply as edge
# lists and Lanczos gives the spectrum. Stacked runs of B then B' cost
# about the same both ways at 48 nodes (table in CHANGES.md).
DENSE_MAX_M = 48

# Most Lanczos steps for the spectrum of a graph above DENSE_MAX_M; one
# whose extremes have not converged by then falls back to the dense
# eigvalsh. Ring-like graphs need about m steps; k steps cost O(E k) in
# products and O(k^3) in the eigenvalues of T, against the dense O(m^3).
LANCZOS_MAX_STEPS = 500

# Lanczos stops once both Ritz residual bounds are below this times the
# largest Ritz value; it checks at steps spaced by LANCZOS_CHECK_GROWTH.
LANCZOS_RTOL = 1e-12
LANCZOS_CHECK_GROWTH = 1.1

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


@dataclass(frozen=True, eq=False)
class EdgeIncidence:
    """The signed incidence matrix B of a graph held as its edge list, or
    its transpose B' when ``transposed``.

    Edge e joins ``heads[e]`` (+1) to ``tails[e]`` (-1), heads < tails.
    Up to ``DENSE_MAX_M`` nodes ``apply`` multiplies each run by
    ``dense``, the matrix as a read-only column-major copy; above it
    ``dense`` is None, B is the gather ``g[heads] - g[tails]`` and B' the
    per-node sums of the incident edges' values, heads' and tails' each
    accumulated in edge order by ``np.bincount``. ``toarray`` gives the
    dense matrix for references. ``heads`` and ``tails`` are read-only.
    """

    heads: np.ndarray
    tails: np.ndarray
    m: int
    transposed: bool = False
    dense: np.ndarray | None = field(init=False, default=None, repr=False)
    _ends: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.heads.flags.writeable = False
        self.tails.flags.writeable = False
        if self.m <= DENSE_MAX_M:
            # Column-major: numpy then hands BLAS each run's product as the
            # axpy-form gemv, measured 15-25% faster on these shapes; the
            # order picks the kernel, and with it the bits of each product.
            dense = np.asfortranarray(self.toarray())
            dense.flags.writeable = False
            object.__setattr__(self, "dense", dense)

    @property
    def shape(self) -> tuple:
        count = len(self.heads)
        return (self.m, count) if self.transposed else (count, self.m)

    @cached_property
    def T(self) -> "EdgeIncidence":
        return replace(self, transposed=not self.transposed)

    def toarray(self) -> np.ndarray:
        count = len(self.heads)
        dense = np.zeros((count, self.m))
        dense[np.arange(count)[:, None], np.column_stack((self.heads, self.tails))] = [1.0, -1.0]
        return dense.T.copy() if self.transposed else dense

    def laplacian(self) -> np.ndarray:
        """The dense L = B' B of the graph, from its edges and degrees."""
        lap = np.zeros((self.m, self.m))
        lap[self.heads, self.tails] = lap[self.tails, self.heads] = -1.0
        np.fill_diagonal(lap, -lap.sum(axis=1))
        return lap

    def apply(self, rows: np.ndarray, block_dim: int) -> np.ndarray:
        """The lifted product with each row of an (R, columns * n)
        stack, n = ``block_dim``, as an (R, rows * n) array."""
        runs = len(rows)
        if self.dense is not None:
            return (self.dense @ rows.reshape(runs, -1, block_dim)).reshape(runs, -1)
        heads, tails = self._flat_ends(runs, block_dim)
        flat = rows.reshape(-1)
        if self.transposed:
            size = runs * self.m * block_dim
            out = np.bincount(heads, flat, minlength=size)
            out -= np.bincount(tails, flat, minlength=size)
        else:
            out = flat.take(heads)
            out -= flat.take(tails)
        return out.reshape(runs, -1)

    def _flat_ends(self, runs: int, n: int) -> tuple:
        """Flat positions in an (R, m, n) node stack of the head and tail
        ends of every (run, edge, coordinate) entry of an (R, E, n) edge
        stack: B gathers from them and B' scatters to them. Kept for the
        last (R, n) and shared with the transpose; writable, since
        numpy's take and bincount copy a read-only index on every call."""
        flat_ends = self._ends.get((runs, n))
        if flat_ends is None:
            offsets = (np.arange(runs) * self.m)[:, None, None]
            flat_ends = tuple(
                ((offsets + ends[None, :, None]) * n + np.arange(n)).reshape(-1)
                for ends in (self.heads, self.tails)
            )
            self._ends.clear()
            self._ends[(runs, n)] = flat_ends
        return flat_ends


@dataclass(frozen=True, eq=False)
class NetworkOperator:
    """The signed incidence factor of a connected graph with its spectral
    data, ready for lifted block-wise use on stacked vectors of per-agent
    dimension ``agent_dim``. Operators compare and hash by identity.

    ``incidence`` is B, an ``EdgeIncidence`` with one row per edge (i, j),
    i < j, +1 at i and -1 at j, so L = B' B; ``incidence_t`` is its
    transpose B', ``incidence.T``, built on first access and kept.
    ``lambda_min_plus`` is the second-smallest eigenvalue of L (the
    algebraic connectivity) and ``lambda_max`` the largest, which equals
    ||B||^2.

    ``laplacian`` and the PSD square root ``sqrt_laplacian`` (||S||^2 =
    lambda_max, S S = L) are dense (m, m) references, built on first
    access and cached; nothing on the run or certification path uses
    them. Arrays are read-only.
    """

    incidence: EdgeIncidence
    lambda_min_plus: float
    lambda_max: float
    agent_dim: int

    @property
    def m(self) -> int:
        return self.incidence.shape[1]

    @property
    def edge_count(self) -> int:
        return self.incidence.shape[0]

    @property
    def incidence_t(self) -> EdgeIncidence:
        return self.incidence.T

    @cached_property
    def laplacian(self) -> np.ndarray:
        lap = self.incidence.laplacian()
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


def _ritz_last_entry(diag: list, off: list, theta: float) -> float:
    """|s_k|, the last entry of the unit eigenvector s of the symmetric k x k
    tridiagonal T (diagonal ``diag``, nonzero off-diagonal ``off``, Python
    floats) for its eigenvalue theta, in O(k) memory.

    It runs T's three-term recurrence backward from z_k = 1, z_{i-1} =
    ((theta - a_i) z_i - b_i z_{i+1}) / b_{i-1}, so z solves every row of
    (T - theta I) z = 0 but the first: z is c (T - theta I)^-1 e_1, one
    step of inverse iteration from e_1 at a shift equal to the eigenvalue
    up to rounding (Parlett, The Symmetric Eigenvalue Problem, section 7),
    and |s_k| = |z_k| / ||z||. That step finds s when its first entry s_1
    is well above rounding, as it is for the extreme Ritz vectors of a
    Lanczos run from a random start. Whenever z grows past 2^300, z, z_k
    and the running squared norm are scaled down by a power of two, so
    none overflows.
    """
    z, z_next, last, norm_sq, b_next = 1.0, 0.0, 1.0, 1.0, 0.0
    for a, b in zip(diag[:0:-1], off[::-1]):
        z, z_next, b_next = ((theta - a) * z - b_next * z_next) / b, z, b
        if abs(z) > 2.0**300:
            z, z_next, last = z * 2.0**-300, z_next * 2.0**-300, last * 2.0**-300
            norm_sq *= 2.0**-600
        norm_sq += z * z
    return last / math.sqrt(norm_sq)


def lanczos_extremes(incidence: EdgeIncidence):
    """(lambda_2, lambda_max, steps) of L = B' B by plain Lanczos, or None
    if it reached ``LANCZOS_MAX_STEPS`` first.

    Lanczos runs on L restricted to the complement of the ones vector,
    its kernel, so the extremes of the Ritz values there are lambda_2 and
    lambda_max. It starts from a fixed ``default_rng(0)`` vector, so equal
    graphs give equal numbers. It keeps the last two vectors and T, the
    tridiagonal matrix of the three-term recurrence, and projects the ones
    vector out of the start vector and of every new one, so rounding
    cannot bring the kernel back; the basis is never reorthogonalized,
    and the extreme Ritz values converge all the same (Paige). At steps
    spaced geometrically by ``LANCZOS_CHECK_GROWTH``, and whenever the new
    vector nearly vanishes, it takes the Ritz values, the eigenvalues of
    T, and stops once both extreme residual bounds beta_k |s_kj| are at
    most ``LANCZOS_RTOL`` times the largest Ritz value. No eigenvector of
    T is formed: ``_ritz_last_entry`` gives each s_kj from T's recurrence.
    """
    incidence_t = incidence.T
    alphas, betas = np.empty(LANCZOS_MAX_STEPS), np.empty(LANCZOS_MAX_STEPS)
    vec = np.random.default_rng(0).standard_normal(incidence.shape[1])
    vec -= vec.mean()
    vec /= np.linalg.norm(vec)
    prev, beta = vec, 0.0
    check = 1
    for steps in range(1, LANCZOS_MAX_STEPS + 1):
        out = incidence_t.apply(incidence.apply(vec[None], 1), 1)[0]
        alphas[steps - 1] = vec @ out
        out -= alphas[steps - 1] * vec
        out -= beta * prev
        out -= out.mean()
        beta = betas[steps - 1] = np.linalg.norm(out)
        if steps >= check or beta <= LANCZOS_RTOL * alphas[:steps].max() or steps == LANCZOS_MAX_STEPS:
            check = max(steps + 1, int(steps * LANCZOS_CHECK_GROWTH))
            # T in its lower triangle, the only one eigvalsh reads
            tri = np.diag(alphas[:steps])
            tri.flat[steps :: steps + 1] = betas[: steps - 1]
            ritz = np.linalg.eigvalsh(tri)
            diag, off = alphas[:steps].tolist(), betas[: steps - 1].tolist()
            entry = max(_ritz_last_entry(diag, off, theta) for theta in ritz[[0, -1]].tolist())
            if beta * entry <= LANCZOS_RTOL * ritz[-1]:
                return float(ritz[0]), float(ritz[-1]), steps
        prev, vec = vec, out / beta
    return None


def build_laplacian(graph: Graph, agent_dim: int = 1) -> NetworkOperator:
    """The incidence factor of a connected graph and the extreme nonzero
    eigenvalues of L = B' B.

    Connectivity is checked by traversal; a disconnected graph raises
    ``DisconnectedGraphError`` carrying the component count. B is one
    ``EdgeIncidence`` for every graph. Above ``DENSE_MAX_M`` nodes the
    spectrum comes from ``lanczos_extremes``; up to it, or when Lanczos
    reaches ``LANCZOS_MAX_STEPS``, from a dense ``eigvalsh`` of L.
    """
    if agent_dim < 1:
        raise ValueError(f"agent_dim must be >= 1, got {agent_dim}")
    components = component_count(graph)
    if components != 1:
        raise DisconnectedGraphError(components)
    ends = np.asarray(graph.edges, dtype=np.intp)
    incidence = EdgeIncidence(ends[:, 0].copy(), ends[:, 1].copy(), graph.m)
    extremes = lanczos_extremes(incidence) if graph.m > DENSE_MAX_M else None
    if extremes is None:
        eigvals = np.linalg.eigvalsh(incidence.laplacian())
        lam_min_plus, lam_max = eigvals[1], eigvals[-1]
    else:
        lam_min_plus, lam_max, _ = extremes
    return NetworkOperator(
        incidence=incidence,
        lambda_min_plus=float(lam_min_plus),
        lambda_max=float(lam_max),
        agent_dim=agent_dim,
    )


def apply_lifted(mat, vec: np.ndarray, block_dim: int) -> np.ndarray:
    """Apply mat (x) I_{block_dim} to a stacked vector without forming it.

    mat is a (q, m) ndarray or ``EdgeIncidence``; for vec of length
    m * block_dim the result block i is sum_j mat[i, j] * vec_j. Leading
    run axes on vec are kept, and each run gets the same product it would
    get alone: an ndarray makes one (q, m) by (m, block_dim) product per
    run, and an incidence operator applies itself to the runs stacked as
    rows (``EdgeIncidence.apply``), the same way in every run.
    """
    vec = np.asarray(vec)
    if block_dim < 1:
        raise ValueError(f"block_dim must be >= 1, got {block_dim}")
    m = mat.shape[1]
    if vec.ndim == 0 or vec.shape[-1] != m * block_dim:
        raise ValueError(
            f"stacked vector has shape {vec.shape}, expected (..., {m * block_dim})"
        )
    lead = vec.shape[:-1]
    if isinstance(mat, np.ndarray):
        return (mat @ vec.reshape(lead + (m, block_dim))).reshape(lead + (-1,))
    return mat.apply(vec.reshape(-1, m * block_dim), block_dim).reshape(lead + (-1,))


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


def tangent_perturbation(
    m: int, n: int, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Gaussian direction projected to zero block sum, rescaled to norm
    ``scale``. Adding it to a feasible point keeps it feasible."""
    if scale == 0:
        return np.zeros(m * n)
    direction = rng.standard_normal((m, n))
    direction -= direction.mean(axis=0)
    flat = direction.reshape(-1)
    norm = float(np.linalg.norm(flat))
    if norm == 0:
        return np.zeros(m * n)
    return flat * (scale / norm)


def read_edge_list(path) -> Graph:
    """Parse a graph from text: first line the node count m, then one
    ``i j`` pair of 0-based node indices per line. Everything from a
    ``#`` to the end of its line is a comment; blank lines are skipped."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [ln.split("#", 1)[0].strip() for ln in handle.read().splitlines()]
    rows = [(k, ln) for k, ln in enumerate(lines, start=1) if ln]
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
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: non-integer node index in {line!r}")
    try:
        return Graph(m, tuple(edges))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}")


def write_edge_list(graph: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{graph.m}\n")
        for i, j in graph.edges:
            handle.write(f"{i} {j}\n")
