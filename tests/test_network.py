"""Graph construction, Laplacian operators, and the lifted matrix action."""

import numpy as np
import pytest
import scipy.sparse

from lapgd.network import (
    DENSE_MAX_M,
    DisconnectedGraphError,
    Graph,
    apply_lifted,
    block_sum,
    build_laplacian,
    complete_graph,
    component_count,
    cycle_graph,
    is_connected,
    path_graph,
    read_edge_list,
    watts_strogatz,
    write_edge_list,
)

INV_SQRT2 = 0.7071067811865476


# ---------------------------------------------------------------------------
# graph validation


def test_edges_normalized_and_sorted():
    g = Graph(4, ((3, 2), (1, 0)))
    assert g.edges == ((0, 1), (2, 3))
    assert g.edge_count == 2


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        Graph(3, ((1, 1),))


def test_duplicate_edge_rejected():
    # (0, 1) and (1, 0) are the same undirected edge
    with pytest.raises(ValueError, match="duplicate"):
        Graph(3, ((0, 1), (1, 0)))


def test_out_of_range_edge_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, ((0, 3),))


def test_single_node_rejected():
    with pytest.raises(ValueError, match="at least 2"):
        Graph(1, ())


def test_component_count():
    assert component_count(path_graph(5)) == 1
    assert component_count(Graph(4, ((0, 1), (2, 3)))) == 2
    assert component_count(Graph(3, ())) == 3
    assert is_connected(cycle_graph(6))
    assert not is_connected(Graph(4, ((0, 1),)))


# ---------------------------------------------------------------------------
# small graph builders


def test_path_graph_edges():
    assert path_graph(4).edges == ((0, 1), (1, 2), (2, 3))


def test_cycle_graph_edges():
    assert cycle_graph(4).edges == ((0, 1), (0, 3), (1, 2), (2, 3))


def test_complete_graph_edges():
    g = complete_graph(5)
    assert g.edge_count == 10  # 5 choose 2


# ---------------------------------------------------------------------------
# Laplacian and its square root


def test_two_agent_laplacian_frozen():
    net = build_laplacian(path_graph(2))
    assert np.array_equal(net.laplacian, [[1.0, -1.0], [-1.0, 1.0]])
    # char poly x^2 - 2x: eigenvalues {0, 2}
    assert net.lambda_min_plus == pytest.approx(2.0, abs=1e-12)
    assert net.lambda_max == pytest.approx(2.0, abs=1e-12)


def test_two_agent_sqrt_frozen():
    # eigenvectors (1, 1)/sqrt2 and (1, -1)/sqrt2 with sqrt-eigenvalues
    # 0 and sqrt2 give S = [[1, -1], [-1, 1]] / sqrt2
    net = build_laplacian(path_graph(2))
    expected = np.array([[INV_SQRT2, -INV_SQRT2], [-INV_SQRT2, INV_SQRT2]])
    assert np.allclose(net.sqrt_laplacian, expected, atol=1e-12)


def test_laplacian_structure_matches_direct_construction():
    g = watts_strogatz(12, 4, 0.3, seed=7)
    net = build_laplacian(g)
    direct = np.zeros((12, 12))
    for i, j in g.edges:
        direct[i, i] += 1.0
        direct[j, j] += 1.0
        direct[i, j] -= 1.0
        direct[j, i] -= 1.0
    assert np.array_equal(net.laplacian, direct)


@pytest.mark.parametrize("m", [3, 4, 7])
def test_cycle_spectrum_circulant_oracle(m):
    # circulant eigenvalues 2 - 2 cos(2 pi j / m)
    eigs = sorted(2.0 - 2.0 * np.cos(2.0 * np.pi * j / m) for j in range(m))
    net = build_laplacian(cycle_graph(m))
    assert net.lambda_min_plus == pytest.approx(eigs[1], abs=1e-12)
    assert net.lambda_max == pytest.approx(eigs[-1], abs=1e-12)


def test_triangle_spectrum_frozen():
    net = build_laplacian(cycle_graph(3))
    assert net.lambda_min_plus == pytest.approx(3.0, abs=1e-12)
    assert net.lambda_max == pytest.approx(3.0, abs=1e-12)


def test_path4_spectrum_frozen():
    # path eigenvalues 2 - 2 cos(pi j / 4): extremes 2 -+ sqrt2
    net = build_laplacian(path_graph(4))
    assert net.lambda_min_plus == pytest.approx(2.0 - np.sqrt(2.0), abs=1e-12)
    assert net.lambda_max == pytest.approx(2.0 + np.sqrt(2.0), abs=1e-12)


@pytest.mark.parametrize("m", [3, 5, 8])
def test_complete_graph_spectrum(m):
    # all nonzero eigenvalues equal m
    net = build_laplacian(complete_graph(m))
    assert net.lambda_min_plus == pytest.approx(float(m), abs=1e-10)
    assert net.lambda_max == pytest.approx(float(m), abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_operator_invariants(seed):
    net = build_laplacian(watts_strogatz(15, 4, 0.25, seed=seed))
    lap, sqrt = net.laplacian, net.sqrt_laplacian
    assert np.linalg.norm(sqrt @ sqrt - lap) <= 1e-10 * np.linalg.norm(lap)
    assert np.allclose(sqrt, sqrt.T, atol=1e-14)
    # largest eigenvalue equals the squared spectral norm of the root
    assert net.lambda_max == pytest.approx(np.linalg.norm(sqrt, 2) ** 2, rel=1e-10)
    ones = np.ones(15)
    assert np.linalg.norm(lap @ ones) <= 1e-10
    # the kernel eigenvalue's root is exactly 0, so only rounding is left
    assert np.linalg.norm(sqrt @ ones) <= 1e-13
    assert net.lambda_min_plus > 0.0


def test_operator_arrays_read_only():
    net = build_laplacian(path_graph(3))
    with pytest.raises(ValueError):
        net.laplacian[0, 0] = 5.0
    with pytest.raises(ValueError):
        net.sqrt_laplacian[0, 0] = 5.0


def test_disconnected_graph_raises():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedGraphError) as err:
        build_laplacian(g)
    assert err.value.n_components == 2


def test_agent_dim_recorded():
    net = build_laplacian(path_graph(3), agent_dim=4)
    assert net.agent_dim == 4
    assert net.m == 3


# ---------------------------------------------------------------------------
# the incidence factor and the sparse storage path


def test_incidence_frozen_and_factors_the_laplacian():
    net = build_laplacian(path_graph(3))
    # one row per edge (i, j), i < j: +1 at i, -1 at j
    assert np.array_equal(net.incidence, [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    assert np.array_equal(net.incidence_t, net.incidence.T)
    assert net.edge_count == 2
    assert np.array_equal(net.incidence.T @ net.incidence, net.laplacian)


def test_operators_stored_dense_up_to_the_constant_and_csr_above():
    small = build_laplacian(watts_strogatz(DENSE_MAX_M, 4, 0.2, seed=1))
    large = build_laplacian(watts_strogatz(DENSE_MAX_M + 1, 4, 0.2, seed=1))
    assert isinstance(small.incidence, np.ndarray)
    assert isinstance(small.incidence_t, np.ndarray)
    assert scipy.sparse.issparse(large.incidence)
    assert scipy.sparse.issparse(large.incidence_t)
    assert large.edge_count == 2 * (DENSE_MAX_M + 1)
    assert np.array_equal(large.incidence_t.toarray(), large.incidence.toarray().T)
    with pytest.raises(ValueError):
        large.incidence.data[0] = 5.0


@pytest.mark.parametrize("seed", [0, 3])
def test_sparse_spectrum_matches_dense_eigensolve(seed):
    # above the constant the extremes come from ARPACK on the sparse L
    graph = watts_strogatz(DENSE_MAX_M + 24, 4, 0.2, seed=seed)
    net = build_laplacian(graph)
    eigs = np.linalg.eigvalsh(net.laplacian)
    assert net.lambda_min_plus == pytest.approx(eigs[1], rel=1e-10)
    assert net.lambda_max == pytest.approx(eigs[-1], rel=1e-10)
    again = build_laplacian(graph)
    assert (again.lambda_min_plus, again.lambda_max) == (net.lambda_min_plus, net.lambda_max)


def test_sparse_references_match_the_dense_path():
    import lapgd.network as network

    graph = watts_strogatz(30, 4, 0.3, seed=2)
    dense = build_laplacian(graph)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "DENSE_MAX_M", 3)
        sparse = build_laplacian(graph)
    assert scipy.sparse.issparse(sparse.incidence)
    assert np.array_equal(sparse.laplacian, dense.laplacian)
    assert np.array_equal(sparse.sqrt_laplacian, dense.sqrt_laplacian)
    assert sparse.lambda_max == pytest.approx(dense.lambda_max, rel=1e-12)
    assert sparse.lambda_min_plus == pytest.approx(dense.lambda_min_plus, rel=1e-10)


def test_dense_references_are_built_on_first_access_only():
    net = build_laplacian(cycle_graph(5))
    assert "laplacian" not in vars(net) and "sqrt_laplacian" not in vars(net)
    first = net.sqrt_laplacian
    assert net.sqrt_laplacian is first
    assert "laplacian" in vars(net)


# ---------------------------------------------------------------------------
# matrix square root


@pytest.mark.parametrize("seed", range(5))
def test_sqrt_round_trip(seed):
    # random connected graphs: a spanning path plus random chords
    rng = np.random.default_rng(seed)
    chords = [(i, j) for i in range(6) for j in range(i + 2, 6) if rng.random() < 0.5]
    net = build_laplacian(Graph(6, tuple((i, i + 1) for i in range(5)) + tuple(chords)))
    root, lap = net.sqrt_laplacian, net.laplacian
    assert np.allclose(root @ root, lap, atol=1e-10 * np.linalg.norm(lap))
    assert np.allclose(root, root.T, atol=1e-12)
    assert np.linalg.eigvalsh(root)[0] >= -1e-10


@pytest.mark.parametrize("scenario_seed", [12, 14])
def test_sqrt_kernel_root_is_exactly_zero(scenario_seed):
    # on these graphs the Laplacian's zero eigenvalue rounds to about
    # +3e-16 * lambda_max; its root (~1.8e-8) would put S 1 near 3e-8
    from lapgd.experiments import build_portfolio_scenario

    net = build_portfolio_scenario(scenario_seed).net
    assert np.abs(net.sqrt_laplacian @ np.ones(net.m)).max() <= 1e-13


# ---------------------------------------------------------------------------
# lifted action and block sums


def test_apply_lifted_frozen_example():
    mat = np.array([[1.0, -1.0], [-1.0, 1.0]])
    vec = np.array([1.0, 2.0, 3.0, 4.0])
    out = apply_lifted(mat, vec, block_dim=2)
    assert np.allclose(out, [-2.0, -2.0, 2.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("seed", range(10))
def test_apply_lifted_matches_kron_oracle(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
    mat = rng.normal(size=(m, m))
    vec = rng.normal(size=m * n)
    expected = np.kron(mat, np.eye(n)) @ vec
    assert np.allclose(apply_lifted(mat, vec, n), expected, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_apply_lifted_csr_matches_dense_and_keeps_each_run(seed):
    rng = np.random.default_rng(seed)
    mat = rng.normal(size=(7, 5)) * (rng.random((7, 5)) < 0.4)
    csr = scipy.sparse.csr_array(mat)
    n = 3
    stack = rng.normal(size=(4, 6, 5 * n))
    out = apply_lifted(csr, stack, n)
    assert out.shape == (4, 6, 7 * n) and out.flags.c_contiguous
    assert np.allclose(out, apply_lifted(mat, stack, n), atol=1e-13)
    # each run gets, bit for bit, the product it gets alone
    alone = np.array([[apply_lifted(csr, v, n) for v in rows] for rows in stack])
    assert np.array_equal(out, alone)


def test_apply_lifted_rejects_bad_length():
    with pytest.raises(ValueError, match="shape"):
        apply_lifted(np.eye(2), np.ones(5), block_dim=2)


def test_block_sum_frozen():
    assert np.array_equal(block_sum(np.array([1.0, 2.0, 3.0, 4.0]), 2), [4.0, 6.0])


def test_laplacian_lift_annihilates_block_sums():
    rng = np.random.default_rng(3)
    net = build_laplacian(watts_strogatz(8, 4, 0.2, seed=1), agent_dim=3)
    vec = rng.normal(size=24)
    for mat in (net.laplacian, net.sqrt_laplacian):
        moved = apply_lifted(mat, vec, 3)
        assert np.linalg.norm(block_sum(moved, 3)) <= 1e-8


def test_sqrt_applied_twice_matches_laplacian():
    rng = np.random.default_rng(11)
    net = build_laplacian(watts_strogatz(10, 4, 0.3, seed=5), agent_dim=2)
    vec = rng.normal(size=20)
    twice = apply_lifted(net.sqrt_laplacian, apply_lifted(net.sqrt_laplacian, vec, 2), 2)
    assert np.allclose(twice, apply_lifted(net.laplacian, vec, 2), atol=1e-10)


# ---------------------------------------------------------------------------
# small-world generator


def test_watts_strogatz_edge_count():
    # rewiring moves edges but never adds or removes them
    for m, k, p, seed in [(20, 4, 0.2, 0), (10, 2, 0.5, 3), (14, 6, 0.9, 8)]:
        g = watts_strogatz(m, k, p, seed=seed)
        assert g.edge_count == m * k // 2
        assert is_connected(g)


def test_watts_strogatz_zero_rewiring_is_ring_lattice():
    g = watts_strogatz(6, 2, 0.0, seed=42)
    assert g.edges == cycle_graph(6).edges


def test_watts_strogatz_full_degree_is_complete():
    g = watts_strogatz(5, 4, 0.0, seed=0)
    assert g.edges == complete_graph(5).edges


def test_watts_strogatz_deterministic():
    a = watts_strogatz(20, 4, 0.2, seed=9)
    b = watts_strogatz(20, 4, 0.2, seed=9)
    assert a.edges == b.edges
    c = watts_strogatz(20, 4, 0.2, seed=10)
    assert a.edges != c.edges


def test_watts_strogatz_validation():
    with pytest.raises(ValueError, match="even"):
        watts_strogatz(10, 3, 0.2, seed=0)
    with pytest.raises(ValueError, match="k"):
        watts_strogatz(4, 4, 0.2, seed=0)
    with pytest.raises(ValueError):
        watts_strogatz(10, 4, 1.5, seed=0)
    with pytest.raises(ValueError):
        watts_strogatz(10, 0, 0.2, seed=0)


@pytest.mark.parametrize("seed", range(8))
def test_watts_strogatz_always_connected(seed):
    g = watts_strogatz(12, 2, 0.8, seed=seed)
    assert is_connected(g)


# ---------------------------------------------------------------------------
# edge-list files


def test_edge_list_round_trip(tmp_path):
    g = watts_strogatz(9, 4, 0.4, seed=2)
    path = tmp_path / "graph.txt"
    write_edge_list(g, path)
    back = read_edge_list(path)
    assert back.m == g.m
    assert back.edges == g.edges


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n1 two\n")
    with pytest.raises(ValueError, match=r"bad\.txt:3"):
        read_edge_list(path)


def test_edge_list_missing_node_count(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        read_edge_list(path)
