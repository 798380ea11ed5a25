"""Graph construction, Laplacian operators, and the lifted matrix action."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lapgd.network import (
    DENSE_MAX_M,
    DisconnectedGraphError,
    EdgeIncidence,
    Graph,
    apply_lifted,
    block_sum,
    build_laplacian,
    complete_graph,
    component_count,
    cycle_graph,
    is_connected,
    lanczos_extremes,
    path_graph,
    read_edge_list,
    watts_strogatz,
    write_edge_list,
)
from lapgd.network import _ritz_last_entry

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
    assert net.lambda_max == pytest.approx(np.linalg.norm(sqrt, 2) ** 2, rel=1e-10, abs=0)
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
# the incidence factor and the edge-list storage path


def test_incidence_frozen_and_factors_the_laplacian():
    net = build_laplacian(path_graph(3))
    # one row per edge (i, j), i < j: +1 at i, -1 at j
    incidence = net.incidence.toarray()
    assert np.array_equal(incidence, [[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    assert np.array_equal(net.incidence_t.toarray(), incidence.T)
    assert net.edge_count == 2
    assert np.array_equal(incidence.T @ incidence, net.laplacian)


def test_operators_keep_a_dense_copy_up_to_the_constant():
    # every graph's B is one edge list, read as its transpose for B'; up
    # to the constant both orientations also keep a read-only
    # column-major copy of themselves to multiply by
    graph = watts_strogatz(DENSE_MAX_M + 1, 4, 0.2, seed=1)
    small = build_laplacian(watts_strogatz(DENSE_MAX_M, 4, 0.2, seed=1))
    large = build_laplacian(graph)
    for net in (small, large):
        assert isinstance(net.incidence, EdgeIncidence)
        assert net.incidence_t is net.incidence.T
        assert not net.incidence.transposed and net.incidence_t.transposed
        assert net.incidence_t.heads is net.incidence.heads
    for op in (small.incidence, small.incidence_t):
        assert op.dense.flags.f_contiguous and not op.dense.flags.writeable
        assert np.array_equal(op.dense, op.toarray())
    assert large.incidence.dense is None and large.incidence_t.dense is None
    assert large.edge_count == 2 * (DENSE_MAX_M + 1)
    assert large.incidence.shape == (large.edge_count, DENSE_MAX_M + 1)
    assert large.incidence_t.shape == (DENSE_MAX_M + 1, large.edge_count)
    assert [tuple(pair) for pair in zip(large.incidence.heads, large.incidence.tails)] == list(graph.edges)
    assert np.array_equal(large.incidence_t.toarray(), large.incidence.toarray().T)
    with pytest.raises(ValueError):
        large.incidence.heads[0] = 5
    with pytest.raises(ValueError):
        large.incidence_t.tails[0] = 5
    # operators compare and hash by identity at every size
    for make in (lambda: path_graph(3), lambda: watts_strogatz(60, 4, 0.2, seed=0)):
        net, twin = build_laplacian(make()), build_laplacian(make())
        assert net == net and net != twin
        assert hash(net) == hash(net) and len({net, twin}) == 2


@pytest.mark.parametrize("seed", [0, 3])
def test_sparse_spectrum_matches_dense_eigensolve(seed):
    # above the constant the extremes come from Lanczos on the edge list
    graph = watts_strogatz(DENSE_MAX_M + 24, 4, 0.2, seed=seed)
    net = build_laplacian(graph)
    eigs = np.linalg.eigvalsh(net.laplacian)
    assert net.lambda_min_plus == pytest.approx(eigs[1], rel=1e-10, abs=0)
    assert net.lambda_max == pytest.approx(eigs[-1], rel=1e-10, abs=0)
    again = build_laplacian(graph)
    assert (again.lambda_min_plus, again.lambda_max) == (net.lambda_min_plus, net.lambda_max)


SPARSE_FAMILIES = {
    "path": path_graph,
    "cycle": cycle_graph,
    "complete": complete_graph,
    "ws_k2": lambda m: watts_strogatz(m, 2, 0.2, seed=0),
    "ws_k4": lambda m: watts_strogatz(m, 4, 0.2, seed=0),
    "ws_k8": lambda m: watts_strogatz(m, 8, 0.2, seed=0),
}


@pytest.mark.parametrize("m", [DENSE_MAX_M + 1, 120, 400])
@pytest.mark.parametrize("family", sorted(SPARSE_FAMILIES))
def test_sparse_spectrum_matches_dense_eigensolve_across_families(family, m):
    # Lanczos gives lambda_2 on near-trees (path, 6e-5 at m = 400) and on
    # the complete graph, where lambda_2 = lambda_max has multiplicity
    # m - 1
    graph = SPARSE_FAMILIES[family](m)
    net = build_laplacian(graph)
    assert net.incidence.dense is None
    incidence = net.incidence.toarray()
    eigs = np.linalg.eigvalsh(incidence.T @ incidence)
    assert net.lambda_min_plus == pytest.approx(eigs[1], rel=1e-10, abs=0)
    assert net.lambda_max == pytest.approx(eigs[-1], rel=1e-10, abs=0)
    again = build_laplacian(graph)
    assert (again.lambda_min_plus, again.lambda_max) == (net.lambda_min_plus, net.lambda_max)


def test_lanczos_gives_equal_graphs_equal_numbers():
    graph = watts_strogatz(300, 4, 0.2, seed=5)
    first = lanczos_extremes(build_laplacian(graph).incidence)
    again = lanczos_extremes(build_laplacian(watts_strogatz(300, 4, 0.2, seed=5)).incidence)
    assert first == again
    # converged in fewer steps than the ones-complement has dimensions
    # (299), the count at which an orthogonal basis would end exactly
    assert first[2] < 299
    eigs = np.linalg.eigvalsh(build_laplacian(graph).laplacian)
    assert first[:2] == pytest.approx((eigs[1], eigs[-1]), rel=1e-10, abs=0)


def test_lanczos_stops_after_one_step_on_the_complete_graph():
    # every nonzero eigenvalue of K_m is m, so the start vector, once
    # orthogonal to the ones vector, is an eigenvector
    lam_min_plus, lam_max, steps = lanczos_extremes(build_laplacian(complete_graph(60)).incidence)
    assert steps == 1
    assert lam_min_plus == pytest.approx(60.0, rel=1e-13)
    assert lam_max == pytest.approx(60.0, rel=1e-13)


def test_lanczos_falls_back_to_the_dense_eigensolve_at_its_cap():
    # a path needs about m steps; capped at 20 the spectrum is the dense
    # path's eigvalsh, bit for bit
    import lapgd.network as network

    graph = path_graph(120)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "LANCZOS_MAX_STEPS", 20)
        capped = build_laplacian(graph)
        assert lanczos_extremes(capped.incidence) is None
        patch.setattr(network, "DENSE_MAX_M", graph.m)
        dense = build_laplacian(graph)
    assert (capped.lambda_min_plus, capped.lambda_max) == (dense.lambda_min_plus, dense.lambda_max)
    uncapped = lanczos_extremes(capped.incidence)
    assert uncapped[:2] == pytest.approx((dense.lambda_min_plus, dense.lambda_max), rel=1e-10, abs=0)


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(DENSE_MAX_M + 1, 700),
    k=st.sampled_from([2, 4, 6, 8, 10, 12]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 1000),
)
def test_lanczos_extremes_match_the_dense_spectrum(m, k, p, seed):
    # plain Lanczos either reaches its cap or finds both extremes; a
    # graph built twice gives the same bits
    graph = watts_strogatz(m, k, p, seed)
    net = build_laplacian(graph)
    extremes = lanczos_extremes(net.incidence)
    if extremes is not None:
        eigs = np.linalg.eigvalsh(net.laplacian)
        assert extremes[:2] == pytest.approx((eigs[1], eigs[-1]), rel=1e-10, abs=0)
        assert (net.lambda_min_plus, net.lambda_max) == extremes[:2]
    again = build_laplacian(watts_strogatz(m, k, p, seed))
    assert (again.lambda_min_plus, again.lambda_max) == (net.lambda_min_plus, net.lambda_max)
    assert lanczos_extremes(again.incidence) == extremes


def test_lanczos_holds_no_basis():
    # a (steps, m) basis would take 20 MB here; the recurrence keeps a
    # few m-vectors and the tridiagonal matrix T (259 steps, 0.5 MB, and
    # as much again inside eigvalsh): 1.08 MB traced peak. An eigh of T,
    # with its eigenvectors and workspace, takes the peak to 1.6 MB or more
    import tracemalloc

    net = build_laplacian(watts_strogatz(5000, 4, 0.2, seed=0))
    tracemalloc.start()
    try:
        assert lanczos_extremes(net.incidence) is not None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.3 * 2**20


def lanczos_checks(graph):
    """``lanczos_extremes`` on graph, and every (diag, off, theta, |s_k|)
    it passed to and got from ``_ritz_last_entry``."""
    import lapgd.network as network

    calls = []

    def spy(diag, off, theta):
        entry = _ritz_last_entry(diag, off, theta)
        calls.append((diag, off, theta, entry))
        return entry

    net = build_laplacian(graph)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "_ritz_last_entry", spy)
        extremes = lanczos_extremes(net.incidence)
    return extremes, calls


def tridiagonal(diag, off):
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize(
    "graph",
    [
        watts_strogatz(120, 4, 0.2, seed=0),
        watts_strogatz(120, 2, 0.2, seed=0),
        watts_strogatz(600, 4, 0.2, seed=3),
        # 124 steps, past the 119 dimensions of the ones-complement
        path_graph(120),
        cycle_graph(300),
    ],
    ids=["ws_k4_120", "ws_k2_120", "ws_k4_600", "path_120", "cycle_300"],
)
def test_ritz_last_entry_matches_eigh_on_lanczos_runs(graph):
    # on every T that Lanczos checks, the recurrence's |s_kj| is the last
    # entry of eigh's eigenvector, to the eps ||T|| / gap that eigh's
    # vector is good for. An extreme Ritz value with a near-copy (a
    # ghost of plain Lanczos, gap below 1e-8 theta_max) has no single
    # eigenvector; there the recurrence's vector lies in the copies'
    # span, so its last entry is at most the norm of the span's
    eps = np.finfo(float).eps
    extremes, calls = lanczos_checks(graph)
    assert extremes is not None and len(calls) >= 20
    compared = 0
    for diag, off, theta, entry in calls:
        values, vectors = np.linalg.eigh(tridiagonal(diag, off))
        top = values[-1]
        j = 0 if abs(theta - values[0]) <= abs(theta - values[-1]) else len(values) - 1
        assert theta == pytest.approx(values[j], rel=1e-13, abs=1e-13 * top)
        others = np.abs(np.delete(values, j) - values[j])
        if others.size == 0 or others.min() >= 1e-8 * top:
            compared += 1
            gap = others.min() if others.size else top
            assert entry == pytest.approx(abs(vectors[-1, j]), rel=0, abs=16 * eps * top / gap)
        else:
            near = np.abs(values - values[j]) < 1e-8 * top
            assert entry <= np.linalg.norm(vectors[-1, near]) + 1e-12
    assert compared >= 0.75 * len(calls)


def test_ritz_last_entry_of_one_step():
    # K_60 stops after one step: T is 1 x 1 and the new vector vanishes
    # (beta = 0), so s = e_1 and |s_k| = 1
    assert _ritz_last_entry([60.0], [], 60.0) == 1.0
    extremes, calls = lanczos_checks(complete_graph(60))
    assert extremes[2] == 1
    assert [(len(diag), off, entry) for diag, off, _, entry in calls] == [(1, [], 1.0)] * 2


def test_ritz_last_entry_rescales_a_500_step_tridiagonal():
    # diag (1/r, 0, ..., 0, r) with unit off-diagonal has the eigenvector
    # s_i = r^(i-1) at its largest eigenvalue r + 1/r, so |s_k| = r^(k-1)
    # sqrt((1 - r^2) / (1 - r^(2k))): 4^-499 here, whose reciprocal
    # squared overflows without the rescaling
    k, r = 500, 0.25
    diag, off = [1 / r] + [0.0] * (k - 2) + [r], [1.0] * (k - 1)
    theta = np.linalg.eigvalsh(tridiagonal(diag, off))[-1]
    assert theta == pytest.approx(r + 1 / r, rel=1e-15)
    entry = _ritz_last_entry(diag, off, float(theta))
    assert entry == pytest.approx(r ** (k - 1) * np.sqrt(1 - r**2), rel=1e-12, abs=0)
    # the exact eigenvalue, and a 101-step T whose recurrence never
    # rescales, agree with the same closed form
    assert _ritz_last_entry(diag, off, r + 1 / r) == pytest.approx(entry, rel=1e-12, abs=0)
    short = _ritz_last_entry(diag[:100] + [r], off[:100], r + 1 / r)
    assert short == pytest.approx(r**100 * np.sqrt(1 - r**2), rel=1e-12, abs=0)


def test_sparse_references_match_the_dense_path():
    import lapgd.network as network

    graph = watts_strogatz(30, 4, 0.3, seed=2)
    dense = build_laplacian(graph)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "DENSE_MAX_M", 3)
        sparse = build_laplacian(graph)
    assert sparse.incidence.dense is None
    assert np.array_equal(sparse.laplacian, dense.laplacian)
    assert np.array_equal(sparse.sqrt_laplacian, dense.sqrt_laplacian)
    assert sparse.lambda_max == pytest.approx(dense.lambda_max, rel=1e-12)
    assert sparse.lambda_min_plus == pytest.approx(dense.lambda_min_plus, rel=1e-10, abs=0)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(3, DENSE_MAX_M),
    k=st.sampled_from([2, 4, 6]),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 1000),
    runs=st.sampled_from([1, 3, 40]),
    n=st.integers(1, 3),
)
def test_dense_and_edge_list_applies_agree(m, k, p, seed, runs, n):
    # one small graph applied through its dense copy and, the constant
    # patched to 1, as a bare edge list. B takes the same +-1 differences
    # both ways, bit for bit; B' sums each node's edges in another order
    # (gemv against bincount), so it agrees to rounding
    import lapgd.network as network

    assume(k < m)
    graph = watts_strogatz(m, k, p, seed)
    dense = build_laplacian(graph, n)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(network, "DENSE_MAX_M", 1)
        edges = build_laplacian(graph, n)
        edges_t = edges.incidence_t
    assert dense.incidence_t.dense is not None and edges_t.dense is None
    rng = np.random.default_rng(seed)
    nodes = rng.normal(size=(runs, m * n))
    assert np.array_equal(dense.incidence.apply(nodes, n), edges.incidence.apply(nodes, n))
    values = rng.normal(size=(runs, dense.edge_count * n))
    assert np.allclose(dense.incidence_t.apply(values, n), edges_t.apply(values, n), rtol=0, atol=1e-13)
    for ours, theirs in ((dense.incidence, edges.incidence), (dense.incidence_t, edges_t)):
        assert np.array_equal(ours.toarray(), theirs.toarray())
    assert np.array_equal(dense.laplacian, edges.laplacian)
    # the dense spectrum keeps the bits of eigvalsh on the column-major
    # product B' B, and Lanczos on the edge list agrees with it
    incidence = np.asfortranarray(edges.incidence.toarray())
    eigvals = np.linalg.eigvalsh(np.asfortranarray(incidence.T) @ incidence)
    assert (dense.lambda_min_plus, dense.lambda_max) == (float(eigvals[1]), float(eigvals[-1]))
    assert (edges.lambda_min_plus, edges.lambda_max) == pytest.approx(
        (dense.lambda_min_plus, dense.lambda_max), rel=1e-10, abs=0
    )


def run_fresh(script, *args):
    """Run ``script`` in a fresh interpreter that imports this checkout's
    src/, and return its last line of output read as JSON."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_small_graph_paths_leave_scipy_unloaded(tmp_path):
    # no graph size loads scipy: the import, a batch with its export, CLI
    # runs on 20 and 2000 nodes, a build one node above DENSE_MAX_M, a CLI
    # spectrum of 2000 nodes and `lapgd params` on a portfolio, whose
    # global minimum is estimated numerically, are numpy only
    for m in (20, 2000):
        (tmp_path / f"grid{m}.yaml").write_text(
            textwrap.dedent(
                f"""\
                problem: {{family: smart_grid, m: {m}, demand: 0.0, param_seed: 0}}
                network: {{kind: watts_strogatz, m: {m}, k: 4, p: 0.2, seed: 0}}
                run:
                  algorithm: nlgd
                  step_size: 0.001
                  max_iters: 200
                  noise_sigma: 0.05
                  record_every: 100
                  record_curvature: true
                """
            ),
            encoding="utf-8",
        )
    (tmp_path / "portfolio.yaml").write_text(
        textwrap.dedent(
            """\
            problem: {family: portfolio, m: 20, n: 5, demand: 1.0, param_seed: 0}
            network: {kind: watts_strogatz, m: 20, k: 4, p: 0.2, seed: 0}
            init: {kind: uniform_split}
            """
        ),
        encoding="utf-8",
    )
    write_edge_list(watts_strogatz(2000, 4, 0.2, 0), tmp_path / "ws2000.txt")
    script = textwrap.dedent(
        """\
        import json, sys
        from dataclasses import replace
        from lapgd.experiments import build_smart_grid_scenario, export_traces, run_batch
        from lapgd.network import build_laplacian, watts_strogatz
        from lapgd.cli import main

        def loaded():
            return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

        out = sys.argv[1]
        scenario = build_smart_grid_scenario(0)
        configs = {label: replace(cfg, max_iters=300) for label, cfg in scenario.configs.items()}
        export_traces(run_batch(scenario, range(2), configs), out + "/batch")
        codes = [main(["run", out + "/grid20.yaml", "--out-dir", out + "/run20"])]
        build_laplacian(watts_strogatz(49, 4, 0.2, 0))
        codes.append(main(["run", out + "/grid2000.yaml", "--out-dir", out + "/run2000"]))
        codes.append(main(["spectrum", out + "/ws2000.txt"]))
        codes.append(main(["params", out + "/portfolio.yaml", "--grad-tol", "0.1"]))
        print(json.dumps({"codes": codes, "scipy": loaded()}))
        """
    )
    reply = run_fresh(script, str(tmp_path))
    assert reply["codes"] == [0, 0, 0, 0]
    assert reply["scipy"] == []


def test_import_loads_the_six_modules_and_binds_nothing_else():
    # each public name has one home, its module; the command line stays
    # unloaded until asked for
    script = textwrap.dedent(
        """\
        import json, sys
        import lapgd
        public = sorted(name for name in vars(lapgd) if not name.startswith("_"))
        loaded = sorted(name for name in sys.modules if name.split(".")[0] == "lapgd")
        print(json.dumps({"public": public, "loaded": loaded}))
        """
    )
    reply = run_fresh(script)
    modules = ["config", "experiments", "network", "objectives", "optimizer", "stationarity"]
    assert reply["public"] == modules
    assert reply["loaded"] == ["lapgd"] + [f"lapgd.{name}" for name in modules]


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
    # B and B' of an edge list against their dense arrays, on 7 of the
    # 10 node pairs of 5 nodes, applied as a bare edge list (the constant
    # patched to 1) and through the dense copy; stacks of 24 runs and of
    # one alternate, so the kept scatter indices are rebuilt between them
    import lapgd.network as network

    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    ends = np.array(sorted(pairs[k] for k in rng.choice(10, size=7, replace=False)))
    ops = []
    for limit in (1, DENSE_MAX_M):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "DENSE_MAX_M", limit)
            edges = EdgeIncidence(ends[:, 0].copy(), ends[:, 1].copy(), 5)
            ops += [edges, edges.T]
    assert [op.dense is None for op in ops] == [True, True, False, False]
    n = 3
    for op in ops:
        q, m = op.shape
        stack = rng.normal(size=(4, 6, m * n))
        out = apply_lifted(op, stack, n)
        assert out.shape == (4, 6, q * n) and out.flags.c_contiguous
        assert np.allclose(out, apply_lifted(op.toarray(), stack, n), atol=1e-13)
        # each run gets, bit for bit, the product it gets alone
        alone = np.array([[apply_lifted(op, v, n) for v in rows] for rows in stack])
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
