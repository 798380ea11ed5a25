"""Tests of the benchmark's oracles, checks, failure counting and tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Each oracle is compared with brute force on tiny instances, and each
check is shown to fail on a corrupted output.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import workloads  # noqa: E402
from lapgd.experiments import build_portfolio_scenario, run_batch  # noqa: E402
from lapgd.network import watts_strogatz  # noqa: E402


def random_edges(m, rng):
    """A connected graph: a spanning path plus random chords."""
    edges = {(i, i + 1) for i in range(m - 1)}
    for _ in range(m):
        i, j = sorted(rng.choice(m, size=2, replace=False))
        edges.add((int(i), int(j)))
    return sorted(edges)


def dense_laplacian(m, edges):
    lap = np.zeros((m, m))
    for i, j in edges:
        lap[i, j] = lap[j, i] = -1.0
        lap[i, i] += 1.0
        lap[j, j] += 1.0
    return lap


def brute_tangent_curvature(blocks):
    """Minimum of the Rayleigh quotient of blockdiag(H) on the null space
    of the block-sum map, by scipy's SVD-based null_space."""
    m, n, _ = blocks.shape
    null = scipy.linalg.null_space(np.kron(np.ones((1, m)), np.eye(n)))
    return float(np.linalg.eigvalsh(null.T @ scipy.linalg.block_diag(*blocks) @ null)[0])


def random_blocks(m, n, rng):
    a = rng.standard_normal((m, n, n))
    return a + a.transpose(0, 2, 1)


@pytest.mark.parametrize("m,n", [(2, 1), (5, 1), (6, 3)])
def test_edge_projected_grad_matches_dense_root(m, n):
    rng = np.random.default_rng(m * 10 + n)
    edges = random_edges(m, rng)
    vals, vecs = np.linalg.eigh(dense_laplacian(m, edges))
    root = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.T
    grad = rng.standard_normal((m, n))
    brute = np.linalg.norm(np.kron(root, np.eye(n)) @ grad.reshape(-1))
    assert oracles.edge_projected_grad(grad, edges) == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("m", [2, 3, 7])
def test_complement_basis_is_orthonormal_and_tangent(m):
    u = oracles.complement_basis(m)
    assert u.shape == (m, m - 1)
    assert np.allclose(u.T @ u, np.eye(m - 1), atol=1e-13)
    assert np.allclose(u.sum(axis=0), 0.0, atol=1e-13)


@pytest.mark.parametrize("m,n", [(2, 1), (4, 2), (6, 3)])
def test_dense_tangent_curvature_matches_null_space(m, n):
    blocks = random_blocks(m, n, np.random.default_rng(m + n))
    assert oracles.dense_tangent_curvature(blocks) == pytest.approx(
        brute_tangent_curvature(blocks), abs=1e-12
    )


@pytest.mark.parametrize(
    "diag",
    [
        [1.0, 2.0],
        [3.0, -1.0, 0.5, 2.0, 7.0],
        [-2.0, -2.0, 1.0, 4.0],  # tie at the bottom: the root is h_1 itself
        [0.0, 1e-9, 5.0, 5.0],
        list(np.random.default_rng(3).uniform(-5, 0, size=40)),
    ],
)
def test_secular_root_matches_null_space(diag):
    blocks = np.asarray(diag, dtype=float).reshape(-1, 1, 1)
    assert oracles.secular_tangent_curvature(diag) == pytest.approx(
        brute_tangent_curvature(blocks), abs=1e-11
    )


@pytest.mark.parametrize("m", [3, 8, 30])
def test_laplacian_extremes_match_dense_spectrum(m):
    edges = random_edges(m, np.random.default_rng(m))
    eigs = np.linalg.eigvalsh(dense_laplacian(m, edges))
    lam2, lam_max = oracles.laplacian_extremes(m, edges)
    assert lam2 == pytest.approx(eigs[1], rel=1e-10)
    assert lam_max == pytest.approx(eigs[-1], rel=1e-10)


def test_laplacian_extremes_on_a_small_world_graph():
    graph = watts_strogatz(60, 4, 0.2, seed=1)
    eigs = np.linalg.eigvalsh(dense_laplacian(60, graph.edges))
    got = oracles.laplacian_extremes(60, graph.edges)
    assert got == pytest.approx((eigs[1], eigs[-1]), rel=1e-10)


# ---------------------------------------------------------------------------
# every check fails on a corrupted output


def test_checks_fail_on_corrupted_values():
    theta = np.array([0.5, -0.25, -0.25])
    assert oracles.check_feasible("x", theta, [0.0], 1e-8) == []
    assert oracles.check_feasible("x", theta + 1e-6, [0.0], 1e-8)

    assert oracles.check_reported("x", "g", 2.0, 2.0 * (1 + 1e-9), 1e-6, 0.0) == []
    assert oracles.check_reported("x", "g", 2.0 * (1 + 1e-5), 2.0, 1e-6, 0.0)

    spectrum = (0.5, 4.0)
    assert oracles.check_spectrum("x", spectrum, spectrum) == []
    assert oracles.check_spectrum("x", (0.5 * (1 + 1e-7), 4.0), spectrum)
    assert oracles.check_spectrum("x", (0.5, 4.0 * (1 - 1e-7)), spectrum)

    assert oracles.check_escaped("x", -1.0, 0.0, 1e-4) == []
    assert oracles.check_escaped("x", -0.5e-4, 0.0, 1e-4)

    grad = np.array([[1.0], [1.0], [1.0]])  # agreeing gradients: stationary
    assert oracles.check_local_min("x", grad, 1.0, 4.0) == []
    assert oracles.check_local_min("x", grad, -0.1, 4.0)  # a saddle
    assert oracles.check_local_min("x", grad + [[0.1], [0.0], [-0.1]], 1.0, 4.0)

    assert oracles.check_rises("f", [1.0, 2.0, 3.0]) == []
    assert oracles.check_rises("f", [1.0, 3.0, 2.0])


def test_derivative_check_fails_on_a_wrong_gradient():
    a = np.array([1.0, 2.0, 3.0])
    value = lambda t: float(0.5 * a @ (t * t) - np.log1p(t * t).sum())
    grad = lambda t: a * t - 2 * t / (1 + t * t)
    hess = lambda t: (a - 2 * (1 - t * t) / (1 + t * t) ** 2).reshape(-1, 1, 1)
    theta = np.array([0.3, -0.1, -0.2])
    rng = np.random.default_rng(0)
    assert oracles.check_derivatives("x", value, grad, hess, theta, 3, 1, rng) == []
    assert oracles.check_derivatives("x", value, lambda t: 1.01 * grad(t), hess, theta, 3, 1, rng)
    assert oracles.check_derivatives("x", value, grad, lambda t: 1.01 * hess(t), theta, 3, 1, rng)


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    """One portfolio round on a single batch seed."""
    scenario = build_portfolio_scenario(0)
    inputs = workloads.Inputs(
        scenario, (0,), {k: replace(c, max_iters=3000) for k, c in scenario.configs.items()}
    )
    out = tmp_path_factory.mktemp("round")
    batch, written, failed = workloads.batch_round(inputs, out)
    return inputs, batch, written, failed


def test_round_passes_its_checks(small_round):
    inputs, batch, written, failed = small_round
    assert failed == 0
    failures, notes = workloads.check_round(inputs, batch, written)
    assert failures == []
    assert "block-sum residual" in notes[0]


def test_round_check_fails_on_a_corrupted_summary(small_round, tmp_path):
    inputs, batch, written, _ = small_round
    copies = []
    for path in written:
        copy = tmp_path / Path(path).name
        shutil.copy(path, copy)
        copies.append(copy)
    summary = tmp_path / "summary.csv"
    lines = summary.read_text().splitlines()
    fields = lines[-1].split(",")  # the sigma = 1 run, far from stationary
    fields[5] = repr(float(fields[5]) * 1.001)  # final_proj_grad_norm
    fields[6] = repr(float(fields[6]) + 1e-6)  # final_tangent_curvature
    summary.write_text("\n".join([*lines[:-1], ",".join(fields)]) + "\n")
    failures, _ = workloads.check_round(inputs, batch, copies)
    assert any("projected gradient" in f for f in failures)
    assert any("tangent curvature" in f for f in failures)


def test_round_check_fails_on_an_allocation_off_the_constraint(small_round):
    inputs, batch, written, _ = small_round
    first = batch.runs[0]  # the noiseless run of the first seed
    assert first.config.noise_variance == 0
    shifted = replace(first.trace, final_theta=first.trace.final_theta + 1e-6)
    corrupted = replace(batch, runs=(replace(first, trace=shifted), *batch.runs[1:]))
    failures, _ = workloads.check_round(inputs, corrupted, written)
    assert any("block sums" in f for f in failures)


def test_failed_runs_are_counted_and_the_rest_complete():
    scenario = build_portfolio_scenario(0)
    good = {k: replace(c, max_iters=50) for k, c in scenario.configs.items()}
    seeds = (0, 1)
    reference = run_batch(scenario, seeds, good)
    configs = dict(good)
    configs["diverges"] = replace(good["lgd"], step_size=1e3, monitor_descent=False)
    batch, failed = workloads.run_isolated(scenario, seeds, configs)
    assert failed == 2 * len(seeds)  # each failed run and its certification
    assert len(batch.runs) == len(reference.runs)
    for got, want in zip(batch.runs, reference.runs):
        assert (got.seed, got.label) == (want.seed, want.label)
        assert np.array_equal(got.trace.final_theta, want.trace.final_theta)


def run_bench(root, *args, timeout=170):
    return subprocess.run(
        [sys.executable, str(Path(root) / "bench" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_traced_run_prints_every_per_layer_metric():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    done = run_bench(
        BENCH.parent, "--workload", "portfolio_sweep", "--seed", "1", "--seconds", "0.1", "--trace", "1"
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    names = {m["name"] for m in declared["per_layer"]}
    assert set(result["metrics"]) == names
    for name, metric in result["metrics"].items():
        if name != "config.load_bundle_ms":  # the scenario path loads no config
            assert metric["value"] > 0, name
    assert result["metrics"]["optimizer.steps"]["value"] == 20 * workloads.PORTFOLIO_BUDGET


def test_bench_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "grid_escape", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
