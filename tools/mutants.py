"""Mutation smoke for the certificate path, the run guards, the
spectrum, the minimum estimate and the config readers: each mutant must
fail its tests.

Each mutant is a one-line edit of a file under ``src/`` and the test files
that must catch it. For every mutant the script copies ``src/``, ``tests/``
and ``pyproject.toml`` (the pytest settings) to a temporary directory,
applies the edit there and runs the named test files in that copy, so the
checkout is never written. The edited text must occur exactly once in its
file: a mutant whose text has drifted is an error, not a skip.

pytest's exit code 1 (tests failed) counts as killed, 0 as survived, and
any other code as an error. Before the mutants, the unmutated copy must
pass every named test file, or a broken copy would read as killed.

    python3 tools/mutants.py

exits 0 only when every mutant is killed. Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant(
        "pole radius 0",
        "src/lapgd/stationarity.py",
        "radius = (n - 1) / (256.0 * m) * scale",
        "radius = 0.0 * scale",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "descent tolerance 1e-3",
        "src/lapgd/optimizer.py",
        "drop > bound + 1e-9",
        "drop > bound + 1e-3",
        ("tests/test_optimizer.py",),
    ),
    Mutant(
        "stop test judges with gamma 0",
        "src/lapgd/optimizer.py",
        "judge(measured, config.stop_eps, config.stop_gamma, feas_tol)",
        "judge(measured, config.stop_eps, 0.0, feas_tol)",
        ("tests/test_engine.py",),
    ),
    # Named by test: a batch and its lone runs drop the same row, so the
    # property test at the top of tests/test_engine.py sees them agree
    # until a trace left empty fails, and then shrinks for minutes.
    Mutant(
        "a trace drops its last row when it is cut from its columns",
        "src/lapgd/optimizer.py",
        "rows = self.count",
        "rows = self.count - 1",
        ("tests/test_engine.py::test_run_many_mixes_schedules_in_one_stack",),
    ),
    Mutant(
        "final certificate at ten times the last gradient",
        "src/lapgd/experiments.py",
        "eps = float(trace.proj_grad_norm[-1])",
        "eps = 10 * float(trace.proj_grad_norm[-1])",
        ("tests/test_experiments.py",),
    ),
    Mutant(
        "Lanczos start vector keeps its ones component",
        "src/lapgd/network.py",
        "vec -= vec.mean()",
        "pass",
        ("tests/test_network.py",),
    ),
    Mutant(
        "Lanczos steps keep their ones component",
        "src/lapgd/network.py",
        "out -= out.mean()",
        "pass",
        ("tests/test_network.py",),
    ),
    Mutant(
        "Ritz recurrence drops its b_i z_(i+1) term",
        "src/lapgd/network.py",
        "z, z_next, b_next = ((theta - a) * z - b_next * z_next) / b, z, b",
        "z, z_next, b_next = (theta - a) * z / b, z, b",
        ("tests/test_network.py",),
    ),
    Mutant(
        "Ritz recurrence returns the squared last entry",
        "src/lapgd/network.py",
        "return last / math.sqrt(norm_sq)",
        "return (last / math.sqrt(norm_sq)) ** 2",
        ("tests/test_network.py",),
    ),
    Mutant(
        "Ritz recurrence never rescales",
        "src/lapgd/network.py",
        "if abs(z) > 2.0**300:",
        "if False:",
        ("tests/test_network.py",),
    ),
    Mutant(
        "judge ignores the curvature floor",
        "src/lapgd/stationarity.py",
        "elif measured.tangent_curvature >= -gamma:",
        "elif True:",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "judge's curvature floor is strict",
        "src/lapgd/stationarity.py",
        "elif measured.tangent_curvature >= -gamma:",
        "elif measured.tangent_curvature > -gamma:",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "certificate transfer divides by lambda_max",
        "src/lapgd/stationarity.py",
        "float(curv_tol) / net.lambda_min_plus",
        "float(curv_tol) / net.lambda_max",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "feasibility tolerance times 1e4",
        "src/lapgd/stationarity.py",
        "return 1e-8 * (1.0 + float(np.linalg.norm(demand)))",
        "return 1e-4 * (1.0 + float(np.linalg.norm(demand)))",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "curvature bracket stops at 1e-9 max|d|",
        "src/lapgd/stationarity.py",
        "done = width <= 4.0 * ulp",
        "done = width <= 4.5e6 * ulp",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "certifier returns its bracket's upper end",
        "src/lapgd/stationarity.py",
        "lowest[live[done]] = lo[done]",
        "lowest[live[done]] = hi[done]",
        ("tests/test_stationarity.py",),
    ),
    Mutant(
        "escape counts a record at f_ref - delta",
        "src/lapgd/experiments.py",
        "below = np.flatnonzero(trace.f_value < f_ref - delta)",
        "below = np.flatnonzero(trace.f_value <= f_ref - delta)",
        ("tests/test_experiments.py",),
    ),
    Mutant(
        "escape delta times 10",
        "src/lapgd/experiments.py",
        "delta = 1e-4 * (1.0 + abs(f_ref))",
        "delta = 1e-3 * (1.0 + abs(f_ref))",
        ("tests/test_experiments.py",),
    ),
    Mutant(
        "divergence pre-check at 1.9 of the bound",
        "src/lapgd/optimizer.py",
        "if np.dot(flat, flat) < 0.98 * DIVERGENCE_NORM**2:",
        "if np.dot(flat, flat) < 1.9 * DIVERGENCE_NORM**2:",
        ("tests/test_optimizer.py",),
    ),
    Mutant(
        "minimum estimate takes the origin start, not each agent's best",
        "src/lapgd/objectives.py",
        "params)).min() for i in range(m)]",
        "params))[0] for i in range(m)]",
        ("tests/test_objectives.py",),
    ),
    Mutant(
        "minimum estimate takes the start with the best sum for every agent",
        "src/lapgd/objectives.py",
        "best = [problem.value(points[:, [i]], *(p[[i]] for p in params)).min() for i in range(m)]",
        "best = [values.min()]",
        ("tests/test_objectives.py",),
    ),
    Mutant(
        "minimum estimate steps along plain Newton",
        "src/lapgd/objectives.py",
        "np.maximum(np.abs(eigvals), 1e-12)",
        "eigvals",
        ("tests/test_objectives.py",),
    ),
    Mutant(
        "minimum estimate stops once any start settles",
        "src/lapgd/objectives.py",
        "if np.all(decrement <= 1e-15",
        "if np.any(decrement <= 1e-15",
        ("tests/test_objectives.py",),
    ),
    Mutant(
        "minimum estimate stops at 1e-10 (1 + |F|)",
        "src/lapgd/objectives.py",
        "decrement <= 1e-15 * (1.0",
        "decrement <= 1e-10 * (1.0",
        ("tests/test_objectives.py",),
    ),
    Mutant(
        "minimum estimate makes one pass",
        "src/lapgd/objectives.py",
        "for _ in range(100):",
        "for _ in range(1):",
        ("tests/test_objectives.py",),
    ),
    Mutant(
        "certifier trusts the poles of a NaN Hessian block",
        "src/lapgd/stationarity.py",
        " & np.isfinite(blocks).reshape(runs, -1).all(axis=1)",
        "",
        ("tests/test_stationarity.py",),
    ),
    # The script has no timeout, so each config mutant is killed by a test
    # that fails at once. The family-as-list case is the first test in
    # tests/test_fuzz_cli.py, and -x stops there, before a later case could
    # open an integer path as a file descriptor; tests/test_config_cli.py
    # holds no 10^300-node network, which an unchecked size would build.
    Mutant(
        "string reader takes any type",
        "src/lapgd/config.py",
        "if not isinstance(value, kind):",
        "if False:",
        ("tests/test_fuzz_cli.py",),
    ),
    Mutant(
        "string reader takes any string",
        "src/lapgd/config.py",
        "if choices is not None and value not in choices:",
        "if False:",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "network size is not compared with problem.m",
        "src/lapgd/config.py",
        "if size != m:",
        "if False:",
        ("tests/test_config_cli.py",),
    ),
    Mutant(
        "noise_sigma squared with **",
        "src/lapgd/config.py",
        "variance = _finite(sigma * sigma, sigma, f\"{path}.noise_sigma squared\")",
        "variance = sigma**2",
        ("tests/test_fuzz_cli.py",),
    ),
)


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest_exit_code(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL).returncode


def run_mutant(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="lapgd-mutant-") as tmp:
        copy = Path(tmp)
        copy_tree(copy)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        count = text.count(mutant.old)
        if count != 1:
            print(f"  {mutant.path} holds the mutated text {count} times, not once")
            return "error"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = pytest_exit_code(copy, mutant.tests)
    return {1: "killed", 0: "survived"}.get(code, f"error (pytest exit {code})")


def main() -> int:
    tests = sorted({name for mutant in MUTANTS for name in mutant.tests})
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="lapgd-mutant-") as tmp:
        copy_tree(Path(tmp))
        code = pytest_exit_code(Path(tmp), tests)
    print(f"unmutated copy: pytest exit {code} ({time.perf_counter() - start:.1f} s)")
    if code != 0:
        print("the unmutated copy must pass its tests before any mutant is judged")
        return 1
    failed = 0
    for mutant in MUTANTS:
        start = time.perf_counter()
        verdict = run_mutant(mutant)
        seconds = time.perf_counter() - start
        print(f"{mutant.name}: {verdict} by {', '.join(mutant.tests)} ({seconds:.1f} s)")
        failed += verdict != "killed"
    print(f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
