"""Benchmark for lapgd: end-to-end time and memory of three workloads,
and per-layer costs from a separate traced run.

    python3 bench/run.py --workload grid_escape --seed 0 --seconds 30 --trace 0

Workloads (see README.md): grid_escape, portfolio_sweep, large_saddle.
Run from the repository root; the package is imported from ./src.

Each run starts fresh processes, so imports count toward set-up: a few
set-up-only processes time set-up, then one main process builds the
inputs, repeats whole batch rounds for --seconds, records its peak
memory and checks the outputs of its last round. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. Any error exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# Workload -> extra set-up-only processes per run; setup_s is the median
# of these and the main process's own set-up.
SETUP_SAMPLES = {"grid_escape": 4, "portfolio_sweep": 4, "large_saddle": 1}
CHILD_TIMEOUT = 170.0


# One BLAS thread: on a small shared box a multi-threaded eigensolve
# slows by half whenever another process takes a core, which swamps
# the differences the benchmark is meant to show.
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def spawn(args, deadline: float) -> tuple:
    """Run this script as a child; returns (launch time, its JSON reply)."""
    timeout = max(1.0, min(CHILD_TIMEOUT, deadline - time.perf_counter()))
    launched = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        timeout=timeout,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited with code {done.returncode}")
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise RuntimeError(f"child {args[:2]} printed nothing")
    return launched, json.loads(lines[-1])


# ---------------------------------------------------------------------------
# child side


def import_package():
    """Import lapgd from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    import lapgd

    if Path(lapgd.__file__).resolve().parent != SRC / "lapgd":
        raise ImportError(f"lapgd imported from {lapgd.__file__}, not {SRC}")
    return lapgd


def child_setup(opts) -> dict:
    import_package()
    import workloads

    workloads.build_inputs(opts.workload, opts.seed, opts.out)
    return {"ready": time.perf_counter()}


def file_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in sorted(str(p) for p in paths):
        digest.update(Path(path).name.encode())
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def child_main(opts) -> dict:
    import_package()
    tracer = None
    if opts.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    import workloads

    inputs = workloads.build_inputs(opts.workload, opts.seed, opts.out)
    ready = time.perf_counter()
    setup_calls = tracer.calls() if tracer else {}

    export_dir = Path(opts.out) / "export"
    times, digests, failed = [], [], 0
    begin = time.perf_counter()
    while True:
        last = None  # free the previous round's results before the next
        start = time.perf_counter()
        last = workloads.batch_round(inputs, export_dir)
        times.append(time.perf_counter() - start)
        failed += last[2]
        digests.append(file_digest(last[1]))
        elapsed = time.perf_counter() - begin
        # Start another whole round only if it should end within --seconds.
        if elapsed + statistics.median(times) > opts.seconds:
            break

    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Read the trace before the checks, which call traced functions too.
    per_layer = tracing.per_layer(tracer, setup_calls, len(times)) if tracer else None
    batch, written, _ = last
    failures, notes = workloads.check_round(inputs, batch, written)
    if len(set(digests)) != 1:
        failures.append(f"rounds wrote different bytes: {len(set(digests))} distinct exports")
    reply = {
        "ready": ready,
        "round_s": times,
        "peak_rss_mb": peak_rss_kib / 1024.0,
        "attempted": workloads.ops_per_round(inputs) * len(times),
        "failed": failed,
        "failures": failures,
        "notes": notes,
    }
    if per_layer is not None:
        reply["per_layer"] = per_layer
    return reply


# ---------------------------------------------------------------------------
# parent side


def measure(opts) -> dict:
    deadline = time.perf_counter() + CHILD_TIMEOUT
    out = OUT / opts.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    common = ["--workload", opts.workload, "--seed", str(opts.seed), "--out", str(out)]

    setups = []
    if not opts.trace:
        for _ in range(SETUP_SAMPLES[opts.workload]):
            launched, reply = spawn(["--child", "setup", *common], deadline)
            setups.append(reply["ready"] - launched)
    launched, main = spawn(
        ["--child", "main", *common, "--seconds", str(opts.seconds), "--trace", str(int(opts.trace))],
        deadline,
    )
    setups.append(main["ready"] - launched)
    shutil.rmtree(out, ignore_errors=True)

    rounds = main["round_s"]
    print(f"workload {opts.workload} seed {opts.seed}: {len(rounds)} rounds, "
          f"{len(setups)} set-ups, BLAS threads {BLAS_THREADS}")
    print(f"  attempted {main['attempted']} failed {main['failed']}")
    for note in main["notes"]:
        print(f"  note: {note}")
    for failure in main["failures"]:
        print(f"  CHECK FAILED: {failure}")
    correct = not main["failures"]
    print(f"  verdict: {'correct' if correct else 'INCORRECT'}")
    batch_s = statistics.median(rounds)
    if opts.trace:
        metrics = main["per_layer"]
        print(f"  traced batch_s {batch_s:.4f} s (rounds {', '.join(f'{t:.3f}' for t in rounds)})")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "batch_s": {"value": batch_s, "unit": "s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(SETUP_SAMPLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "main"), help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    opts = parser.parse_args(argv)
    if opts.seed < 0:
        parser.error("--seed must be non-negative")
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    return opts


def main(argv=None) -> int:
    opts = parse_args(argv)
    if opts.child:
        reply = child_setup(opts) if opts.child == "setup" else child_main(opts)
        print(json.dumps(reply))
        return 0
    if not (SRC / "lapgd" / "__init__.py").is_file():
        print(f"error: no lapgd package under {SRC}", file=sys.stderr)
        return 2
    result = measure(opts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
