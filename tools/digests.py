"""Export identity as a check: the bench-round digests against DIGESTS.json.

Each of the three benchmark workloads (grid_escape, portfolio_sweep,
large_saddle) at seeds 0 and 3 is built with ``bench/workloads.build_inputs``
and run as one ``batch_round``, which exports its traces, summary and
manifest. The round's digest is ``bench/run.file_digest`` over the exported
files, the number CHANGES.md and ROADMAP.md cite; every file's own sha256 is
kept too, so a mismatch names the files that differ.

    python3 tools/digests.py           # compare with DIGESTS.json
    python3 tools/digests.py --write   # record the current digests

The comparison prints each round's digest and exits 1 when a round's
digest, or the set of files it exports, differs from the committed one,
naming each file that differs. DIGESTS.json also records the machine, the
Python, the numpy and the BLAS that wrote it, and a mismatch prints both
sides' records. A change that alters exports on purpose rewrites the file
with --write in the same commit. BLAS runs on one thread, as in the bench.
Takes about 6 s.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "DIGESTS.json"
ROUNDS = [(workload, seed) for workload in ("grid_escape", "portfolio_sweep", "large_saddle")
          for seed in (0, 3)]


def blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def current() -> dict:
    """Run every round in a temporary directory; returns the digests and
    the machine that made them."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # bench/run.py, for its file_digest and its import of ./src

    run.import_package()
    import numpy
    import workloads

    rounds = {}
    for workload, seed in ROUNDS:
        with tempfile.TemporaryDirectory(prefix="lapgd-digests-") as tmp:
            inputs = workloads.build_inputs(workload, seed, tmp)
            _, written, failed = workloads.batch_round(inputs, Path(tmp) / "export")
            if failed:
                raise RuntimeError(f"{workload} seed {seed}: {failed} operations failed")
            files = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                     for p in sorted(map(str, written))}
            rounds[f"{workload} seed {seed}"] = {"digest": run.file_digest(written), "files": files}
    machine = {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name(numpy),
        "blas_threads": 1,
    }
    return {"machine": machine, "rounds": rounds}


def differences(want: dict, got: dict) -> list:
    """One line per round or file of ``want`` that ``got`` does not match."""
    lines = []
    for round_name in sorted(set(want) | set(got)):
        if round_name not in got or round_name not in want:
            lines.append(f"{round_name}: {'not run' if round_name not in got else 'not in DIGESTS.json'}")
            continue
        if want[round_name]["digest"] == got[round_name]["digest"]:
            continue
        old, new = want[round_name]["files"], got[round_name]["files"]
        changed = [f for f in sorted(set(old) | set(new)) if old.get(f) != new.get(f)]
        lines.append(f"{round_name}: digest {got[round_name]['digest']}, "
                     f"committed {want[round_name]['digest']}")
        for name in changed:
            note = "" if name in old and name in new else (
                " (not exported)" if name in old else " (not in DIGESTS.json)")
            lines.append(f"  differs: {name}{note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help="record the current digests")
    opts = parser.parse_args(argv)
    got = current()
    for name, entry in got["rounds"].items():
        print(f"{name}: {entry['digest']}")
    if opts.write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS.name}")
        return 0
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    lines = differences(want["rounds"], got["rounds"])
    if not lines:
        print(f"all {len(got['rounds'])} rounds match {DIGESTS.name}")
        return 0
    print("\n".join(lines))
    print(f"committed by: {json.dumps(want['machine'])}")
    print(f"this machine: {json.dumps(got['machine'])}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
