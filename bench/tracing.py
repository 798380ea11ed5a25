"""Per-layer tracing for the lapgd benchmark, from outside the package.

``Tracer.install`` wraps public functions of ``lapgd`` modules and
rebinds every name in every loaded ``lapgd`` module that refers to the
original, because ``optimizer``, ``stationarity`` and ``experiments``
import functions by name. Each wrapper keeps a call count, inclusive
time and self time (inclusive time minus the time of traced calls made
inside it). A function that a later version of the package no longer
has is skipped, and the metrics built on it read 0.

Only the traced run installs wrappers; untraced runs measure the
untouched package.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from dataclasses import fields, is_dataclass

import numpy as np

# (module, function) -> trace key; several functions may share a key.
TRACED = {
    ("network", "watts_strogatz"): "network.watts_strogatz",
    ("network", "build_laplacian"): "network.build_laplacian",
    ("network", "apply_lifted"): "network.apply_lifted",
    ("objectives", "stacked_gradient"): "objectives.stacked_gradient",
    ("objectives", "stacked_value"): "objectives.stacked_value",
    ("objectives", "hessian_blocks"): "objectives.hessian_blocks",
    ("optimizer", "lgd_step"): "optimizer.step",
    ("optimizer", "nlgd_step"): "optimizer.step",
    ("optimizer", "aux_gd_step"): "optimizer.step",
    ("optimizer", "aux_ngd_step"): "optimizer.step",
    ("optimizer", "sample_perturbation"): "optimizer.noise",
    ("optimizer", "run"): "optimizer.run",
    ("stationarity", "tangent_min_curvature"): "stationarity.tangent_curvature",
    ("stationarity", "tangent_basis"): "stationarity.tangent_basis",
    ("stationarity", "classify"): "stationarity.classify",
    ("experiments", "final_report"): "experiments.final_report",
    ("experiments", "export_traces"): "experiments.export_traces",
    ("config", "load_bundle"): "config.load_bundle",
}


def array_bytes(obj) -> int:
    """Bytes held by the arrays of obj: an ndarray, a scipy sparse matrix
    or a dataclass whose fields hold them. Computed from sizes, not
    measured."""
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if hasattr(obj, "indptr") and hasattr(obj, "data"):
        return int(obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes)
    if is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in fields(obj))
    return 0


def written_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


# trace key -> function of the result whose largest value is kept
RESULT_SIZES = {
    "network.build_laplacian": array_bytes,
    "stationarity.tangent_basis": array_bytes,
    "experiments.export_traces": written_bytes,
}


class Stat:
    __slots__ = ("calls", "total", "self_time", "largest")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.largest = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self._children = []  # traced-child seconds of each open call

    def wrap(self, key, fn):
        stat = self.stats.setdefault(key, Stat())
        children = self._children
        clock = time.perf_counter
        size_of = RESULT_SIZES.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
                if children:
                    children[-1] += elapsed
            if size_of is not None:
                stat.largest = max(stat.largest, size_of(result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED that the package defines."""
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if name == "lapgd" or name.startswith("lapgd.")
        ]
        for (module_name, func_name), key in TRACED.items():
            home = sys.modules.get(f"lapgd.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(key, original)
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def calls(self) -> dict:
        return {key: stat.calls for key, stat in self.stats.items()}

    def get(self, key) -> Stat:
        return self.stats.get(key, Stat())


def per_layer(tracer: Tracer, setup_calls: dict, rounds: int) -> dict:
    """The per-layer metrics: times are means per call over the whole
    traced process, counts are calls per batch round (set-up excluded)."""

    def mean(key, scale):
        stat = tracer.get(key)
        return stat.total / stat.calls * scale if stat.calls else 0.0

    def per_round(key):
        return (tracer.get(key).calls - setup_calls.get(key, 0)) // rounds

    steps = tracer.get("optimizer.step").calls
    loop = tracer.get("optimizer.run")
    values = {
        "network.watts_strogatz_ms": (mean("network.watts_strogatz", 1e3), "ms"),
        "network.build_laplacian_ms": (mean("network.build_laplacian", 1e3), "ms"),
        "network.apply_lifted_us": (mean("network.apply_lifted", 1e6), "us"),
        "network.apply_lifted_calls": (per_round("network.apply_lifted"), "count"),
        "network.operator_bytes": (tracer.get("network.build_laplacian").largest, "B"),
        "objectives.stacked_gradient_us": (mean("objectives.stacked_gradient", 1e6), "us"),
        "objectives.stacked_gradient_calls": (per_round("objectives.stacked_gradient"), "count"),
        "objectives.stacked_value_us": (mean("objectives.stacked_value", 1e6), "us"),
        "objectives.hessian_blocks_us": (mean("objectives.hessian_blocks", 1e6), "us"),
        "optimizer.step_us": (mean("optimizer.step", 1e6), "us"),
        "optimizer.steps": (per_round("optimizer.step"), "count"),
        "optimizer.noise_us": (mean("optimizer.noise", 1e6), "us"),
        "optimizer.loop_self_us": (loop.self_time / steps * 1e6 if steps else 0.0, "us"),
        "stationarity.tangent_curvature_ms": (mean("stationarity.tangent_curvature", 1e3), "ms"),
        "stationarity.tangent_curvature_calls": (per_round("stationarity.tangent_curvature"), "count"),
        "stationarity.classify_ms": (mean("stationarity.classify", 1e3), "ms"),
        "stationarity.classify_calls": (per_round("stationarity.classify"), "count"),
        "stationarity.basis_bytes": (tracer.get("stationarity.tangent_basis").largest, "B"),
        "experiments.final_report_ms": (mean("experiments.final_report", 1e3), "ms"),
        "experiments.export_ms": (mean("experiments.export_traces", 1e3), "ms"),
        "experiments.export_bytes": (tracer.get("experiments.export_traces").largest, "B"),
        "config.load_bundle_ms": (mean("config.load_bundle", 1e3), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
