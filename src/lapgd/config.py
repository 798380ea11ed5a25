"""Structured key-value config files.

One YAML document describes a whole experiment in nested sections:

    problem:   family, sizes, demand, explicit params or a param_seed
    network:   topology kind and its parameters, or an edge-list path
    run:       algorithm, step size, noise level, budget, recording
    init:      how the starting point is built

Loaders raise ``ConfigError`` naming the offending field with its full
dotted path, so a parse failure always says what to fix.
``build_run_config`` is the one parser of a run-config mapping: it reads
the ``run`` section here and each ``configs.<label>`` entry of a batch
manifest, which ``config_to_dict`` writes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np
import yaml

from .network import (
    Graph,
    NetworkOperator,
    build_laplacian,
    complete_graph,
    cycle_graph,
    path_graph,
    read_edge_list,
    tangent_perturbation,
    watts_strogatz,
)
from .objectives import FAMILIES, Family, ProblemInstance
from .optimizer import RunConfig


class ConfigError(ValueError):
    """A config file is missing a field or holds an invalid value."""


def _field(section: dict, key, path: str, default=None) -> tuple:
    """The dotted name of ``section[key]`` and its value, or ``default``
    when the key is absent; with no default a missing key is an error."""
    name = f"{path}.{key}" if path else str(key)
    if key in section:
        return name, section[key]
    if default is None:
        raise ConfigError(f"missing field {name}")
    return name, default


def _integer(section: dict, key, path: str, default=None, minimum=None) -> int:
    """An integer field, at least ``minimum`` when given; an integral float
    such as 1.0e5 passes, 10.5 and booleans do not."""
    name, value = _field(section, key, path, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")
    return value


def _real(section: dict, key: str, path: str, default=None) -> float:
    """A finite real-number field; a numeric string passes, since YAML 1.1
    reads an exponent without a dot such as 1e-6 as a string; booleans,
    None and other strings do not."""
    name, value = _field(section, key, path, default)
    try:
        number = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        number = None
    if number is None:
        raise ConfigError(f"{name} must be a real number, got {value!r}")
    return _finite(number, value, name)


def _reals(section: dict, key: str, path: str, default=None) -> np.ndarray:
    """A finite number or nested lists of them, as a float array; numeric
    strings pass as in ``_real``, booleans and None do not."""
    name, value = _field(section, key, path, default)
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or any(
        isinstance(x, bool) or x is None for x in np.asarray(value, dtype=object).flat
    ):
        raise ConfigError(f"{name} must be real numbers, got {value!r}")
    return _finite(array, value, name)


def _finite(number, value, field: str):
    """``number``, the float reading of ``value``, if it has no NaN or inf."""
    if not np.isfinite(number).all():
        raise ConfigError(f"{field} has a non-finite value, got {value!r}")
    return number


def _flag(section: dict, key: str, path: str) -> bool:
    """A true/false field, false when absent. YAML reads true, yes, on and
    their opposites as booleans; a quoted "false" stays a string."""
    name, value = _field(section, key, path, False)
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


def _typed(section: dict, key, path: str, kind=str, default=None, choices=None):
    """A field of type ``kind``, a string unless told otherwise, and one of
    ``choices`` when given. Nothing is converted: a number is not a string,
    so a numeric file name must be quoted."""
    name, value = _field(section, key, path, default)
    if not isinstance(value, kind):
        raise ConfigError(f"{name} must be of type {kind.__name__}, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _check_keys(section: dict, allowed, path: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown field {path}.{min(map(str, unknown))}")


def _load_mapping(path) -> dict:
    """A YAML file whose top level is a mapping: a config or a manifest."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    return data


def load_config(path) -> dict:
    data = _load_mapping(path)
    _check_keys(data, ("problem", "network", "run", "init"), str(path))
    for name, section in data.items():
        if not isinstance(section, dict):
            raise ConfigError(f"section {name} must be a mapping of fields, got {section!r}")
    return data


def build_problem(section: dict, m: int) -> ProblemInstance:
    """Draw or build the problem of ``m`` agents through its family's
    entry in ``FAMILIES``."""
    _check_keys(section, ("family", "m", "n", "demand", "params", "param_seed"), "problem")
    family = FAMILIES[_typed(section, "family", "problem", choices=FAMILIES)]
    n = _integer(section, "n", "problem", 1, minimum=1)
    demand = np.atleast_1d(_reals(section, "demand", "problem", 0.0))
    if demand.shape not in ((1,), (n,)):
        raise ConfigError(f"problem.demand has shape {demand.shape} but problem.n is {n}")
    demand = np.broadcast_to(demand, (n,))
    params = section.get("params")
    if (params is None) == (section.get("param_seed") is None):
        raise ConfigError("problem needs exactly one of problem.params or problem.param_seed")
    if params is None:
        rng = np.random.default_rng(_integer(section, "param_seed", "problem", minimum=0))
        field, values = "problem", family.draw_params(m, n, rng)
    else:
        field, values = "problem.params", _explicit_params(family, params, m, n)
    try:
        return family.build(demand, **values)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from exc


def _explicit_params(family: Family, params, m: int, n: int) -> dict:
    """The family's fields of ``problem.params`` as arrays that agree with
    problem.m and problem.n; the builder checks them against each other."""
    if not isinstance(params, dict):
        raise ConfigError(f"problem.params must be a mapping of fields, got {params!r}")
    _check_keys(params, family.fields, "problem.params")
    values = {}
    for key in family.fields:
        if key in params or key not in family.optional:
            values[key] = _reals(params, key, "problem.params")
    first = family.fields[0]
    agents = np.atleast_1d(values[first]).shape[0]
    if agents != m:
        raise ConfigError(f"problem.params.{first} has {agents} agents but problem.m is {m}")
    key = family.dim_field
    if key in values:
        dim = values[key].shape[1] if values[key].ndim > 1 else 1
        if dim != n:
            raise ConfigError(f"problem.params.{key} has dimension {dim} but problem.n is {n}")
    return values


_GENERATORS = {"watts_strogatz": watts_strogatz, "path": path_graph,
               "cycle": cycle_graph, "complete": complete_graph}


def build_network(section: dict, m: int) -> Graph:
    """The network section's graph on ``m`` nodes. A generated graph's
    declared size is compared with ``m`` before generation starts."""
    _check_keys(section, ("kind", "m", "k", "p", "seed", "path"), "network")
    kind = _typed(section, "kind", "network", choices=(*_GENERATORS, "edge_list"))
    graph = read_edge_list(_typed(section, "path", "network")) if kind == "edge_list" else None
    size = _integer(section, "m", "network") if graph is None else graph.m
    if size != m:
        raise ConfigError(f"network has {size} nodes but problem.m is {m}")
    if graph is not None:
        return graph
    args = ()
    if kind == "watts_strogatz":
        args = (_integer(section, "k", "network"), _real(section, "p", "network"),
                _integer(section, "seed", "network", 0, minimum=0))
    try:
        return _GENERATORS[kind](m, *args)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


def build_run_config(section: dict, path: str = "run") -> RunConfig:
    """The one mapping-to-RunConfig parser, for a YAML ``run`` section and
    a manifest's ``configs.<label>`` alike; errors name ``path``."""
    _check_keys(section, [f.name for f in fields(RunConfig)] + ["noise_sigma"], path)
    if "noise_variance" in section and "noise_sigma" in section:
        raise ConfigError(f"{path}.noise_variance and {path}.noise_sigma are exclusive")
    variance = _real(section, "noise_variance", path, 0.0)
    if "noise_sigma" in section:
        sigma = _real(section, "noise_sigma", path)
        if sigma < 0:
            raise ConfigError(f"{path}.noise_sigma must be >= 0, got {sigma!r}")
        # sigma**2 raises OverflowError past 1.3e154; sigma * sigma is inf
        variance = _finite(sigma * sigma, sigma, f"{path}.noise_sigma squared")
    try:
        return RunConfig(
            algorithm=_typed(section, "algorithm", path).lower(),
            step_size=_real(section, "step_size", path),
            max_iters=_integer(section, "max_iters", path),
            noise_variance=variance,
            seed=_integer(section, "seed", path, 0),
            record_every=_integer(section, "record_every", path, 1),
            record_curvature=_flag(section, "record_curvature", path),
            monitor_descent=_flag(section, "monitor_descent", path),
            # manifests write unset thresholds as null
            stop_eps=None if section.get("stop_eps") is None else _real(section, "stop_eps", path),
            stop_gamma=None if section.get("stop_gamma") is None else _real(section, "stop_gamma", path),
            early_exit=_flag(section, "early_exit", path),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def config_to_dict(config: RunConfig) -> dict:
    """Manifest form of a config, which ``build_run_config`` reads back.
    The per-run seed is omitted: batch runs derive it from the batch seed
    and config position."""
    values = asdict(config)
    del values["seed"]
    return {**values, "algorithm": config.algorithm.value}


def build_initial_point(section: dict, problem: ProblemInstance) -> np.ndarray:
    """Starting points: the uniform demand split, a tangent perturbation
    of it, or explicit values."""
    _check_keys(section, ("kind", "scale", "seed", "values"), "init")
    kinds = ("uniform_split", "perturbed", "explicit")
    kind = _typed(section, "kind", "init", default="uniform_split", choices=kinds)
    base = np.tile(problem.demand / problem.m, problem.m)
    if kind == "uniform_split":
        return base
    if kind == "perturbed":
        rng = np.random.default_rng(_integer(section, "seed", "init", 0, minimum=0))
        kick = tangent_perturbation(
            problem.m, problem.n, _real(section, "scale", "init", 1e-3), rng
        )
        return base + kick
    values = _reals(section, "values", "init").reshape(-1)
    expected = problem.m * problem.n
    if values.shape != (expected,):
        raise ConfigError(
            f"init.values has length {values.shape[0]}, expected {expected}"
        )
    return values


@dataclass(frozen=True)
class Bundle:
    """Everything one config file describes."""

    raw: dict
    problem: ProblemInstance
    graph: Graph
    net: NetworkOperator
    run_config: RunConfig | None
    theta_start: np.ndarray


def load_bundle(path, require_run: bool = True) -> Bundle:
    raw = load_config(path)
    for name in ("problem", "network", "run") if require_run else ("problem", "network"):
        if name not in raw:
            raise ConfigError(f"missing section {name}")
    # the sizes agree before any graph is generated or parameter drawn
    m = _integer(raw["problem"], "m", "problem", minimum=1)
    graph = build_network(raw["network"], m)
    problem = build_problem(raw["problem"], m)
    net = build_laplacian(graph, agent_dim=problem.n)
    run_config = build_run_config(raw["run"]) if "run" in raw else None
    theta_start = build_initial_point(raw.get("init", {}), problem)
    return Bundle(
        raw=raw,
        problem=problem,
        graph=graph,
        net=net,
        run_config=run_config,
        theta_start=theta_start,
    )
