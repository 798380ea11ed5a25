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
from .objectives import (
    ProblemInstance,
    quadratic_problem,
    sample_portfolio_params,
    sample_smart_grid_params,
    smart_grid_problem,
    portfolio_problem,
)
from .optimizer import RunConfig


class ConfigError(ValueError):
    """A config file is missing a field or holds an invalid value."""


def _require(section: dict, key: str, path: str):
    if key not in section:
        raise ConfigError(f"missing field {path}.{key}")
    return section[key]


def _integer(section: dict, key: str, path: str, default=None) -> int:
    """An integer field; an integral float such as 1.0e5 passes, 10.5 and
    booleans do not."""
    value = _require(section, key, path) if default is None else section.get(key, default)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{path}.{key} must be an integer, got {value!r}")


def _check_keys(section: dict, allowed, path: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown field {path}.{sorted(unknown)[0]}")


def load_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = yaml.safe_load(handle)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    _check_keys(data, ("problem", "network", "run", "init"), str(path))
    return data


def build_problem(section: dict) -> ProblemInstance:
    _check_keys(
        section,
        ("family", "m", "n", "demand", "params", "param_seed"),
        "problem",
    )
    family = _require(section, "family", "problem")
    m = int(_require(section, "m", "problem"))
    n = int(section.get("n", 1))
    demand = np.broadcast_to(
        np.atleast_1d(np.asarray(section.get("demand", 0.0), dtype=float)), (n,)
    )
    params = section.get("params")
    param_seed = section.get("param_seed")
    if (params is None) == (param_seed is None):
        raise ConfigError(
            "problem needs exactly one of problem.params or problem.param_seed"
        )

    if family not in ("quadratic", "smart_grid", "portfolio"):
        raise ConfigError(
            f"problem.family must be quadratic, smart_grid or portfolio, got {family!r}"
        )
    try:
        return _family_problem(family, m, n, demand, params, param_seed)
    except ConfigError:
        raise
    except ValueError as exc:
        field = "problem" if params is None else "problem.params"
        raise ConfigError(f"{field}: {exc}") from exc


def _family_problem(family, m, n, demand, params, param_seed) -> ProblemInstance:
    if family == "quadratic":
        if params is None:
            rng = np.random.default_rng(int(param_seed))
            a = rng.uniform(0.5, 1.5, size=m)
            c = None
        else:
            a = np.asarray(_require(params, "a", "problem.params"), dtype=float)
            c = params.get("c")
        return quadratic_problem(a, demand, c_values=c)

    if family == "smart_grid":
        if params is None:
            rng = np.random.default_rng(int(param_seed))
            a, b = sample_smart_grid_params(m, rng)
        else:
            a = np.asarray(_require(params, "a", "problem.params"), dtype=float)
            b = np.asarray(_require(params, "b", "problem.params"), dtype=float)
        return smart_grid_problem(a, b, demand=demand, agent_dim=n)

    if params is None:
        rng = np.random.default_rng(int(param_seed))
        mu, cov, rw, lw = sample_portfolio_params(m, n, rng)
    else:
        mu = np.asarray(_require(params, "mu", "problem.params"), dtype=float)
        cov = np.asarray(_require(params, "cov", "problem.params"), dtype=float)
        rw = np.asarray(
            _require(params, "risk_weights", "problem.params"), dtype=float
        )
        lw = np.asarray(
            _require(params, "log_weights", "problem.params"), dtype=float
        )
    return portfolio_problem(mu, cov, rw, lw, demand)


def build_network(section: dict, agent_dim: int) -> tuple:
    _check_keys(section, ("kind", "m", "k", "p", "seed", "path"), "network")
    kind = _require(section, "kind", "network")
    if kind == "edge_list":
        graph = read_edge_list(_require(section, "path", "network"))
    else:
        m = int(_require(section, "m", "network"))
        if kind == "watts_strogatz":
            graph = watts_strogatz(
                m,
                int(_require(section, "k", "network")),
                float(_require(section, "p", "network")),
                int(section.get("seed", 0)),
            )
        elif kind == "path":
            graph = path_graph(m)
        elif kind == "cycle":
            graph = cycle_graph(m)
        elif kind == "complete":
            graph = complete_graph(m)
        else:
            raise ConfigError(
                "network.kind must be watts_strogatz, edge_list, path, cycle "
                f"or complete, got {kind!r}"
            )
    return graph, build_laplacian(graph, agent_dim=agent_dim)


def build_run_config(section: dict, path: str = "run") -> RunConfig:
    """The one mapping-to-RunConfig parser, for a YAML ``run`` section and
    a manifest's ``configs.<label>`` alike; errors name ``path``."""
    _check_keys(section, [f.name for f in fields(RunConfig)] + ["noise_sigma"], path)
    if "noise_variance" in section and "noise_sigma" in section:
        raise ConfigError(f"{path}.noise_variance and {path}.noise_sigma are exclusive")
    variance = float(section.get("noise_variance", 0.0))
    if "noise_sigma" in section:
        variance = float(section["noise_sigma"]) ** 2
    try:
        return RunConfig(
            algorithm=str(_require(section, "algorithm", path)).lower(),
            step_size=float(_require(section, "step_size", path)),
            max_iters=_integer(section, "max_iters", path),
            noise_variance=variance,
            seed=_integer(section, "seed", path, 0),
            record_every=_integer(section, "record_every", path, 1),
            record_curvature=bool(section.get("record_curvature", False)),
            monitor_descent=bool(section.get("monitor_descent", False)),
            stop_eps=section.get("stop_eps"),
            stop_gamma=section.get("stop_gamma"),
            early_exit=bool(section.get("early_exit", False)),
        )
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
    kind = section.get("kind", "uniform_split")
    base = np.tile(problem.demand / problem.m, problem.m)
    if kind == "uniform_split":
        return base
    if kind == "perturbed":
        rng = np.random.default_rng(int(section.get("seed", 0)))
        kick = tangent_perturbation(
            problem.m, problem.n, float(section.get("scale", 1e-3)), rng
        )
        return base + kick
    if kind == "explicit":
        values = np.asarray(_require(section, "values", "init"), dtype=float).reshape(-1)
        expected = problem.m * problem.n
        if values.shape != (expected,):
            raise ConfigError(
                f"init.values has length {values.shape[0]}, expected {expected}"
            )
        return values
    raise ConfigError(
        f"init.kind must be uniform_split, perturbed or explicit, got {kind!r}"
    )


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
    if "problem" not in raw:
        raise ConfigError("missing section problem")
    if "network" not in raw:
        raise ConfigError("missing section network")
    problem = build_problem(raw["problem"])
    graph, net = build_network(raw["network"], agent_dim=problem.n)
    if graph.m != problem.m:
        raise ConfigError(
            f"network has {graph.m} nodes but problem.m is {problem.m}"
        )
    run_config = None
    if "run" in raw:
        run_config = build_run_config(raw["run"])
    elif require_run:
        raise ConfigError("missing section run")
    theta_start = build_initial_point(raw.get("init", {}), problem)
    return Bundle(
        raw=raw,
        problem=problem,
        graph=graph,
        net=net,
        run_config=run_config,
        theta_start=theta_start,
    )
