"""Fuzz gate on the entry points: malformed input is refused, never a crash.

``cli.main`` runs ``run``, ``params``, ``check`` and ``spectrum`` on
configs mutated from three small bases, on generated edge lists and on
generated state files; ``replay_manifest`` reads mutated batch manifests.
Each config example sets one or two fields (or whole sections) to a value
from a pool of types: None, booleans, small integers, huge or non-finite
floats, strings, lists and mappings. ``main`` must return an exit code in
{0, 1, 2, 3}, with 1 only from ``check`` and ``spectrum``; it must never
raise. ``replay_manifest`` may raise only ``ConfigError``, or
``DivergenceError`` for a config that diverges.

The examples stay cheap: at most 8 agents, at most 50 steps, and a huge
number only where a reader refuses it before anything is allocated. So a
huge float never goes into a budget, both declared network sizes at once,
or an edge list's node count. The example counts are fixed and the draw
is derandomized, so every run checks the same inputs.
"""

import contextlib
import math
import warnings
from dataclasses import replace

import pytest
import yaml
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from lapgd.cli import main
from lapgd.config import ConfigError
from lapgd.experiments import build_smart_grid_scenario, export_traces, replay_manifest, run_batch
from lapgd.optimizer import DivergenceError

FUZZ_SETTINGS = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

BASES = {
    "smart_grid": {
        "problem": {"family": "smart_grid", "m": 6, "demand": 0.0, "param_seed": 1},
        "network": {"kind": "watts_strogatz", "m": 6, "k": 2, "p": 0.2, "seed": 3},
        "run": {
            "algorithm": "nlgd", "step_size": 0.001, "max_iters": 20,
            "noise_sigma": 0.05, "record_every": 10,
        },
        "init": {"kind": "perturbed", "scale": 0.001, "seed": 0},
    },
    "portfolio": {
        "problem": {"family": "portfolio", "m": 4, "n": 2, "demand": 1.0, "param_seed": 0},
        "network": {"kind": "cycle", "m": 4},
        "run": {
            "algorithm": "lgd", "step_size": 0.001, "max_iters": 20,
            "record_every": 10, "record_curvature": True,
        },
        "init": {"kind": "uniform_split"},
    },
    "quadratic": {
        "problem": {
            "family": "quadratic", "m": 3, "demand": 3.0,
            "params": {"a": [1.0, 2.0, 4.0], "c": [[1.0], [0.0], [0.0]]},
        },
        "network": {"kind": "path", "m": 3},
        "run": {
            "algorithm": "lgd", "step_size": 0.1, "max_iters": 30, "record_every": 10,
            "record_curvature": True, "stop_eps": 0.1, "stop_gamma": 0.1, "early_exit": True,
        },
        "init": {"kind": "explicit", "values": [1.0, 1.0, 1.0]},
    },
}

RUN_FIELDS = (
    "algorithm", "step_size", "max_iters", "noise_variance", "noise_sigma", "seed",
    "record_every", "record_curvature", "monitor_descent", "stop_eps", "stop_gamma",
    "early_exit",
)
FIELDS = (
    [("problem", key) for key in ("family", "m", "n", "demand", "params", "param_seed")]
    + [("network", key) for key in ("kind", "m", "k", "p", "seed", "path")]
    + [("run", key) for key in RUN_FIELDS]
    + [("init", key) for key in ("kind", "scale", "seed", "values")]
    # an unknown field, and whole sections
    + [("problem", "typo"), ("problem", None), ("network", None), ("run", None), ("init", None)]
)
# the field whose value sets how long a run takes
BUDGETS = {"max_iters"}

HUGE = 1.0e300
WORDS = (
    "", "abc", "5", "1e-3", "smart_grid", "portfolio", "quadratic", "watts_strogatz",
    "edge_list", "path", "cycle", "complete", "uniform_split", "perturbed", "explicit",
    "lgd", "LGD", "nlgd",
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 8),
    st.sampled_from([0.5, 2.0, HUGE, -HUGE, math.inf, math.nan]),
    st.sampled_from(WORDS),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(("a", "b", "c", "kind", "m")), SCALARS, max_size=2),
)


def is_huge(value):
    """Too big for a budget: a run of that many steps would not end."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) > 50


def mutated(base, mutations):
    data = yaml.safe_load(yaml.safe_dump(base))
    for section, key, value in mutations:
        if key is None:
            data[section] = value
        elif isinstance(data.get(section), dict):
            data[section][key] = value
    return data


CHANGES = st.lists(st.tuples(st.sampled_from(FIELDS), VALUES), min_size=1, max_size=2)


def assume_cheap(changes):
    """No huge budget, and no huge size in problem.m and network.m at once:
    the readers accept both, and the graph would be built."""
    for (section, key), value in changes:
        assume(not (key in BUDGETS and is_huge(value)))
    sizes = [value for (section, key), value in changes if key == "m" and section in ("problem", "network")]
    assume(not (len(sizes) == 2 and any(is_huge(v) for v in sizes)))


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


@contextlib.contextmanager
def overflow_warnings_ignored():
    """numpy's overflow warnings on huge finite inputs print and do not
    raise under Python's default filters, which the CLI runs with; the
    pytest "error" filter would turn them into exceptions."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        yield


def assert_exit_code(argv):
    """``main(argv)`` returns a documented exit code and raises nothing."""
    with overflow_warnings_ignored():
        code = main(argv)
    assert type(code) is int and code in (0, 1, 2, 3)
    if code == 1:
        assert argv[0] in ("check", "spectrum")


@pytest.fixture(scope="module")
def manifest_text(tmp_path_factory):
    """A short smart_grid batch's manifest: one seed, 20 steps a config."""
    scenario = build_smart_grid_scenario(0)
    configs = {label: replace(config, max_iters=20) for label, config in scenario.configs.items()}
    out = tmp_path_factory.mktemp("batch")
    export_traces(run_batch(scenario, [0], configs), out)
    return (out / "manifest.yaml").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# one fixed case for each class of crash or hang the fuzz gate found


@pytest.mark.parametrize(
    "base, changes, message",
    [
        # a list or a mapping is not a family name: was TypeError, unhashable type
        ("smart_grid", {("problem", "family"): ["smart_grid"]},
         "problem.family must be of type str, got ['smart_grid']"),
        ("portfolio", {("problem", "family"): {}}, "problem.family must be of type str, got {}"),
        # compared with problem.m before generation: was OverflowError
        ("smart_grid", {("network", "m"): HUGE}, f"network has {int(HUGE)} nodes but problem.m is 6"),
        # ran until killed, building 10^300 cycle edges
        ("portfolio", {("network", "m"): HUGE}, f"network has {int(HUGE)} nodes but problem.m is 4"),
        # an integer path was a file descriptor: 5 gave Bad file descriptor, 0 read stdin
        ("quadratic", {("network", "kind"): "edge_list", ("network", "path"): 5},
         "network.path must be of type str, got 5"),
        ("quadratic", {("network", "kind"): "edge_list", ("network", "path"): 0},
         "network.path must be of type str, got 0"),
        ("quadratic", {("network", "kind"): "edge_list", ("network", "path"): ["a"]},
         "network.path must be of type str, got ['a']"),
        ("quadratic", {("run", "algorithm"): ["lgd"]}, "run.algorithm must be of type str, got ['lgd']"),
        ("quadratic", {("init", "kind"): 5}, "init.kind must be of type str, got 5"),
        ("quadratic", {("network", "kind"): None}, "network.kind must be of type str, got None"),
        # sigma**2 raised OverflowError
        ("smart_grid", {("run", "noise_sigma"): HUGE},
         "run.noise_sigma squared has a non-finite value, got 1e+300"),
    ],
    ids=[
        "family_list", "family_mapping", "huge_m_watts_strogatz", "huge_m_cycle", "path_5",
        "path_0", "path_list", "algorithm_list", "init_kind_int", "network_kind_null",
        "huge_noise_sigma",
    ],
)
def test_regression_configs_exit_2_naming_the_field(tmp_path, capsys, base, changes, message):
    data = mutated(BASES[base], [(section, key, value) for (section, key), value in changes.items()])
    config = write(tmp_path / "cfg.yaml", yaml.safe_dump(data, sort_keys=False))
    assert main(["run", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_regression_nan_hessian_block_is_a_runtime_failure(tmp_path, capsys):
    # at demand 1e300 the portfolio Hessian blocks hold NaN; the certifier
    # at the first record indexed past them (IndexError, exit 1)
    data = mutated(BASES["portfolio"], [("problem", "demand", HUGE)])
    config = write(tmp_path / "cfg.yaml", yaml.safe_dump(data, sort_keys=False))
    with overflow_warnings_ignored():
        assert main(["run", config, "--out-dir", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err == "error: divergence at iteration 1\n"


@pytest.mark.parametrize(
    "field, value, message",
    [
        # each was a bare TypeError, or a misleading unknown field
        (("configs", "lgd"), 5, "configs.lgd must be of type dict, got 5"),
        (("configs", "lgd"), ["a"], "configs.lgd must be of type dict, got ['a']"),
        (("scenario", "name"), ["smart_grid"], "scenario.name must be of type str, got ['smart_grid']"),
        (("scenario",), 5, "scenario must be of type dict, got 5"),
        (("kind",), ["batch"], "kind must be of type str, got ['batch']"),
    ],
    ids=["config_int", "config_list", "scenario_name_list", "scenario_int", "kind_list"],
)
def test_regression_manifests_raise_config_errors_naming_the_field(
    tmp_path, manifest_text, field, value, message
):
    manifest = yaml.safe_load(manifest_text)
    section = manifest
    for key in field[:-1]:
        section = section[key]
    section[field[-1]] = value
    path = write(tmp_path / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=False))
    with pytest.raises(ConfigError) as err:
        replay_manifest(path, tmp_path / "replay")
    assert str(err.value) == f"{path}: {message}"


# ---------------------------------------------------------------------------
# the fuzz gate


@FUZZ_SETTINGS
@given(
    base=st.sampled_from(sorted(BASES)),
    changes=CHANGES,
    command=st.sampled_from(("run", "params", "check")),
    # numbers cut to the base's m * n coordinates, or text that holds none
    state=st.one_of(
        st.lists(st.sampled_from([0.0, 0.5, -1.0, 1.0, HUGE, math.nan]), min_size=8, max_size=8),
        st.sampled_from(["", "abc", "1 2\n3", "[1]", "0 " * 7]),
    ),
)
def test_mutated_configs_exit_with_a_documented_code(tmp_path, base, changes, command, state):
    assume_cheap(changes)
    data = mutated(BASES[base], [(section, key, value) for (section, key), value in changes])
    config = write(tmp_path / "cfg.yaml", yaml.safe_dump(data, sort_keys=False))
    if isinstance(state, list):
        problem = BASES[base]["problem"]
        state = " ".join(repr(v) for v in state[: problem["m"] * problem.get("n", 1)])
    argv = {
        "run": ["run", config, "--out-dir", str(tmp_path / "out")],
        "params": ["params", config, "--grad-tol", "0.1"],
        "check": ["check", config, write(tmp_path / "state.txt", state)],
    }[command]
    assert_exit_code(argv)


EDGE_LINES = st.one_of(
    st.tuples(st.integers(-1, 8), st.integers(-1, 8)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(["", "# comment", "0 1 2", "a b", "1.5 2", "0"]),
)


@FUZZ_SETTINGS
@given(
    head=st.one_of(st.integers(-1, 8).map(str), st.sampled_from(["", "abc", "2.5", "# m"])),
    lines=st.lists(EDGE_LINES, max_size=12),
)
def test_generated_edge_lists_exit_with_a_documented_code(tmp_path, head, lines):
    graph = write(tmp_path / "graph.txt", "\n".join([head, *lines]) + "\n")
    assert_exit_code(["spectrum", graph])


MANIFEST_FIELDS = (
    [(key,) for key in ("kind", "scenario", "seeds", "configs")]
    + [("scenario", "name"), ("scenario", "seed"), ("configs", "lgd"), ("configs", "nlgd")]
    + [("configs", "lgd", key) for key in RUN_FIELDS]
)


@settings(FUZZ_SETTINGS, max_examples=40)
@given(
    changes=st.lists(st.tuples(st.sampled_from(MANIFEST_FIELDS), VALUES), min_size=1, max_size=2)
)
def test_mutated_manifests_raise_only_config_or_divergence_errors(tmp_path, manifest_text, changes):
    for field, value in changes:
        assume(not (field[-1] in BUDGETS and is_huge(value)))
    manifest = yaml.safe_load(manifest_text)
    for field, value in changes:
        section = manifest
        for key in field[:-1]:
            section = section.get(key) if isinstance(section, dict) else None
        if isinstance(section, dict):
            section[field[-1]] = value
    path = write(tmp_path / "manifest.yaml", yaml.safe_dump(manifest, sort_keys=False))
    try:
        with overflow_warnings_ignored():
            replay_manifest(path, tmp_path / "replay")
    # a config that diverges is a runtime failure (exit 3 in the CLI), not
    # a malformed manifest
    except (ConfigError, DivergenceError):
        pass
