"""Config-file loading and the command-line entry point."""

import textwrap
from dataclasses import replace

import numpy as np
import pytest
import yaml

from lapgd.cli import main
from lapgd.config import (
    ConfigError,
    build_initial_point,
    build_run_config,
    load_bundle,
    load_config,
)
from lapgd.experiments import SCENARIO_BUILDERS, TRACE_HEADER, export_traces, run_batch, sweep_sigma
from lapgd.network import path_graph, write_edge_list
from lapgd.optimizer import Algorithm

SMART_GRID_YAML = textwrap.dedent(
    """\
    problem:
      family: smart_grid
      m: 6
      demand: 0.0
      param_seed: 1
    network:
      kind: watts_strogatz
      m: 6
      k: 2
      p: 0.2
      seed: 3
    run:
      algorithm: nlgd
      step_size: 0.001
      max_iters: 200
      noise_sigma: 0.05
      record_every: 10
    init:
      kind: perturbed
      scale: 0.001
      seed: 0
    """
)

QUADRATIC_YAML = textwrap.dedent(
    """\
    problem:
      family: quadratic
      m: 2
      demand: 1.0
      params:
        a: [1.0, 1.0]
    network:
      kind: path
      m: 2
    run:
      algorithm: lgd
      step_size: 0.1
      max_iters: 500
    """
)


def write_config(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config files


def test_load_full_bundle(tmp_path):
    bundle = load_bundle(write_config(tmp_path, SMART_GRID_YAML))
    assert bundle.problem.m == 6 and bundle.problem.n == 1
    assert bundle.graph.m == 6
    assert bundle.run_config.algorithm is Algorithm.NLGD
    assert bundle.run_config.noise_variance == pytest.approx(0.05**2)
    assert bundle.run_config.record_every == 10
    assert abs(bundle.theta_start.sum()) <= 1e-12
    assert np.linalg.norm(bundle.theta_start) == pytest.approx(1e-3, rel=1e-12)


def test_load_bundle_quadratic_explicit_params(tmp_path):
    bundle = load_bundle(write_config(tmp_path, QUADRATIC_YAML))
    assert bundle.problem.global_min_sum == pytest.approx(0.0, abs=1e-15)
    # without an init section the start is the uniform demand split
    assert np.allclose(bundle.theta_start, [0.5, 0.5], atol=1e-15)


def test_load_bundle_portfolio_params(tmp_path):
    text = textwrap.dedent(
        """\
        problem:
          family: portfolio
          m: 3
          n: 2
          demand: [1.0, 1.0]
          param_seed: 7
        network:
          kind: cycle
          m: 3
        """
    )
    bundle = load_bundle(write_config(tmp_path, text), require_run=False)
    assert bundle.run_config is None
    assert bundle.problem.n == 2
    assert bundle.net.agent_dim == 2


def test_missing_sections(tmp_path):
    with pytest.raises(ConfigError, match="missing section problem"):
        load_bundle(write_config(tmp_path, "network:\n  kind: path\n  m: 2\n"))
    no_run = SMART_GRID_YAML.split("run:")[0]
    with pytest.raises(ConfigError, match="missing section run"):
        load_bundle(write_config(tmp_path, no_run))
    bundle = load_bundle(write_config(tmp_path, no_run), require_run=False)
    assert bundle.run_config is None


def test_missing_fields_name_their_dotted_path(tmp_path):
    bad = SMART_GRID_YAML.replace("  step_size: 0.001\n", "")
    with pytest.raises(ConfigError, match=r"run\.step_size"):
        load_bundle(write_config(tmp_path, bad))
    bad = SMART_GRID_YAML.replace("  family: smart_grid\n", "")
    with pytest.raises(ConfigError, match=r"problem\.family"):
        load_bundle(write_config(tmp_path, bad))
    bad = SMART_GRID_YAML.replace("  kind: watts_strogatz\n", "")
    with pytest.raises(ConfigError, match=r"network\.kind"):
        load_bundle(write_config(tmp_path, bad))


def test_unknown_keys_rejected(tmp_path):
    bad = SMART_GRID_YAML + "extra_section: {}\n"
    with pytest.raises(ConfigError, match="unknown field"):
        load_config(write_config(tmp_path, bad))
    bad = SMART_GRID_YAML.replace("  param_seed: 1\n", "  param_seed: 1\n  typo: 3\n")
    with pytest.raises(ConfigError, match=r"problem\.typo"):
        load_bundle(write_config(tmp_path, bad))


def test_params_and_param_seed_exclusive(tmp_path):
    bad = SMART_GRID_YAML.replace(
        "  param_seed: 1\n", "  param_seed: 1\n  params:\n    a: [1.0]\n    b: [2.0]\n"
    )
    with pytest.raises(ConfigError, match="exactly one"):
        load_bundle(write_config(tmp_path, bad))
    neither = SMART_GRID_YAML.replace("  param_seed: 1\n", "")
    with pytest.raises(ConfigError, match="exactly one"):
        load_bundle(write_config(tmp_path, neither))


def test_noise_fields_exclusive():
    with pytest.raises(ConfigError, match="exclusive"):
        build_run_config(
            {
                "algorithm": "nlgd",
                "step_size": 0.1,
                "max_iters": 10,
                "noise_sigma": 0.1,
                "noise_variance": 0.01,
            }
        )


def test_invalid_algorithm_becomes_config_error():
    with pytest.raises(ConfigError, match="run:"):
        build_run_config({"algorithm": "sgd", "step_size": 0.1, "max_iters": 10})


def test_cli_rejects_lifted_algorithm(tmp_path, capsys):
    # the lifted route is a single-step reference, not a run option
    text = QUADRATIC_YAML.replace("algorithm: lgd", "algorithm: aux_gd")
    bad = write_config(tmp_path, text)
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "run:" in err and "aux_gd" in err


def test_cli_rejects_track_auxiliary(tmp_path, capsys):
    bad = write_config(tmp_path, QUADRATIC_YAML + "  track_auxiliary: true\n")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown field run.track_auxiliary" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, message",
    [
        ("  max_iters: 10.5\n", "run.max_iters must be an integer, got 10.5"),
        ("  record_every: 2.5\n", "run.record_every must be an integer, got 2.5"),
        ("  seed: 1.7\n", "run.seed must be an integer, got 1.7"),
        ("  seed: true\n", "run.seed must be an integer, got True"),
        ("  seed: -1\n", "run: seed must be >= 0, got -1"),
    ],
)
def test_cli_rejects_bad_integer_run_fields(tmp_path, capsys, line, message):
    text = QUADRATIC_YAML.replace("  max_iters: 500\n", "") + line
    if "max_iters" not in line:
        text += "  max_iters: 500\n"
    bad = write_config(tmp_path, text)
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integral_float_run_fields_read_as_integers():
    config = build_run_config(
        {"algorithm": "lgd", "step_size": 0.1, "max_iters": 1.0e5, "record_every": 100.0, "seed": 3.0}
    )
    assert (config.max_iters, config.record_every, config.seed) == (100_000, 100, 3)
    assert all(type(v) is int for v in (config.max_iters, config.record_every, config.seed))


def test_init_explicit_values(tmp_path):
    text = QUADRATIC_YAML + "init:\n  kind: explicit\n  values: [0.25, 0.75]\n"
    bundle = load_bundle(write_config(tmp_path, text))
    assert np.array_equal(bundle.theta_start, [0.25, 0.75])
    bad = QUADRATIC_YAML + "init:\n  kind: explicit\n  values: [0.25]\n"
    with pytest.raises(ConfigError, match="length 1, expected 2"):
        load_bundle(write_config(tmp_path, bad))


def test_init_unknown_kind():
    with pytest.raises(ConfigError, match="init.kind"):
        build_initial_point({"kind": "random"}, _dummy_problem())


def _dummy_problem():
    from lapgd.objectives import quadratic_problem

    return quadratic_problem([1.0, 1.0], demand=1.0)


def test_network_size_cross_checked(tmp_path):
    bad = SMART_GRID_YAML.replace("  m: 6\n  k: 2", "  m: 5\n  k: 2")
    with pytest.raises(ConfigError, match="5 nodes but problem.m is 6"):
        load_bundle(write_config(tmp_path, bad))


def test_network_edge_list_kind(tmp_path):
    graph_path = tmp_path / "graph.txt"
    write_edge_list(path_graph(2), graph_path)
    text = QUADRATIC_YAML.replace(
        "network:\n  kind: path\n  m: 2\n",
        f"network:\n  kind: edge_list\n  path: {graph_path}\n",
    )
    bundle = load_bundle(write_config(tmp_path, text))
    assert bundle.graph.edges == ((0, 1),)


def test_invalid_yaml_or_shape(tmp_path):
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write_config(tmp_path, "problem: [unclosed\n"))
    with pytest.raises(ConfigError, match="mapping"):
        load_config(write_config(tmp_path, "- a\n- b\n"))


# ---------------------------------------------------------------------------
# command line


def test_cli_run(tmp_path, capsys):
    cfg = write_config(tmp_path, SMART_GRID_YAML)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "classification:" in stdout
    assert "iterations: 200" in stdout
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == 1 + 21  # records every 10 iterations plus iteration 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["kind"] == "run"
    assert manifest["config"]["run"]["noise_sigma"] == 0.05


def test_cli_run_deterministic(tmp_path):
    cfg = write_config(tmp_path, SMART_GRID_YAML)
    main(["run", str(cfg), "--out-dir", str(tmp_path / "a")])
    main(["run", str(cfg), "--out-dir", str(tmp_path / "b")])
    assert (tmp_path / "a" / "trace.csv").read_bytes() == (
        tmp_path / "b" / "trace.csv"
    ).read_bytes()


def test_cli_run_infeasible_start_exit_code(tmp_path, capsys):
    text = QUADRATIC_YAML + "init:\n  kind: explicit\n  values: [1.0, 1.0]\n"
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 3
    assert "error:" in capsys.readouterr().err


def test_cli_run_input_errors(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.yaml")]) == 2
    bad = write_config(tmp_path, SMART_GRID_YAML.replace("  step_size: 0.001\n", ""))
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "run.step_size" in err


def test_cli_out_dir_env_default(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, SMART_GRID_YAML)
    monkeypatch.setenv("LAPGD_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["run", str(cfg)]) == 0
    assert (tmp_path / "from_env" / "trace.csv").exists()


def test_cli_check_certified_and_not(tmp_path, capsys):
    cfg = write_config(tmp_path, QUADRATIC_YAML)
    good = tmp_path / "good.txt"
    good.write_text("0.5 0.5\n")
    assert main(["check", str(cfg), str(good)]) == 0
    assert "second_order" in capsys.readouterr().out

    saddle_cfg = write_config(
        tmp_path,
        textwrap.dedent(
            """\
            problem:
              family: smart_grid
              m: 2
              demand: 0.0
              params:
                a: [1.0, 1.0]
                b: [2.0, 2.0]
            network:
              kind: path
              m: 2
            """
        ),
        name="saddle.yaml",
    )
    flat = tmp_path / "flat.txt"
    flat.write_text("0.0 0.0\n")
    assert main(["check", str(saddle_cfg), str(flat)]) == 1
    assert "first_order_only" in capsys.readouterr().out


@pytest.mark.parametrize("values", ["nan 1 2\n", "inf -inf 3\n"], ids=["nan", "inf"])
def test_cli_check_rejects_non_finite_allocation(tmp_path, capsys, values):
    cfg = write_config(
        tmp_path,
        textwrap.dedent(
            """\
            problem:
              family: quadratic
              m: 3
              demand: 3.0
              params:
                a: [1.0, 2.0, 4.0]
            network:
              kind: cycle
              m: 3
            """
        ),
    )
    state = tmp_path / "state.txt"
    state.write_text(values)
    assert main(["check", str(cfg), str(state)]) == 2
    captured = capsys.readouterr()
    assert "non-finite" in captured.err
    assert "second_order" not in captured.out


def test_cli_run_non_finite_start_is_input_error(tmp_path, capsys):
    text = QUADRATIC_YAML + "init:\n  kind: explicit\n  values: [.nan, 1.0]\n"
    cfg = write_config(tmp_path, text)
    assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_check_wrong_length(tmp_path, capsys):
    cfg = write_config(tmp_path, QUADRATIC_YAML)
    short = tmp_path / "short.txt"
    short.write_text("0.5\n")
    assert main(["check", str(cfg), str(short)]) == 2
    assert "expected 2" in capsys.readouterr().err


def test_cli_spectrum(tmp_path, capsys):
    graph_path = tmp_path / "p4.txt"
    write_edge_list(path_graph(4), graph_path)
    assert main(["spectrum", str(graph_path)]) == 0
    out = capsys.readouterr().out
    assert "nodes: 4" in out
    values = dict(
        line.split(": ") for line in out.splitlines() if ": " in line
    )
    assert float(values["lambda_min_plus"]) == pytest.approx(2.0 - np.sqrt(2.0))
    assert float(values["lambda_max"]) == pytest.approx(2.0 + np.sqrt(2.0))


def test_cli_spectrum_disconnected(tmp_path, capsys):
    graph_path = tmp_path / "split.txt"
    graph_path.write_text("4\n0 1\n2 3\n")
    assert main(["spectrum", str(graph_path)]) == 1
    out = capsys.readouterr().out
    assert "components: 2" in out
    assert "disconnected" in out


def test_cli_spectrum_bad_file(tmp_path, capsys):
    missing = main(["spectrum", str(tmp_path / "none.txt")])
    assert missing == 2
    garbled = tmp_path / "garbled.txt"
    garbled.write_text("not numbers\n")
    assert main(["spectrum", str(garbled)]) == 2


def test_cli_params(tmp_path, capsys):
    cfg = write_config(tmp_path, SMART_GRID_YAML)
    assert main(["params", str(cfg), "--grad-tol", "0.1"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(": ") for line in out.splitlines())
    assert float(values["noise_variance"]) == 0.1**2 / (12 * 6 * 1)
    assert float(values["step_size_bound"]) > 0.0
    assert float(values["curvature_tolerance"]) > 0.0
    assert int(values["iteration_budget"]) >= 1


PORTFOLIO_PARAMS_YAML = textwrap.dedent(
    """\
    problem:
      family: portfolio
      m: 2
      n: 1
      demand: 1.0
      params:
        mu: [[0.1], [0.2]]
        cov: [[[1.0]], [[2.0]]]
        risk_weights: [1.0, 1.0]
        log_weights: [0.5, 0.5]
    network:
      kind: path
      m: 2
    """
)


SMART_GRID_PARAMS_YAML = QUADRATIC_YAML.replace("family: quadratic", "family: smart_grid").replace(
    "a: [1.0, 1.0]", "a: [2.0, 1.0]\n    b: [1.0, 1.0]"
)


@pytest.mark.parametrize(
    "text, good, bad",
    [
        (PORTFOLIO_PARAMS_YAML, "risk_weights: [1.0, 1.0]", "risk_weights: [1.0]"),
        (SMART_GRID_PARAMS_YAML, "a: [2.0, 1.0]", "a: [0.0, 1.0]"),
    ],
    ids=["portfolio_shapes", "smart_grid_a"],
)
def test_cli_params_names_bad_problem_params(tmp_path, capsys, text, good, bad):
    # the builders' own messages name no config field
    assert main(["params", str(write_config(tmp_path, text)), "--grad-tol", "0.1"]) == 0
    capsys.readouterr()
    cfg = write_config(tmp_path, text.replace(good, bad))
    assert main(["params", str(cfg), "--grad-tol", "0.1"]) == 2
    assert capsys.readouterr().err.startswith("error: problem.params: ")


def test_cli_compare(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = main(
        [
            "compare",
            "smart_grid",
            "--seeds",
            "2",
            "--max-iters",
            "400",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "lgd: escaped" in stdout
    assert "nlgd: escaped" in stdout
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "manifest.yaml",
        "summary.csv",
        "trace_lgd_seed0.csv",
        "trace_lgd_seed1.csv",
        "trace_nlgd_seed0.csv",
        "trace_nlgd_seed1.csv",
    ]


def test_cli_compare_deterministic(tmp_path):
    args = ["compare", "smart_grid", "--seeds", "1", "--max-iters", "300"]
    main(args + ["--out-dir", str(tmp_path / "a")])
    main(args + ["--out-dir", str(tmp_path / "b")])
    for name in ("trace_lgd_seed0.csv", "trace_nlgd_seed0.csv", "summary.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "smart_grid",
            "--sigmas",
            "0,0.05",
            "--seeds",
            "1",
            "--max-iters",
            "300",
            "--out-dir",
            str(out),
        ]
    )
    assert code == 0
    names = sorted(p.name for p in out.iterdir())
    assert "trace_nlgd_sigma_0_seed0.csv" in names
    assert "trace_nlgd_sigma_0.05_seed0.csv" in names
    # zero noise runs the noiseless path bitwise
    assert (out / "trace_nlgd_sigma_0_seed0.csv").read_bytes() == (
        out / "trace_lgd_seed0.csv"
    ).read_bytes()


def test_cli_sweep_needs_sigmas(tmp_path, capsys):
    assert main(["sweep", "smart_grid", "--sigmas", ",", "--seeds", "1"]) == 2
    assert "at least one" in capsys.readouterr().err


def test_cli_sweep_rejects_repeated_sigmas(tmp_path, capsys):
    argv = ["sweep", "smart_grid", "--sigmas", "0.1,0.10", "--seeds", "1", "--out-dir", str(tmp_path)]
    assert main(argv) == 2
    assert "'nlgd_sigma_0.1'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv, scenario_seed, batch_of",
    [
        (
            ["compare", "portfolio", "--seeds", "2", "--scenario-seed", "3"],
            3,
            lambda sc: run_batch(sc, range(2), sc.configs),
        ),
        (
            ["sweep", "smart_grid", "--sigmas", "0.05,0.2", "--seeds", "2"],
            0,
            lambda sc: sweep_sigma(sc, [0.05, 0.2], range(2)),
        ),
    ],
)
def test_cli_batch_writes_what_the_library_exports(tmp_path, capsys, argv, scenario_seed, batch_of):
    # the CLI adds nothing to the export: the same scenario, seeds and
    # budget give the same bytes as export_traces of the library call
    assert main(argv + ["--max-iters", "300", "--out-dir", str(tmp_path / "cli")]) == 0
    capsys.readouterr()
    sc = SCENARIO_BUILDERS[argv[1]](scenario_seed)
    sc = replace(sc, configs={k: replace(c, max_iters=300) for k, c in sc.configs.items()})
    written = export_traces(batch_of(sc), tmp_path / "lib")
    names = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert names == sorted(p.name for p in written)
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_cli_help_and_bad_subcommand(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    with pytest.raises(SystemExit) as exit_info:
        main(["frobnicate"])
    assert exit_info.value.code == 2
    capsys.readouterr()
