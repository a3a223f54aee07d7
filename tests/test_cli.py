"""Command line: scenario loading, runners, exit codes, output files."""
import csv
import json
import subprocess
import sys

import numpy as np
import pytest

from lqmarket import ConfigError, solve_riccati
from lqmarket.cli import EXPERIMENTS, load_scenario, main
from lqmarket.output import format_cell, write_csv, write_manifest
from conftest import SCENARIO_DIR, make_ref_market


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -------------------------------------------------------------- formatting


def test_format_cell_round_trips_floats():
    for x in (np.pi, 1.0 / 3.0, 1e-300, -0.0, 17701.234567890123, 5e-324):
        assert float(format_cell(x)) == x
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(7) == "7"
    assert format_cell(np.int64(-3)) == "-3"
    assert format_cell("gain") == "gain"


def test_write_csv_atomic_with_header(tmp_path):
    target = tmp_path / "deep" / "table.csv"
    out = write_csv(target, ("a", "b"), [(1, 2.5), (None, "x")])
    assert out == target
    header, rows = read_csv(target)
    assert header == ["a", "b"]
    assert rows == [["1", "2.5"], ["", "x"]]
    assert not list(tmp_path.glob("**/*.tmp-*"))


def test_write_manifest_round_trips(tmp_path):
    path = write_manifest(tmp_path / "run.manifest.json", {"b": 1, "a": [1, 2]})
    payload = json.loads(path.read_text())
    assert payload == {"a": [1, 2], "b": 1}


# ---------------------------------------------------------------- loading


def test_load_shipped_scenario_defaults():
    config = load_scenario(SCENARIO_DIR / "riccati_base.yaml")
    assert config["experiment"] == "riccati"
    assert config["name"] == "riccati_base"
    assert config["params"] == {"tol": 1e-10}
    assert config["_scenario_path"].endswith("riccati_base.yaml")


def test_load_scenario_applies_overrides_and_seed():
    config = load_scenario(
        SCENARIO_DIR / "simulate_base.yaml",
        overrides=("system.r=0.5", "sim.n_paths=17", "extra.flag=true"),
        seed=42,
    )
    assert config["system"]["r"] == 0.5
    assert config["sim"]["n_paths"] == 17
    assert config["sim"]["seed"] == 42
    assert config["extra"] == {"flag": True}


def test_load_scenario_rejects_bad_overrides():
    path = SCENARIO_DIR / "riccati_base.yaml"
    with pytest.raises(ConfigError):
        load_scenario(path, overrides=("no-equals-sign",))
    with pytest.raises(ConfigError):
        load_scenario(path, overrides=("=5",))
    with pytest.raises(ConfigError):
        load_scenario(path, overrides=("experiment.inner=1",))


def test_load_scenario_error_cases(tmp_path):
    with pytest.raises(ConfigError):
        load_scenario(tmp_path / "missing.yaml")
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(ConfigError):
        load_scenario(empty)
    broken = tmp_path / "broken.yaml"
    broken.write_text("experiment: [unclosed\n")
    with pytest.raises(ConfigError):
        load_scenario(broken)
    no_exp = tmp_path / "noexp.yaml"
    no_exp.write_text("system: {}\n")
    with pytest.raises(ConfigError):
        load_scenario(no_exp)
    unknown = tmp_path / "unknown.yaml"
    unknown.write_text("experiment: teleport\n")
    with pytest.raises(ConfigError):
        load_scenario(unknown)
    incomplete = tmp_path / "incomplete.yaml"
    incomplete.write_text("experiment: simulate\nsystem: {}\nparams: {}\n")
    with pytest.raises(ConfigError):
        load_scenario(incomplete)


# --------------------------------------------------------------- registry


def test_registry_lists_eight_experiments_with_shipped_files():
    assert len(EXPERIMENTS) == 8
    for name, exp in EXPERIMENTS.items():
        shipped = SCENARIO_DIR / f"{exp.shipped}.yaml"
        assert shipped.exists(), f"missing shipped scenario for {name}"
        config = load_scenario(shipped)
        assert config["experiment"] == name


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for name, exp in EXPERIMENTS.items():
        assert name in out
        assert f"scenarios/{exp.shipped}.yaml" in out
    assert out.count("columns:") == 8


# -------------------------------------------------------------- exit codes


def test_run_missing_scenario_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.yaml")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_empty_scenario_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    assert main(["run", str(empty)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_unknown_experiment_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("experiment: teleport\n")
    assert main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment" in err


def test_runner_config_error_exits_2(tmp_path, capsys):
    # passes loading (sections present) but the runner rejects the params
    bad = tmp_path / "bad_params.yaml"
    bad.write_text(
        """\
experiment: simulate
system:
  A: [[0.5]]
  b: [1.0]
  noise: {covariance: [1.0]}
  Q: [[1.0]]
  r: 1.0
  gamma: 0.9
params:
  x0: [1.0]
  policy: 7
sim:
  seed: 1
  n_paths: 4
  horizon: 5
"""
    )
    assert main(["run", str(bad), "--out-dir", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    exploding = tmp_path / "exploding.yaml"
    exploding.write_text(
        """\
experiment: simulate
system:
  A: [[1.5]]
  b: [1.0]
  noise: {covariance: [1.0]}
  Q: [[1.0]]
  r: 1.0
  gamma: 0.9
params:
  x0: [1.0]
  policy: [0.0]
sim:
  seed: 2
  n_paths: 20
  horizon: 60
  state_bound: 1.0e3
"""
    )
    assert main(["run", str(exploding), "--out-dir", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


# ----------------------------------------------------------------- runners


def test_riccati_run_writes_solution_table(tmp_path, capsys):
    rc = main([
        "run", str(SCENARIO_DIR / "riccati_base.yaml"),
        "--out-dir", str(tmp_path),
    ])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()
    assert str(tmp_path / "riccati_base.csv") in printed
    assert str(tmp_path / "riccati_base.manifest.json") in printed

    header, rows = read_csv(tmp_path / "riccati_base.csv")
    assert ",".join(header) == EXPERIMENTS["riccati"].columns
    sol = solve_riccati(make_ref_market().system, tol=1e-10)
    cells = {(q, i, j): v for q, i, j, v in rows}
    for i in range(3):
        for j in range(3):
            assert float(cells[("K", str(i), str(j))]) == sol.K[i, j]
        assert float(cells[("gain", "0", str(i))]) == sol.gain.gain[i]
    assert cells[("controllable", "", "")] == "true"
    assert cells[("observable", "", "")] == "true"
    assert float(cells[("residual", "", "")]) <= 1e-8

    manifest = json.loads((tmp_path / "riccati_base.manifest.json").read_text())
    assert manifest["experiment"] == "riccati"
    assert manifest["outputs"] == [str(tmp_path / "riccati_base.csv")]
    assert "threads" not in manifest
    assert "wall_time_s" in manifest and "timestamp" in manifest


def test_simulate_run_with_path_dump(tmp_path):
    rc = main([
        "run", str(SCENARIO_DIR / "simulate_base.yaml"),
        "--out-dir", str(tmp_path),
        "--override", "sim.n_paths=3",
        "--override", "sim.horizon=5",
        "--override", "params.dump_paths=true",
        "--seed", "7",
    ])
    assert rc == 0
    header, rows = read_csv(tmp_path / "simulate_base.csv")
    assert ",".join(header) == EXPERIMENTS["simulate"].columns
    assert [row[0] for row in rows] == ["cost", "volatility", "efficiency"]
    assert all(row[3] == "3" and row[5] == "5" for row in rows)

    pheader, prows = read_csv(tmp_path / "simulate_base_paths.csv")
    assert pheader == ["path_id", "t", "x_0", "x_1", "x_2", "u"]
    assert len(prows) == 15
    assert prows[0][:2] == ["0", "0"]
    assert [float(v) for v in prows[0][2:5]] == [25.0, 25.0, 50.0]

    manifest = json.loads((tmp_path / "simulate_base.manifest.json").read_text())
    assert manifest["seed"] == 7
    assert len(manifest["outputs"]) == 2


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lqmarket.cli", "experiments"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "riccati" in proc.stdout
