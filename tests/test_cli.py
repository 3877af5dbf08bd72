import json
import os

import pytest

from maglab.cli import main
from maglab.errors import ConfigError
from maglab.scenarios import Scenario, emit_plotdata, load_scenario, run_scenario


def scenario_path(name):
    import maglab

    return os.path.join(os.path.dirname(maglab.__file__), "scenarios", name)


def test_unknown_top_key_rejected(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"surface": {"kind": "torus"}, "bogus": 1}')
    with pytest.raises(ConfigError):
        load_scenario(str(bad))


def test_unknown_stage_key_rejected():
    with pytest.raises(ConfigError):
        Scenario({"pipeline": [{"stage": "simulate", "mystery": 2}]})


def test_unknown_field_kind_rejected():
    with pytest.raises(ConfigError):
        Scenario({"field": {"kind": "octupole"}})


def test_negative_energy_rejected():
    with pytest.raises(ConfigError):
        Scenario({"energy": -1.0})


def test_cli_exit_code_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nope": true}')
    assert main(["run", "--config", str(bad)]) == 2


def _torus_config(tmp_path, **changes):
    cfg = json.loads(open(scenario_path("torus_geodesic.json")).read())
    cfg["out_dir"] = str(tmp_path / "o")
    cfg.update(changes)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_seed_without_x_is_config_error(tmp_path):
    path = _torus_config(tmp_path, seeds=[{"chart": 0, "y": 0.0, "vx": 1.0,
                                           "vy": 0.0}])
    assert main(["run", "--config", path]) == 2


def test_cli_nonnumeric_energy_is_config_error(tmp_path):
    path = _torus_config(tmp_path, energy="abc")
    assert main(["run", "--config", path]) == 2


def test_cli_missing_orbit_index_keeps_partial_reports(tmp_path):
    path = _torus_config(tmp_path, pipeline=[
        {"stage": "orbits", "tol": 1e-10},
        {"stage": "twist", "orbit_index": 5}])
    assert main(["run", "--config", path]) == 3
    assert os.listdir(tmp_path / "o") == ["orbits.json"]


@pytest.mark.parametrize("pipeline", [
    [{"stage": "orbits", "tol": "abc"}],
    [{"stage": "orbits"}, {"stage": "twist", "orbit_index": "a"}],
], ids=["tol", "orbit_index"])
def test_cli_nonnumeric_stage_parameter_is_config_error(tmp_path, pipeline):
    path = _torus_config(tmp_path, pipeline=pipeline)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()  # rejected before any stage ran


@pytest.mark.parametrize("changes", [
    {"seed": 2.7},
    {"seed": True},
    {"pipeline": [{"stage": "orbits"}, {"stage": "twist", "orbit_index": 1.5}]},
], ids=["seed_fraction", "seed_bool", "orbit_index_fraction"])
def test_cli_non_integer_int_key_is_config_error(tmp_path, changes):
    path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_unbracketed_critical_value_keeps_partial_reports(tmp_path):
    path = _torus_config(tmp_path, pipeline=[
        {"stage": "orbits", "tol": 1e-10},
        {"stage": "critical-value", "k_range": [0.1, 1.0], "restarts": 2,
         "maxiter": 50}])
    assert main(["run", "--config", path]) == 3
    assert os.listdir(tmp_path / "o") == ["orbits.json"]


def _franks_config(tmp_path, **stage_changes):
    cfg = json.loads(open(scenario_path("franks_verify.json")).read())
    cfg["out_dir"] = str(tmp_path / "o")
    cfg["seed"] = 1
    cfg["pipeline"][1].update({"cota_samples": 2, "targets": 1}, **stage_changes)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize("changes", [{"eps_c1": 1e-300}, {"eps0": 1e-7}],
                         ids=["no_delta1", "no_injective_tube"])
def test_cli_franks_ledger_failure_keeps_partial_reports(tmp_path, changes):
    path = _franks_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 3
    assert os.listdir(tmp_path / "o") == ["orbits.json"]


@pytest.mark.parametrize("changes", [{"eps0": 0}, {"eps_c1": -0.1}],
                         ids=["eps0_zero", "eps_c1_negative"])
def test_cli_nonpositive_franks_width_is_config_error(tmp_path, changes):
    path = _franks_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()


def test_cli_missing_stage(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"surface": {"kind": "torus"},
                               "pipeline": [{"stage": "simulate", "t_final": 0.1}],
                               "seeds": [{"chart": 0, "x": 0, "y": 0,
                                          "vx": 1, "vy": 0}],
                               "out_dir": str(tmp_path / "o")}))
    assert main(["critical-value", "--config", str(cfg)]) == 2


def test_run_torus_geodesic(tmp_path):
    sc = load_scenario(scenario_path("torus_geodesic.json"))
    code, reports = run_scenario(sc, out_dir=str(tmp_path / "out"))
    assert code == 0
    orbits = reports["orbits"]["orbits"]
    assert len(orbits) == 2
    for rec in orbits:
        M = rec["monodromy"]
        T = rec["period"]
        assert abs(M[0][0] - 1.0) <= 1e-9
        assert abs(M[0][1] - T) <= 1e-9
        assert abs(M[1][0]) <= 1e-9
        assert abs(M[1][1] - 1.0) <= 1e-9
    # classify stage adds torus rotation vectors
    assert reports["classify"]["orbits"][0]["rotation_vector"]["homology"] in (
        [1, 0], [0, 1])


def test_determinism_byte_identical(tmp_path):
    """Fixed seed: re-running a bundled scenario reproduces every byte."""
    sc = load_scenario(scenario_path("torus_geodesic.json"))
    run_scenario(sc, out_dir=str(tmp_path / "a"))
    sc2 = load_scenario(scenario_path("torus_geodesic.json"))
    run_scenario(sc2, out_dir=str(tmp_path / "b"))
    for name in os.listdir(tmp_path / "a"):
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb, name


def test_single_stage_subcommand(tmp_path):
    code = main(["orbits", "--config", scenario_path("torus_geodesic.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    files = set(os.listdir(tmp_path / "o"))
    assert "orbits.json" in files
    assert "classify.json" not in files


def test_emit_plotdata_headers(tmp_path):
    rep = {"samples": [[0.0, 1.0, 2.0, 3.0, 4.0, 0.5]]}
    path = emit_plotdata(rep, "trajectories", str(tmp_path / "t.csv"))
    header = open(path).readline().strip()
    assert header == "t,x,y,vx,vy,E"
    rep = {"manifold_points": [[0.0, 0.1, 0.2, "stable"]]}
    path = emit_plotdata(rep, "manifolds", str(tmp_path / "m.csv"))
    assert open(path).readline().strip() == "s,y,ydot,side"
    rep = {"rotation_samples": []}
    path = emit_plotdata(rep, "rotation", str(tmp_path / "r.csv"))
    assert open(path).readline().strip() == "r,rho"
    with pytest.raises(ConfigError):
        emit_plotdata({}, "unknown-kind", str(tmp_path / "x.csv"))


def test_empty_database_empty_csv(tmp_path):
    rep = {"rotation_samples": []}
    path = emit_plotdata(rep, "rotation", str(tmp_path / "r.csv"))
    lines = open(path).read().strip().splitlines()
    assert lines == ["r,rho"]


def test_disk_scenario_reports(tmp_path):
    sc = load_scenario(scenario_path("disk_example.json"))
    code, reports = run_scenario(sc, out_dir=str(tmp_path / "out"))
    assert code == 0
    recs = reports["orbits"]["orbits"]
    assert all(r["class"] == "parabolic" for r in recs)
    import math

    assert all(abs(r["period"] - 2 * math.pi) <= 1e-8 for r in recs)
    # trajectory CSV exists with constant energy column
    import csv

    rows = list(csv.reader(open(tmp_path / "out" / "trajectory_1.csv")))
    assert rows[0] == ["t", "x", "y", "vx", "vy", "E"]
    energies = [float(r[5]) for r in rows[1:]]
    assert max(abs(e - 0.5) for e in energies) <= 1e-9
