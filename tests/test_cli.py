import json
import math
import os
import subprocess
import sys

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


@pytest.mark.parametrize("stage", [
    {"stage": "twist"},
    {"stage": "franks-verify", "cota_samples": 2, "targets": 1},
    {"stage": "entropy"},
], ids=["twist", "franks-verify", "entropy"])
def test_cli_no_orbit_found_keeps_partial_reports(tmp_path, stage):
    """An orbits stage that finds nothing fails the stage that needs an orbit."""
    path = _torus_config(tmp_path, pipeline=[
        {"stage": "orbits", "max_time": 0.01}, stage])
    assert main(["run", "--config", path]) == 3
    assert os.listdir(tmp_path / "o") == ["orbits.json"]
    orbits = json.loads((tmp_path / "o" / "orbits.json").read_text())
    assert orbits["orbits"] == [] and len(orbits["failures"]) == 2


@pytest.mark.parametrize("pipeline", [
    [{"stage": "classify"}],
    [{"stage": "critical-value", "restarts": 2, "maxiter": 50},
     {"stage": "classify"}],
    [{"stage": "twist", "orbit_index": 0}],
    [{"stage": "simulate", "t_final": 0.1}, {"stage": "franks-verify"}],
    [{"stage": "entropy"}, {"stage": "orbits"}],
], ids=["classify", "classify_after_critical_value", "twist",
        "franks_verify_after_simulate", "entropy_before_orbits"])
def test_cli_stage_without_orbits_stage_is_config_error(tmp_path, pipeline):
    path = _torus_config(tmp_path, pipeline=pipeline)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()  # rejected before any stage ran


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


@pytest.mark.parametrize("changes", [
    {"pipeline": [{"stage": "simulate", "seeds": [5]}]},
    {"pipeline": [{"stage": "simulate", "seeds": ["a"]}]},
    {"pipeline": [{"stage": "simulate", "seeds": 3}]},
    {"pipeline": [{"stage": "simulate", "seeds": [-1]}]},
    {"pipeline": [{"stage": "simulate", "variational": "no"}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "classify", "rotation_vectors": "no"}]},
    {"pipeline": [{"stage": "critical-value", "k_range": [1]}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "twist", "orbit_index": 0, "radii": 0.01}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "fixed_points": [[0]]}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "branch_signs": [2, 1]}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "rectangles": []}]},
    {"pipeline": [{"stage": "critical-value",
                   "eta": {"kind": "constant", "a": "x"}}]},
    {"field": {"kind": "constant", "value": "abc"}},
    {"field": {"kind": "sinusoidal", "k": [1]}},
    {"field": {"kind": "polynomial", "coeffs": 3}},
    {"surface": {"kind": "sphere", "params": {"radius": "x"}}},
    {"integrator": {"rel_tol": "x"}},
    {"pipeline": [{"stage": "orbits"}, {"stage": "twist", "n_iter": 0}]},
    {"pipeline": [{"stage": "orbits"}, {"stage": "twist", "fd_scale": -0.002}]},
    {"pipeline": [{"stage": "orbits"}, {"stage": "twist", "orbit_index": -1}]},
    {"pipeline": [{"stage": "simulate", "n_samples": 1}]},
    {"pipeline": [{"stage": "simulate", "t_final": 0}]},
    {"pipeline": [{"stage": "critical-value", "modes": 0}]},
    {"pipeline": [{"stage": "critical-value", "bisection_tol": 0}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "franks-verify", "segments": 0}]},
    {"pipeline": [{"stage": "orbits", "class_tol": -1}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "twist", "orbit_index": 0, "radii": [0.004]}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "twist", "orbit_index": 0, "radii": [0.004, 0.004]}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "k_max": 0}]},
    {"pipeline": [{"stage": "critical-value", "restarts": -1}]},
    {"pipeline": [{"stage": "critical-value", "maxiter": 0}]},
    {"pipeline": [{"stage": "critical-value", "maxiter": -3}]},
    {"pipeline": [{"stage": "orbits", "max_time": 0}]},
    {"pipeline": [{"stage": "orbits", "max_time": -50}]},
    {"pipeline": [{"stage": "orbits", "tol": -1}]},
    {"pipeline": [{"stage": "orbits", "half_width": -0.2}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "arclength": 0}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "angle_tol": -1e-3}]},
    {"franks-verify": {"cota_samples": 0}},
    {"franks-verify": {"targets": -3}},
    {"franks-verify": {"targets": 0}},
    {"franks-verify": {"targets": 12}},
    {"surface": {"kind": "sphere"},
     "pipeline": [{"stage": "orbits"},
                  {"stage": "classify", "rotation_vectors": True}]},
], ids=["seeds_past_end", "seeds_string", "seeds_not_list", "seeds_negative",
        "variational_string", "rotation_vectors_string", "k_range_short",
        "radii_not_list", "fixed_point_short", "branch_sign_two",
        "entropy_rectangles", "eta_a_string", "field_value_string",
        "field_k_short", "coeffs_not_list", "sphere_radius_string",
        "rel_tol_string", "n_iter_zero", "fd_scale_negative",
        "orbit_index_negative", "n_samples_one", "t_final_zero", "modes_zero",
        "bisection_tol_zero", "segments_zero", "class_tol_negative",
        "radii_single", "radii_repeated", "k_max_zero", "restarts_negative",
        "maxiter_zero", "maxiter_negative", "max_time_zero",
        "max_time_negative", "tol_negative", "half_width_negative",
        "arclength_zero", "angle_tol_negative", "cota_samples_zero",
        "targets_negative", "targets_zero", "targets_twelve",
        "rotation_vectors_off_torus"])
def test_cli_malformed_structured_key_is_config_error(tmp_path, changes):
    if "franks-verify" in changes:  # a change to the franks_verify.json stage
        path = _franks_config(tmp_path, **changes["franks-verify"])
    else:
        path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()  # rejected before any stage ran


@pytest.mark.parametrize("changes", [
    {"seeds": 3},
    {"pipeline": 3},
    {"surface": 3},
    {"integrator": 3},
    {"pipeline": [3]},
    {"pipeline": [{"stage": ["x"]}]},
    {"seeds": [3]},
    {"surface": {"kind": "sphere", "params": 3}},
    {"pipeline": [{"stage": "critical-value", "eta": 3}]},
    {"out_dir": 3},
    {"pipeline": [{"stage": "simulate"}, {"stage": "simulate"}]},
], ids=["seeds_not_list", "pipeline_not_list", "surface_not_object",
        "integrator_not_object", "stage_not_object", "stage_name_list",
        "seed_not_object", "surface_params_not_object", "eta_not_object",
        "out_dir_not_string", "repeated_stage"])
def test_cli_malformed_config_shape_is_config_error(tmp_path, changes):
    path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("entropy_map", [
    {"kind": "standard", "K": "x"},
    3,
    {"kind": "nope"},
    {"kind": "horseshoe", "stretch": 0},
], ids=["K_string", "map_not_object", "unknown_kind", "stretch_zero"])
def test_cli_bad_entropy_map_rejected_at_load(tmp_path, entropy_map):
    """The map is checked before the simulate stage in front of it runs."""
    path = _torus_config(tmp_path, pipeline=[
        {"stage": "simulate", "t_final": 0.1, "n_samples": 2},
        {"stage": "entropy", "map": entropy_map}])
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


def _run_torus_hyperbolic(tmp_path, name, seeds_reversed=False, pipeline=None):
    """Run the bundled torus_hyperbolic scenario without its simulate stage;
    returns the output directory."""
    cfg = json.loads(open(scenario_path("torus_hyperbolic.json")).read())
    if seeds_reversed:
        cfg["seeds"].reverse()
    cfg["pipeline"] = pipeline or cfg["pipeline"][1:]
    code, _ = run_scenario(Scenario(cfg), out_dir=str(tmp_path / name))
    assert code == 0
    return tmp_path / name


def test_orbit_order_is_independent_of_seed_order(tmp_path):
    """orbits.json and classify.json list the orbits by (period, trace)
    whatever order the seeds that found them came in."""
    a = _run_torus_hyperbolic(tmp_path, "a")
    b = _run_torus_hyperbolic(tmp_path, "b", seeds_reversed=True)
    for name in ("orbits.json", "classify.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    recs = json.loads((a / "orbits.json").read_text())["orbits"]
    keys = [(r["period"], r["trace"]) for r in recs]
    assert keys == sorted(keys) and len(keys) == 2


@pytest.mark.parametrize("seeds_reversed", [False, True], ids=["seed_order", "reversed"])
def test_classify_entries_describe_their_own_orbits(tmp_path, seeds_reversed):
    out = _run_torus_hyperbolic(tmp_path, "o", seeds_reversed)
    recs = json.loads((out / "orbits.json").read_text())["orbits"]
    entries = json.loads((out / "classify.json").read_text())["orbits"]
    assert sorted(r["class"] for r in recs) == ["elliptic", "hyperbolic"]
    assert len(entries) == len(recs)
    for rec, e in zip(recs, entries):
        assert (e["period"], e["trace"], e["class"]) == (
            rec["period"], rec["trace"], rec["class"])
        assert ("eigenvalues" in e) == (e["class"] == "hyperbolic")
        if "eigenvalues" in e:
            assert sum(e["eigenvalues"]) == pytest.approx(e["trace"], rel=1e-12)
        assert ("alpha_label" in e) == (e["class"] == "elliptic")
        if "alpha_label" in e:
            assert 2.0 * math.cos(2.0 * math.pi * e["alpha_label"]) == \
                pytest.approx(e["trace"], rel=1e-12)
        # the orbits run vertically: the winding follows the initial vy
        hom = e["rotation_vector"]["homology"]
        assert hom[0] == 0
        assert math.copysign(1, hom[1]) == math.copysign(1, rec["initial_state"]["vy"])


def test_twist_annotates_only_the_orbit_it_fitted(tmp_path):
    """Both torus_hyperbolic orbits have period 1; only the fitted one
    carries the twist data."""
    recs = json.loads((_run_torus_hyperbolic(tmp_path, "a") / "orbits.json")
                      .read_text())["orbits"]
    idx = [r["class"] for r in recs].index("elliptic")
    out = _run_torus_hyperbolic(tmp_path, "b", pipeline=[
        {"stage": "orbits", "tol": 1e-10},
        {"stage": "twist", "orbit_index": idx, "radii": [0.004, 0.008],
         "n_iter": 5}])
    recs = json.loads((out / "orbits.json").read_text())["orbits"]
    twist = json.loads((out / "twist.json").read_text())["orbits"]
    assert [i for i, r in enumerate(recs) if "twist" in r] == [idx]
    assert recs[idx]["twist"] == twist[0]["jet"]


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


def test_cli_import_leaves_scipy_optimize_out():
    """scipy.optimize costs about half a second of start-up, and maglab
    imports no scipy at all."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import maglab.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_critical_value_scenario_imports_no_scipy(tmp_path):
    """The Mane search runs on the in-repo Nelder-Mead: a whole bundled
    critical-value run, in a fresh interpreter, loads no scipy module."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys\n"
            "from maglab.scenarios import load_scenario, run_scenario\n"
            f"sc = load_scenario({scenario_path('critical_value.json')!r})\n"
            f"code, reports = run_scenario(sc, out_dir={str(tmp_path / 'out')!r})\n"
            "assert code == 0 and 'critical-value' in reports, code\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
    assert os.listdir(tmp_path / "out") == ["critical_value.json"]
