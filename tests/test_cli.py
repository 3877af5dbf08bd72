import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from maglab.chaos import detect_homoclinic, grow_manifold
from maglab.cli import build_parser, main
from maglab.dynamics import IntegratorOptions, flow
from maglab.errors import ConfigError, StiffnessError
from maglab.maps import StandardMap
from maglab.scenarios import (STAGE_TABLE, Scenario, emit_plotdata, load_scenario,
                              run_scenario)


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


def test_cli_nan_seed_exits_2_without_traceback(tmp_path):
    """A NaN seed position is a configuration error, not a crash in the
    surface's position wrap."""
    path = _torus_config(tmp_path, seeds=_seed(x=math.nan))
    assert '"x": NaN' in (tmp_path / "c.json").read_text()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-m", "maglab.cli", "run", "--config", path],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert "configuration error: seeds[0].x must be a finite number" in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o").exists()


def test_cli_negative_seed_flag_is_config_error(tmp_path, capsys):
    path = _torus_config(tmp_path)
    assert main(["run", "--config", path, "--seed", "-1"]) == 2
    assert "configuration error: --seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    {"seed": -1},
    {"pipeline": [{"stage": "orbits"}, {"stage": "twist", "orbit_index": 1.5}]},
], ids=["seed_fraction", "seed_bool", "seed_negative", "orbit_index_fraction"])
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


def test_step_budget_is_a_numerical_failure(tmp_path, monkeypatch, disk,
                                            minus_one_field, disk_circle_seed):
    """A flow that takes _MAX_STEPS steps raises, and a simulate stage exits 3
    rather than report a trajectory that ends short of t_final."""
    monkeypatch.setattr("maglab.integrate._MAX_STEPS", 5)
    with pytest.raises(StiffnessError):
        flow(disk, minus_one_field, disk_circle_seed, 10.0, IntegratorOptions())
    path = _torus_config(tmp_path, field={"kind": "sinusoidal"},
                         pipeline=[{"stage": "simulate", "t_final": 10.0}])
    assert main(["run", "--config", path]) == 3


def test_cli_non_integral_winding_keeps_partial_reports(tmp_path, caplog):
    """At tolerance 1e-3 an orbit's winding over its period comes out
    (1.000476, 0.999743): the classify stage fails as a numerical failure
    (exit 3, its error logged), not with a traceback."""
    path = _torus_config(
        tmp_path, field={"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        integrator={"rel_tol": 1e-3, "abs_tol": 1e-3},
        seeds=[{"chart": 0, "x": 0.01, "y": 0.3, "vx": 0.0, "vy": 1.0},
               {"chart": 0, "x": 0.3, "y": 0.3, "vx": 0.6, "vy": 0.8}],
        pipeline=[{"stage": "orbits", "tol": 1e-10},
                  {"stage": "classify", "rotation_vectors": True}])
    assert main(["run", "--config", path]) == 3
    assert os.listdir(tmp_path / "o") == ["orbits.json"]
    assert "stage classify failed: winding not integral" in caplog.text


@pytest.mark.parametrize("twist", [
    {"stage": "twist", "fd_scale": 0.002, "radii": [0.5, 0.9], "n_iter": 20},
    {"stage": "twist", "fd_scale": 0.4, "radii": [0.005, 0.01], "n_iter": 20},
], ids=["fit_radius", "jet_stencil"])
def test_cli_point_off_the_energy_circle_keeps_partial_reports(tmp_path, caplog, twist):
    """A twist stage whose fit radii or jet stencil reach past the energy
    circle of sphere_twist's section (R = -1.0058 in the fit, R = -0.8 in
    the stencil) fails as a numerical failure (exit 3, its error logged),
    not with a traceback."""
    cfg = json.loads(open(scenario_path("sphere_twist.json")).read())
    cfg["out_dir"] = str(tmp_path / "o")
    cfg["pipeline"][1] = twist
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path)]) == 3
    assert os.listdir(tmp_path / "o") == ["orbits.json"]
    assert "stage twist failed: R=" in caplog.text
    assert "exceeds the energy circle" in caplog.text


@pytest.mark.parametrize("name, stage, changes, message", [
    # the fixed point (0, 0) of the standard map at K = -1.5 has trace 0.5
    ("standard_map_entropy.json", 0, {"map": {"kind": "standard", "K": -1.5}},
     "stage entropy failed: fixed point is not hyperbolic (trace 0.500000)"),
    ("sphere_twist.json", 1, {"fd_scale": 1e-9},
     "stage twist failed: fixed-point residual 6.197e-12 too large for "
     "stencil scale 1.000e-09"),
], ids=["elliptic_standard_map_point", "jet_stencil_below_residual"])
def test_cli_fixed_point_failure_exits_3_without_traceback(tmp_path, name, stage,
                                                           changes, message):
    """A fixed point that is not hyperbolic where a branch is grown, or not
    fixed to well below the jet's stencil scale, fails its stage (exit 3,
    partial reports kept), not the run with a traceback."""
    cfg = json.loads(open(scenario_path(name)).read())
    cfg["out_dir"] = str(tmp_path / "o")
    cfg["pipeline"][stage].update(changes)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    out = subprocess.run([sys.executable, "-m", "maglab.cli", "run", "--config", str(path)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True)
    assert out.returncode == 3
    assert message in out.stderr
    assert "Traceback" not in out.stderr
    assert sorted(os.listdir(tmp_path / "o")) == (["orbits.json"] if stage else [])


def test_twist_returns_as_the_orbit_search_did(tmp_path):
    """An elliptic orbit of period 60 (the torus under sin 2 pi x at speed
    1/60), found by an orbits stage with max_time 100: the twist stage's
    return map flows as far as the search did, so it returns past the
    library's former 50 time units and fits the orbit."""
    cfg = {
        "surface": {"kind": "torus"},
        "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        "energy": 1.0 / 7200.0,
        "seeds": [{"chart": 0, "x": 0.5, "y": 0.0, "vx": 0.0, "vy": -1.0}],
        "pipeline": [{"stage": "orbits", "max_time": 100.0},
                     {"stage": "twist", "radii": [0.004, 0.008], "n_iter": 5}],
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    orbits = json.loads((tmp_path / "o" / "orbits.json").read_text())["orbits"]
    assert [o["class"] for o in orbits] == ["elliptic"]
    assert orbits[0]["period"] == pytest.approx(60.0)
    twist = json.loads((tmp_path / "o" / "twist.json").read_text())
    assert [o["period"] for o in twist["orbits"]] == [orbits[0]["period"]]


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
                   "fixed_points": [[0, 0], [5, 7], [1, 0]]}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                   "branch_signs": [1, -1, 1]}]},
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
    {"surface": {"kind": "sphere"},
     "pipeline": [{"stage": "orbits"}, {"stage": "critical-value"}]},
    {"pipeline": [{"stage": "simulate", "seeds": [0, 0]}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "twist", "orbit_index": None}]},
    {"pipeline": [{"stage": "orbits"}, {"stage": "entropy", "map": None}]},
    {"pipeline": [{"stage": "orbits"},
                  {"stage": "entropy", "map": {"kind": "standard"},
                   "orbit_index": 0}]},
    {"pipeline": [{"stage": "entropy", "map": {"kind": "horseshoe"},
                   "orbit_index": 3, "arclength": 9.0, "k_max": 7}]},
    *({"pipeline": [{"stage": "entropy", "map": {"kind": "horseshoe"}, key: value}]}
      for key, value in (("arclength", 2.5), ("tol", 1e-4), ("angle_tol", 1e-3),
                         ("k_max", 20), ("fixed_points", [[0.0, 0.0], [1.0, 0.0]]),
                         ("branch_signs", [1, 1]))),
], ids=["seeds_past_end", "seeds_string", "seeds_not_list", "seeds_negative",
        "variational_string", "rotation_vectors_string", "k_range_short",
        "radii_not_list", "fixed_point_short", "branch_sign_two",
        "fixed_points_three", "branch_signs_three",
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
        "rotation_vectors_off_torus", "critical_value_off_torus",
        "seeds_repeated", "orbit_index_null",
        "entropy_map_null", "map_with_orbit_index", "horseshoe_with_three_keys",
        "horseshoe_arclength", "horseshoe_tol", "horseshoe_angle_tol",
        "horseshoe_k_max", "horseshoe_fixed_points", "horseshoe_branch_signs"])
def test_cli_malformed_structured_key_is_config_error(tmp_path, changes):
    if "franks-verify" in changes:  # a change to the franks_verify.json stage
        path = _franks_config(tmp_path, **changes["franks-verify"])
    else:
        path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert not (tmp_path / "o").exists()  # rejected before any stage ran


def _seed(**changes):
    return [{"chart": 0, "x": 0.0, "y": 0.0, "vx": 1.0, "vy": 0.0, **changes}]


@pytest.mark.parametrize("changes, message", [
    ({"seeds": _seed(x=math.nan)}, "seeds[0].x"),
    ({"seeds": _seed(x=math.inf)}, "seeds[0].x"),
    ({"seeds": _seed(vx=math.nan)}, "seeds[0].vx"),
    ({"energy": math.inf}, "energy"),
    ({"pipeline": [{"stage": "simulate", "t_final": math.inf}]},
     "pipeline[0] (simulate).t_final"),
    ({"field": {"kind": "sinusoidal", "amplitude": math.nan}}, "field.amplitude"),
    ({"field": {"kind": "sinusoidal", "k": [10**400, 0]}}, "field.k[0]"),
    ({"integrator": {"rel_tol": math.inf}}, "integrator.rel_tol"),
    ({"integrator": {"max_step": math.inf}}, "integrator.max_step"),
    ({"pipeline": [{"stage": "critical-value",
                    "eta": {"kind": "constant", "a": [math.nan, 0.0]}}]}, "eta.a[0]"),
    ({"pipeline": [{"stage": "entropy", "map": {"kind": "standard"},
                    "fixed_points": [[math.nan, 0.0]]}]},
     "pipeline[0] (entropy).fixed_points[0][0]"),
], ids=["seed_x_nan", "seed_x_inf", "seed_vx_nan", "energy_inf", "t_final_inf",
        "amplitude_nan", "k_401_digits", "rel_tol_inf", "max_step_inf", "eta_a_nan",
        "fixed_point_nan"])
def test_cli_non_finite_number_is_config_error(tmp_path, capsys, changes, message):
    """Every config number must convert to a finite float: NaN, the
    infinities and integers beyond the float range are rejected at load."""
    path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert f"configuration error: {message} must be a finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("changes, message", [
    ({"energy": "0.5"}, "energy"),
    ({"seed": "3"}, "seed"),
    ({"field": {"kind": "sinusoidal", "amplitude": " 1e0 "}}, "field.amplitude"),
    ({"pipeline": [{"stage": "orbits", "tol": "1e-9"}]}, "pipeline[0] (orbits).tol"),
], ids=["energy", "seed", "amplitude", "tol"])
def test_cli_numeric_string_is_config_error(tmp_path, capsys, changes, message):
    """A config number written as a JSON string is rejected at load, even
    when the string holds a number."""
    path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert f"configuration error: {message} must be a finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _key_paths(node, path=()):
    """The key path (keys and list indices) of every value in a config."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return []
    out = []
    for key, value in items:
        out += [path + (key,)] + _key_paths(value, path + (key,))
    return out


def _bundled_configs():
    """The text of each bundled scenario config, by file name."""
    out = {}
    for name in sorted(os.listdir(os.path.dirname(scenario_path("franks_verify.json")))):
        with open(scenario_path(name)) as fh:
            out[name] = fh.read()
    return out


_BUNDLED = _bundled_configs()
_FUZZ_PATHS = [(name, p) for name, text in _BUNDLED.items()
               for p in _key_paths(json.loads(text))]
_FUZZ_VALUES = [math.nan, math.inf, -math.inf, 10**400, 0, -1, "x", None, [1], {},
                True]


@given(st.sampled_from(_FUZZ_PATHS), st.sampled_from(_FUZZ_VALUES))
@example(("torus_geodesic.json", ("seeds", 0, "x")), math.nan)
def test_config_with_one_value_replaced_loads_or_is_config_error(target, value):
    """A bundled scenario with the value at one key path replaced either
    loads or raises ConfigError, never another exception."""
    name, path = target
    cfg = json.loads(_BUNDLED[name])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    try:
        Scenario(cfg)
    except ConfigError:
        pass


@pytest.mark.parametrize("changes, message", [
    ({"seeds": [{"chart": 0, "x": 0.2, "y": 0.3, "vx": 0.0, "vy": 0.0}]},
     "seeds[0]: zero velocity"),
    ({"seeds": [{"chart": -1, "x": 0.2, "y": 0.3, "vx": 1.0, "vy": 0.0}]},
     "seeds[0]: no chart -1 on torus"),
    ({"surface": {"kind": "sphere"},
      "seeds": [{"chart": 3, "x": 0.2, "y": 0.3, "vx": 1.0, "vy": 0.0}]},
     "seeds[0]: no chart 3 on sphere"),
    ({"surface": {"kind": "planar"},
      "seeds": [{"chart": 0, "x": 5.0, "y": 0.0, "vx": 0.0, "vy": 1.0}]},
     "seeds[0]: point (5, 0) outside domain of chart 0 of planar"),
], ids=["zero_velocity", "torus_chart_negative", "sphere_chart_three",
        "disk_outside"])
def test_cli_seed_off_the_surface_is_config_error(tmp_path, capsys, changes, message):
    """A seed is checked against the surface at load: its chart, its
    position in that chart and its velocity."""
    path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, eta", [
    ({"kind": "sinusoidal"}, None),
    ({"kind": "constant", "value": 0.0}, {"kind": "sin_primitive"}),
    ({"kind": "sinusoidal", "amplitude": 2.0}, {"kind": "sin_primitive"}),
    ({"kind": "sinusoidal", "phase": 0.5}, {"kind": "sin_primitive"}),
], ids=["default_eta", "zero_field", "amplitude", "phase"])
def test_cli_eta_must_induce_the_field(tmp_path, capsys, field, eta):
    """The critical-value stage's eta must induce the scenario's field on
    the torus (d eta = f); a mismatch names both kinds."""
    stage = {"stage": "critical-value"}
    if eta is not None:
        stage["eta"] = eta
    path = _torus_config(tmp_path, field=field, pipeline=[stage])
    assert main(["run", "--config", path]) == 2
    err = capsys.readouterr().err
    eta_kind = (eta or {"kind": "constant"})["kind"]
    assert (f"eta of kind {eta_kind!r} does not induce the field of kind "
            f"{field['kind']!r}") in err
    assert not (tmp_path / "o").exists()


def test_eta_inducing_the_field_loads():
    pipeline = [{"stage": "critical-value",
                 "eta": {"kind": "sin_primitive", "amplitude": 2.0, "k": [1, 2]}}]
    Scenario({"field": {"kind": "sinusoidal", "amplitude": 2.0, "k": [1, 2]},
              "pipeline": pipeline})


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


@pytest.mark.parametrize("changes, keys", [
    ({"field": {"kind": "constant", "value": 0.0, "amplitude": 5.0,
                "coeffs": [[1.0]]}}, ["amplitude", "coeffs"]),
    ({"field": {"kind": "zonal", "phase": 3.0}}, ["phase"]),
    ({"pipeline": [{"stage": "critical-value", "eta": {
        "kind": "constant", "a": [0.1, 0.0], "amplitude": 4.0, "k": [3, 3]}}]},
     ["amplitude", "k"]),
    ({"pipeline": [{"stage": "entropy", "map": {"kind": "horseshoe", "K": 7.0}}]},
     ["K"]),
], ids=["field_constant", "field_zonal", "eta", "map"])
def test_cli_key_of_another_kind_is_config_error(tmp_path, capsys, changes, keys):
    """A key that only another kind of field, eta or map reads is unused."""
    path = _torus_config(tmp_path, **changes)
    assert main(["run", "--config", path]) == 2
    assert f"unknown key(s) {keys}" in capsys.readouterr().err
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


def test_subcommands_are_the_stage_kinds_plus_run():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == [*STAGE_TABLE, "run"]


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(scenario_path(""))
                                  if n.endswith(".json")))
def test_pipeline_entries_carry_every_declared_key(name):
    for st in load_scenario(scenario_path(name)).pipeline:
        assert set(st) == {"stage", *STAGE_TABLE[st["stage"]].keys}


# per stage kind: (bundled scenario, pipeline whose last stage is that kind,
# integrator settings); the loose tolerances keep the default twist fit short
_DEFAULTS_CASES = {
    "simulate": ("torus_geodesic.json", [{"stage": "simulate"}], None),
    "orbits": ("torus_hyperbolic.json", [{"stage": "orbits"}], None),
    "classify": ("torus_hyperbolic.json",
                 [{"stage": "orbits"}, {"stage": "classify"}], None),
    "twist": ("torus_hyperbolic.json", [{"stage": "orbits"}, {"stage": "twist"}],
              {"rel_tol": 1e-8, "abs_tol": 1e-10}),
    "franks-verify": ("franks_verify.json",
                      [{"stage": "orbits"}, {"stage": "franks-verify"}], None),
    "entropy": ("standard_map_entropy.json",
                [{"stage": "entropy", "map": {"kind": "standard"}}], None),
    "critical-value": ("critical_value.json", [{"stage": "critical-value"}], None),
}


@pytest.mark.parametrize("kind", list(STAGE_TABLE))
def test_spelled_out_defaults_write_the_same_reports(tmp_path, kind):
    """A stage that spells out every declared default other than None writes
    the bytes of one that leaves them out."""
    name, pipeline, integrator = _DEFAULTS_CASES[kind]
    cfg = json.loads(open(scenario_path(name)).read())
    if integrator is not None:
        cfg["integrator"] = integrator
    outs = []
    for spelled in (False, True):
        cfg["pipeline"] = [dict(st) for st in pipeline]
        if spelled:
            cfg["pipeline"][-1].update(
                {k: v for k, v in STAGE_TABLE[kind].keys.items() if v is not None})
        out = tmp_path / f"spelled_{spelled}"
        code, _ = run_scenario(Scenario(json.loads(json.dumps(cfg))), out_dir=str(out))
        assert code == 0
        outs.append({f: (out / f).read_bytes() for f in sorted(os.listdir(out))})
    assert outs[0] == outs[1]
    assert STAGE_TABLE[kind].report in outs[0]


def test_single_stage_subcommand(tmp_path):
    code = main(["orbits", "--config", scenario_path("torus_geodesic.json"),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    files = set(os.listdir(tmp_path / "o"))
    assert "orbits.json" in files
    assert "classify.json" not in files


def test_single_stage_with_injected_map_runs_no_orbits(tmp_path):
    """An entropy entry with a map needs no orbits stage, in a subcommand as
    at load: the orbits stage before it is not run."""
    cfg = json.loads(open(scenario_path("torus_hyperbolic.json")).read())
    cfg["pipeline"] = [{"stage": "orbits"},
                       {"stage": "entropy", "map": {"kind": "horseshoe"}}]
    code, reports = run_scenario(Scenario(cfg), only_stage="entropy",
                                 out_dir=str(tmp_path))
    assert code == 0
    assert list(reports) == ["entropy"]
    files = set(os.listdir(tmp_path))
    assert "entropy.json" in files
    assert "orbits.json" not in files


def _flow_entropy_config(seeds=((0.0, 0.0, 0.0, -1.0),), **entropy):
    """A torus under sin 2 pi x at energy 2, where the seed (0, 0, 0, -1)
    closes on a hyperbolic orbit of period 0.5, with an entropy stage on its
    section return map whose branches are too short to cross."""
    return {
        "surface": {"kind": "torus"},
        "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        "energy": 2.0,
        "seeds": [dict(zip(("x", "y", "vx", "vy"), s), chart=0) for s in seeds],
        "pipeline": [{"stage": "orbits", "tol": 1e-10},
                     {"stage": "entropy", "arclength": 0.3, "tol": 1e-3,
                      "k_max": 1, **entropy}],
    }


@pytest.mark.parametrize("cfg, status", [
    (json.loads(_BUNDLED["horseshoe_entropy.json"]), "certified"),
    (json.loads(_BUNDLED["standard_map_entropy.json"]), "certified"),
    (_flow_entropy_config(orbit_index=0), "no crossing"),
], ids=["horseshoe", "standard_map", "flow_no_crossing"])
def test_entropy_reports_have_one_shape(tmp_path, cfg, status):
    """Every entropy report has the same keys; T_ret is 1 on an injected map
    and the orbit's period on a flow, whatever the status."""
    code, reports = run_scenario(Scenario(cfg), out_dir=str(tmp_path))
    assert code == 0
    rep = reports["entropy"]
    assert set(rep) == {"stage", "intersections", "horseshoe", "h_top_lower",
                        "status", "manifold_points"}
    assert set(rep["horseshoe"]) == {"N", "k", "T_ret"}
    assert rep["status"] == status
    if "orbits" in reports:
        period = reports["orbits"]["orbits"][0]["period"]
        assert period == pytest.approx(0.5)
        assert rep["horseshoe"]["T_ret"] == period
    else:
        assert rep["horseshoe"]["T_ret"] == 1.0
    if cfg["pipeline"][0].get("map", {}).get("kind") == "standard":
        st = cfg["pipeline"][0]
        sm = StandardMap(st["map"]["K"])
        (p_u, p_s), (sign_u, sign_s) = st["fixed_points"], st["branch_signs"]
        wu = grow_manifold(sm, p_u, "unstable", sign_u, st["arclength"], tol=st["tol"])
        ws = grow_manifold(sm, p_s, "stable", sign_s, st["arclength"], tol=st["tol"])
        trans = [h for h in detect_homoclinic(ws, wu) if h.transversal(st["angle_tol"])]
        assert len(trans) >= 1
        assert rep["intersections"] == [{"point": list(h.point), "angle": h.angle}
                                        for h in trans]


def test_entropy_orbit_index_defaults_to_the_first_hyperbolic_orbit(tmp_path):
    """Of two orbits of period 0.5, orbit 0 is elliptic and orbit 1
    hyperbolic: without an orbit_index the entropy stage reads orbit 1 (the
    franks-verify rule), and an explicit orbit_index 0 still fails."""
    seeds = ((0.0, 0.0, 0.0, -1.0), (0.5, 0.0, 0.0, -1.0))
    outs = {}
    for name, entropy in (("default", {}), ("one", {"orbit_index": 1}),
                          ("zero", {"orbit_index": 0})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_flow_entropy_config(seeds, **entropy)))
        outs[name] = tmp_path / name
        code = main(["run", "--config", str(path), "--out", str(outs[name])])
        assert code == (3 if name == "zero" else 0), name
    classes = [o["class"] for o in
               json.loads((outs["default"] / "orbits.json").read_text())["orbits"]]
    assert classes == ["elliptic", "hyperbolic"]
    assert ((outs["default"] / "entropy.json").read_bytes()
            == (outs["one"] / "entropy.json").read_bytes())
    assert not (outs["zero"] / "entropy.json").exists()


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


def test_numpy_report_writes_the_bytes_of_its_python_twin(tmp_path):
    """A report holding numpy scalars and arrays writes the same bytes as the
    same report in plain Python values; any other object is a TypeError, as
    with json's own default."""
    from maglab.scenarios import _write_stage

    twins = {
        "numpy": {"f": np.float64(0.1), "i": np.int64(-3), "b": np.bool_(True),
                  "a": np.array([[1.5, -2.0], [1e-300, 0.1 + 0.2]]),
                  "n": [np.arange(2), (np.float64(2.5),)]},
        "python": {"f": 0.1, "i": -3, "b": True,
                   "a": [[1.5, -2.0], [1e-300, 0.1 + 0.2]],
                   "n": [[0, 1], [2.5]]},
    }
    for name, rep in twins.items():
        os.makedirs(tmp_path / name)
        _write_stage(str(tmp_path / name), "orbits", rep)
    assert ((tmp_path / "numpy" / "orbits.json").read_bytes()
            == (tmp_path / "python" / "orbits.json").read_bytes())
    with pytest.raises(TypeError, match="not JSON serializable"):
        _write_stage(str(tmp_path / "numpy"), "orbits", {"x": object()})


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
