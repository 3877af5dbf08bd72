"""Scenario configuration, validation and pipeline stages.

A scenario is a JSON document selecting a surface, a field, an energy level
and an ordered list of pipeline stages with per-stage parameters.  One table,
`STAGE_TABLE`, gives each stage kind its function, report file, prerequisite
stages, keys with their defaults and CSV plot data.  The loader checks and
converts the keys a config gives, builds `eta` and `map` into their objects
and fills in the defaults, so every pipeline entry carries every key of its
kind.  Unknown keys anywhere, an explicit null and a key the stage would
leave unused are rejected (reproducibility beats convenience); all stage
reports are plain dicts serialized with sorted keys so a fixed seed yields
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import namedtuple
from dataclasses import asdict

import numpy as np

from .errors import ChartDomainError, ConfigError, MaglabError
from .geometry import PhasePoint, flat_torus, planar_chart, sphere
from .field import (
    ConstantField,
    MagneticField,
    PolynomialField,
    SinusoidalTorusField,
    ZonalSphereField,
)
from .dynamics import IntegratorOptions, flow, flow_with_variation, injectivity_time
from .orbits import find_closed_orbit, phase_distance, rescale_to_energy
from .normalform import birkhoff_beta, jet3, twist_by_rotation_number
from .franks import (
    build_franks_kit,
    compute_constants,
    segment_split,
    verify_ball_surjectivity,
    verify_cota,
)
from .chaos import (EntropyReport, Rectangle, certify_horseshoe, crossing_boxes,
                    detect_homoclinic, grow_manifold)
from .maps import HorseshoeMap, StandardMap
from .mane import (
    ConstantForm,
    LagrangianSpec,
    SinPrimitiveForm,
    estimate_critical_value,
    rotation_vector,
)

__all__ = ["load_scenario", "run_scenario", "Scenario", "emit_plotdata",
           "STAGE_TABLE"]


def _check_keys(obj, allowed, where):
    """obj must be a JSON object whose keys all lie in `allowed`."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _list(value, where):
    """value, which must be a list (a JSON array)."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {value!r}")
    return value


def _number(value, where, kind=float):
    """value converted by kind (float or int); a boolean, a string (even one
    that holds a number), a non-number, a value that does not convert to a
    finite float (NaN, an infinity, an integer beyond the float range) and,
    for int, a non-integral float are ConfigErrors."""
    if not (isinstance(value, (bool, str)) or (
            kind is int and isinstance(value, float) and not value.is_integer())):
        try:
            out = kind(value)
            if math.isfinite(float(out)):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    raise ConfigError(f"{where} must be a finite "
                      f"{'integer' if kind is int else 'number'}, got {value!r}")


def _positive(value, where):
    """value as a float; a non-number or a number <= 0 is a ConfigError."""
    out = _number(value, where)
    if not out > 0:
        raise ConfigError(f"{where} must be positive, got {value!r}")
    return out


def _numbers(value, where, kind=float, sizes=None):
    """value, a nonempty list, with each entry converted by kind (float, int,
    or a (kind, sizes) pair for a list of lists); a non-list, a length
    outside `sizes` or a bad entry is a ConfigError."""
    if not isinstance(value, (list, tuple)) or not value or (
            sizes is not None and len(value) not in sizes):
        want = " or ".join(map(str, sizes)) if sizes else "one or more"
        raise ConfigError(f"{where} must be a list of {want} entries, got {value!r}")
    if isinstance(kind, tuple):
        return [_numbers(v, f"{where}[{i}]", *kind) for i, v in enumerate(value)]
    return [_number(v, f"{where}[{i}]", kind) for i, v in enumerate(value)]


def _build_surface(cfg):
    _check_keys(cfg, {"kind", "params"}, "surface")
    kind = cfg.get("kind")
    params = cfg.get("params", {})
    if kind == "torus":
        _check_keys(params, set(), "surface.params")
        return flat_torus()
    if kind == "sphere":
        _check_keys(params, {"radius"}, "surface.params")
        return sphere(_positive(params.get("radius", 1.0), "surface.params.radius"))
    if kind == "planar":
        _check_keys(params, {"radius", "injectivity_radius"}, "surface.params")
        return planar_chart(
            _positive(params.get("radius", 3.0), "surface.params.radius"),
            _positive(params.get("injectivity_radius", math.pi),
                      "surface.params.injectivity_radius"))
    raise ConfigError(f"unknown surface kind {kind!r}")


def _kind(cfg, keys, where):
    """cfg["kind"], once cfg is an object whose kind is a key of `keys` and
    whose other keys are ones that kind reads (`keys[kind]`)."""
    _check_keys(cfg, {"kind"}.union(*keys.values()), where)
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in keys:
        raise ConfigError(f"unknown {where} kind {kind!r}")
    _check_keys(cfg, {"kind", *keys[kind]}, where)
    return kind


def _build_field(cfg):
    kind = _kind(cfg, {"constant": ("value",), "sinusoidal": ("amplitude", "k", "phase"),
                       "zonal": ("amplitude",), "polynomial": ("coeffs",)}, "field")
    if kind == "constant":
        return MagneticField(ConstantField(_number(cfg.get("value", 0.0), "field.value")))
    if kind == "sinusoidal":
        return MagneticField(SinusoidalTorusField(
            _number(cfg.get("amplitude", 1.0), "field.amplitude"),
            _numbers(cfg.get("k", (1, 0)), "field.k", int, (2,)),
            _number(cfg.get("phase", 0.0), "field.phase")))
    if kind == "zonal":
        return MagneticField(ZonalSphereField(
            _number(cfg.get("amplitude", 1.0), "field.amplitude")))
    return MagneticField(PolynomialField(
        _numbers(cfg.get("coeffs", [[0.0]]), "field.coeffs", (float,))))


def _build_eta(cfg):
    kind = _kind(cfg, {"constant": ("a",), "sin_primitive": ("amplitude", "k")}, "eta")
    if kind == "constant":
        return ConstantForm(*_numbers(cfg.get("a", [0.0, 0.0]), "eta.a", float, (1, 2)))
    return SinPrimitiveForm(_number(cfg.get("amplitude", 1.0), "eta.amplitude"),
                            _numbers(cfg.get("k", (1, 0)), "eta.k", int, (2,)))


def _build_map(cfg):
    """The injected map of an entropy stage."""
    kind = _kind(cfg, {"standard": ("K",), "horseshoe": ("stretch",)}, "entropy.map")
    if kind == "standard":
        return StandardMap(_number(cfg.get("K", 1.5), "entropy.map.K"))
    return HorseshoeMap(_positive(cfg.get("stretch", 3.0), "entropy.map.stretch"))


# scalar numeric stage keys (same type in every stage): (kind, range rule),
# converted and checked at load
_STAGE_NUMBERS = {
    **dict.fromkeys(("class_tol", "angle_tol"), (float, lambda v: v >= 0)),
    **dict.fromkeys(("restarts", "orbit_index"), (int, lambda v: v >= 0)),
    **dict.fromkeys(("tol", "max_time", "half_width", "arclength", "fd_scale",
                     "bisection_tol", "eps0", "eps_c1"),
                    (float, lambda v: v > 0)),
    **dict.fromkeys(("n_iter", "modes", "segments", "k_max", "maxiter",
                     "cota_samples"),
                    (int, lambda v: v >= 1)),
    # the sphere mode of the surjectivity check has 8 target directions
    "targets": (int, lambda v: 1 <= v <= 8),
    "t_final": (float, lambda v: v != 0),
    "n_samples": (int, lambda v: v >= 2),
}

# list stage keys: (entry kind, allowed lengths, range rule given the number
# of scenario seeds), converted at load
_STAGE_LISTS = {
    "seeds": (int, None, lambda v, n: all(0 <= i < n for i in v) and
              len(set(v)) == len(v)),
    "radii": (float, None, lambda v, n: min(v) > 0 and len(set(v)) >= 2),
    "k_range": (float, (2,), lambda v, n: v[0] < v[1]),
    "fixed_points": ((float, (2,)), (1, 2), lambda v, n: True),
    "branch_signs": (int, (1, 2), lambda v, n: set(v) <= {1, -1}),
}

# structured stage keys, built into their objects at load
_STAGE_OBJECTS = {"eta": _build_eta, "map": _build_map}

# entropy keys an injected map leaves unused, by map kind: the horseshoe's
# certificate takes two fixed rectangles and grows no manifolds
_MAP_UNUSED = {"standard": {"orbit_index"},
               "horseshoe": {"orbit_index", "arclength", "tol", "angle_tol",
                             "k_max", "fixed_points", "branch_signs"}}


def _stage_value(key, value, where, n_seeds):
    """A stage key's value, converted and checked by its key's rule."""
    where = f"{where}.{key}"
    if key in _STAGE_OBJECTS:
        return _STAGE_OBJECTS[key](value)
    if key in _STAGE_NUMBERS:
        kind, ok = _STAGE_NUMBERS[key]
        value = _number(value, where, kind)
    elif key in _STAGE_LISTS:
        entry, sizes, ok_n = _STAGE_LISTS[key]
        value = _numbers(value, where, entry, sizes)
        ok = lambda v: ok_n(v, n_seeds)
    elif isinstance(value, bool):  # variational, rotation_vectors
        return value
    else:
        raise ConfigError(f"{where} must be true or false")
    if not ok(value):
        raise ConfigError(f"{where} out of range: {value!r}")
    return value


def _seed(surface, seed, where):
    """seed, once its chart is one of the surface's, its position lies in
    that chart (metric_at checks both) and its velocity is nonzero."""
    try:
        surface.metric_at(seed.chart, seed.x, seed.y)
    except ChartDomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    if seed.vx == 0.0 and seed.vy == 0.0:
        raise ConfigError(f"{where}: zero velocity")
    return seed


def _check_eta(eta, field, where, kinds):
    """ConfigError unless d eta = f to 1e-8 on a 64 x 64 grid of the torus."""
    g = np.linspace(0.0, 1.0, 64, endpoint=False)
    X, Y = np.meshgrid(g, g)
    gap = float(np.max(np.abs(eta.curl(X, Y) - field.value(0, X, Y))))
    if not gap <= 1e-8:
        raise ConfigError(f"{where}.eta of kind {kinds[0]!r} does not induce the "
                          f"field of kind {kinds[1]!r}: max |d eta - f| = {gap:.3g}")


_TOP_KEYS = {"surface", "field", "energy", "seeds", "pipeline", "out_dir",
             "seed", "integrator"}


class Scenario:
    def __init__(self, cfg, path="<config>"):
        _check_keys(cfg, _TOP_KEYS, path)
        self.surface = _build_surface(cfg.get("surface", {"kind": "torus"}))
        field_cfg = cfg.get("field", {"kind": "constant"})
        self.field = _build_field(field_cfg)
        self.c = _positive(cfg.get("energy", 0.5), "energy")
        self.random_seed = _number(cfg.get("seed", 0), "seed", int)
        if self.random_seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be nonnegative, got {self.random_seed}")
        self.out_dir = cfg.get("out_dir", "maglab_out")
        if not isinstance(self.out_dir, str):
            raise ConfigError(f"out_dir must be a string, got {self.out_dir!r}")
        icfg = cfg.get("integrator", {})
        _check_keys(icfg, {"rel_tol", "abs_tol", "max_step"}, "integrator")
        self.options = IntegratorOptions(
            **{k: _positive(v, f"integrator.{k}") for k, v in icfg.items()})
        self.seeds = []
        for i, s in enumerate(_list(cfg.get("seeds", []), "seeds")):
            _check_keys(s, {"chart", "x", "y", "vx", "vy"}, f"seeds[{i}]")
            self.seeds.append(_seed(self.surface, PhasePoint(
                _number(s.get("chart", 0), f"seeds[{i}].chart", int),
                *(_number(s.get(k), f"seeds[{i}].{k}")
                  for k in ("x", "y", "vx", "vy"))), f"seeds[{i}]"))
        self.pipeline = []
        seen = set()
        for i, st in enumerate(_list(cfg.get("pipeline", []), "pipeline")):
            if not isinstance(st, dict):
                raise ConfigError(f"pipeline[{i}] must be an object, got {st!r}")
            kind = st.get("stage")
            stage = STAGE_TABLE.get(kind) if isinstance(kind, str) else None
            if stage is None:
                raise ConfigError(f"unknown stage {kind!r} in pipeline[{i}]")
            where = f"pipeline[{i}] ({kind})"
            if kind in seen:  # its reports would overwrite the earlier stage's
                raise ConfigError(f"{where} repeats an earlier {kind} stage")
            _check_keys(st, {"stage", *stage.keys}, where)
            entry = {"stage": kind}
            for key, default in stage.keys.items():
                value = st.get(key, default)
                if value is not None:
                    value = _stage_value(key, value, where, len(self.seeds))
                elif key in st:
                    raise ConfigError(f"{where}.{key} must not be null")
                entry[key] = value
            if kind == "critical-value":
                if self.surface.kind != "torus":
                    raise ConfigError(f"{where} needs the torus, not a "
                                      f"{self.surface.kind} surface")
                _check_eta(entry["eta"], self.field, where,
                           (st.get("eta", stage.keys["eta"])["kind"],
                            field_cfg["kind"]))
            if entry.get("rotation_vectors") and self.surface.kind != "torus":
                raise ConfigError(f"{where}.rotation_vectors needs the torus, "
                                  f"not a {self.surface.kind} surface")
            if entry.get("map") is not None:
                unused = sorted(_MAP_UNUSED[st["map"]["kind"]] & set(st))
                if unused:
                    raise ConfigError(f"{where} sets {unused}, which an injected "
                                      f"{st['map']['kind']} map leaves unused")
            if any(d not in seen for d in _needs(entry)):
                raise ConfigError(f"{where} needs an earlier "
                                  f"{' and '.join(stage.needs)} stage")
            seen.add(kind)
            self.pipeline.append(entry)


def load_scenario(path):
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return Scenario(cfg, path)


# -- CSV emission ------------------------------------------------------------------


def emit_plotdata(report, kind, out_path):
    """CSV plot data of a `_Plot` kind: trajectories, manifolds or rotation."""
    plot = _PLOTS.get(kind)
    if plot is None:
        raise ConfigError(f"unknown plotdata kind {kind!r}")
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(plot.header)
        w.writerows(report.get(plot.rows, []))
    return out_path


# -- stages ------------------------------------------------------------------------


def _stage_simulate(sc, st, ctx):
    seed_idx = st["seeds"]
    if seed_idx is None:
        seed_idx = range(len(sc.seeds))
    report = {"trajectories": [], "stage": "simulate"}
    for i in seed_idx:
        seed = rescale_to_energy(sc.surface, sc.seeds[i], sc.c)
        det_defect = None
        if st["variational"]:
            traj, vp = flow_with_variation(sc.surface, sc.field, seed,
                                           st["t_final"], sc.options)
            det_defect = vp.det_defect()
        else:
            traj = flow(sc.surface, sc.field, seed, st["t_final"], sc.options)
        n = st["n_samples"]
        ts = traj.t_reach * np.arange(n) / (n - 1)
        charts, cols = traj.states(ts)
        samples = np.column_stack(
            (ts, *cols, traj.energies(charts, cols))).tolist()
        entry = {
            "seed_index": i,
            "t_final": traj.t_reach,
            "exited": traj.exited,
            "steps": traj.n_accepted,
            "rejected": traj.n_rejected,
            "max_energy_drift": traj.max_energy_drift,
            "samples": samples,
        }
        if det_defect is not None:
            entry["max_det_defect"] = det_defect
        report["trajectories"].append(entry)
    return report


def _stage_orbits(sc, st, ctx):
    """The distinct closed orbits found from the seeds, in (period, trace)
    order: orbits.json, classify.json and every orbit_index follow it."""
    orbits = []
    failures = []

    for i, seed in enumerate(sc.seeds):
        try:
            orb = find_closed_orbit(sc.surface, sc.field, sc.c, seed, tol=st["tol"],
                                    options=sc.options, max_time=st["max_time"],
                                    class_tol=st["class_tol"], half_width=st["half_width"])
        except MaglabError as exc:
            failures.append({"seed_index": i, "error": str(exc)})
            continue
        found_before = any(abs(o.period - orb.period) <= 1e-6 and
                           phase_distance(sc.surface, orb.initial_state,
                                          o.initial_state) < 1e-4 for o in orbits)
        if not found_before:
            orbits.append(orb)
    orbits.sort(key=lambda o: (o.period, o.trace))
    ctx["orbits"] = orbits
    # the twist stage annotates these records in place
    ctx["records"] = [o.record() for o in orbits]
    return {"stage": "orbits", "orbits": ctx["records"], "failures": failures,
            "injectivity_time": injectivity_time(sc.surface, sc.field, sc.c)}


def _stage_classify(sc, st, ctx):
    want_rho = st["rotation_vectors"]
    if want_rho is None:
        want_rho = sc.surface.kind == "torus"
    entries = []
    for orb in ctx["orbits"]:
        e = {"period": orb.period, "trace": orb.trace,
             "class": orb.floquet_class}
        if orb.floquet_class == "elliptic":
            e["alpha_label"] = orb.eigen.alpha
        if orb.floquet_class == "hyperbolic":
            e["eigenvalues"] = list(orb.eigen.eigenvalues)
        if want_rho:  # only on the torus (checked at load)
            e["rotation_vector"] = asdict(rotation_vector(orb))
        entries.append(e)
    return {"stage": "classify", "orbits": entries}


def _orbit_at(orbits, idx):
    """orbits[idx], or for idx None the first hyperbolic orbit, else the
    first orbit; an index past the orbits found is a stage failure."""
    if idx is None:
        idx = next((i for i, o in enumerate(orbits)
                    if o.floquet_class == "hyperbolic"), 0)
    try:
        return orbits[idx]
    except IndexError:
        raise MaglabError(f"orbit_index {idx} out of range: {len(orbits)} "
                          f"orbit(s) found") from None


def _stage_twist(sc, st, ctx):
    orbits = ctx["orbits"]
    idx = st["orbit_index"]
    cands = [idx] if idx is not None else [
        i for i, o in enumerate(orbits) if o.floquet_class == "elliptic"]
    if not cands:
        raise MaglabError("no elliptic orbit available for the twist stage")
    results = []
    rotation_rows = []
    for i in cands:
        orb = _orbit_at(orbits, i)
        rmap = orb.return_map
        fd_scale = st["fd_scale"] or 1e-3 * rmap.section.half_width
        jet = jet3(rmap, (0.0, 0.0), fd_scale=fd_scale)
        td = birkhoff_beta(jet)
        fit = twist_by_rotation_number(rmap, st["radii"], n_iter=st["n_iter"])
        rel = abs(td.beta - fit.beta) / max(abs(fit.beta), 1e-300)
        results.append({
            "period": orb.period,
            "jet": asdict(td),
            "fit": asdict(fit),
            "relative_beta_gap": rel,
            "det_defect": jet.det_defect(),
        })
        rotation_rows.extend([[r, rho] for r, rho in
                              zip(fit.radii, fit.rotation_numbers)])
        ctx["records"][i]["twist"] = asdict(td)
    return {"stage": "twist", "orbits": results,
            "rotation_samples": rotation_rows}


def _stage_franks(sc, st, ctx):
    orb = _orbit_at(ctx["orbits"], st["orbit_index"])
    split = segment_split(orb, st["eps0"], sc.options)
    n_seg = min(st["segments"], split.n)
    kit = build_franks_kit(split, 0)
    consts = compute_constants(kit, eps_c1=st["eps_c1"])
    constants = [consts.ledger()] + [  # the other segments' kits are not kept
        compute_constants(build_franks_kit(split, i), eps_c1=st["eps_c1"]).ledger()
        for i in range(1, n_seg)]
    cota = verify_cota(kit, consts, sample_count=st["cota_samples"],
                       seed=sc.random_seed)
    surj = verify_ball_surjectivity(kit, consts, n_targets=st["targets"],
                                    mode="sphere", seed=sc.random_seed)
    fwd = verify_ball_surjectivity(kit, consts, n_targets=min(4, st["targets"]),
                                   mode="forward", seed=sc.random_seed)
    prod_defect = float(np.abs(split.product() - orb.monodromy).max())
    return {
        "stage": "franks-verify",
        "segments": {"n": split.n, "t0": split.t0,
                     "product_vs_monodromy": prod_defect},
        "constants": constants[0],
        "constants_by_segment": constants,
        "cota": asdict(cota),
        "surjectivity": asdict(surj),
        "surjectivity_forward": asdict(fwd),
    }


# the horseshoe map's two vertical strips, unstable direction along y
_HORSESHOE_STRIPS = [Rectangle(np.array([0.5, y]), 1.0 / 6.0, 0.5,
                               np.array([[0.0, 1.0], [1.0, 0.0]]))
                     for y in (1.0 / 6.0, 5.0 / 6.0)]


def _entropy_oracle(sc, st, ctx):
    """(oracle, T_ret, orbit): an injected map with T_ret 1 and no orbit, or
    the section return map of a hyperbolic orbit with its period."""
    if st["map"] is not None:
        return st["map"], 1.0, None
    orb = _orbit_at(ctx["orbits"], st["orbit_index"])
    if orb.floquet_class != "hyperbolic":
        raise MaglabError("entropy from flow needs a hyperbolic orbit")
    return orb.return_map, orb.period, orb


def _stage_entropy(sc, st, ctx):
    oracle, T_ret, orb = _entropy_oracle(sc, st, ctx)
    trans = []
    rows = []
    if isinstance(oracle, HorseshoeMap):
        rep = certify_horseshoe(oracle, [_HORSESHOE_STRIPS], (1,), T_ret)
    else:
        if orb is not None:
            # the closed orbit is the section map's fixed point at the origin
            fps = st["fixed_points"] or [[0.0, 0.0], [0.0, 0.0]]
            signs = st["branch_signs"] or [1, -1]
        else:
            fps = st["fixed_points"] or [[0.0, 0.0], [1.0, 0.0]]
            signs = st["branch_signs"] or [1, 1]
        wu = grow_manifold(oracle, fps[0], "unstable", signs[0], st["arclength"],
                           tol=st["tol"])
        ws = grow_manifold(oracle, fps[-1], "stable", signs[-1], st["arclength"],
                           tol=st["tol"])
        trans = [h for h in detect_homoclinic(ws, wu) if h.transversal(st["angle_tol"])]
        for br, side in ((ws, "stable"), (wu, "unstable")):
            lens = np.concatenate([[0.0], np.cumsum(
                np.linalg.norm(np.diff(br.points, axis=0), axis=1))]) if len(br.points) else []
            for s_arc, p in zip(lens, br.points):
                rows.append([float(s_arc), float(p[0]), float(p[1]), side])
        if trans:
            best = max(trans, key=lambda h: h.angle)
            rep = certify_horseshoe(oracle, crossing_boxes(oracle, best.point, fps[0]),
                                    range(1, st["k_max"] + 1), T_ret)
        else:
            rep = EntropyReport({"N": 0, "k": 0, "T_ret": T_ret}, 0.0, "no crossing")
    return {"stage": "entropy", **asdict(rep), "manifold_points": rows,
            "intersections": [{"point": list(h.point), "angle": h.angle}
                              for h in trans]}


def _stage_critical_value(sc, st, ctx):
    br = estimate_critical_value(
        LagrangianSpec(sc.surface, st["eta"]), k_range=st["k_range"],
        bisection_tol=st["bisection_tol"], seed=sc.random_seed,
        restarts=st["restarts"], maxiter=st["maxiter"], modes=st["modes"])
    return {"stage": "critical-value", **asdict(br)}


# a stage kind: its function, report file, prerequisite kinds, keys with
# their defaults (None: the stage picks the value from the scenario or orbits)
# and CSV plot data: `emit_plotdata` kind, file name (formatted with the
# report's fields, or each entry's of its list `per`), header and rows key
_Stage = namedtuple("_Stage", "run report needs keys plot", defaults=(None,))
_Plot = namedtuple("_Plot", "kind file header rows per", defaults=(None,))

STAGE_TABLE = {
    "simulate": _Stage(_stage_simulate, "simulate.json", (), {
        "t_final": 1.0, "n_samples": 400, "variational": True, "seeds": None},
        _Plot("trajectories", "trajectory_{seed_index}.csv",
              ("t", "x", "y", "vx", "vy", "E"), "samples", "trajectories")),
    "orbits": _Stage(_stage_orbits, "orbits.json", (), {
        "tol": 1e-10, "max_time": 50.0, "half_width": 0.2, "class_tol": 1e-6}),
    "classify": _Stage(_stage_classify, "classify.json", ("orbits",), {
        "rotation_vectors": None}),
    "twist": _Stage(_stage_twist, "twist.json", ("orbits",), {
        "orbit_index": None, "fd_scale": None,
        "radii": (0.004, 0.008, 0.012, 0.016, 0.02), "n_iter": 300},
        _Plot("rotation", "rotation_fit.csv", ("r", "rho"), "rotation_samples")),
    "franks-verify": _Stage(_stage_franks, "franks.json", ("orbits",), {
        "orbit_index": None, "eps0": 0.02, "eps_c1": 0.1, "cota_samples": 20,
        "targets": 8, "segments": 2}),
    # with a map, the stage needs no orbits stage (`_needs`)
    "entropy": _Stage(_stage_entropy, "entropy.json", ("orbits",), {
        "map": None, "orbit_index": None, "arclength": 2.5, "tol": 1e-4,
        "angle_tol": 1e-3, "k_max": 20, "fixed_points": None,
        "branch_signs": None},
        _Plot("manifolds", "manifolds.csv", ("s", "y", "ydot", "side"),
              "manifold_points")),
    "critical-value": _Stage(_stage_critical_value, "critical_value.json", (), {
        "eta": {"kind": "constant", "a": (0.0, 0.0)}, "k_range": (-0.25, 1.0),
        "bisection_tol": 1e-4, "restarts": 12, "maxiter": 200, "modes": 8}),
}


def _needs(entry):
    """The stages a pipeline entry needs before it: its kind's, or none for
    an entry with an injected map, which reads no orbit."""
    return () if entry.get("map") is not None else STAGE_TABLE[entry["stage"]].needs


# kind -> stage function: run_scenario calls through this dict, so a tracer
# can wrap its entries
_STAGES = {kind: stage.run for kind, stage in STAGE_TABLE.items()}
_PLOTS = {stage.plot.kind: stage.plot for stage in STAGE_TABLE.values()
          if stage.plot is not None}


def _numpy_default(obj):
    """json's `default` hook: a numpy array or scalar (not float64, a float)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def run_scenario(scenario, only_stage=None, out_dir=None):
    """Execute pipeline stages, writing one JSON report per stage kind.

    only_stage restricts execution to the stages a subcommand asked for plus
    their dependencies (dependency reports are not written).  Returns
    (exit_code, reports): 0 on success, 3 on numerical failure mid-pipeline
    (with partial reports written).
    """
    out = out_dir or scenario.out_dir
    stages = scenario.pipeline
    if only_stage is not None:
        entry = next((st for st in stages if st["stage"] == only_stage), None)
        if entry is None:
            raise ConfigError(f"pipeline has no {only_stage!r} stage")
        deps = _needs(entry)
        stages = [st for st in stages if st is entry or st["stage"] in deps]
    os.makedirs(out, exist_ok=True)
    ctx = {}
    reports = {}
    code = 0
    for st in stages:
        kind = st["stage"]
        try:
            rep = _STAGES[kind](scenario, st, ctx)
        except ConfigError:
            raise
        except MaglabError as exc:
            reports[kind] = {"stage": kind, "error": str(exc)}
            code = 3
            break
        reports[kind] = rep
        if only_stage is not None and kind != only_stage:
            continue
        _write_stage(out, kind, rep)
        if kind == "twist" and only_stage is None:  # it annotated orbit records
            _write_stage(out, "orbits", reports["orbits"])
    return code, reports


def _write_stage(out, kind, rep):
    path = os.path.join(out, STAGE_TABLE[kind].report)
    with open(path, "w") as fh:
        json.dump(rep, fh, indent=2, sort_keys=True, default=_numpy_default)
        fh.write("\n")
    plot = STAGE_TABLE[kind].plot
    if plot is not None:
        for entry in rep.get(plot.per, []) if plot.per else [rep]:
            emit_plotdata(entry, plot.kind,
                          os.path.join(out, plot.file.format(**entry)))
