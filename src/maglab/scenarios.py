"""Scenario configuration, validation and pipeline stages.

A scenario is a JSON document selecting a surface, a field, an energy level
and an ordered list of pipeline stages with per-stage parameters.  Unknown
keys anywhere are rejected (reproducibility beats convenience); all stage
reports are plain dicts serialized with sorted keys so a fixed seed yields
byte-identical output.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from .errors import ConfigError, MaglabError
from .geometry import PhasePoint, flat_torus, planar_chart, sphere, energy as phase_energy
from .field import (
    ConstantField,
    MagneticField,
    PolynomialField,
    SinusoidalTorusField,
    ZonalSphereField,
)
from .dynamics import IntegratorOptions, flow, flow_with_variation, injectivity_time
from .orbits import (SectionReturnMap, find_closed_orbit, phase_distance,
                     rescale_to_energy)
from .normalform import birkhoff_beta, jet3, twist_by_rotation_number
from .franks import (
    FranksKit,
    compute_constants,
    segment_split,
    verify_ball_surjectivity,
    verify_cota,
)
from .chaos import certify_horseshoe, detect_homoclinic, grow_manifold
from .maps import HorseshoeMap, StandardMap
from .mane import (
    ConstantForm,
    LagrangianSpec,
    SinPrimitiveForm,
    estimate_critical_value,
    rotation_vector,
)

__all__ = ["load_scenario", "run_scenario", "Scenario", "emit_plotdata"]


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
    """value converted by kind (float or int); a boolean, a non-number and,
    for int, a non-integral float are ConfigErrors."""
    msg = f"{where} must be {'an integer' if kind is int else 'a number'}, got {value!r}"
    if isinstance(value, bool) or (
            kind is int and isinstance(value, float) and not value.is_integer()):
        raise ConfigError(msg)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(msg) from None


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


def _build_field(cfg):
    _check_keys(cfg, {"kind", "value", "amplitude", "k", "phase", "coeffs"}, "field")
    kind = cfg.get("kind")
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
    if kind == "polynomial":
        return MagneticField(PolynomialField(
            _numbers(cfg.get("coeffs", [[0.0]]), "field.coeffs", (float,))))
    raise ConfigError(f"unknown field kind {kind!r}")


def _build_eta(cfg):
    _check_keys(cfg, {"kind", "a", "amplitude", "k"}, "eta")
    kind = cfg.get("kind")
    if kind == "constant":
        return ConstantForm(*_numbers(cfg.get("a", [0.0, 0.0]), "eta.a", float, (1, 2)))
    if kind == "sin_primitive":
        return SinPrimitiveForm(_number(cfg.get("amplitude", 1.0), "eta.amplitude"),
                                _numbers(cfg.get("k", (1, 0)), "eta.k", int, (2,)))
    raise ConfigError(f"unknown eta kind {kind!r}")


def _build_map(cfg):
    """The injected map of an entropy stage."""
    _check_keys(cfg, {"kind", "K", "stretch"}, "entropy.map")
    kind = cfg.get("kind")
    if kind == "standard":
        return StandardMap(_number(cfg.get("K", 1.5), "entropy.map.K"))
    if kind == "horseshoe":
        return HorseshoeMap(_positive(cfg.get("stretch", 3.0), "entropy.map.stretch"))
    raise ConfigError(f"unknown injected map {kind!r}")


_STAGE_KEYS = {
    "simulate": {"stage", "t_final", "n_samples", "variational", "seeds"},
    "orbits": {"stage", "tol", "max_time", "half_width", "class_tol"},
    "classify": {"stage", "rotation_vectors"},
    "twist": {"stage", "orbit_index", "fd_scale", "radii", "n_iter"},
    "franks-verify": {"stage", "orbit_index", "eps0", "eps_c1", "cota_samples",
                      "targets", "segments"},
    "entropy": {"stage", "map", "orbit_index", "arclength", "tol", "angle_tol",
                "k_max", "branch_signs", "fixed_points"},
    "critical-value": {"stage", "eta", "k_range", "bisection_tol", "restarts",
                       "maxiter", "modes"},
}

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
    "seeds": (int, None, lambda v, n: all(0 <= i < n for i in v)),
    "radii": (float, None, lambda v, n: min(v) > 0 and len(set(v)) >= 2),
    "k_range": (float, (2,), lambda v, n: v[0] < v[1]),
    "fixed_points": ((float, (2,)), None, lambda v, n: True),
    "branch_signs": (int, None, lambda v, n: set(v) <= {1, -1}),
}


_TOP_KEYS = {"surface", "field", "energy", "seeds", "pipeline", "out_dir",
             "seed", "integrator"}


class Scenario:
    def __init__(self, cfg, path="<config>"):
        _check_keys(cfg, _TOP_KEYS, path)
        self.surface = _build_surface(cfg.get("surface", {"kind": "torus"}))
        self.field = _build_field(cfg.get("field", {"kind": "constant"}))
        self.c = _positive(cfg.get("energy", 0.5), "energy")
        self.random_seed = _number(cfg.get("seed", 0), "seed", int)
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
            self.seeds.append(PhasePoint(
                _number(s.get("chart", 0), f"seeds[{i}].chart", int),
                *(_number(s.get(k), f"seeds[{i}].{k}")
                  for k in ("x", "y", "vx", "vy"))))
        self.pipeline = []
        seen = set()
        for i, st in enumerate(_list(cfg.get("pipeline", []), "pipeline")):
            if not isinstance(st, dict):
                raise ConfigError(f"pipeline[{i}] must be an object, got {st!r}")
            kind = st.get("stage")
            if not isinstance(kind, str) or kind not in _STAGE_KEYS:
                raise ConfigError(f"unknown stage {kind!r} in pipeline[{i}]")
            where = f"pipeline[{i}] ({kind})"
            if kind in seen:  # its reports would overwrite the earlier stage's
                raise ConfigError(f"{where} repeats an earlier {kind} stage")
            _check_keys(st, _STAGE_KEYS[kind], where)
            st = dict(st)
            for key, (num, ok) in _STAGE_NUMBERS.items():
                if key in st:
                    st[key] = _number(st[key], f"{where}.{key}", num)
                    if not ok(st[key]):
                        raise ConfigError(f"{where}.{key} out of range: {st[key]!r}")
            for key, (entry, sizes, ok) in _STAGE_LISTS.items():
                if key in st:
                    st[key] = _numbers(st[key], f"{where}.{key}", entry, sizes)
                    if not ok(st[key], len(self.seeds)):
                        raise ConfigError(f"{where}.{key} out of range: {st[key]!r}")
            for key in ("variational", "rotation_vectors"):
                if not isinstance(st.get(key, False), bool):
                    raise ConfigError(f"{where}.{key} must be true or false")
            if st.get("rotation_vectors") and self.surface.kind != "torus":
                raise ConfigError(f"{where}.rotation_vectors needs the torus, "
                                  f"not a {self.surface.kind} surface")
            if "eta" in st:
                _build_eta(st["eta"])
            if st.get("map") is not None:
                _build_map(st["map"])  # an entropy stage with a map needs no orbits
            elif any(d not in seen for d in _STAGE_DEPS[kind]):
                raise ConfigError(f"{where} needs an earlier "
                                  f"{' and '.join(_STAGE_DEPS[kind])} stage")
            seen.add(kind)
            self.pipeline.append(st)
        self.cfg = cfg


def load_scenario(path):
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return Scenario(cfg, path)


# -- CSV emission ------------------------------------------------------------------


def emit_plotdata(report, kind, out_path):
    """CSV plot data: trajectories, manifolds or rotation-number fits."""
    rows, header = _plotdata_rows(report, kind)
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return out_path


def _plotdata_rows(report, kind):
    if kind == "trajectories":
        header = ["t", "x", "y", "vx", "vy", "E"]
        rows = report.get("samples", [])
    elif kind == "manifolds":
        header = ["s", "y", "ydot", "side"]
        rows = report.get("manifold_points", [])
    elif kind == "rotation":
        header = ["r", "rho"]
        rows = report.get("rotation_samples", [])
    else:
        raise ConfigError(f"unknown plotdata kind {kind!r}")
    return rows, header


# -- stages ------------------------------------------------------------------------


def _stage_simulate(sc, st, ctx):
    t_final = float(st.get("t_final", 1.0))
    n = int(st.get("n_samples", 400))
    variational = bool(st.get("variational", True))
    seed_idx = st.get("seeds")
    report = {"trajectories": [], "stage": "simulate"}
    if seed_idx is None:
        seed_idx = list(range(len(sc.seeds)))
    chosen = [(i, sc.seeds[i]) for i in seed_idx]
    for i, seed in chosen:
        seed = rescale_to_energy(sc.surface, seed, sc.c)
        det_defect = None
        if variational:
            traj, vp = flow_with_variation(sc.surface, sc.field, seed, t_final,
                                           sc.options)
            det_defect = vp.det_defect()
        else:
            traj = flow(sc.surface, sc.field, seed, t_final, sc.options)
        samples = []
        for t in traj.times(n):
            stt = traj.state(t)
            samples.append([t, stt.x, stt.y, stt.vx, stt.vy,
                            phase_energy(sc.surface, stt)])
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
    tol = float(st.get("tol", 1e-10))
    max_time = float(st.get("max_time", 50.0))
    half_width = float(st.get("half_width", 0.2))
    class_tol = float(st.get("class_tol", 1e-6))
    orbits = []
    failures = []

    for i, seed in enumerate(sc.seeds):
        try:
            orb = find_closed_orbit(sc.surface, sc.field, sc.c, seed, tol=tol,
                                    options=sc.options, max_time=max_time,
                                    class_tol=class_tol, half_width=half_width)
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
    want_rho = bool(st.get("rotation_vectors", sc.surface.kind == "torus"))
    entries = []
    for orb in ctx["orbits"]:
        e = {"period": orb.period, "trace": orb.trace,
             "class": orb.floquet_class}
        if orb.floquet_class == "elliptic":
            e["alpha_label"] = orb.eigen.alpha
        if orb.floquet_class == "hyperbolic":
            e["eigenvalues"] = list(orb.eigen.eigenvalues)
        if want_rho:  # only on the torus (checked at load)
            rv = rotation_vector(sc.surface, sc.field, orb, sc.options)
            e["rotation_vector"] = rv.as_dict()
        entries.append(e)
    return {"stage": "classify", "orbits": entries}


def _orbit_at(orbits, idx):
    """orbits[idx]; an index past the orbits found is a stage failure."""
    try:
        return orbits[idx]
    except IndexError:
        raise MaglabError(f"orbit_index {idx} out of range: {len(orbits)} "
                          f"orbit(s) found") from None


def _stage_twist(sc, st, ctx):
    orbits = ctx["orbits"]
    idx = st.get("orbit_index")
    cands = [idx] if idx is not None else [
        i for i, o in enumerate(orbits) if o.floquet_class == "elliptic"]
    if not cands:
        raise MaglabError("no elliptic orbit available for the twist stage")
    results = []
    rotation_rows = []
    for i in cands:
        orb = _orbit_at(orbits, i)
        rmap = SectionReturnMap(orb.section, options=sc.options)
        fd_scale = float(st.get("fd_scale", 1e-3 * orb.section.half_width))
        jet = jet3(rmap, (0.0, 0.0), fd_scale)
        td = birkhoff_beta(jet)
        radii = st.get("radii", [0.004, 0.008, 0.012, 0.016, 0.02])
        fit = twist_by_rotation_number(rmap, radii, n_iter=int(st.get("n_iter", 300)))
        rel = abs(td.beta - fit.beta) / max(abs(fit.beta), 1e-300)
        results.append({
            "period": orb.period,
            "jet": td.as_dict(),
            "fit": fit.as_dict(),
            "relative_beta_gap": rel,
            "det_defect": jet.det_defect(),
        })
        rotation_rows.extend([[r, rho] for r, rho in
                              zip(fit.radii, fit.rotation_numbers)])
        ctx["records"][i]["twist"] = td.as_dict()
    return {"stage": "twist", "orbits": results,
            "rotation_samples": rotation_rows}


def _stage_franks(sc, st, ctx):
    orbits = ctx["orbits"]
    idx = st.get("orbit_index")
    if idx is None:  # the first hyperbolic orbit, else the first orbit
        idx = next((i for i, o in enumerate(orbits)
                    if o.floquet_class == "hyperbolic"), 0)
    orb = _orbit_at(orbits, idx)
    split = segment_split(orb, sc.surface, sc.field, sc.c,
                          eps0=float(st.get("eps0", 0.02)), options=sc.options)
    n_seg = min(int(st.get("segments", 2)), split.n)
    constants = []
    kits = []
    for i in range(n_seg):
        kit = FranksKit(split.tube(i))
        consts = compute_constants(kit, eps_c1=float(st.get("eps_c1", 0.1)))
        constants.append(consts.ledger())
        kits.append((kit, consts))
    kit, consts = kits[0]
    cota = verify_cota(kit, consts, sample_count=int(st.get("cota_samples", 20)),
                       seed=sc.random_seed)
    surj = verify_ball_surjectivity(kit, consts,
                                    n_targets=int(st.get("targets", 8)),
                                    mode="sphere")
    fwd = verify_ball_surjectivity(kit, consts,
                                   n_targets=min(4, int(st.get("targets", 8))),
                                   mode="forward", seed=sc.random_seed)
    prod_defect = float(np.abs(split.product() - orb.monodromy).max())
    return {
        "stage": "franks-verify",
        "segments": {"n": split.n, "t0": split.t0,
                     "product_vs_monodromy": prod_defect},
        "constants": constants[0],
        "constants_by_segment": constants,
        "cota": cota.as_dict(),
        "surjectivity": surj.as_dict(),
        "surjectivity_forward": fwd.as_dict(),
    }


def _entropy_oracle(sc, st, ctx):
    if st.get("map") is not None:
        return _build_map(st["map"]), None
    orb = _orbit_at(ctx["orbits"], st.get("orbit_index", 0))
    if orb.floquet_class != "hyperbolic":
        raise MaglabError("entropy from flow needs a hyperbolic orbit")
    rmap = SectionReturnMap(orb.section, options=sc.options)
    return rmap, orb


def _stage_entropy(sc, st, ctx):
    oracle, orb = _entropy_oracle(sc, st, ctx)
    arclength = float(st.get("arclength", 2.5))
    tol = float(st.get("tol", 1e-4))
    angle_tol = float(st.get("angle_tol", 1e-3))
    k_max = int(st.get("k_max", 20))
    if isinstance(oracle, HorseshoeMap):
        from .chaos import Rectangle

        frame = np.array([[0.0, 1.0], [1.0, 0.0]])
        rects = [Rectangle(np.array([0.5, 1.0 / 6.0]), 1.0 / 6.0, 0.5, frame),
                 Rectangle(np.array([0.5, 5.0 / 6.0]), 1.0 / 6.0, 0.5, frame)]
        rep = certify_horseshoe(oracle, rectangles=rects, k_range=(1,))
        return {"stage": "entropy", **rep.as_dict(), "manifold_points": []}
    if orb is not None:
        # the closed orbit is the section map's fixed point at the origin
        fps = st.get("fixed_points", [[0.0, 0.0], [0.0, 0.0]])
        signs = st.get("branch_signs", [1, -1])
    else:
        fps = st.get("fixed_points", [[0.0, 0.0], [1.0, 0.0]])
        signs = st.get("branch_signs", [1, 1])
    wu = grow_manifold(oracle, fps[0], "unstable", signs[0], arclength, tol=tol)
    ws = grow_manifold(oracle, fps[-1], "stable", signs[-1], arclength, tol=tol)
    hits = detect_homoclinic(ws, wu)
    trans = [h for h in hits if h.angle >= angle_tol]
    rows = []
    for br, side in ((ws, "stable"), (wu, "unstable")):
        lens = np.concatenate([[0.0], np.cumsum(
            np.linalg.norm(np.diff(br.points, axis=0), axis=1))]) if len(br.points) else []
        for s_arc, p in zip(lens, br.points):
            rows.append([float(s_arc), float(p[0]), float(p[1]), side])
    if not trans:
        return {"stage": "entropy", "intersections": [], "horseshoe":
                {"N": 0, "k": 0, "T_ret": 1.0}, "h_top_lower": 0.0,
                "status": "no crossing", "manifold_points": rows}
    best = max(trans, key=lambda h: h.angle)
    T_ret = 1.0
    if orb is not None:
        T_ret = orb.period
    rep = certify_horseshoe(oracle, best, k_range=range(1, k_max + 1),
                            T_ret=T_ret, fixed_point=fps[0])
    out = rep.as_dict()
    out["intersections"] = [{"point": list(h.point), "angle": h.angle}
                            for h in trans]
    return {"stage": "entropy", **out, "manifold_points": rows}


def _stage_critical_value(sc, st, ctx):
    eta = _build_eta(st.get("eta", {"kind": "constant", "a": [0.0, 0.0]}))
    lag = LagrangianSpec(sc.surface, eta)
    br = estimate_critical_value(
        lag,
        k_range=tuple(st.get("k_range", (-0.25, 1.0))),
        bisection_tol=float(st.get("bisection_tol", 1e-4)),
        seed=sc.random_seed,
        restarts=int(st.get("restarts", 12)),
        maxiter=int(st.get("maxiter", 200)),
        modes=int(st.get("modes", 8)),
    )
    return {"stage": "critical-value", **br.as_dict()}


_STAGES = {
    "simulate": _stage_simulate,
    "orbits": _stage_orbits,
    "classify": _stage_classify,
    "twist": _stage_twist,
    "franks-verify": _stage_franks,
    "entropy": _stage_entropy,
    "critical-value": _stage_critical_value,
}

_STAGE_DEPS = {
    "simulate": (),
    "orbits": (),
    "classify": ("orbits",),
    "twist": ("orbits",),
    "franks-verify": ("orbits",),
    "entropy": ("orbits",),
    "critical-value": (),
}

_STAGE_FILES = {
    "simulate": "simulate.json",
    "orbits": "orbits.json",
    "classify": "classify.json",
    "twist": "twist.json",
    "franks-verify": "franks.json",
    "entropy": "entropy.json",
    "critical-value": "critical_value.json",
}


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_json_ready(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


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
        deps = set(_STAGE_DEPS[only_stage])
        stages = [st for st in scenario.pipeline
                  if st["stage"] == only_stage or st["stage"] in deps]
        if not any(st["stage"] == only_stage for st in stages):
            raise ConfigError(f"pipeline has no {only_stage!r} stage")
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
    clean = _json_ready(rep)
    path = os.path.join(out, _STAGE_FILES[kind])
    with open(path, "w") as fh:
        json.dump(clean, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if kind == "simulate":
        for entry in clean.get("trajectories", []):
            emit_plotdata(entry, "trajectories",
                          os.path.join(out, f"trajectory_{entry['seed_index']}.csv"))
    elif kind == "twist":
        emit_plotdata(clean, "rotation", os.path.join(out, "rotation_fit.csv"))
    elif kind == "entropy":
        emit_plotdata(clean, "manifolds", os.path.join(out, "manifolds.csv"))
