"""Benchmark workloads: scenario generation from a seed, and output checks.

Each workload turns a seed into one or more scenario configs (plain dicts in
the format of `maglab/scenarios/*.json`).  The seed varies the inputs, never
the code path.  One operation runs all of a workload's scenarios, in order,
in one fresh process.

Each workload's `check` reads the stage reports an operation wrote and
returns a list of failure strings (empty means correct).  The tolerances are
the ones pinned in tests/test_acceptance.py; they are tolerances, not byte
comparisons, so a rounding-order change does not count as a failure.  Stage
errors are checked by run.py from the reports `run_scenario` returns, since
a failed stage writes no report file.
"""

from __future__ import annotations

import math
import random

# -- generators ---------------------------------------------------------------


def sphere_twist(seed):
    """Elliptic orbit on the round sphere, cubic jet and rotation-number fit.

    The seed moves the shooting seed along the section line (y = 0), inside
    the Newton basin of the tuned elliptic orbit, so every seed converges to
    the same orbit.  The twist settings are those of C10 (fd_scale 0.002),
    with two of its radii and n_iter = 50 in place of 250: 50 * alpha is
    within 0.04 of an integer, a node of the rotation-number estimator where
    the jet/fit beta gap is about 0.6% (5% allowed), and one operation
    (about 13 s) fits within a run.
    """
    rng = random.Random(seed)
    x0 = 0.35 + rng.uniform(-0.01, 0.01)
    return [{
        "surface": {"kind": "sphere", "params": {"radius": 1.0}},
        "field": {"kind": "zonal", "amplitude": 1.6},
        "energy": 0.5,
        "seed": seed,
        "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-13},
        "seeds": [{"chart": 0, "x": x0, "y": 0.0, "vx": 0.0, "vy": 0.5}],
        "pipeline": [
            {"stage": "orbits", "tol": 1e-10, "max_time": 30.0},
            {"stage": "twist", "fd_scale": 0.002, "radii": [0.01, 0.02],
             "n_iter": 50},
        ],
    }]


def franks_ledger(seed):
    """Bundled hyperbolic torus orbit through the whole Franks ledger.

    Two segments give two kits and two constants ledgers, followed by two
    cota samples plus the linearity check and one target in each
    surjectivity mode; the seed drives the cota directions and the forward
    target.  The forward target's Newton solve takes 11 responses for about
    70% of seeds and 18 (rarely 25) for the rest, so an operation's time
    varies by 15-30% between seeds; compare.py pairs runs by seed.
    """
    return [{
        "surface": {"kind": "torus"},
        "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        "energy": 0.5,
        "seed": seed,
        "seeds": [{"chart": 0, "x": 0.0, "y": 0.0, "vx": 0.0, "vy": -1.0}],
        "pipeline": [
            {"stage": "orbits", "tol": 1e-10},
            {"stage": "franks-verify", "cota_samples": 2, "targets": 1,
             "segments": 2, "eps0": 0.02, "eps_c1": 0.1},
        ],
    }]


# Seed points of one torus_survey operation: enough independent searches that
# per-search set-up shows, while one operation stays near 2 s, short enough to
# be repeated several times within a run.
SURVEY_SEEDS = 16


def torus_survey(seed):
    """Sinusoidal torus survey: simulate with variation, shoot, classify.

    The field depends on x only, so every vertical line x = 0 or x = 1/2 is
    a closed orbit for both directions; the seed picks the height y and a
    small offset in x of each seed point, inside the Newton basin.
    """
    rng = random.Random(seed)
    seeds = []
    for i in range(SURVEY_SEEDS):
        seeds.append({"chart": 0,
                      "x": 0.5 * (i % 2) + rng.uniform(-0.02, 0.02),
                      "y": rng.uniform(0.0, 1.0),
                      "vx": 0.0, "vy": 1.0 if (i // 2) % 2 == 0 else -1.0})
    return [{
        "surface": {"kind": "torus"},
        "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        "energy": 0.5,
        "seed": seed,
        "seeds": seeds,
        "pipeline": [
            {"stage": "simulate", "t_final": 2.0, "n_samples": 100,
             "variational": True},
            {"stage": "orbits", "tol": 1e-10},
            {"stage": "classify", "rotation_vectors": True},
        ],
    }]


def entropy_mane(seed):
    """Standard-map horseshoe and Mane bracket, then the log 2 horseshoe.

    The seed is the critical-value rng seed.
    """
    return [{
        "surface": {"kind": "torus"},
        "field": {"kind": "constant", "value": 0.0},
        "energy": 0.5,
        "seed": seed,
        "pipeline": [
            {"stage": "entropy", "map": {"kind": "standard", "K": 1.5},
             "arclength": 2.5, "tol": 1e-4, "angle_tol": 1e-3, "k_max": 20,
             "fixed_points": [[0.0, 0.0], [1.0, 0.0]], "branch_signs": [1, 1]},
            {"stage": "critical-value", "eta": {"kind": "constant", "a": [0.7, 0.0]},
             "k_range": [-0.25, 1.0], "bisection_tol": 1e-4, "restarts": 8,
             "maxiter": 200},
        ],
    }, {
        "surface": {"kind": "torus"},
        "field": {"kind": "constant", "value": 0.0},
        "energy": 0.5,
        "seed": seed,
        "pipeline": [
            {"stage": "entropy", "map": {"kind": "horseshoe", "stretch": 3.0}},
        ],
    }]


# -- checks ---------------------------------------------------------------------
# `reports` is a list, one entry per scenario of the operation, of
# {report file stem: parsed report}.


def non_finite(obj, path=""):
    """Paths of every NaN or infinite number inside a parsed report."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path or "/"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in non_finite(v, f"{path}/{k}")]
    if isinstance(obj, list):
        return [p for i, v in enumerate(obj) for p in non_finite(v, f"{path}/{i}")]
    return []


def scan_reports(reports):
    """Failures common to all workloads: non-finite numbers in any report."""
    out = []
    for i, rep_set in enumerate(reports):
        for name, rep in sorted(rep_set.items()):
            bad = non_finite(rep)
            if bad:
                out.append(f"scenario {i} {name}: non-finite value at "
                           f"{', '.join(bad[:5])}")
    return out


def _need(rep_set, *names):
    missing = [n for n in names if n not in rep_set]
    if missing:
        raise KeyError(f"missing report(s) {missing}")
    return [rep_set[n] for n in names]


def check_sphere_twist(reports):
    orbits, twist = _need(reports[0], "orbits", "twist")
    out = []
    if not any(o["class"] == "elliptic" for o in orbits["orbits"]):
        out.append("C10: no elliptic orbit found")
    for o in twist["orbits"]:
        if not o["relative_beta_gap"] <= 0.05:
            out.append(f"C10: beta gap {o['relative_beta_gap']:.3g} > 5%")
    if not twist["orbits"]:
        out.append("C10: twist stage reported no orbit")
    return out


def _check_surjectivity(rep, delta1, label):
    out = []
    if rep["solved"] != rep["targets"]:
        out.append(f"C09 {label}: solved {rep['solved']} of {rep['targets']}")
    if not rep["max_residual"] <= 1e-6:
        out.append(f"C09 {label}: residual {rep['max_residual']:.3g} > 1e-6")
    if not rep["max_A_norm"] <= delta1:
        out.append(f"C09 {label}: |A| {rep['max_A_norm']:.3g} > delta1 {delta1:.3g}")
    return out


def check_franks_ledger(reports):
    (fr,) = _need(reports[0], "franks")
    out = []
    cota = fr["cota"]
    if not cota["min_margin"] >= 1.0:
        out.append(f"C08: cota margin {cota['min_margin']:.6g} < 1")
    if not cota["linearity_defect"] <= 1e-6:
        out.append(f"C08: linearity defect {cota['linearity_defect']:.3g} > 1e-6")
    delta1 = fr["constants"]["delta1"]
    out += _check_surjectivity(fr["surjectivity"], delta1, "sphere")
    out += _check_surjectivity(fr["surjectivity_forward"], delta1, "forward")
    return out


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def check_torus_survey(reports):
    sim, orbits, classify = _need(reports[0], "simulate", "orbits", "classify")
    out = []
    for o in orbits["orbits"]:
        d = abs(_det2(o["monodromy"]) - 1.0)
        if not d <= 1e-8:
            out.append(f"C03: monodromy |det - 1| = {d:.3g} > 1e-8")
    for tr in sim["trajectories"]:
        if not tr["max_det_defect"] <= 1e-8:
            out.append(f"C03: simulate det defect {tr['max_det_defect']:.3g} > 1e-8")
    if not orbits["orbits"]:
        out.append("survey found no closed orbit")
    if len(classify["orbits"]) != len(orbits["orbits"]):
        out.append(f"classified {len(classify['orbits'])} of "
                   f"{len(orbits['orbits'])} orbits")
    # Every orbit found is a vertical line traversed once at unit speed on
    # the unit torus: winding class (0, +-1) over a period of 1.
    for e in classify["orbits"]:
        rv = e.get("rotation_vector")
        if rv is None:
            out.append("classify entry without a rotation vector")
            continue
        if list(rv["homology"]) not in ([0, 1], [0, -1]):
            out.append(f"rotation vector homology {rv['homology']} is not (0, +-1)")
        if not abs(rv["period"] - 1.0) <= 1e-8:
            out.append(f"vertical orbit period {rv['period']!r} != 1")
    return out


def check_entropy_mane(reports):
    ent, crit = _need(reports[0], "entropy", "critical_value")
    (horse,) = _need(reports[1], "entropy")
    out = []
    if not ent["h_top_lower"] > 0.0:
        out.append(f"C11: standard-map h_top_lower {ent['h_top_lower']} <= 0")
    if not abs(horse["h_top_lower"] - math.log(2.0)) <= 1e-12:
        out.append(f"C11: horseshoe bound {horse['h_top_lower']!r} != log 2")
    if not crit["c_lo"] <= 0.0 <= crit["c_hi"]:
        out.append(f"C13: bracket [{crit['c_lo']}, {crit['c_hi']}] misses 0")
    if not crit["c_hi"] - crit["c_lo"] <= 2e-4:
        out.append(f"C13: bracket width {crit['c_hi'] - crit['c_lo']:.3g} > 2e-4")
    return out


WORKLOADS = {
    "sphere_twist": (sphere_twist, check_sphere_twist),
    "franks_ledger": (franks_ledger, check_franks_ledger),
    "torus_survey": (torus_survey, check_torus_survey),
    "entropy_mane": (entropy_mane, check_entropy_mane),
}


def check(workload, reports):
    """All failures of one operation's reports (empty list means correct)."""
    out = scan_reports(reports)
    try:
        out += WORKLOADS[workload][1](reports)
    except (KeyError, IndexError, TypeError) as exc:
        out.append(f"malformed reports: {exc!r}")
    return out
