"""Print the per-layer cost of maglab's integration path in each tree.

    python3 tools/step_cost.py [--reps N] [TREE ...]

A TREE is a repository root (holding src/maglab) or its src directory; with
none, the repository this script sits in.  Each tree is measured in a Python
process of its own that imports that tree's maglab, with the same code.

On sphere_twist's closed orbit (the bundled config's seed, surface, field,
energy and tolerances, shot to tol 1e-10) one section return is recorded:
every RHS evaluation, projection, DenseStep and monitor call, and every
`integrate` call with its arguments.  The recorded calls are then replayed
one layer at a time:

* rhs: one evaluation of the chart RHS;
* step: one accepted step of `integrate` (replayed without the observer, up
  to the time each call reached), everything included;
* stage arith: that step less its RHS evaluations, its DenseStep and its
  projection, i.e. the trial step's own arithmetic and the step control;
* DenseStep: one construction;
* monitor: one call of the section-crossing monitor, with its work
  counter: the `Section.offset_at` calls of replaying the return's monitor
  calls once;
* return: one whole `first_return`, in ms;
* twist: one `jet3` plus one `twist_by_rotation_number` on the orbit's
  return map at the sphere_twist workload's twist settings, in ms, made
  in-process (through a plain function in the map's place, which has no
  `fan_out`) and fanned out across the CPUs (on the map itself), with the
  in-process section returns as the work counter.

Then torus10 is the time per step of a 10-component `flow_with_variation`
on the sinusoidal torus (torus_survey's path), and lookup is the dense-output
lookup on such a flow over torus_survey's simulate span (t_final 2): the us
per single-time `Trajectory.state` and the ns per time of one
`Trajectory.states` call, over the simulate stage's grid of 100 samples
(100 of each call per repetition), each read once before timing so that
the lazy interpolant rows and flat step arrays are in place.

Then window is the Franks window propagation on franks_verify's kit (the
bundled config's hyperbolic torus orbit, its first segment's tube and
constants, at the config's integrator options and eps_c1): one `response`
to the perturbation G(A) and one `response_derivative` along A, with the ns
per window step over both, and the window's RK4 steps as the work counter.  The kit's responses take A, so a
tree whose responses take coefficient callbacks (t, km) cannot be measured.

Then loop search is one Mane witness-loop search, `_negative_loop_search` at
k = 0.3 on the closed form ConstantForm(0.7, 0) with modes 8, restarts 8 and
maxiter 200 (the bundled critical-value stage's effort), from a fresh rng
seeded 0 and a fresh LagrangianSpec, so that anything the spec computes
once is paid as a stage pays it, in ms; a closed form has no negative loop
at k > 0, so every restart runs its Nelder-Mead descent, and the line says
whether a witness came back (none, in a correct tree) and the ms and calls
of `mane._loop_functional` within the search, read by a timing wrapper put
in its place for separate repetitions.  Then bracket is one
`estimate_critical_value` at the bundled critical_value.json's stage
settings, in ms, with its searches (bisection steps) as the work counter.

Last, certify is one `certify_horseshoe` on StandardMap(1.5)'s crossing
boxes for k = 1..20 (entropy_mane's first entropy stage: branches of
arclength 2.5 at tol 1e-4, the crossing of largest angle), in ms, with the
point images and the oracle calls as work counters: one `points` call per
box and iterate where the certifier keeps one orbit per box (60), one per
fiber and iterate where it keeps one per fiber (540), and one oracle call per
point image in a tree whose maps have no array form `points`.

Every time is the least over N repetitions (default 5), with the garbage
collector off while timing, as timeit does.  The work counters printed beside
each time (steps, RHS evaluations, returns) are those of one repetition, so
two trees doing the same work show the same counters.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

from diff_reports import _workloads, source_dir  # noqa: E402

LOOKUPS = 100  # the simulate stage's samples in torus_survey


def best(fn, reps):
    """Least wall time of reps calls of fn(), with the collector off."""
    times = []
    for _ in range(reps):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
    return min(times)


def _record(section, options, dyn, integ, orbits):
    """One first_return with every layer's calls recorded."""
    rec = {"integrate": [], "rhs": [], "post": [], "dense": [], "monitor": []}
    real_integrate = dyn.integrate

    def integrate(rhs, t0, y0, t_final, **kw):
        def rhs_rec(t, y):
            rec["rhs"].append((rhs, t, y))
            return rhs(t, y)

        post = kw["post_step"]

        def post_rec(t, y):
            rec["post"].append((post, t, y))
            return post(t, y)

        sol = real_integrate(rhs_rec, t0, y0, t_final,
                             **dict(kw, post_step=post_rec))
        replay = dict(kw, observer=None)
        rec["integrate"].append((rhs, t0, tuple(y0), sol.t_end, replay))
        return sol

    class Dense(integ.DenseStep):
        __slots__ = ()

        def __init__(self, *args):
            rec["dense"].append(args)
            super().__init__(*args)

    class Monitor(orbits._CrossingMonitor):
        def __call__(self, *args):
            rec["monitor"].append(args)
            return super().__call__(*args)

    saved = (dyn.integrate, integ.DenseStep, orbits._CrossingMonitor)
    dyn.integrate, integ.DenseStep, orbits._CrossingMonitor = integrate, Dense, Monitor
    try:
        orbits.first_return(section, (0.0, 0.0), 30.0, options=options)
    finally:
        dyn.integrate, integ.DenseStep, orbits._CrossingMonitor = saved
    return rec


def measure(reps):
    """Per-layer times and work counters of the maglab on sys.path."""
    import numpy as np

    import maglab.dynamics as dyn
    import maglab.integrate as integ
    import maglab.orbits as orbits
    from maglab.field import MagneticField, SinusoidalTorusField, ZonalSphereField
    from maglab.geometry import PhasePoint, flat_torus, sphere
    from maglab.scenarios import STAGE_TABLE

    options = dyn.IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    orb = orbits.find_closed_orbit(
        sphere(1.0), MagneticField(ZonalSphereField(1.6)), 0.5,
        PhasePoint(0, 0.35, 0.0, 0.0, 0.5), options=options,
        **dict(STAGE_TABLE["orbits"].keys, tol=1e-10, max_time=30.0))
    section = orb.return_map.section
    rec = _record(section, options, dyn, integ, orbits)

    def rhs():
        for f, t, y in rec["rhs"]:
            f(t, y)

    def post():
        for f, t, y in rec["post"]:
            f(t, y)

    def dense():
        for args in rec["dense"]:
            integ.DenseStep(*args)

    sols = []

    def steps():
        sols[:] = [integ.integrate(f, t0, y0, t1, **kw)
                   for f, t0, y0, t1, kw in rec["integrate"]]

    def monitor():
        mon = orbits._CrossingMonitor(section)
        for args in rec["monitor"]:
            mon(*args)

    # the monitor's work counter: section offsets read in one replay
    offsets = []
    real_offset_at = orbits.Section.offset_at

    def offset_at(self, *args):
        offsets.append(args)
        return real_offset_at(self, *args)

    orbits.Section.offset_at = offset_at
    try:
        monitor()
    finally:
        orbits.Section.offset_at = real_offset_at

    def one_return():
        orbits.first_return(section, (0.0, 0.0), 30.0, options=options)

    t_twist, n_twist, t_fanned = _twist_cost(orb.return_map, reps)
    n_rhs, n_post = len(rec["rhs"]), len(rec["post"])
    n_dense, n_mon = len(rec["dense"]), len(rec["monitor"])
    t_rhs = best(rhs, reps) / n_rhs
    t_post = best(post, reps) / n_post
    t_dense = best(dense, reps) / n_dense
    t_int = best(steps, reps)
    acc = sum(s.n_accepted for s in sols)
    rej = sum(s.n_rejected for s in sols)
    fev = sum(s.n_fev for s in sols)
    arith = (t_int - fev * t_rhs - acc * (t_dense + t_post)) / (acc + rej)

    torus = flat_torus()
    field = MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0))
    start = PhasePoint(0, 0.01, 0.3, 0.0, 1.0)
    survey_options = dyn.IntegratorOptions()
    paths = []

    def torus10():
        paths[:] = [dyn.flow_with_variation(torus, field, start, 10.0,
                                            survey_options)[0]]

    t_torus = best(torus10, reps)
    traj = paths[0]
    survey = dyn.flow_with_variation(torus, field, start, 2.0, survey_options)[0]
    grid = survey.t_reach * np.arange(LOOKUPS) / (LOOKUPS - 1)
    times = grid.tolist()

    def scalar_lookups():
        for t in times:
            survey.state(t)

    def array_lookups():  # as many states calls as scalar lookups
        for _ in times:
            survey.states(grid)

    scalar_lookups()
    survey.states(grid)
    t_scalar = best(scalar_lookups, reps)
    t_array = best(array_lookups, reps) / LOOKUPS
    t_resp, t_deriv, n_window = _window_cost(reps)
    t_search, witness, t_functional, n_functional = _loop_search_cost(reps)
    t_bracket, n_searches = _bracket_cost(reps)
    t_certify, n_images, n_calls = _certify_cost(reps)
    return {
        "rhs_us": 1e6 * t_rhs, "rhs_evals": n_rhs,
        "step_us": 1e6 * t_int / acc, "steps": acc, "rejected": rej,
        "step_rhs_evals": fev,
        "arith_us": 1e6 * arith,
        "dense_us": 1e6 * t_dense, "dense_steps": n_dense,
        "monitor_us": 1e6 * best(monitor, reps) / n_mon, "monitor_calls": n_mon,
        "monitor_offsets": len(offsets),
        "return_ms": 1e3 * best(one_return, reps), "returns": 1,
        "return_steps": n_dense, "return_rhs_evals": n_rhs,
        "twist_ms": 1e3 * t_twist, "twist_returns": n_twist,
        "twist_fanned_ms": 1e3 * t_fanned, "cpus": len(os.sched_getaffinity(0)),
        "torus10_us": 1e6 * t_torus / traj.n_accepted,
        "torus10_steps": traj.n_accepted, "torus10_rhs_evals": traj.n_fev,
        "state_us": 1e6 * t_scalar / LOOKUPS, "states_ns": 1e9 * t_array / LOOKUPS,
        "lookups": LOOKUPS, "lookup_steps": survey.n_accepted,
        "response_us": 1e6 * t_resp, "derivative_us": 1e6 * t_deriv,
        "window_ns": 1e9 * (t_resp + t_deriv) / (2 * n_window),
        "window_steps": n_window,
        "search_ms": 1e3 * t_search, "search_witness": witness,
        "functional_ms": 1e3 * t_functional, "functional_calls": n_functional,
        "bracket_ms": 1e3 * t_bracket, "bracket_searches": n_searches,
        "certify_ms": 1e3 * t_certify, "certify_images": n_images,
        "certify_calls": n_calls,
    }


def _twist_cost(rmap, reps):
    """(s in-process, its section returns, s fanned out) of jet3 plus the
    rotation-number fit at sphere_twist's twist settings."""
    from maglab.normalform import jet3, twist_by_rotation_number

    (cfg,) = _workloads()["sphere_twist"][0](1)
    st = cfg["pipeline"][-1]
    calls = []

    def plain(z):
        calls.append(z)
        return rmap(z)

    def twist(oracle):
        calls.clear()
        jet3(oracle, (0.0, 0.0), fd_scale=st["fd_scale"])
        twist_by_rotation_number(oracle, st["radii"], n_iter=st["n_iter"])

    t_in = best(lambda: twist(plain), reps)
    n_returns = len(calls)
    return t_in, n_returns, best(lambda: twist(rmap), reps)


def _window_cost(reps):
    """(s per response, s per response_derivative, window steps) on
    franks_verify's kit: its orbit flown at the scenario's integrator
    options (`IntegratorOptions()`), eps0 0.02 and eps_c1 0.1."""
    import maglab.franks as franks
    from maglab.dynamics import IntegratorOptions
    from maglab.field import MagneticField, SinusoidalTorusField
    from maglab.geometry import PhasePoint, flat_torus
    from maglab.orbits import find_closed_orbit
    from maglab.scenarios import STAGE_TABLE

    torus = flat_torus()
    field = MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0))
    options = IntegratorOptions()
    orb = find_closed_orbit(torus, field, 0.5, PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            options=options,
                            **dict(STAGE_TABLE["orbits"].keys, tol=1e-10))
    split = franks.segment_split(orb, eps0=0.02, options=options)
    kit = franks.FranksKit(split.tube(0))
    consts = franks.compute_constants(kit, eps_c1=0.1)
    s = 0.5 * consts.delta1
    A = franks.PerturbA(0.6 * s, 0.0, 0.8 * s)
    t_resp = best(lambda: kit.response(A), reps)
    t_deriv = best(lambda: kit.response_derivative(A), reps)
    return t_resp, t_deriv, kit.n_window_steps


def _loop_search_cost(reps):
    """(s per witness-loop search, whether it found a witness, s and calls of
    `_loop_functional` within one search) at k = 0.3 on the constant form
    (0.7, 0); the functional's time is the least over reps searches with a
    timing wrapper in its place, apart from the timed searches."""
    import numpy as np

    import maglab.mane as mane
    from maglab.geometry import flat_torus

    found = []

    def search():
        lag = mane.LagrangianSpec(flat_torus(), mane.ConstantForm(0.7, 0.0))
        found[:] = [mane._negative_loop_search(lag, 0.3, np.random.default_rng(0),
                                               8, 8, 200)]

    t_search = best(search, reps)
    real = mane._loop_functional
    spent = [0.0, 0]

    def timed(*args):
        t0 = time.perf_counter()
        try:
            return real(*args)
        finally:
            spent[0] += time.perf_counter() - t0
            spent[1] += 1

    runs = []
    mane._loop_functional = timed
    try:
        for _ in range(reps):
            spent[:] = [0.0, 0]
            best(search, 1)
            runs.append(tuple(spent))
    finally:
        mane._loop_functional = real
    t_functional, n_functional = min(runs)
    return t_search, found[0] is not None, t_functional, n_functional


def _bracket_cost(reps):
    """(s per critical-value bracket, its searches) at the stage settings of
    the bundled critical_value.json, with a fresh LagrangianSpec each time."""
    import maglab
    from maglab.mane import LagrangianSpec, estimate_critical_value
    from maglab.scenarios import load_scenario

    sc = load_scenario(os.path.join(os.path.dirname(maglab.__file__), "scenarios",
                                    "critical_value.json"))
    (st,) = sc.pipeline
    searches = []

    def bracket():
        br = estimate_critical_value(
            LagrangianSpec(sc.surface, st["eta"]), st["k_range"],
            st["bisection_tol"], sc.random_seed, st["modes"],
            restarts=st["restarts"], maxiter=st["maxiter"])
        searches[:] = [br.effort["bisection_steps"]]

    return best(bracket, reps), searches[0]


def _certify_cost(reps):
    """(s per certify_horseshoe, point images, oracle calls) on
    StandardMap(1.5)'s crossing boxes for k = 1..20."""
    from maglab.chaos import (certify_horseshoe, crossing_boxes, detect_homoclinic,
                              grow_manifold)
    from maglab.maps import StandardMap

    sm = StandardMap(1.5)
    wu = grow_manifold(sm, (0.0, 0.0), "unstable", 1, 2.5, tol=1e-4)
    ws = grow_manifold(sm, (1.0, 0.0), "stable", 1, 2.5, tol=1e-4)
    crossing = max(detect_homoclinic(ws, wu), key=lambda h: h.angle)
    boxes = crossing_boxes(sm, crossing.point, (0.0, 0.0))
    work = [0, 0]

    class Counted(StandardMap):
        def __call__(self, z):
            work[0] += 1
            work[1] += 1
            return super().__call__(z)

        if hasattr(StandardMap, "points"):
            def points(self, zs):
                work[0] += len(zs)
                work[1] += 1
                return super().points(zs)

    certify_horseshoe(Counted(1.5), boxes, range(1, 21), 1.0)
    t = best(lambda: certify_horseshoe(sm, boxes, range(1, 21), 1.0), reps)
    return t, work[0], work[1]


def report(m):
    """The lines printed for one tree's measurements."""
    return [
        f"  rhs          {m['rhs_us']:8.2f} us per evaluation   "
        f"({m['rhs_evals']:,} evaluations)",
        f"  step         {m['step_us']:8.2f} us per step         "
        f"({m['steps']:,} steps, {m['rejected']:,} rejected, "
        f"{m['step_rhs_evals']:,} RHS evaluations)",
        f"  stage arith  {m['arith_us']:8.2f} us per trial step   "
        f"(step less RHS, DenseStep and projection)",
        f"  DenseStep    {m['dense_us']:8.2f} us per step         "
        f"({m['dense_steps']:,} steps)",
        f"  monitor      {m['monitor_us']:8.2f} us per call         "
        f"({m['monitor_calls']:,} calls, {m['monitor_offsets']:,} offset_at "
        f"calls per return)",
        f"  return       {m['return_ms']:8.2f} ms per return       "
        f"({m['returns']} return, {m['return_steps']:,} steps, "
        f"{m['return_rhs_evals']:,} RHS evaluations)",
        f"  twist        {m['twist_ms']:8.2f} ms per twist        "
        f"({m['twist_returns']:,} returns in-process; {m['twist_fanned_ms']:.2f} ms "
        f"fanned out over {m['cpus']} CPUs)",
        f"  torus10      {m['torus10_us']:8.2f} us per step         "
        f"({m['torus10_steps']:,} steps, {m['torus10_rhs_evals']:,} RHS evaluations)",
        f"  lookup       {m['state_us']:8.2f} us per state call   "
        f"({m['lookups']} lookups over {m['lookup_steps']:,} steps; one states "
        f"call: {m['states_ns']:.1f} ns per time)",
        f"  window       {m['response_us']:8.2f} us per response     "
        f"({m['window_steps']:,} window steps; {m['derivative_us']:.2f} us per "
        f"derivative, {m['window_ns']:.1f} ns per window step)",
        f"  loop search  {m['search_ms']:8.2f} ms per search       "
        f"(k 0.3, 8 modes, 8 restarts, maxiter 200; "
        f"{'a witness' if m['search_witness'] else 'no witness'}; "
        f"{m['functional_ms']:.2f} ms in {m['functional_calls']:,} "
        f"_loop_functional calls)",
        f"  bracket      {m['bracket_ms']:8.2f} ms per bracket      "
        f"(critical_value.json; {m['bracket_searches']} searches)",
        f"  certify      {m['certify_ms']:8.2f} ms per certify      "
        f"(StandardMap(1.5), 3 boxes, k 1..20; {m['certify_images']:,} point "
        f"images, {m['certify_calls']:,} oracle calls)",
    ]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", metavar="TREE", default=[ROOT])
    parser.add_argument("--reps", type=int, default=5,
                        help="repetitions per timing; the least is kept")
    parser.add_argument("--json", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    if args.json:  # the per-tree process: maglab comes from PYTHONPATH
        print(json.dumps(measure(args.reps)))
        return 0
    for tree in args.trees:
        env = dict(os.environ, PYTHONPATH=source_dir(tree))
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--json",
             "--reps", str(args.reps)],
            env=env, capture_output=True, text=True, check=True).stdout
        print(f"{tree}:")
        print("\n".join(report(json.loads(out.splitlines()[-1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
