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
* return: one whole `first_return`, in ms.

Then torus10 is the time per step of a 10-component `flow_with_variation`
on the sinusoidal torus (torus_survey's path), and lookup is the dense-output
lookup on such a flow over torus_survey's simulate span (t_final 2): the us
per single-time `Trajectory.state` and the ns per time of one
`Trajectory.states` call, over the simulate stage's grid of 100 samples
(100 of each call per repetition), each read once before timing so that
the lazy interpolant rows and flat step arrays are in place.

Last, window is the Franks window propagation on franks_verify's kit (the
bundled config's hyperbolic torus orbit, its first segment's tube and
constants, at the config's integrator options and eps_c1): one `response`
to the perturbation G(A) and one `response_derivative` along A, with the ns
per window step over both, and the window's RK4 steps as the work counter.  The kit's responses take A, so a
tree whose responses take coefficient callbacks (t, km) cannot be measured.

Then loop search is one Mane witness-loop search, `_negative_loop_search` at
k = 0.3 on the closed form ConstantForm(0.7, 0) with modes 8, restarts 8 and
maxiter 200 (the bundled critical-value stage's effort), from a fresh rng
seeded 0, in ms; a closed form has no negative loop at k > 0, so every
restart runs its Nelder-Mead descent, and the line says whether a witness
came back (none, in a correct tree).

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

from diff_reports import source_dir  # noqa: E402

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

    options = dyn.IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    orb = orbits.find_closed_orbit(
        sphere(1.0), MagneticField(ZonalSphereField(1.6)), 0.5,
        PhasePoint(0, 0.35, 0.0, 0.0, 0.5), tol=1e-10, options=options,
        max_time=30.0)
    section = orb.section
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
    field = MagneticField(SinusoidalTorusField(1.0, (1, 0)))
    start = PhasePoint(0, 0.01, 0.3, 0.0, 1.0)
    paths = []

    def torus10():
        paths[:] = [dyn.flow_with_variation(torus, field, start, 10.0)[0]]

    t_torus = best(torus10, reps)
    traj = paths[0]
    survey = dyn.flow_with_variation(torus, field, start, 2.0)[0]
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
    t_search, witness = _loop_search_cost(reps)
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
        "torus10_us": 1e6 * t_torus / traj.n_accepted,
        "torus10_steps": traj.n_accepted, "torus10_rhs_evals": traj.n_fev,
        "state_us": 1e6 * t_scalar / LOOKUPS, "states_ns": 1e9 * t_array / LOOKUPS,
        "lookups": LOOKUPS, "lookup_steps": survey.n_accepted,
        "response_us": 1e6 * t_resp, "derivative_us": 1e6 * t_deriv,
        "window_ns": 1e9 * (t_resp + t_deriv) / (2 * n_window),
        "window_steps": n_window,
        "search_ms": 1e3 * t_search, "search_witness": witness,
    }


def _window_cost(reps):
    """(s per response, s per response_derivative, window steps) on
    franks_verify's kit: its orbit flown at the scenario's integrator
    options (`IntegratorOptions()`), eps0 0.02 and eps_c1 0.1."""
    import maglab.franks as franks
    from maglab.dynamics import IntegratorOptions
    from maglab.field import MagneticField, SinusoidalTorusField
    from maglab.geometry import PhasePoint, flat_torus
    from maglab.orbits import find_closed_orbit

    torus = flat_torus()
    field = MagneticField(SinusoidalTorusField(1.0, (1, 0)))
    orb = find_closed_orbit(torus, field, 0.5, PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            tol=1e-10)
    split = franks.segment_split(orb, torus, field, 0.5, eps0=0.02,
                                 options=IntegratorOptions())
    kit = franks.FranksKit(split.tube(0))
    consts = franks.compute_constants(kit, eps_c1=0.1)
    s = 0.5 * consts.delta1
    A = franks.PerturbA(0.6 * s, 0.0, 0.8 * s)
    t_resp = best(lambda: kit.response(A), reps)
    t_deriv = best(lambda: kit.response_derivative(A), reps)
    return t_resp, t_deriv, kit.n_window_steps


def _loop_search_cost(reps):
    """(s per witness-loop search, whether it found a witness) at k = 0.3 on
    the constant form (0.7, 0)."""
    import numpy as np

    from maglab.geometry import flat_torus
    from maglab.mane import ConstantForm, LagrangianSpec, _negative_loop_search

    lag = LagrangianSpec(flat_torus(), ConstantForm(0.7, 0.0))
    found = []

    def search():
        found[:] = [_negative_loop_search(lag, 0.3, np.random.default_rng(0),
                                          8, 8, 200)]

    return best(search, reps), found[0] is not None


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
        f"{'a witness' if m['search_witness'] else 'no witness'})",
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
