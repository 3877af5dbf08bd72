"""Per-layer tracing of maglab from outside the package.

`Tracer.install()` replaces public functions and methods of the maglab
modules with timing wrappers.  A function is replaced in every loaded maglab
module that holds it, so `from .integrate import integrate` call sites see
the wrapper too.  Nothing under src/ changes.

Two kinds of wrapper:

* span: a recorded span (name, start, end, parent span, run id) plus call
  counts, for the coarse public entry points;
* hot: call count and time only, for callbacks and lookups called millions
  of times (RHS, projection, observers, `Trajectory.state`, map oracles,
  loop samples), which would make a span list too large to keep.

Both push a frame on one stack, so a layer's self time is its time minus the
time of the wrapped calls made inside it, whichever kind they are.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

perf = time.perf_counter

# Span wrappers: (module, attribute path, trace name).
SPANS = [
    ("integrate", "integrate", "integrate"),
    ("dynamics", "flow", "dynamics.flow"),
    ("dynamics", "flow_with_variation", "dynamics.flow_with_variation"),
    ("field", "MagneticField.c0_norm", "field.c0_norm"),
    ("orbits", "first_return", "orbits.first_return"),
    ("orbits", "find_closed_orbit", "orbits.find_closed_orbit"),
    ("normalform", "jet3", "normalform.jet3"),
    ("normalform", "twist_by_rotation_number", "normalform.twist_fit"),
    ("franks", "segment_split", "franks.segment_split"),
    ("franks", "build_franks_kit", "franks.build_kit"),
    ("franks", "compute_constants", "franks.compute_constants"),
    ("franks", "FranksKit.set_window", "franks.set_window"),
    ("franks", "FranksKit.response", "franks.response"),
    ("franks", "FranksKit.response_derivative", "franks.response_derivative"),
    ("franks", "verify_cota", "franks.verify_cota"),
    ("franks", "verify_ball_surjectivity", "franks.verify_surjectivity"),
    ("chaos", "grow_manifold", "chaos.grow_manifold"),
    ("chaos", "detect_homoclinic", "chaos.detect_homoclinic"),
    ("chaos", "certify_horseshoe", "chaos.certify_horseshoe"),
    ("mane", "estimate_critical_value", "mane.estimate_critical_value"),
    ("mane", "rotation_vector", "mane.rotation_vector"),
]

# Hot wrappers on methods: (module, attribute path, trace name).
HOT = [
    ("dynamics", "Trajectory.state", "dynamics.state"),
    ("geometry", "Surface.transition", "geometry.transition"),
    ("geometry", "Surface.metric_at", "geometry.metric_at"),
    ("orbits", "_CrossingMonitor.__call__", "orbits.monitor"),
    ("mane", "FourierLoop.sample", "mane.loop_eval"),
]


class Tracer:
    """Spans, per-name call statistics and work counters of one operation."""

    def __init__(self, run_id):
        self.run_id = run_id
        # frame: [child seconds, id of the span it belongs to]
        self.root = [0.0, None]
        self.stack = [self.root]
        self.spans = []                    # [name, start, end, parent, run id]
        self.stats = {}                    # name -> [calls, total s, self s]
        self.counts = {}                   # work counters
        self.active = {}                   # span name -> open spans

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _stat(self, name):
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def hot(self, name, fn):
        """Wrap fn to count calls and time them, without recording spans."""
        st = self._stat(name)
        stack = self.stack

        def traced(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf() - t0
                stack.pop()
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                stack[-1][0] += d

        return functools.wraps(fn)(traced)

    def span(self, name, fn, before=None, after=None):
        """Wrap fn to record one span per call.

        before(args, kwargs) -> (args, kwargs) may wrap callbacks at the call
        boundary; after(result, args) records work counters.
        """
        st = self._stat(name)
        stack, spans, active = self.stack, self.spans, self.active

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1]
            frame = [0.0, len(spans)]
            spans.append(None)
            stack.append(frame)
            active[name] = active.get(name, 0) + 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + ".raised")
                raise
            finally:
                t1 = perf()
                active[name] -= 1
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                parent[0] += d
                spans[frame[1]] = [name, t0, t1, parent[1], self.run_id]
            if after is not None:
                after(result, args)
            return result

        return functools.wraps(fn)(traced)

    def inside(self, name):
        return self.active.get(name, 0) > 0

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap the maglab layers listed in SPANS and HOT, plus the hooks below."""
        import maglab.integrate
        import maglab.maps
        import maglab.scenarios

        hooks = {
            "integrate": (self._integrate_before, self._integrate_after),
            "orbits.first_return": (None, self._first_return_after),
            "normalform.jet3": (self._map_arg_before, None),
            "normalform.twist_fit": (self._map_arg_before, None),
            "franks.response": (None, self._response_after),
            "franks.response_derivative": (None, self._response_after),
            "franks.verify_surjectivity": (None, self._surjectivity_after),
            "chaos.grow_manifold": (None, self._manifold_after),
            "mane.estimate_critical_value": (None, self._bracket_after),
        }
        self._integrate_sig = inspect.signature(maglab.integrate.integrate)
        for mod, path, name in SPANS:
            before, after = hooks.get(name, (None, None))
            _replace(mod, path, lambda fn, n=name, b=before, a=after:
                     self.span(n, fn, b, a))
        for mod, path, name in HOT:
            _replace(mod, path, lambda fn, n=name: self.hot(n, fn))
        for cls in vars(maglab.maps).values():
            if isinstance(cls, type) and cls.__module__ == "maglab.maps":
                for meth in ("__call__", "inverse"):
                    if meth in vars(cls):
                        setattr(cls, meth, self.hot("maps.call", vars(cls)[meth]))
        stages = maglab.scenarios._STAGES
        for kind, fn in list(stages.items()):
            stages[kind] = self.span(f"scenarios.stage.{kind}", fn)

    def _integrate_before(self, args, kwargs):
        bound = self._integrate_sig.bind(*args, **kwargs)
        a = bound.arguments
        a["rhs"] = self.hot("dynamics.rhs", a["rhs"])
        for key, name in (("post_step", "dynamics.project"),
                          ("observer", "integrate.observer")):
            if a.get(key) is not None:
                a[key] = self.hot(name, a[key])
        return bound.args, bound.kwargs

    def _integrate_after(self, sol, args):
        self.count("integrate.steps_accepted", sol.n_accepted)
        self.count("integrate.steps_rejected", sol.n_rejected)
        self.count("integrate.rhs_evals", sol.n_fev)

    def _first_return_after(self, result, args):
        if self.inside("orbits.find_closed_orbit"):
            self.count("orbits.search_returns")

    def _map_arg_before(self, args, kwargs):
        map_fn = args[0]

        def counted(z):
            self.count("normalform.map_calls")
            return map_fn(z)

        return (counted,) + tuple(args[1:]), kwargs

    def _response_after(self, result, args):
        self.count("franks.window_steps", args[0].n_window_steps)
        if self.inside("franks.verify_surjectivity"):
            self.count("franks.surjectivity_responses")

    def _surjectivity_after(self, report, args):
        self.count("franks.targets", report.targets)

    def _manifold_after(self, branch, args):
        self.count("chaos.manifold_points", len(branch.points))

    def _bracket_after(self, bracket, args):
        self.count("mane.bisection_steps", bracket.effort["bisection_steps"])

    # -- results ------------------------------------------------------------

    def work_counters(self):
        """Counts that must repeat exactly between two runs of one input."""
        out = {f"{name}.calls": st[0] for name, st in self.stats.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))

    def self_table(self):
        """Per-layer (module) calls and self time."""
        table = {}
        for name, (calls, total, self_s) in self.stats.items():
            row = table.setdefault(name.split(".")[0], [0, 0.0])
            row[0] += calls
            row[1] += self_s
        return {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(table.items())}

    def layer_metrics(self, cpu_s, wall_s):
        """The per-layer metrics named in BENCHMARK.json."""
        def calls(n):
            return self.stats.get(n, [0, 0.0, 0.0])[0]

        def total(n):
            return self.stats.get(n, [0, 0.0, 0.0])[1]

        def self_s(n):
            return self.stats.get(n, [0, 0.0, 0.0])[2]

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts.get
        acc = c("integrate.steps_accepted", 0)
        rej = c("integrate.steps_rejected", 0)
        searches = calls("orbits.find_closed_orbit")
        failed = c("orbits.find_closed_orbit.raised", 0)
        window = c("franks.window_steps", 0)
        points = c("chaos.manifold_points", 0)
        return {
            "integrate.calls": calls("integrate"),
            "integrate.self_s": self_s("integrate"),
            "integrate.steps_accepted": acc,
            "integrate.steps_rejected": rej,
            "integrate.accept_ratio": ratio(acc, acc + rej),
            "integrate.rhs_evals": c("integrate.rhs_evals", 0),
            "integrate.us_per_step": 1e6 * ratio(self_s("integrate"), acc),
            "dynamics.rhs_s": total("dynamics.rhs"),
            "dynamics.us_per_rhs": 1e6 * ratio(total("dynamics.rhs"),
                                               calls("dynamics.rhs")),
            "dynamics.project_s": total("dynamics.project"),
            "dynamics.flow.calls": calls("dynamics.flow"),
            "dynamics.flow.self_s": self_s("dynamics.flow"),
            "dynamics.flow_with_variation.calls": calls("dynamics.flow_with_variation"),
            "dynamics.flow_with_variation.self_s": self_s("dynamics.flow_with_variation"),
            "dynamics.state_lookups": calls("dynamics.state"),
            "dynamics.state_lookup_s": total("dynamics.state"),
            "geometry.chart_switches": calls("geometry.transition"),
            "geometry.metric_lookups": calls("geometry.metric_at"),
            "geometry.metric_lookup_s": total("geometry.metric_at"),
            "field.c0_norm.calls": calls("field.c0_norm"),
            "field.c0_norm.self_s": self_s("field.c0_norm"),
            "orbits.first_return.calls": calls("orbits.first_return"),
            "orbits.ms_per_return": 1e3 * ratio(total("orbits.first_return"),
                                                calls("orbits.first_return")),
            "orbits.monitor_s": total("orbits.monitor"),
            "orbits.find_closed_orbit.calls": searches,
            "orbits.find_closed_orbit.self_s": self_s("orbits.find_closed_orbit"),
            "orbits.searches_failed": failed,
            "orbits.found_ratio": ratio(searches - failed, searches),
            "orbits.returns_per_search": ratio(c("orbits.search_returns", 0), searches),
            "normalform.jet3.s": total("normalform.jet3"),
            "normalform.twist_fit.s": total("normalform.twist_fit"),
            "normalform.map_calls": c("normalform.map_calls", 0),
            "franks.response.calls": calls("franks.response"),
            "franks.response.self_s": self_s("franks.response"),
            "franks.response_derivative.calls": calls("franks.response_derivative"),
            "franks.response_derivative.self_s": self_s("franks.response_derivative"),
            "franks.window_steps": window,
            "franks.ns_per_window_step": 1e9 * ratio(
                self_s("franks.response") + self_s("franks.response_derivative"), window),
            "franks.set_window.self_s": self_s("franks.set_window"),
            "franks.compute_constants.self_s": self_s("franks.compute_constants"),
            "franks.segment_split.self_s": self_s("franks.segment_split"),
            "franks.verify_cota.s": total("franks.verify_cota"),
            "franks.verify_surjectivity.s": total("franks.verify_surjectivity"),
            "franks.responses_per_target": ratio(c("franks.surjectivity_responses", 0),
                                                 c("franks.targets", 0)),
            "chaos.grow_manifold.self_s": self_s("chaos.grow_manifold"),
            "chaos.manifold_points": points,
            "chaos.detect_homoclinic.self_s": self_s("chaos.detect_homoclinic"),
            "chaos.certify_horseshoe.self_s": self_s("chaos.certify_horseshoe"),
            "maps.calls": calls("maps.call"),
            "chaos.points_per_map_call": ratio(points, calls("maps.call")),
            "mane.estimate_critical_value.self_s": self_s("mane.estimate_critical_value"),
            "mane.bisection_steps": c("mane.bisection_steps", 0),
            "mane.loop_evals": calls("mane.loop_eval"),
            "mane.us_per_loop_eval": 1e6 * ratio(total("mane.loop_eval"),
                                                 calls("mane.loop_eval")),
            "mane.rotation_vector.calls": calls("mane.rotation_vector"),
            "scenarios.cpu_s": cpu_s,
            "scenarios.cpu_per_wall": ratio(cpu_s, wall_s),
        }


def _replace(module, path, make):
    """Replace maglab.<module>.<path> by make(original) wherever it is held."""
    mod = importlib.import_module(f"maglab.{module}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name) if owner_name else mod
    original = vars(owner)[attr]
    wrapped = make(original)
    if owner_name:
        setattr(owner, attr, wrapped)
        return
    for name, m in list(sys.modules.items()):
        if name == "maglab" or name.startswith("maglab."):
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)
