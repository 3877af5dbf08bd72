"""Magnetic geodesic flow and its linearization.

The trajectory ODE in a conformal chart (g = lam^2 <.,.>, i = Euclidean
rotation) reads

    x' = v,    v'^k = -Gamma^k(v, v) + f(x) (i v)^k,

and speed |v|_g is a first integral.  Along a trajectory of energy c the
transversal linearization is governed by the magnetic curvature

    K_mag(t) = 2 c K(x(t)) - <grad f, i v> + f(x(t))^2,

through the planar system d/dt (y, y') = [[0, 1], [-K_mag, 0]] (y, y'),
whose fundamental matrix X(t) is the linearized return data, plus the
decoupled drift x' = f y along the flow direction.

The right-hand sides read the chart through two calls, `lam(x, y)` and
`log_grad(x, y)` = (lam_x/lam, lam_y/lam), plus the chart's constant
`curvature`, and write Gamma^k(v, v) inline from the log-gradient; the full
`MetricData` (`Surface.metric_at`) is left to curvature and K_mag.

A flow is one list of steps in trajectory time, whatever charts it passes
through: each chart piece is integrated from the time already reached, and
the trajectory keeps the chart of each step.  It answers one time with
`state`/`raw` and an array of times with `states`, whose entries are == to
the scalar lookups: each checks the range once (a NaN time fails it), clamps
once and picks the step by one rule, `Solution._index`.  Those two single-time
reads serve per-point loops (a tube's Newton inversion, `end_state`); the
derived quantities are read over arrays only: `VariationalPath.matrices` (X)
and `magnetic_curvature` (K_mag) take an array of times, a number being read
as a 0-d array.  Many times are read with one array call (`energies`,
`max_energy_drift` and `det_defect` too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import PhasePoint, Surface, energy as phase_energy
from .integrate import Solution, clamp, integrate

__all__ = [
    "Trajectory",
    "VariationalPath",
    "flow",
    "flow_with_variation",
    "magnetic_curvature",
    "injectivity_time",
    "IntegratorOptions",
]


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf


def _chart_rhs(surface, field, chart):
    """RHS of the trajectory ODE in one chart (state = (x, y, vx, vy))."""
    log_grad = surface.charts[chart].log_grad
    wrap = surface.kind == "torus"
    fval = field.value

    def rhs(t, y):
        x, yy, vx, vy = y
        if wrap:
            xm = x - math.floor(x)
            ym = yy - math.floor(yy)
        else:
            xm, ym = x, yy
        lx, ly = log_grad(xm, ym)
        f = fval(chart, xm, ym)
        # Gamma^k_ij v^i v^j, the quadratic term of the geodesic equation
        if lx == 0.0 and ly == 0.0:
            g1 = 0.0
            g2 = 0.0
        else:
            g1 = lx * (vx * vx - vy * vy) + 2.0 * ly * vx * vy
            g2 = ly * (vy * vy - vx * vx) + 2.0 * lx * vx * vy
        return (vx, vy, -g1 - f * vy, -g2 + f * vx)

    return rhs


def _chart_rhs_variational(surface, field, chart, c):
    """RHS of the coupled (trajectory, X, drift-row) system, 10 components."""
    ch = surface.charts[chart]
    log_grad = ch.log_grad
    curvature = ch.curvature
    wrap = surface.kind == "torus"
    feval = field.eval

    def rhs(t, y):
        x, yy, vx, vy, x11, x12, x21, x22, d1, d2 = y
        if wrap:
            xm = x - math.floor(x)
            ym = yy - math.floor(yy)
        else:
            xm, ym = x, yy
        lx, ly = log_grad(xm, ym)
        f, (fx, fy) = feval(chart, xm, ym)
        if lx == 0.0 and ly == 0.0:
            g1 = 0.0
            g2 = 0.0
        else:
            g1 = lx * (vx * vx - vy * vy) + 2.0 * ly * vx * vy
            g2 = ly * (vy * vy - vx * vx) + 2.0 * lx * vx * vy
        kmag = 2.0 * c * curvature + f * f + fx * vy - fy * vx
        return (
            vx,
            vy,
            -g1 - f * vy,
            -g2 + f * vx,
            x21,
            x22,
            -kmag * x11,
            -kmag * x12,
            f * x11,
            f * x12,
        )

    return rhs


def _renormalizer(surface, chart, c):
    """Per-step projection of the speed onto the energy level E = c."""
    lam_of = surface.charts[chart].lam
    wrap = surface.kind == "torus"
    target = math.sqrt(2.0 * c)

    def post(t, y):
        x, yy, vx, vy = y[0], y[1], y[2], y[3]
        if wrap:
            x -= math.floor(x)
            yy -= math.floor(yy)
        sp = lam_of(x, yy) * math.hypot(vx, vy)
        # a zero or subnormal speed has no finite scale; the state is kept
        if sp == 0.0:
            return y
        s = target / sp
        if not math.isfinite(s):
            return y
        return (y[0], y[1], vx * s, vy * s) + tuple(y[4:])

    return post


@dataclass
class Trajectory:
    """Dense magnetic geodesic over [0, t_final] (t_final may be negative).

    `sol` holds every step of the flow in trajectory time tau = sign * t, one
    `Solution` across chart switches, and `charts[i]` is the chart of step i.
    """

    surface: Surface
    c: float
    t_final: float
    sol: Solution
    charts: list
    sign: int = 1
    exited: bool = False
    dim: int = 4

    exit_time: float = None

    # the step counters of the whole flow, summed over its segments on `sol`
    n_accepted = property(lambda self: self.sol.n_accepted)
    n_rejected = property(lambda self: self.sol.n_rejected)
    n_fev = property(lambda self: self.sol.n_fev)

    @property
    def t_reach(self):
        """Signed time actually covered (differs from t_final after an exit)."""
        if self.exit_time is not None:
            return self.sign * self.exit_time
        return self.sign * self.sol.t_end

    @cached_property
    def _chart_array(self):
        return np.array(self.charts)

    def raw(self, t):
        """Raw state tuple at time t (chart-local, unwrapped)."""
        tau = self.sign * t
        if not -1e-12 <= tau <= abs(self.t_reach) + 1e-9:
            raise ValueError(f"t={t} outside the integrated range")
        sol = self.sol
        tau = min(max(tau, sol.t0), sol.t_end)
        i = sol._index(tau)
        return self.charts[i], sol.steps[i].eval(tau)

    def state(self, t) -> PhasePoint:
        chart, y = self.raw(t)
        return PhasePoint(chart, y[0], y[1], y[2], y[3])

    def states(self, ts, comps=(0, 1, 2, 3)):
        """Charts and state components at an array of times.

        Returns (charts, cols): an int array of charts and a list with one
        float64 array per component in `comps`, each of ts's shape, whose
        entries are == to those of `raw(t)`: the same range check (ValueError,
        NaN included), clamp and step, each made once for the array.
        """
        tau = self.sign * np.asarray(ts, dtype=float)
        bad = ~((tau >= -1e-12) & (tau <= abs(self.t_reach) + 1e-9))
        if bad.any():
            raise ValueError(f"t={self.sign * tau[bad][0]} outside the integrated range")
        sol = self.sol
        tau = clamp(tau, sol.t0, sol.t_end)
        i = sol._index(tau)
        return self._chart_array[i], sol.eval_many(tau, i, comps)

    def end_state(self) -> PhasePoint:
        return self.state(self.t_reach)

    def energies(self, charts, cols):
        """E at the points (charts, [x, y, vx, vy]) that `states` reads; each
        entry == phase_energy of the point, which may raise alike."""
        return _by_chart(charts, cols, lambda chart, *p: phase_energy(
            self.surface, PhasePoint(chart, *p)))

    @cached_property
    def max_energy_drift(self):
        """Largest |E - c| over a grid of up to 200 times, computed on first use.

        States outside the chart domain (after a planar exit) are skipped.
        """
        n = min(200, 2 * self.n_accepted + 2)
        charts, cols = self.states(self.t_reach * np.arange(n) / (n - 1))
        keep = np.zeros(n, dtype=bool)
        for chart in set(charts.tolist()):
            keep |= (charts == chart) & self.surface.contains(chart, *cols[:2])
        e = self.energies(charts[keep], [col[keep] for col in cols])
        return max([0.0, *np.abs(e - self.c).tolist()])


class VariationalPath:
    """X(t) of the reduced variational system (the drift row only steers steps)."""

    def __init__(self, trajectory):
        if trajectory.dim != 10:
            raise ValueError("trajectory carries no variational data")
        self._traj = trajectory

    def matrices(self, ts):
        """X at an array of times, shape ts.shape + (2, 2): a number is read
        as a 0-d array and gives one 2x2 matrix.  Each entry is == to
        components 4-7 of `Trajectory.raw` at its time."""
        _, cols = self._traj.states(ts, (4, 5, 6, 7))
        return np.stack(cols, axis=-1).reshape(np.shape(ts) + (2, 2))

    def det_defect(self, n=64):
        """Largest |det X - 1| over n evenly spaced times."""
        ts = self._traj.t_reach * np.arange(n) / (n - 1)
        return max(np.abs(np.linalg.det(self.matrices(ts)) - 1.0).tolist())


def _run_flow(surface, field, state, t_final, options, dim, observer=None):
    if t_final == 0.0:
        raise ValueError("t_final must be nonzero")
    # Python floats from here on: a numpy scalar in the state or the time
    # would reach c, the horizon and every step, RHS and projection
    state = PhasePoint(state.chart, float(state.x), float(state.y),
                       float(state.vx), float(state.vy))
    t_final = float(t_final)
    c = phase_energy(surface, state)
    if c <= 0.0:
        raise ValueError("initial state must have positive energy")
    # time reversal integrates the negated vector field; state components
    # keep their forward-time meaning throughout
    sign = 1 if t_final > 0 else -1
    horizon = abs(t_final)
    chart = state.chart
    vx, vy = state.vx, state.vy
    if dim == 4:
        y = (state.x, state.y, vx, vy)
    else:
        y = (state.x, state.y, vx, vy, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    traj = Trajectory(surface, c, t_final, None, [], sign=sign, dim=dim)
    steps = []
    n_rej = n_fev = 0
    t_done = 0.0
    planar = surface.kind == "planar"
    sphere = surface.kind == "sphere"

    while t_done < horizon - 1e-14:
        if dim == 4:
            base = _chart_rhs(surface, field, chart)
        else:
            base = _chart_rhs_variational(surface, field, chart, c)
        rhs = base if sign > 0 else (lambda t, yy: tuple(-v for v in base(t, yy)))
        post = _renormalizer(surface, chart, c)

        stop_reason = {}

        def seg_observer(step, _chart=chart):
            x, yy = step.y1[0], step.y1[1]
            if planar and not surface.contains(_chart, x, yy):
                stop_reason["kind"] = "exit"
                # refine the boundary crossing on the dense interpolant
                lo, hi = step.t0, step.t1
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if surface.contains(_chart, *step.eval_position(mid)):
                        lo = mid
                    else:
                        hi = mid
                stop_reason["exit_time"] = lo
                return False
            # the observer sees the step that leaves a sphere chart too: a
            # section crossing may lie in it
            if observer is not None and observer(_chart, step) is False:
                stop_reason["kind"] = "user"
                return False
            # the one definition of the sphere switch radius (chart radius 2)
            if sphere and x * x + yy * yy > 4.0:
                stop_reason["kind"] = "switch"
                return False
            return True

        sol = integrate(
            rhs,
            t_done,
            y,
            horizon,
            rtol=options.rel_tol,
            atol=options.abs_tol,
            max_step=options.max_step,
            post_step=post,
            observer=seg_observer,
        )
        steps += sol.steps
        traj.charts += [chart] * len(sol.steps)
        n_rej += sol.n_rejected
        n_fev += sol.n_fev
        t_done = sol.t_end
        y = sol.y_end
        kind = stop_reason.get("kind")
        if kind == "exit":
            traj.exited = True
            traj.exit_time = stop_reason["exit_time"]
            break
        if kind == "user":
            break
        if kind == "switch":
            ps = PhasePoint(chart, y[0], y[1], y[2], y[3])
            ps2 = surface.transition(ps)
            chart = ps2.chart
            y = (ps2.x, ps2.y, ps2.vx, ps2.vy) + tuple(y[4:])
    traj.sol = Solution(steps)
    traj.sol.n_rejected, traj.sol.n_fev = n_rej, n_fev
    return traj


def flow(surface, field, state, t_final, options, observer=None):
    """Integrate the magnetic geodesic through `state` over [0, t_final].

    Negative t_final integrates the time-reversed field.  Returns a dense
    Trajectory; if a planar chart is exited the trajectory is truncated and
    flagged (`exited`).  observer(chart, step), when given, sees each
    accepted step in trajectory time and may return False to stop the flow
    after it.
    """
    return _run_flow(surface, field, state, t_final, options, dim=4, observer=observer)


def flow_with_variation(surface, field, state, t_final, options):
    """Trajectory plus the fundamental matrix of the reduced variational system.

    The 2x2 system and the flow share one step controller.
    Returns (Trajectory, VariationalPath).
    """
    traj = _run_flow(surface, field, state, t_final, options, dim=10)
    return traj, VariationalPath(traj)


def magnetic_curvature(surface, field, trajectory, t):
    """K_mag = 2cK - <grad f, i v> + f^2 at an array t of trajectory times.

    The trajectory is read with one `states` call and each chart's points are
    evaluated as arrays; the result has t's shape, a number t being read as a
    0-d array.
    """
    c = trajectory.c
    return _by_chart(*trajectory.states(t),
                     lambda chart, *p: _kmag(surface, field, chart, *p, c))


def _by_chart(charts, cols, fn):
    """fn(chart, *cols) on each chart's points, as arrays, put together into
    one float64 array of charts' shape."""
    out = np.empty(charts.shape)
    for chart in set(charts.ravel().tolist()):
        at = charts == chart
        out[at] = fn(chart, *(col[at] for col in cols))
    return out


def _kmag(surface, field, chart, x, y, vx, vy, c):
    """K_mag at chart points, arrays of one shape."""
    xm, ym = surface.wrap_position(x, y)
    md = surface.metric_at(chart, xm, ym)
    f, (fx, fy) = field.eval(chart, xm, ym)
    return 2.0 * c * md.curvature + f * f + fx * vy - fy * vx


def injectivity_time(surface, field, c):
    """Lower bound K(c, f) = min{1/(|f|_C0 + 1)^2, i(M,g)/(2c)}.

    |f|_C0 is `field.c0_norm`: the closed-form sup-norm bound of the field
    with a 1% margin, not a sample.  Any closed orbit must have minimal
    period at least K, since the projected trajectory is injective on
    [0, K).  (The source statement says "period at most K"; injectivity
    forces the opposite reading, which is what this bound reports.)
    """
    if c <= 0:
        raise ValueError("energy must be positive")
    first = 1.0 / (field.c0_norm(surface) + 1.0) ** 2
    return min(first, surface.injectivity_radius / (2.0 * c))
