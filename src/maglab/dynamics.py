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
`MetricData` (`Surface.metric_at`) is left to curvature, K_mag and the
finite-difference oracle.

A trajectory answers one time with `state`/`raw` and an array of times with
`states`, whose entries are == to the scalar lookups; `VariationalPath` has
`matrix` and `matrices` alike, and `magnetic_curvature` takes a time or an
array of times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartDomainError
from .geometry import PhasePoint, Surface, energy as phase_energy
from .integrate import clamp, integrate

__all__ = [
    "Trajectory",
    "VariationalPath",
    "flow",
    "flow_with_variation",
    "magnetic_curvature",
    "injectivity_time",
    "fd_monodromy",
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
class _Segment:
    chart: int
    t_start: float  # trajectory time at the start of this segment
    sol: object


@dataclass
class Trajectory:
    """Dense magnetic geodesic over [0, t_final] (t_final may be negative)."""

    surface: Surface
    c: float
    t_final: float
    segments: list
    sign: int = 1
    exited: bool = False
    n_accepted: int = 0
    n_rejected: int = 0
    n_fev: int = 0
    dim: int = 4

    exit_time: float = None

    @property
    def t_reach(self):
        """Signed time actually covered (differs from t_final after an exit)."""
        if self.exit_time is not None:
            return self.sign * self.exit_time
        seg = self.segments[-1]
        return self.sign * (seg.t_start + (seg.sol.t_end - seg.sol.t0))

    def _segment_at(self, tau):
        for seg in self.segments:
            local_end = seg.t_start + (seg.sol.t_end - seg.sol.t0)
            if tau <= local_end + 1e-12:
                return seg
        return self.segments[-1]

    def raw(self, t):
        """Raw state tuple at time t (chart-local, unwrapped)."""
        tau = self.sign * t
        if tau < -1e-12 or tau > abs(self.t_reach) + 1e-9:
            raise ValueError(f"t={t} outside the integrated range")
        seg = self._segment_at(tau)
        local = seg.sol.t0 + (tau - seg.t_start)
        local = min(max(local, seg.sol.t0), seg.sol.t_end)
        return seg.chart, seg.sol.eval(local)

    def state(self, t) -> PhasePoint:
        chart, y = self.raw(t)
        return PhasePoint(chart, y[0], y[1], y[2], y[3])

    def states(self, ts, comps=(0, 1, 2, 3)):
        """Charts and state components at an array of times.

        Returns (charts, cols): an int array of charts and a list with one
        float64 array per component in `comps`, each of ts's shape, whose
        entries are == to those of `raw(t)`: the same range check (ValueError),
        segment choice, clamp and step.
        """
        tau = self.sign * np.asarray(ts, dtype=float)
        bad = (tau < -1e-12) | (tau > abs(self.t_reach) + 1e-9)
        if bad.any():
            raise ValueError(f"t={self.sign * tau[bad][0]} outside the integrated range")
        segs = self.segments
        # _segment_at: the first segment whose end (plus 1e-12) reaches tau
        ends = [seg.t_start + (seg.sol.t_end - seg.sol.t0) + 1e-12 for seg in segs]
        which = np.minimum(np.searchsorted(ends, tau, "left"), len(segs) - 1)
        charts = np.empty(tau.shape, dtype=int)
        cols = [np.empty(tau.shape) for _ in comps]
        for k, seg in enumerate(segs):
            at = which == k
            if not at.any():
                continue
            sol = seg.sol
            local = clamp(sol.t0 + (tau[at] - seg.t_start), sol.t0, sol.t_end)
            charts[at] = seg.chart
            for col, vals in zip(cols, sol.eval_many(local, comps)):
                col[at] = vals
        return charts, cols

    def end_state(self) -> PhasePoint:
        return self.state(self.t_reach)

    def times(self, n):
        t1 = self.t_reach
        return [t1 * i / (n - 1) for i in range(n)]

    @cached_property
    def max_energy_drift(self):
        """Largest |E - c| over a grid of up to 200 times, computed on first use.

        States outside the chart domain (after a planar exit) are skipped.
        """
        drift = 0.0
        for t in self.times(min(200, 2 * self.n_accepted + 2)):
            try:
                drift = max(drift, abs(phase_energy(self.surface, self.state(t)) - self.c))
            except ChartDomainError:
                pass
        return drift


class VariationalPath:
    """X(t) of the reduced variational system (the drift row only steers steps)."""

    def __init__(self, trajectory):
        if trajectory.dim != 10:
            raise ValueError("trajectory carries no variational data")
        self._traj = trajectory

    def matrix(self, t):
        _, y = self._traj.raw(t)
        return np.array([[y[4], y[5]], [y[6], y[7]]])

    def matrices(self, ts):
        """X at an array of times, shape ts.shape + (2, 2); each == matrix(t)."""
        _, cols = self._traj.states(ts, (4, 5, 6, 7))
        return np.stack(cols, axis=-1).reshape(np.shape(ts) + (2, 2))

    def det_defect(self, n=64):
        ts = self._traj.times(n)
        return max(abs(np.linalg.det(self.matrix(t)) - 1.0) for t in ts)


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

    traj = Trajectory(surface, c, t_final, [], sign=sign, dim=dim)
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

        def seg_observer(step, _chart=chart, _offset=t_done):
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
                stop_reason["exit_time"] = _offset + lo
                return False
            # the one definition of the sphere switch radius (chart radius 2)
            if sphere and x * x + yy * yy > 4.0:
                stop_reason["kind"] = "switch"
                return False
            if observer is not None:
                keep = observer(_chart, step, _offset)
                if keep is False:
                    stop_reason["kind"] = "user"
                    return False
            return True

        sol = integrate(
            rhs,
            0.0,
            y,
            horizon - t_done,
            rtol=options.rel_tol,
            atol=options.abs_tol,
            max_step=options.max_step,
            post_step=post,
            observer=seg_observer,
        )
        traj.segments.append(_Segment(chart, t_done, sol))
        traj.n_accepted += sol.n_accepted
        traj.n_rejected += sol.n_rejected
        traj.n_fev += sol.n_fev
        t_done += sol.t_end - sol.t0
        y = sol.y_end
        kind = stop_reason.get("kind")
        if kind == "exit":
            traj.exited = True
            traj.exit_time = stop_reason.get("exit_time", t_done)
            break
        if kind == "user":
            break
        if kind == "switch":
            ps = PhasePoint(chart, y[0], y[1], y[2], y[3])
            ps2 = surface.transition(ps)
            chart = ps2.chart
            y = (ps2.x, ps2.y, ps2.vx, ps2.vy) + tuple(y[4:])
        elif sol.status == "max_steps":
            break

    return traj


def flow(surface, field, state, t_final, options=None, observer=None):
    """Integrate the magnetic geodesic through `state` over [0, t_final].

    Negative t_final integrates the time-reversed field.  Returns a dense
    Trajectory; if a planar chart is exited the trajectory is truncated and
    flagged (`exited`).
    """
    options = options or IntegratorOptions()
    return _run_flow(surface, field, state, t_final, options, dim=4, observer=observer)


def flow_with_variation(surface, field, state, t_final, options=None):
    """Trajectory plus the fundamental matrix of the reduced variational system.

    The 2x2 system and the flow share one step controller.
    Returns (Trajectory, VariationalPath).
    """
    options = options or IntegratorOptions()
    traj = _run_flow(surface, field, state, t_final, options, dim=10)
    return traj, VariationalPath(traj)


def magnetic_curvature(surface, field, trajectory, t):
    """K_mag = 2cK - <grad f, i v> + f^2 at trajectory time t.

    t is a number, or an array of times: then the trajectory is read with one
    `states` call and each chart's points are evaluated as arrays, with
    entries == to the number's result.
    """
    c = trajectory.c
    if np.ndim(t) == 0:
        return magnetic_curvature_at(surface, field, trajectory.state(t), c)
    charts, (x, y, vx, vy) = trajectory.states(t)
    out = np.empty(charts.shape)
    for chart in {seg.chart for seg in trajectory.segments}:
        at = charts == chart
        if not at.any():
            continue
        out[at] = _kmag(surface, field, chart, x[at], y[at], vx[at], vy[at], c)
    return out


def magnetic_curvature_at(surface, field, state, c):
    return _kmag(surface, field, state.chart, state.x, state.y, state.vx,
                 state.vy, c)


def _kmag(surface, field, chart, x, y, vx, vy, c):
    """K_mag at chart points: numbers, or arrays of one shape."""
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


# -- independent finite-difference check of the variational flow -------------


def _conformal_gamma(md, u, v):
    """Gamma(u, v) via nabla_u v = D_u v + dL(u) v + dL(v) u - <u,v> grad L."""
    lx, ly = md.log_grad
    du = lx * u[0] + ly * u[1]
    dv = lx * v[0] + ly * v[1]
    uv = u[0] * v[0] + u[1] * v[1]
    return (du * v[0] + dv * u[0] - uv * lx, du * v[1] + dv * u[1] - uv * ly)


def _frame_coords(surface, field, base: PhasePoint, other: PhasePoint, c):
    """(x_drift, y, ydot) of `other` relative to `base` in the (e1, e2) frame."""
    if other.chart != base.chart:
        conv = surface.to_chart(other, base.chart)
        if conv is None:
            raise ChartDomainError("states not comparable in a common chart")
        other = conv
    md = surface.metric_at(base.chart, *surface.wrap_position(base.x, base.y))
    lam2 = md.lam * md.lam
    dx = surface.wrap_diff(other.x - base.x, other.y - base.y)
    v = (base.vx, base.vy)
    u = (-base.vy, base.vx)  # i v in chart coordinates
    two_c = 2.0 * c
    xdrift = lam2 * (dx[0] * v[0] + dx[1] * v[1]) / two_c
    ycoord = lam2 * (dx[0] * u[0] + dx[1] * u[1]) / two_c
    gam = _conformal_gamma(md, dx, v)
    dvc = (other.vx - base.vx + gam[0], other.vy - base.vy + gam[1])
    fval = field.value(base.chart, *surface.wrap_position(base.x, base.y))
    ydot = lam2 * (dvc[0] * u[0] + dvc[1] * u[1]) / two_c - xdrift * fval
    return (xdrift, ycoord, ydot)


def _offset_state(surface, state: PhasePoint, c, h, direction):
    """State offset h e1 (direction=0, horizontal) or h e2 (=1, vertical)."""
    md = surface.metric_at(state.chart, *surface.wrap_position(state.x, state.y))
    u = (-state.vy, state.vx)
    if direction == 0:
        x = state.x + h * u[0]
        y = state.y + h * u[1]
        gam = _conformal_gamma(md, u, (state.vx, state.vy))
        vx = state.vx - h * gam[0]
        vy = state.vy - h * gam[1]
    else:
        x, y = state.x, state.y
        vx = state.vx + h * u[0]
        vy = state.vy + h * u[1]
    lam = surface.metric_at(state.chart, *surface.wrap_position(x, y)).lam
    s = math.sqrt(2.0 * c) / (lam * math.hypot(vx, vy))
    return PhasePoint(state.chart, x, y, vx * s, vy * s)


def fd_monodromy(surface, field, state, T, h=1e-5):
    """Central finite differences of the time-T flow map in the (e1, e2) frame.

    Independent oracle for X(T): perturbs the initial state along the frame
    (i v horizontal / i v vertical), projects back onto the energy level,
    flows, and reads off frame coordinates with the covariant velocity
    correction.  Each flow runs at rel_tol 1e-12, abs_tol 1e-13.  Returns a
    2x2 numpy array.
    """
    options = IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    c = phase_energy(surface, state)
    base_end = flow(surface, field, state, T, options).end_state()
    cols = []
    for direction in (0, 1):
        plus = _offset_state(surface, state, c, h, direction)
        minus = _offset_state(surface, state, c, -h, direction)
        end_p = flow(surface, field, plus, T, options).end_state()
        end_m = flow(surface, field, minus, T, options).end_state()
        _, yp, dp = _frame_coords(surface, field, base_end, end_p, c)
        _, ym, dm = _frame_coords(surface, field, base_end, end_m, c)
        cols.append(((yp - ym) / (2 * h), (dp - dm) / (2 * h)))
    return np.array([[cols[0][0], cols[1][0]], [cols[0][1], cols[1][1]]])
