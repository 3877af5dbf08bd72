"""Independent oracles the tests check maglab against; no stage runs them.

* `TwistMap`, `LinearMap` and `PolynomialMap`: planar maps with known
  dynamics or a prescribed jet, in the map-oracle protocol of `maglab.maps`.
* `fd_monodromy`: central finite differences of the time-T flow map, the
  independent check of the variational flow (C04).
* `invariance_defect`: how far a grown manifold branch is from invariant.
* `loop_fiber_crossings`: the full traversals of a box by one fiber image,
  counted point by point in a Python loop.
* `reference_step_index`: the step a dense solution reads at a time, by a
  plain search.
* `reference_kmag`: K_mag at one time, formed from the trajectory's
  single-time state, the field and the chart's curvature.
* `psi`: a tubular chart's map (t, u) -> gamma(t) + u * i gamma'(t), read
  from the chart's core trajectory.
"""

from __future__ import annotations

import math

import numpy as np

from maglab.chaos import _point_polyline_distance
from maglab.dynamics import IntegratorOptions, flow
from maglab.errors import ChartDomainError, NoReturnError
from maglab.geometry import PhasePoint, energy as phase_energy


# -- planar map oracles ---------------------------------------------------------


class TwistMap:
    """(r, theta) -> (r, theta + 2 pi (alpha + beta r^2)), in Cartesian form."""

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta

    def _angle(self, r2):
        return 2.0 * math.pi * (self.alpha + self.beta * r2)

    def __call__(self, z):
        x, y = float(z[0]), float(z[1])
        phi = self._angle(x * x + y * y)
        c, s = math.cos(phi), math.sin(phi)
        return np.array([c * x - s * y, s * x + c * y])

    def inverse(self, z):
        x, y = float(z[0]), float(z[1])
        phi = self._angle(x * x + y * y)
        c, s = math.cos(phi), math.sin(phi)
        return np.array([c * x + s * y, -s * x + c * y])

    def jacobian(self, z):
        x, y = float(z[0]), float(z[1])
        r2 = x * x + y * y
        phi = self._angle(r2)
        c, s = math.cos(phi), math.sin(phi)
        dphi = 4.0 * math.pi * self.beta
        R = np.array([[c, -s], [s, c]])
        outer = np.array([[-s * x - c * y], [c * x - s * y]]) @ np.array([[x, y]])
        return R + dphi * outer


class LinearMap:
    """z -> M z for a constant 2x2 matrix."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        self.Minv = np.linalg.inv(self.M)

    def __call__(self, z):
        return self.M @ np.asarray(z, dtype=float)

    def inverse(self, z):
        return self.Minv @ np.asarray(z, dtype=float)

    def jacobian(self, z):
        return self.M.copy()


class PolynomialMap:
    """Map with prescribed cubic Taylor coefficients (jet-extraction oracle)."""

    def __init__(self, coeffs):
        # coeffs: dict (component, i, j) -> value of the u^i v^j coefficient
        self.coeffs = dict(coeffs)

    def __call__(self, z):
        u, v = float(z[0]), float(z[1])
        out = [0.0, 0.0]
        for (comp, i, j), c in self.coeffs.items():
            out[comp] += c * u**i * v**j
        return np.array(out)


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


# -- invariance of a grown manifold branch ----------------------------------------


def invariance_defect(branch, oracle, n_check=200):
    """Max distance of a `ManifoldBranch`'s vertex images from its polyline.

    Only vertices whose images stay inside the grown arclength are mapped
    (the expansion rate bounds how far along they can land); the stable side
    maps with `oracle.inverse`.
    """
    step = oracle if branch.side == "unstable" else oracle.inverse
    lens = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(branch.points, axis=0), axis=1))])
    # branch.eigenvalue is the expansion rate of `step` along the branch
    cutoff = branch.arclength / (1.5 * abs(branch.eigenvalue))
    usable = np.nonzero(lens <= cutoff)[0]
    if len(usable) == 0:
        return 0.0
    idx = np.linspace(0, len(usable) - 1, min(n_check, len(usable))).astype(int)
    worst = 0.0
    for i in usable[idx]:
        try:
            img = np.asarray(step(branch.points[i]), dtype=float)
        except (ValueError, NoReturnError):
            continue
        worst = max(worst, _point_polyline_distance(img, branch.points))
    return worst


def loop_fiber_crossings(imgs, alive, rect_to):
    """Number of connected full traversals of rect_to by one fiber image.

    imgs (n, 2) are the image points in fiber order and alive (n,) marks the
    points the oracle could map; a failed point breaks a run like a point
    outside.  Each run's extent in u is kept point by point.
    """
    tol = 1e-9 * max(rect_to.half_u, rect_to.half_s)
    us = np.zeros(len(imgs))
    ok = np.zeros(len(imgs), dtype=bool)
    u, s = rect_to.coords(imgs[alive])
    us[alive] = u
    ok[alive] = np.abs(s) <= rect_to.half_s + tol
    runs = 0
    run_min = math.inf
    run_max = -math.inf
    inside = False
    for u, hit in zip(us.tolist(), ok.tolist()):
        if hit:
            if not inside:
                inside = True
                run_min, run_max = u, u
            else:
                run_min = min(run_min, u)
                run_max = max(run_max, u)
        else:
            if inside and run_min <= -rect_to.half_u + tol and run_max >= rect_to.half_u - tol:
                runs += 1
            inside = False
    if inside and run_min <= -rect_to.half_u + tol and run_max >= rect_to.half_u - tol:
        runs += 1
    return runs


# -- dense-output lookups -------------------------------------------------------


def reference_step_index(steps, t):
    """The index of the step read at a clamped t, by a plain search: the
    first step up to its end, the last from its start, else the first step
    that ends at or after t."""
    if t <= steps[0].t1:
        return 0
    if t >= steps[-1].t0:
        return len(steps) - 1
    return next(i for i, s in enumerate(steps) if s.t1 >= t)


def reference_kmag(surface, field, traj, t):
    """K_mag = 2cK + f^2 + f_x v_y - f_y v_x at one time t, from `state(t)`,
    the field at the wrapped position and the chart's constant curvature."""
    st = traj.state(t)
    x, y = surface.wrap_position(st.x, st.y)
    f, (fx, fy) = field.eval(st.chart, x, y)
    curvature = surface.charts[st.chart].curvature
    return 2.0 * traj.c * curvature + f * f + fx * st.vy - fy * st.vx


def psi(chart, t, u):
    """A `TubularChart`'s psi(t, u) = gamma(t) + u * i gamma'(t): a 2-vector,
    or shape (2, n) for an array of n times (read with one `states` call)."""
    if isinstance(t, np.ndarray):
        x, y, vx, vy = chart.traj.states(t)[1]
    else:
        st = chart.traj.state(t)
        x, y, vx, vy = st.x, st.y, st.vx, st.vy
    return np.array([x, y]) + u * np.array([-vy, vx])
