"""Localized perturbation machinery over one orbit segment.

Given a base intensity f0 and an orbit segment of length T inside the
injectivity window, this module builds:

  * a closed orbit's cut into segments of length t0 in (K/2, K]
    (`segment_split`), and each segment's tube, kept clear of the other
    segments' cores (`tube`);
  * a tubular chart psi(t, u) = gamma(t) + u * i gamma'(t) around the core
    (flat charts only, where the chart area density is the closed form
    2c (1 - u f0(gamma(t))) and exactness of the perturbations is exact),
    built from one variational flow of the segment (`build_tubular_chart`);
  * the kit (`FranksKit`), which wraps a tube: the core, K_mag and the
    fundamental matrix X all read the tube's one flow;
  * the constants ledger k0..k6, window width lambda, rho, the one-sided
    unit-mass bump profiles delta/Delta at k0/2, and the cutoff alpha, with
    every inequality they must satisfy checked and its slack recorded;
  * the three-parameter family A = [[b, c], [a, -b]] -> G(A) = f0 + a_eps(u)
    beta_A(t) of exact perturbations vanishing on the core, whose effect on
    the transversal linearization is the curvature shift K_mag -> K_mag -
    beta_A(t);
  * the response map S: A -> X_{G(A)}(T) in SL(2), its first variation
    Z(T) = X(T) int_0^T X^{-1} [[0,0],[db,0]] X dt, a sampled verification
    of the lower bound |Z| >= |A| / (2 k1^3), and a Newton-based check that
    S covers a ball of radius delta1 / (2 k1^3) around S(0).

Responses are integrated with one deterministic fixed-step RK4 routine
across the (narrow) support window of the profiles, composed with cached
base propagators outside it, so S is a smooth function of (a, b, c)
evaluated consistently down to machine precision.  `set_window` samples
the base K_mag once on the RK4 stage grid.  The base orbit, its fundamental
matrix, K_mag, the profiles, beta_A and its first variation are read over
whole arrays of times, never one Python call per time: each response calls
its coefficient callback once, with the window's stage times and the base
K_mag there as two arrays.  The constants delta1 and delta are tiny because
k3 and k5 scale like inverse powers of the window width, and resolving the
ball test relies on that smoothness.

Ledger adjustments (lambda halvings, tube shrinks) are logged at INFO on
the `maglab.franks` logger, surjectivity Newton residuals at DEBUG.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from types import SimpleNamespace
from itertools import repeat

import numpy as np

from .errors import (
    CotaViolationError,
    DataInconsistencyError,
    LedgerError,
    UnsupportedSurfaceError,
)
from .field import MagneticField, PerturbationField
from .dynamics import (
    IntegratorOptions,
    VariationalPath,
    flow_with_variation,
    injectivity_time,
    magnetic_curvature,
)
from .geometry import PhasePoint
from .maps import fd_jacobian

__all__ = [
    "TubularChart",
    "build_tubular_chart",
    "BumpProfile",
    "AlphaProfile",
    "FranksConstants",
    "FranksKit",
    "build_franks_kit",
    "compute_constants",
    "PerturbA",
    "build_GA",
    "variational_response",
    "franks_response",
    "verify_cota",
    "verify_ball_surjectivity",
    "segment_split",
]

log = logging.getLogger("maglab.franks")


# -- tubular charts ------------------------------------------------------------


class TubularChart:
    """Chart psi(t, u) = gamma(t) + u * i gamma'(t) around an orbit segment.

    Valid on charts with constant conformal factor, where the area density
    relative to the core is omega(t, u) = 1 - u f0(gamma(t)) exactly; the
    frame property {d psi/dt, d psi/du} = {gamma', i gamma'} holds on the
    core for any energy.
    """

    def __init__(self, surface, field, trajectory, T, eps0):
        self.surface = surface
        st0 = trajectory.state(0.0)
        self.chart_id = st0.chart
        md = surface.metric_at(self.chart_id, *surface.wrap_position(st0.x, st0.y))
        if md.lam_x != 0.0 or md.lam_y != 0.0:
            raise UnsupportedSurfaceError(
                "tubular charts require a flat (constant-factor) chart")
        self.traj = trajectory
        self.T = T
        self.eps0 = eps0
        self.t_range = (0.0, T)
        self.c = trajectory.c
        ts = np.linspace(0.0, T, 1024)
        _, (x, y) = trajectory.states(ts, (0, 1))
        self._ts = ts
        self._pos = np.column_stack((x, y))
        self._f0 = field.value(self.chart_id, *surface.wrap_position(x, y))
        self.field = field

    # core data ------------------------------------------------------------

    def _core_state(self, t):
        """(x, y, vx, vy) of the core at a time, or four arrays at an array
        of times (read with one `states` call)."""
        if isinstance(t, np.ndarray):
            return tuple(self.traj.states(t)[1])
        st = self.traj.state(t)
        return st.x, st.y, st.vx, st.vy

    def _core(self, t):
        """Core position and velocity: 2-vectors, or (2, n) for n times."""
        x, y, vx, vy = self._core_state(t)
        return np.array([x, y]), np.array([vx, vy])

    def core_f(self, t):
        st = self.traj.state(t)
        return self.field.value(self.chart_id,
                                *self.surface.wrap_position(st.x, st.y))

    # chart maps -----------------------------------------------------------

    def psi(self, t, u):
        """psi(t, u): a 2-vector, or shape (2, n) for an array of n times."""
        p, v = self._core(t)
        return p + u * np.array([-v[1], v[0]])

    def dpsi(self, t, u):
        """Columns (d psi/dt, d psi/du)."""
        p, v = self._core(t)
        f0 = self.core_f(t)
        col_t = (1.0 - u * f0) * v
        col_u = np.array([-v[1], v[0]])
        return (col_t[0], col_u[0]), (col_t[1], col_u[1])

    def omega(self, t, u):
        """Relative area density and its (t, u) partials.

        t is a time, or an array of times (u a number or an array of the
        same shape); the core is then read with one `states` call.
        """
        x, y, vx, vy = self._core_state(t)
        f0, (gx, gy) = self.field.eval(self.chart_id,
                                       *self.surface.wrap_position(x, y))
        return (1.0 - u * f0, -u * (gx * vx + gy * vy), -f0)

    def omega_min(self):
        m = 1.0 - 0.5 * self.eps0 * float(np.max(np.abs(self._f0)))
        return max(m, 1e-9)

    def invert(self, x, y):
        """(t, u) with psi(t, u) = (x, y), or None outside the tube."""
        p = np.array([x, y])
        dpos = self._pos - p[None, :]
        if self.surface.kind == "torus":
            dpos = dpos - np.round(dpos)
        d2 = np.einsum("ij,ij->i", dpos, dpos)
        i0 = int(np.argmin(d2))
        if d2[i0] > (2.0 * self.eps0) ** 2 + 0.01 * self.eps0:
            return None
        # work relative to the unwrapped core: shift p near the sample
        p_adj = self._pos[i0] - dpos[i0]
        t = float(self._ts[i0])
        u = 0.0
        resid = math.inf
        for _ in range(12):
            p_c, v = self._core(t)
            w = np.array([-v[1], v[0]])
            f0 = self.core_f(t)
            r = p_c + u * w - p_adj
            resid = abs(r[0]) + abs(r[1])
            if resid < 1e-12:
                break
            jt = (1.0 - u * f0) * v
            det = jt[0] * w[1] - jt[1] * w[0]
            if det == 0.0:
                return None
            dt = (-r[0] * w[1] + r[1] * w[0]) / det
            du = (-jt[0] * r[1] + jt[1] * r[0]) / det
            t = min(max(t + dt, 0.0), self.T)
            u += du
            if abs(u) > 4.0 * self.eps0:
                return None
        if resid > 1e-9 or abs(u) >= self.eps0:
            return None
        return (t, u)

    def injectivity_report(self):
        """Sampled injectivity of psi on (0, T) x (-eps0, eps0).

        Compares chart distances against tubular-coordinate distances on a
        100 x 20 (t, u) grid: distinct parameter pairs whose images nearly
        coincide flag an overlap (wrap collisions on the torus included).
        The points are psi's, formed from the 100 core states by
        broadcasting.  Both distance matrices are symmetric (np.round is
        odd), so each block of 100 rows is compared only with the columns
        from its first row on.
        """
        nt, nu = 100, 20
        ts = np.linspace(0.0, self.T, nt)
        us = np.linspace(-0.999 * self.eps0, 0.999 * self.eps0, nu)
        x, y, vx, vy = self._core_state(ts)
        px = (x[:, None] + us * -vy[:, None]).ravel()
        py = (y[:, None] + us * vx[:, None]).ravel()
        speed = math.sqrt(2.0 * self.c)
        tx = np.repeat(ts * speed, nu)
        ty = np.tile(us, nt)
        grid_h = max(self.T * speed / (nt - 1), 2.0 * self.eps0 / (nu - 1))
        ratio = math.inf
        for i in range(0, len(px), 100):
            dx = px[i:i + 100, None] - px[None, i:]
            dy = py[i:i + 100, None] - py[None, i:]
            if self.surface.kind == "torus":
                dx = dx - np.round(dx)
                dy = dy - np.round(dy)
            dist = np.sqrt(dx * dx + dy * dy)
            ex = tx[i:i + 100, None] - tx[None, i:]
            ey = ty[i:i + 100, None] - ty[None, i:]
            tub_dist = np.sqrt(ex * ex + ey * ey)
            mask = tub_dist > 4.0 * grid_h
            if mask.any():
                ratio = min(ratio, float((dist[mask] / tub_dist[mask]).min()))
        return {"injective": ratio > 0.3, "min_ratio": ratio}


# a tube narrower than this is a ledger failure
_EPS_MIN = 1e-5


def build_tubular_chart(surface, field, state, T, eps0, options=None):
    """Tubular chart around the orbit segment through `state` of length T.

    Flows the segment once with its variational data (`chart.traj`, 10
    components).  The segment must satisfy T <= K(c, f); the width is halved
    from eps0 until the sampled injectivity check passes (below 1e-5 that is
    a LedgerError).
    """
    options = options or IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    fld = field if isinstance(field, MagneticField) else MagneticField(field)
    traj, _ = flow_with_variation(surface, fld, state, T, options)
    K = injectivity_time(surface, fld, traj.c)
    if T > K * (1.0 + 1e-9):
        raise LedgerError(f"segment length {T} exceeds injectivity time {K}")
    width = eps0
    while width >= _EPS_MIN:
        chart = TubularChart(surface, fld, traj, T, width)
        rep = chart.injectivity_report()
        if rep["injective"]:
            return chart
        log.info("tube of width %.6g not injective (min_ratio %.6g); halving",
                 width, rep["min_ratio"])
        width *= 0.5
    raise LedgerError(f"no injective tube above width {_EPS_MIN}")


# -- bump profiles --------------------------------------------------------------

_PHI_C = 315.0 / 256.0
_PHI_D1_MAX = 8.0 * _PHI_C * (216.0 / (343.0 * math.sqrt(7.0)))
_PHI_D2_MAX = 8.0 * _PHI_C


@dataclass(frozen=True)
class BumpProfile:
    """Unit-mass bump phi((t - center)/half)/half with phi = C (1-u^2)^4.

    value, d1 and d2 take a time or an array of times; they vanish for
    |u| >= 1.  Powers of w go through the np.power ufunc: `**` on a numpy
    scalar (what a time becomes here) takes another pow routine than the
    array loop, and a time must give the bits an array gives.
    """

    center: float
    half: float

    def _w(self, t):
        """(u, 1 - u^2, inside) with u zeroed outside the support."""
        u = (np.asarray(t, dtype=float) - self.center) / self.half
        inside = np.abs(u) < 1.0
        u = np.where(inside, u, 0.0)
        return u, 1.0 - u * u, inside

    def value(self, t):
        u, w, inside = self._w(t)
        return np.where(inside, _PHI_C * np.power(w, 4) / self.half, 0.0)

    def d1(self, t):
        u, w, inside = self._w(t)
        return np.where(inside, -8.0 * _PHI_C * u * np.power(w, 3) / self.half**2, 0.0)

    def d2(self, t):
        u, w, inside = self._w(t)
        return np.where(inside,
                        -8.0 * _PHI_C * w * w * (1.0 - 7.0 * u * u) / self.half**3,
                        0.0)

    @property
    def support(self):
        return (self.center - self.half, self.center + self.half)

    @property
    def c0(self):
        return _PHI_C / self.half

    @property
    def c0_d1(self):
        return _PHI_D1_MAX / self.half**2

    @property
    def c0_d2(self):
        return _PHI_D2_MAX / self.half**3


def _smoothstep(u):
    """C^2 step of a number or an array: 0 for u <= 0, 1 for u >= 1.

    The polynomial is exactly 0 at u = 0 and 1 at u = 1, so clipping u
    gives both constant pieces.
    """
    u = np.minimum(np.maximum(u, 0.0), 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


class AlphaProfile:
    """Smoothed indicator of [0, T] minus small windows; values in [0, 1].

    Each window (a, b) is excluded with C^2 transitions of width w on both
    sides; the exact excluded mass is sum (b - a) + w per window.  value
    takes a time or an array of times.
    """

    def __init__(self, T, windows, w):
        self.T = T
        self.windows = list(windows)
        self.w = w

    def value(self, t):
        out = np.ones_like(t, dtype=float)
        for a, b in self.windows:
            # outside (a - w, b + w) one step is 0, so the factor is exactly 1
            rise = _smoothstep((t - (a - self.w)) / self.w)
            fall = _smoothstep(((b + self.w) - t) / self.w)
            out = out * (1.0 - np.minimum(rise, fall))
        return out

    def deviation_mass(self):
        """integral of |alpha - 1| (exact for disjoint padded windows)."""
        return sum((b - a) + self.w for a, b in self.windows)


# -- constants ledger ------------------------------------------------------------


@dataclass
class FranksConstants:
    k0: float
    T: float
    lam_window: float
    k1: float
    k2: float
    k3: float
    rho: float
    delta_profile: BumpProfile
    Delta_profile: BumpProfile
    alpha: AlphaProfile
    kmag_c0: float
    log_k5_full: float
    k5_restricted: float
    k6: float
    eps_c1: float
    eps0: float
    delta1: float
    delta: float
    checks: dict

    def ledger(self):
        return {
            "k0": self.k0, "T": self.T, "lambda": self.lam_window,
            "k1": self.k1, "k2": self.k2, "k3": self.k3, "rho": self.rho,
            "kmag_c0": self.kmag_c0, "log_k5_full": self.log_k5_full,
            "k5_restricted": self.k5_restricted, "k6": self.k6,
            "eps_c1": self.eps_c1, "eps0": self.eps0,
            "delta1": self.delta1, "delta": self.delta,
            "alpha_mass": self.alpha.deviation_mass(),
            "checks": dict(self.checks),
        }

    def all_inequalities_hold(self):
        return all(v >= 0.0 for v in self.checks.values())


@dataclass
class PerturbA:
    """Element [[b, c], [a, -b]] of the traceless 2x2 algebra."""

    a: float
    b: float
    c: float

    def matrix(self):
        return np.array([[self.b, self.c], [self.a, -self.b]])

    def norm(self):
        return float(np.linalg.norm(self.matrix(), 2))

    @staticmethod
    def random_unit(rng):
        v = rng.standard_normal(3)
        A = PerturbA(*v)
        n = A.norm()
        return PerturbA(v[0] / n, v[1] / n, v[2] / n)


# -- the kit ----------------------------------------------------------------------


class FranksKit:
    """Cached segment data plus deterministic response integration.

    Wraps a tubular chart: its segment, width and variational flow are the
    kit's, so the core, K_mag and X(t) come from one flow of the segment.
    """

    #: fixed RK4 steps across the support window
    n_window_steps = 4096

    def __init__(self, chart):
        self.chart = chart
        self.surface = chart.surface
        self.field = chart.field
        self.traj = chart.traj
        self.T = chart.T
        self.eps0 = chart.eps0
        self.c = self.traj.c
        self._vp = VariationalPath(self.traj)
        self._window = None

    def kmag_base(self, t):
        """Base K_mag along the segment at a time, or at an array of times
        (one trajectory lookup and one field evaluation for the array)."""
        return magnetic_curvature(self.surface, self.field, self.traj, t)

    def base_matrix(self, t):
        """X at a time (2x2), or at an array of times (shape t.shape + (2, 2))."""
        if np.ndim(t) == 0:
            return self._vp.matrix(t)
        return self._vp.matrices(t)

    def set_window(self, t_a, t_b):
        """Fix the support window and sample the base K_mag for responses.

        The RK4 steps use K_mag on the uniform half-step grid (`k`); the
        coefficient callbacks get K_mag at the stage times t0, t0 + h/2,
        t0 + h of each step (`stage_t`, `stage_k`, float64 arrays of length
        3n).
        """
        t_a = max(0.0, t_a)
        t_b = min(self.T, t_b)
        n = self.n_window_steps
        h = (t_b - t_a) / n
        ts = np.linspace(t_a, t_b, 2 * n + 1)
        kgrid = self.kmag_base(ts)
        # step i reads the grid points 2i, 2i + 1 and 2i + 2
        k = np.column_stack((kgrid[0:-1:2], kgrid[1::2], kgrid[2::2]))
        # each step's first stage time is a grid point; the other two are
        # t0 + h/2 and t0 + h, which differ from the grid in the last bits
        t0 = ts[:-1:2]
        stage_t = np.column_stack((t0, t0 + 0.5 * h, t0 + h))
        stage_k = np.column_stack((k[:, 0], self.kmag_base(stage_t[:, 1:])))
        self._window = {
            "h": h, "k": k.ravel().tolist(), "stage_t": stage_t.ravel(),
            "stage_k": stage_k.ravel(),
            "X_a": self.base_matrix(t_a),
            "X_after": self.base_matrix(self.T) @ np.linalg.inv(self.base_matrix(t_b)),
        }

    def _require_window(self):
        if self._window is None:
            raise RuntimeError("set_window must be called before responses")
        return self._window

    def _rk4(self, k, b=None):
        """Fixed-step RK4 across the window for X' = [[0, 1], [-K, 0]] X.

        k holds K at the three stage times of each step.  Given b (same
        layout), also integrates Y' = [[0, 1], [-K, 0]] Y + [[0, 0], [b, 0]] X
        from Y = 0 and returns X_after Y(t_b); otherwise X_after X(t_b).
        """
        w = self._require_window()
        h = w["h"]
        h2 = 0.5 * h
        h6 = h / 6.0
        x11, x12, x21, x22 = w["X_a"].ravel().tolist()
        y11 = y12 = y21 = y22 = 0.0
        bs = zip(b[0::3], b[1::3], b[2::3]) if b is not None else repeat(None)
        for k0, k1, k2, bb in zip(k[0::3], k[1::3], k[2::3], bs):
            # (a_s, b_s; c_s, d_s) is X' at stage s, m_s the first row of the
            # stage state; X's first row has derivative (a_1, b_1) = (x21, x22)
            c1, d1 = -k0 * x11, -k0 * x12
            a2, b2 = x21 + h2 * c1, x22 + h2 * d1
            m2a, m2b = x11 + h2 * x21, x12 + h2 * x22
            c2, d2 = -k1 * m2a, -k1 * m2b
            a3, b3 = x21 + h2 * c2, x22 + h2 * d2
            m3a, m3b = x11 + h2 * a2, x12 + h2 * b2
            c3, d3 = -k1 * m3a, -k1 * m3b
            a4, b4 = x21 + h * c3, x22 + h * d3
            m4a, m4b = x11 + h * a3, x12 + h * b3
            c4, d4 = -k2 * m4a, -k2 * m4b
            if bb is not None:
                # Y stages, named alike: n_s is the stage state and
                # (e_s c, e_s d) the second row of Y' at stage s
                q0, q1, q2 = bb
                e1c, e1d = q0 * x11 - k0 * y11, q0 * x12 - k0 * y12
                n2a, n2b = y11 + h2 * y21, y12 + h2 * y22
                n2c, n2d = y21 + h2 * e1c, y22 + h2 * e1d
                e2c, e2d = q1 * m2a - k1 * n2a, q1 * m2b - k1 * n2b
                n3a, n3b = y11 + h2 * n2c, y12 + h2 * n2d
                n3c, n3d = y21 + h2 * e2c, y22 + h2 * e2d
                e3c, e3d = q1 * m3a - k1 * n3a, q1 * m3b - k1 * n3b
                n4a, n4b = y11 + h * n3c, y12 + h * n3d
                n4c, n4d = y21 + h * e3c, y22 + h * e3d
                e4c, e4d = q2 * m4a - k2 * n4a, q2 * m4b - k2 * n4b
                y11 += h6 * (y21 + 2.0 * (n2c + n3c) + n4c)
                y12 += h6 * (y22 + 2.0 * (n2d + n3d) + n4d)
                y21 += h6 * (e1c + 2.0 * (e2c + e3c) + e4c)
                y22 += h6 * (e1d + 2.0 * (e2d + e3d) + e4d)
            x11 += h6 * (x21 + 2.0 * (a2 + a3) + a4)
            x12 += h6 * (x22 + 2.0 * (b2 + b3) + b4)
            x21 += h6 * (c1 + 2.0 * (c2 + c3) + c4)
            x22 += h6 * (d1 + 2.0 * (d2 + d3) + d4)
        if b is not None:
            return w["X_after"] @ np.array([[y11, y12], [y21, y22]])
        return w["X_after"] @ np.array([[x11, x12], [x21, x22]])

    def response(self, shift=None):
        """X(T) of the variational system with K_mag - shift(t, km) in the window.

        shift is called once, with the window's 3n RK4 stage times t and the
        base K_mag km there (two float64 arrays), and returns the shift at
        those times as an array of the same length; None means the base
        field.  The window is crossed with fixed-step RK4 (deterministic and
        smooth in the perturbation parameters); outside it the cached base
        propagators are used.
        """
        w = self._require_window()
        k = w["k"]
        if shift is not None:
            k = (k - shift(w["stage_t"], w["stage_k"])).tolist()
        return self._rk4(k)

    def response_derivative(self, bdir):
        """Z(T) = X(T) int X^{-1} [[0,0],[bdir(t, km),0]] X dt.

        bdir is called once with the stage arrays (t, km), as shift in
        response, and returns the direction at those times as an array.
        """
        w = self._require_window()
        return self._rk4(w["k"], bdir(w["stage_t"], w["stage_k"]).tolist())


def build_franks_kit(surface, field, state, T):
    """Kit for the segment through `state` of length T, on a tube of width
    at most 0.02."""
    return FranksKit(build_tubular_chart(surface, field, state, T, 0.02))


# -- constants computation ----------------------------------------------------------


def _chart_sample_grid(surface, chart, n):
    """n x n grid on the chart box (on the planar chart, its points in the disk)."""
    if surface.kind == "torus":
        g = np.linspace(0.0, 1.0, n, endpoint=False)
    else:
        r = surface.charts[chart].radius if surface.kind == "planar" else 1.0
        g = np.linspace(-r, r, n)
    xs, ys = (a.ravel() for a in np.meshgrid(g, g))
    if surface.kind == "planar":
        inside = xs * xs + ys * ys < r * r
        xs, ys = xs[inside], ys[inside]
    return xs, ys


def _kmag_c0_norm(surface, field, c):
    """Sup of |K_mag| over the energy level, sampled on a 96^2 grid per chart.

    Each chart's grid is evaluated as arrays; |grad f| takes math.hypot per
    point, since np.hypot is not bit-equal to it.
    """
    best = 0.0
    for chart in range(len(surface.charts)):
        xs, ys = surface.wrap_position(*_chart_sample_grid(surface, chart, 96))
        md = surface.metric_at(chart, xs, ys)
        f, (fx, fy) = field.eval(chart, xs, ys)
        speed = math.sqrt(2.0 * c) / md.lam
        base = 2.0 * c * md.curvature + f * f
        amp = speed * np.array(list(map(math.hypot, fx.tolist(), fy.tolist())))
        best = max(best, float(np.max(np.abs(base) + amp)))
    return 1.01 * best


def compute_constants(kit: FranksKit, eps_c1=0.1):
    """The constants ledger for one segment, with λ halved until admissible.

    Every ledger inequality is checked numerically and its slack recorded
    in `checks` (nonnegative values mean the inequality holds).
    """
    surface, field, c, T = kit.surface, kit.field, kit.c, kit.T
    k0 = injectivity_time(surface, field, c)
    if not (k0 / 2.0 < T <= k0 * (1.0 + 1e-12)):
        raise LedgerError(f"segment length T={T} outside (K/2, K] = ({k0/2}, {k0}]")

    # k1 over [0, T] from the cached fundamental matrix, inflated by 1%
    ts = np.linspace(0.0, T, 2048)
    Xs = kit.base_matrix(ts)
    norms = np.linalg.norm(Xs, 2, axis=(1, 2))
    inv_norms = np.linalg.norm(np.linalg.inv(Xs), 2, axis=(1, 2))
    Cs = np.maximum(1.0, np.abs(kit.kmag_base(ts)))
    k1 = 1.01 * max(norms.max(), inv_norms.max())
    k1 = max(k1, 1.0 + 1e-9)

    lam = min(k0 / 16.0, 0.45 * (T - k0 / 2.0), k0 / 8.0)
    kmag_c0 = _kmag_c0_norm(surface, field, c)
    bound_k2 = 1.0 / (16.0 * k1**3)
    lip = 1.01 * Cs.max() * k1  # |X'| <= |C| |X|, also bounds (X^{-1})'

    def k2_of(lam_):
        """max |X(t) - X(k0/2)| over the window, sampled, inflated 5%."""
        Xc = kit.base_matrix(k0 / 2.0)
        Xc_inv = np.linalg.inv(Xc)
        ts = np.linspace(k0 / 2.0 - lam_, k0 / 2.0 + lam_, 129)
        Xs = kit.base_matrix(np.clip(ts, 0.0, T))
        worst = max(0.0, np.linalg.norm(Xs - Xc, 2, axis=(1, 2)).max(),
                    np.linalg.norm(np.linalg.inv(Xs) - Xc_inv, 2, axis=(1, 2)).max())
        return min(1.05 * worst + 1e-15, lam_ * lip)

    k2 = k2_of(lam)
    while k2 >= bound_k2:
        lam *= 0.5
        log.info("lambda %.6g -> %.6g: k2 = %.6g >= 1/(16 k1^3) = %.6g",
                 2.0 * lam, lam, k2, bound_k2)
        k2 = k2_of(lam)
        if lam < 1e-12:
            raise LedgerError("lambda underflow while enforcing k2 < 1/(16 k1^3)")

    half = 0.49 * lam
    delta_p = BumpProfile(k0 / 2.0 - 0.5 * lam, half)
    Delta_p = BumpProfile(k0 / 2.0 + 0.5 * lam, half)

    k3 = k1 * k1 * (delta_p.c0 + delta_p.c0_d1
                    + Delta_p.c0 * kmag_c0 + 0.5 * Delta_p.c0_d2)
    rho = 1.0 / (8.0 * k1 * k1 * k3)

    # alpha: exclude the two boundary points of supp(Delta), within half
    # the rho budget
    sup_lo, sup_hi = Delta_p.support
    w = min(rho / 16.0, lam / 100.0)
    w = max(w, 64.0 * np.spacing(k0))
    windows = [(sup_lo - w, sup_lo + w), (sup_hi - w, sup_hi + w)]
    alpha = AlphaProfile(T, windows, w)
    mass = alpha.deviation_mass()
    if mass > rho:
        raise DataInconsistencyError(
            f"alpha deviation mass {mass:.3e} exceeds rho {rho:.3e}")

    # k5: the unrestricted |A| <= 1 bound overflows for narrow windows, so
    # keep its log and use the same derivation restricted to |A| <= m
    A1 = delta_p.c0 + delta_p.c0_d1
    A2 = Delta_p.c0 * kmag_c0 + 0.5 * Delta_p.c0_d2
    E = Delta_p.c0
    if E > 700.0:
        log_k5_full = max(math.log(A2) + E, math.log(A1))
    else:
        log_k5_full = math.log(A1 + A2 * math.exp(E))

    log_A2 = math.log(A2)

    def k5_of(m):
        log_term = log_A2 + E * m
        if log_term > 700.0:
            return math.inf
        return A1 + math.exp(log_term)

    # delta1: largest m < 1 with 2 m k5(m) <= eps/2, then halved (2x slack)
    lo, hi = 0.0, 0.99
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid * k5_of(mid) <= eps_c1 / 2.0:
            lo = mid
        else:
            hi = mid
    delta1 = 0.5 * lo
    if delta1 <= 0.0:
        raise LedgerError("no admissible delta1; enlarge eps_c1")
    k5 = k5_of(delta1)

    # k6 at scale delta1 (the |A| <= 1 version overflows identically)
    consts_stub = SimpleNamespace(delta_profile=delta_p, Delta_profile=Delta_p,
                                  alpha=alpha)
    k6 = 0.0
    tgrid = np.linspace(max(0.0, sup_lo - 2 * lam), min(T, sup_hi + 2 * lam), 20001)
    kgrid = kit.kmag_base(tgrid)
    for dirn in _unit_directions():
        A = PerturbA(delta1 * dirn[0], delta1 * dirn[1], delta1 * dirn[2])
        vals = _beta_A(tgrid, A, consts_stub, kgrid)
        dt = tgrid[1] - tgrid[0]
        deriv = np.gradient(vals, dt)
        k6 = max(k6, (np.max(np.abs(vals)) + np.max(np.abs(deriv))) / delta1)
    k6 *= 1.01

    eps0 = kit.eps0
    if eps0 > eps_c1 / (4.0 * k6):
        eps0 = eps_c1 / (4.0 * k6)

    delta = delta1 / (2.0 * k1**3)

    checks = {
        "k2_k1": bound_k2 - k2,
        "k1_gt_1": k1 - 1.0,
        "rho_upper": 1.0 / (4.0 * k1 * k1 * k3) - rho,
        "rho_chain": (1.0 / k1**2 - k3 * rho - 4.0 * k1 * k2) - 1.0 / (2.0 * k1**2),
        "alpha_mass": rho - mass,
        "delta_support": (T - sup_hi),
        "delta1_ball": eps_c1 / 2.0 - 2.0 * k5 * delta1,
        "eps0_bound": eps_c1 / (2.0 * k6) - eps0,
    }
    consts = FranksConstants(k0, T, lam, k1, k2, k3, rho, delta_p, Delta_p,
                             alpha, kmag_c0, log_k5_full, k5, k6, eps_c1,
                             eps0, delta1, delta, checks)
    kit.set_window(delta_p.support[0] - 0.02 * lam,
                   Delta_p.support[1] + 0.02 * lam)
    return consts


def _unit_directions():
    dirs = []
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
              (1, 1, 1), (1, -1, 1)):
        a = PerturbA(*v)
        n = a.norm()
        dirs.append((v[0] / n, v[1] / n, v[2] / n))
    return dirs


def _beta_A(t, A: PerturbA, consts, kmag):
    """beta_A(t) = alpha (delta a + delta' b) + (K0 + Delta''/2Delta)(e^{-alpha Delta c}-1).

    t and kmag, the base K_mag (K0) at t, are numbers or arrays of one shape.
    """
    al = consts.alpha.value(t)
    d = consts.delta_profile
    D = consts.Delta_profile
    out = al * (d.value(t) * A.a + d.d1(t) * A.b)
    Dv = D.value(t)
    y = -al * Dv * A.c
    em1 = np.where(np.abs(y) >= 1e-6, np.expm1(y),
                   y * (1.0 + 0.5 * y * (1.0 + y / 3.0)))
    # em1 / Dv stays finite as Dv -> 0 since y = -al * Dv * c
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(Dv != 0.0, em1 / Dv, 0.0)
    return out + (kmag * em1 + 0.5 * D.d2(t) * ratio)


def _del_b(t, A: PerturbA, consts, kmag):
    """Directional derivative of beta_A at A = 0 (t, kmag as in _beta_A)."""
    al = consts.alpha.value(t)
    d = consts.delta_profile
    D = consts.Delta_profile
    return al * (d.value(t) * A.a + d.d1(t) * A.b
                 - (D.value(t) * kmag + 0.5 * D.d2(t)) * A.c)


# -- perturbations and responses -----------------------------------------------------


def build_GA(kit: FranksKit, consts: FranksConstants, A: PerturbA):
    """The perturbation G(A) - f0 as a PerturbationField plus its profile.

    Requires |A| < delta1.  Returns (perturbed_field, perturbation, beta);
    beta takes a time, as PerturbationField calls it, or an array of times,
    as franks_response does.
    """
    if A.norm() >= consts.delta1:
        raise ValueError(f"|A| = {A.norm():.3e} >= delta1 = {consts.delta1:.3e}")
    def beta(t):
        return _beta_A(t, A, consts, kit.kmag_base(t))[()]  # [()]: a number for a time

    hfd = 1e-9 * max(consts.lam_window, 1e-3)

    def beta_d(t):
        return (beta(t + hfd) - beta(t - hfd)) / (2.0 * hfd)

    lo = consts.delta_profile.support[0] - 10.0 * consts.alpha.w
    hi = consts.Delta_profile.support[1] + 10.0 * consts.alpha.w
    ts = np.linspace(lo, hi, 4001)
    vals = beta(ts)
    ders = beta_d(ts)
    b_c0 = 1.01 * float(np.max(np.abs(vals)))
    b_c1 = b_c0 + 1.01 * float(np.max(np.abs(ders)))
    # the bump takes the ledger's width; the tube keeps its own for inversion
    pert = PerturbationField(kit.chart, min(consts.eps0, kit.chart.eps0), beta,
                             beta_d, b_c0, b_c1, support_t=(lo, hi))
    return kit.field.with_perturbation(pert), pert, beta


def franks_response(kit: FranksKit, beta=None):
    """S_{T,theta}: monodromy over [0, T] for the field f0 + a_eps(u) beta(t).

    The core is unchanged (the perturbation vanishes there); its only effect
    on the transversal linearization is K_mag -> K_mag - beta(t).  beta maps
    the array of window stage times to an array.
    """
    if beta is None:
        return kit.response(None)
    return kit.response(lambda t, km: beta(t))


def variational_response(kit: FranksKit, bdir):
    """Z(T) for a direction b(t) with support inside the window.

    bdir maps the array of window stage times to an array.
    """
    return kit.response_derivative(lambda t, km: bdir(t))


# -- verification ----------------------------------------------------------------------


@dataclass
class CotaReport:
    margins: list
    min_margin: float
    linearity_defect: float
    samples: int

    def as_dict(self):
        return asdict(self)


def verify_cota(kit: FranksKit, consts: FranksConstants, sample_count=20,
                seed=0):
    """Sampled check of |Z(T)| >= |A| / (2 k1^3) over random unit directions.

    Raises CotaViolationError if any margin drops below 1.
    """
    rng = np.random.default_rng(seed)
    margins = []
    worst = math.inf
    for _ in range(sample_count):
        A = PerturbA.random_unit(rng)
        Z = kit.response_derivative(lambda t, km: _del_b(t, A, consts, km))
        margin = float(np.linalg.norm(Z, 2) * 2.0 * consts.k1**3 / A.norm())
        margins.append(margin)
        if margin < worst:
            worst = margin
        if margin < 1.0:
            raise CotaViolationError(
                f"response bound violated: margin {margin:.6f}", direction=A)
    # linearity of the first variation: Z(2A) = 2 Z(A)
    A = PerturbA.random_unit(rng)
    Z1 = kit.response_derivative(lambda t, km: _del_b(t, A, consts, km))
    A2 = PerturbA(2 * A.a, 2 * A.b, 2 * A.c)
    Z2 = kit.response_derivative(lambda t, km: _del_b(t, A2, consts, km))
    lin = float(np.linalg.norm(Z2 - 2.0 * Z1, 2) / max(np.linalg.norm(Z2, 2), 1e-30))
    return CotaReport(margins, worst, lin, sample_count)


def _sl2_exp(M):
    """exp of a traceless 2x2 matrix, closed form."""
    d = -float(np.linalg.det(M))
    if d > 0:
        s = math.sqrt(d)
        return math.cosh(s) * np.eye(2) + (math.sinh(s) / s) * M
    if d < 0:
        s = math.sqrt(-d)
        return math.cos(s) * np.eye(2) + (math.sin(s) / s) * M
    return np.eye(2) + M


@dataclass
class SurjectivityReport:
    targets: int
    solved: int
    max_residual: float
    max_A_norm: float
    gene_bound_ok: bool
    details: list

    def as_dict(self):
        return asdict(self)


def verify_ball_surjectivity(kit: FranksKit, consts: FranksConstants,
                             n_targets=8, mode="sphere", seed=0):
    """Newton inversion of A -> S(G(A)) for targets near S0 = S(f0).

    mode="sphere": targets S0 exp(s D) on the delta/2 sphere (coordinate and
    mixed directions of the traceless algebra).  mode="forward": targets
    generated as S(G(A0)) for known A0 with |A0| = delta1/2; the report then
    also carries the recovery error |A - A0|.  Newton (at most 30 iterates)
    stops at residual max(1e-3 * dist(target, S0), few ulps), so the
    inversion genuinely runs whenever the target is numerically
    distinguishable from S0; each solve must end with residual <= 1e-6,
    |A| <= delta1, and |A| within the covering bound 2 k1^3 dist(target, S0).
    """
    def S_of(Avec):
        A = PerturbA(*Avec)
        return kit.response(lambda t, km: _beta_A(t, A, consts, km))

    S0 = S_of((0.0, 0.0, 0.0))
    floor = 32.0 * np.finfo(float).eps * np.linalg.norm(S0, "fro")
    r = 0.5 * consts.delta
    targets = []
    known = None
    if mode == "forward":
        known = []
        rng = np.random.default_rng(seed)
        for _ in range(n_targets):
            A0 = PerturbA.random_unit(rng)
            s = 0.5 * consts.delta1
            A0 = np.array([s * A0.a, s * A0.b, s * A0.c])
            targets.append(S_of(A0))
            known.append(A0)
    else:
        dirs = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                (0, 0, 1), (0, 0, -1), (1, 1, 1), (-1, 1, -1)][:n_targets]
        for d in dirs:
            D = PerturbA(*d).matrix()
            D = D / np.linalg.norm(D, "fro")
            lo, hi = 0.0, 10.0 * r
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                tgt = S0 @ _sl2_exp(mid * D)
                if np.linalg.norm(tgt - S0, "fro") < r:
                    lo = mid
                else:
                    hi = mid
            targets.append(S0 @ _sl2_exp(0.5 * (lo + hi) * D))

    details = []
    max_res = 0.0
    max_norm = 0.0
    solved = 0
    gene_ok = True
    hA = 0.1 * consts.delta1
    for it, tgt in enumerate(targets):
        dist = float(np.linalg.norm(tgt - S0, "fro"))
        stop = max(1e-3 * dist, floor)
        A = np.zeros(3)
        for step_no in range(30):
            S = S_of(A)
            res = (S - tgt).ravel()
            res_norm = np.linalg.norm(res)
            log.debug("surjectivity target %d, iterate %d: residual %.3e "
                      "(stop %.3e)", it, step_no, res_norm, stop)
            if res_norm <= stop:
                break
            J = fd_jacobian(S_of, A, hA)
            step, *_ = np.linalg.lstsq(J, -res, rcond=None)
            n = np.linalg.norm(step)
            cap = 0.5 * consts.delta1
            if n > cap:
                step *= cap / n
            A = A + step
        S = S_of(A)
        resid = float(np.linalg.norm(S - tgt, "fro"))
        a_norm = PerturbA(*A).norm()
        ok = resid <= 1e-6 and a_norm <= consts.delta1
        bound = 2.0 * consts.k1**3 * dist * (1.0 + 1e-6) + 1e-30
        if a_norm > bound:
            gene_ok = False
        solved += int(ok)
        max_res = max(max_res, resid)
        max_norm = max(max_norm, a_norm)
        det = {"dist": dist, "residual": resid, "A_norm": a_norm, "ok": ok}
        if known is not None:
            det["recovery_error"] = float(np.linalg.norm(A - known[it]))
        details.append(det)
    return SurjectivityReport(len(targets), solved, max_res, max_norm,
                              gene_ok, details)


# -- segment decomposition ----------------------------------------------------------


@dataclass
class SegmentSplit:
    """A closed orbit cut into n segments of length t0: each segment's start
    state, transversal propagator, core samples and mid-patch samples."""

    n: int
    t0: float
    start_states: list
    responses: list
    surface: object
    field: MagneticField
    eps0: float
    options: IntegratorOptions
    core_samples: list
    patch_samples: list

    def product(self):
        out = np.eye(2)
        for S in self.responses:
            out = S @ out
        return out

    def tube(self, i):
        """Tubular chart of segment i (`build_tubular_chart`).

        The width is halved from eps0 until the mid-segment patch (u =
        +-width/2 over 0.3-0.7 t0) is 1.5 widths clear of every other
        segment's core, then until the sampled injectivity check passes.
        """
        x, y, vx, vy = self.patch_samples[i]
        width = self.eps0
        while True:
            # patch points psi(t, u) = core + u * i core'
            pts = np.concatenate([np.column_stack((x + u * -vy, y + u * vx))
                                  for u in (-0.5 * width, 0.5 * width)])
            j = next((j for j in range(self.n) if j != i and _min_distance(
                self.surface, pts, self.core_samples[j]) < 1.5 * width), None)
            if j is None:
                return build_tubular_chart(self.surface, self.field,
                                           self.start_states[i], self.t0, width,
                                           self.options)
            log.info("segment %d: tube patch of width %.6g within 1.5 width "
                     "of segment %d's core; halving", i, width, j)
            width *= 0.5
            if width < _EPS_MIN:
                raise LedgerError(f"segment {i}: no tube clear of the other "
                                  f"segments above width {_EPS_MIN}")


def _min_distance(surface, pts, core):
    """Least chart distance (torus: to the nearest image) between two point sets."""
    d = pts[:, None, :] - core[None, :, :]
    if surface.kind == "torus":
        d = d - np.round(d)
    return np.sqrt(np.einsum("ijk,ijk->ij", d, d)).min()


def segment_split(orbit, surface, field, c, eps0=0.02, options=None):
    """Cut a closed orbit into n segments of equal length t0 in (K/2, K].

    n is the smallest count with t0 = T_theta / n <= K.  One variational
    flow of the orbit gives the segment starts, the per-segment transversal
    propagators (whose ordered product is the full monodromy), 256 core
    samples per segment and each segment's mid-patch samples, (x, y, vx, vy)
    at 64 times over 0.3-0.7 t0.  No tube is built here:
    `SegmentSplit.tube(i)` builds segment i's tube, of width at most eps0,
    when it is needed.
    """
    options = options or IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    fld = field if isinstance(field, MagneticField) else MagneticField(field)
    K = injectivity_time(surface, fld, c)
    T_theta = orbit.period
    if T_theta <= K / 2.0:
        raise DataInconsistencyError(
            f"period {T_theta} <= K/2 = {K/2}: contradicts the injectivity bound")
    n = max(1, math.ceil(T_theta / K - 1e-12))
    t0 = T_theta / n
    if not (K / 2.0 < t0 <= K * (1.0 + 1e-12)):
        raise DataInconsistencyError(
            f"t0 = {t0} not in (K/2, K] = ({K/2}, {K}]")
    traj, vp = flow_with_variation(surface, fld, orbit.initial_state, T_theta,
                                   options)
    charts, cols = traj.states(np.arange(n) * t0)
    starts = [PhasePoint(*row) for row in zip(charts.tolist(), *(c.tolist() for c in cols))]
    # propagators between consecutive section times
    mats = vp.matrices(np.arange(n + 1) * t0)
    responses = [mats[i + 1] @ np.linalg.inv(mats[i]) for i in range(n)]
    core_samples = [
        np.column_stack(traj.states(np.linspace(i * t0, (i + 1) * t0, 256), (0, 1))[1])
        for i in range(n)]
    patch_samples = [
        traj.states(i * t0 + np.linspace(0.3 * t0, 0.7 * t0, 64))[1] for i in range(n)]
    return SegmentSplit(n, t0, starts, responses, surface, fld, eps0, options,
                        core_samples, patch_samples)
