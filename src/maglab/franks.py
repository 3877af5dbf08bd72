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
    fundamental matrix X all read the tube's one flow; segment i's kit is
    `build_franks_kit(split, i)`;
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
evaluated consistently down to machine precision.  The RK4 steps are
linear, and the window is their transfer matrices' ordered product, taken
pairwise over arrays.  `set_window` takes the ledger's profiles, places the
window around their supports and samples the base K_mag once on the RK4
stage grid; `compute_constants` leaves its constants with the kit, whose
first response sets their window, so a kit that never responds builds none.
`FranksKit.response(A)` is S(A) and
`FranksKit.response_derivative(A)` is Z along A.  The base orbit, its
fundamental matrix, K_mag, the profiles, beta_A and its first variation are
read over whole arrays of times, never one Python call per time: a response
evaluates the profiles once on the window's stage times.  The constants
delta1 and delta are tiny because k3 and k5 scale like inverse powers of the
window width, and resolving the ball test relies on that smoothness.

Ledger adjustments (lambda halvings, tube shrinks) are logged at INFO on
the `maglab.franks` logger, surjectivity Newton residuals at DEBUG.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

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
        self.field = field
        self._f0 = self._field_at(x, y)
        # invert accepts a point within this squared distance of a sample
        self._accept2 = (2.0 * eps0) ** 2 + 0.01 * eps0
        self._box = self._core_box()

    def _core_box(self):
        """(axis, mid, reach, scale) for each axis on which the core samples
        can rule a point out: a point whose (on the torus, wrapped) distance
        to mid exceeds reach is farther than the acceptance radius from every
        sample on that axis alone.  mid and reach - radius are the centre
        and half-width of the samples' coordinate range; on the torus an
        axis whose range spans at least 1 - 2 * radius is left out, as no
        point is that far from it.  scale sizes the rounding slack."""
        radius = math.sqrt(self._accept2)
        box = []
        for axis in (0, 1):
            lo, hi = float(self._pos[:, axis].min()), float(self._pos[:, axis].max())
            if self.surface.kind == "torus" and hi - lo >= 1.0 - 2.0 * radius:
                continue
            scale = 1.0 + max(abs(lo), abs(hi))
            box.append((axis, 0.5 * (lo + hi), 0.5 * (hi - lo) + radius, scale))
        return tuple(box)

    # core data ------------------------------------------------------------

    def _core_state(self, t):
        """(x, y, vx, vy) of the core at a time, or four arrays at an array
        of times (read with one `states` call)."""
        if isinstance(t, np.ndarray):
            return tuple(self.traj.states(t)[1])
        st = self.traj.state(t)
        return st.x, st.y, st.vx, st.vy

    def _field_at(self, x, y):
        """The field at core points (numbers or arrays)."""
        return self.field.value(self.chart_id, *self.surface.wrap_position(x, y))

    # chart maps -----------------------------------------------------------

    def dpsi(self, t, u):
        """Columns (d psi/dt, d psi/du), from one read of the core."""
        x, y, vx, vy = self._core_state(t)
        col_t = (1.0 - u * self._field_at(x, y)) * np.array([vx, vy])
        col_u = np.array([-vy, vx])
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
        torus = self.surface.kind == "torus"
        # The box test rejects only points the nearest-sample test below
        # rejects: such a point is farther than the acceptance radius from
        # every sample on one axis, by a slack (1e-9 relative) far above the
        # rounding of either computation.
        for axis, mid, reach, scale in self._box:
            v = x if axis == 0 else y
            d = abs(v - mid)
            if torus:
                d %= 1.0  # exact; NaN for an infinite v, which never rejects
                d = min(d, 1.0 - d)
            if d > reach + 1e-9 * (scale + abs(v)):
                return None
        p = np.array([x, y])
        dpos = self._pos - p[None, :]
        if torus:
            dpos = dpos - np.round(dpos)
        d2 = np.einsum("ij,ij->i", dpos, dpos)
        i0 = int(np.argmin(d2))
        if d2[i0] > self._accept2:
            return None
        # work relative to the unwrapped core: shift p near the sample
        p_adj = self._pos[i0] - dpos[i0]
        t = float(self._ts[i0])
        u = 0.0
        resid = math.inf
        for _ in range(12):
            x_c, y_c, vx, vy = self._core_state(t)  # one read per iterate
            v = np.array([vx, vy])
            w = np.array([-vy, vx])
            f0 = self._field_at(x_c, y_c)
            r = np.array([x_c, y_c]) + u * w - p_adj
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
        broadcasting; a tubular distance is sqrt(et^2 + eu^2) from the
        squared differences of the scaled times and of the u values, each
        formed once.  Both distance matrices are symmetric (np.round is
        odd), so each t-row of samples is compared only with the t-rows from
        its own on (one row at a time: larger blocks run slower, out of
        cache).
        """
        nt, nu = 100, 20
        ts = np.linspace(0.0, self.T, nt)
        us = np.linspace(-0.999 * self.eps0, 0.999 * self.eps0, nu)
        x, y, vx, vy = self._core_state(ts)
        px = x[:, None] + us * -vy[:, None]  # (t, u)
        py = y[:, None] + us * vx[:, None]
        speed = math.sqrt(2.0 * self.c)
        et = ts * speed
        et = et[:, None] - et[None, :]
        eu = us[:, None] - us[None, :]
        et2, eu2 = et * et, eu * eu
        grid_h = max(self.T * speed / (nt - 1), 2.0 * self.eps0 / (nu - 1))
        torus = self.surface.kind == "torus"
        ratio = math.inf
        for i in range(nt):
            # axes: the row's u, then the columns' t and u
            tub_dist = np.sqrt(et2[i, None, i:, None] + eu2[:, None, :])
            mask = tub_dist > 4.0 * grid_h
            if not mask.any():
                continue
            dx = px[i, :, None, None] - px[None, i:]
            dy = py[i, :, None, None] - py[None, i:]
            if torus:
                dx -= np.round(dx)
                dy -= np.round(dy)
            dx *= dx
            dy *= dy
            dx += dy
            dist = np.sqrt(dx, out=dx)
            dy.fill(math.inf)
            np.divide(dist, tub_dist, out=dy, where=mask)
            ratio = min(ratio, float(dy.min()))
        return {"injective": ratio > 0.3, "min_ratio": ratio}


# a tube narrower than this is a ledger failure
_EPS_MIN = 1e-5


def build_tubular_chart(surface, field, state, T, eps0, options):
    """Tubular chart around the orbit segment through `state` of length T.

    Flows the segment once with its variational data (`chart.traj`, 10
    components) at the integrator options given.  The segment must satisfy
    T <= K(c, f); the width is halved from eps0 until the sampled
    injectivity check passes (below 1e-5 that is a LedgerError).
    """
    traj, _ = flow_with_variation(surface, field, state, T, options)
    K = injectivity_time(surface, field, traj.c)
    if T > K * (1.0 + 1e-9):
        raise LedgerError(f"segment length {T} exceeds injectivity time {K}")
    width = eps0
    while width >= _EPS_MIN:
        chart = TubularChart(surface, field, traj, T, width)
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


# -- window propagation -----------------------------------------------------------
#
# One RK4 step of X' = [[0, 1], [-K, 0]] X maps X to P_n X; with the first
# variation Y' = [[0, 1], [-K, 0]] Y + [[0, 0], [b, 0]] X it maps (X, Y) to
# (P_n X, Q_n X + P_n Y).  The factors are kept in the near-identity form
# E_n = P_n - I, whose entries are O(h): a product of the P_n themselves
# rounds each factor to the bits of I and loses about 4e-13 relative over
# the window, which the finite-difference check of Z at step 1e-12 sees.


def _step_factors(h, k, b):
    """(E, Q): E_n = P_n - I and Q_n for each step, as (2, 2, n) arrays; Q
    is None when b is None.

    The RK4 stage formulas applied to X = I, Y = 0, written out with the
    identity's zeros and ones in place.  k and b hold each step's values at
    its three stage times, as in `FranksKit._rk4`.  At stage s,
    (a_s, b_s; c_s, d_s) is X' and (m_sa, m_sb) the first row of the stage
    state; (n_sa, n_sb; n_sc, n_sd) is Y's stage state and (e_sc, e_sd) the
    second row of Y'.
    """
    h2 = 0.5 * h
    h6 = h / 6.0
    k0, k1, k2 = k[0::3], k[1::3], k[2::3]
    # first column: m2a = 1, a_1 = 0
    c1 = -k0
    a2 = h2 * c1
    c2 = -k1
    a3 = h2 * c2
    m3a = 1.0 + h2 * a2
    c3 = -k1 * m3a
    a4 = h * c3
    m4a = 1.0 + h * a3
    c4 = -k2 * m4a
    # second column: d1 = 0, b_1 = b2 = 1, m2b = m3b = h2, so d3 = d2,
    # b3 = 1 + h2 d2 and b4 = 1 + h d2
    d2 = -k1 * h2
    m4b = h * (1.0 + h2 * d2)
    d4 = -k2 * m4b
    E = np.empty((2, 2, len(k0)))
    E[0, 0] = h6 * (2.0 * (a2 + a3) + a4)
    E[0, 1] = h + h6 * (2.0 * h2 * d2 + h * d2)  # the six ones give h
    E[1, 0] = h6 * (c1 + 2.0 * (c2 + c3) + c4)
    E[1, 1] = h6 * (4.0 * d2 + d4)
    if b is None:
        return E, None
    q0, q1, q2 = b[0::3], b[1::3], b[2::3]
    # first column: e1c = q0, n2a = 0, e2c = q1
    n2c = h2 * q0
    n3a = h2 * n2c
    n3c = h2 * q1
    e3c = q1 * m3a - k1 * n3a
    n4a = h * n3c
    n4c = h * e3c
    e4c = q2 * m4a - k2 * n4a
    # second column: e1d = n2b = n2d = n3b = 0, e3d = e2d
    e2d = q1 * h2
    n3d = h2 * e2d
    n4b = h * n3d
    n4d = h * e2d
    e4d = q2 * m4b - k2 * n4b
    Q = np.empty((2, 2, len(k0)))
    Q[0, 0] = h6 * (2.0 * (n2c + n3c) + n4c)
    Q[0, 1] = h6 * (2.0 * n3d + n4d)
    Q[1, 0] = h6 * (q0 + 2.0 * (q1 + e3c) + e4c)
    Q[1, 1] = h6 * (4.0 * e2d + e4d)
    return E, Q


def _matmul2(B, A):
    """B_i A_i for stacks of 2x2 matrices of shape (2, 2, m), each entry a
    two-term sum in a fixed order (no BLAS, so the bits do not depend on
    the machine)."""
    return B[:, 0, None] * A[None, 0] + B[:, 1, None] * A[None, 1]


def _window_product(E, Q):
    """(E, Q) of the whole window from the steps' (E_n, Q_n), as 2x2 arrays.

    Adjacent factors a (earlier) and b multiply pairwise, level by level:
    E_ab = (E_a + E_b) + E_b E_a and Q_ab = (Q_a + Q_b) + (Q_b E_a + E_b
    Q_a), the lower block of [[I + E_b, 0], [Q_b, I + E_b]] [[I + E_a, 0],
    [Q_a, I + E_a]].  An odd count carries its last factor to the next
    level.
    """
    while E.shape[-1] > 1:
        m = E.shape[-1]
        Ea, Eb = E[..., 0:m - 1:2], E[..., 1::2]
        E_next = (Ea + Eb) + _matmul2(Eb, Ea)
        if Q is not None:
            Qa, Qb = Q[..., 0:m - 1:2], Q[..., 1::2]
            Q_next = (Qa + Qb) + (_matmul2(Qb, Ea) + _matmul2(Eb, Qa))
            if m % 2:
                Q_next = np.concatenate((Q_next, Q[..., -1:]), axis=-1)
            Q = Q_next
        if m % 2:
            E_next = np.concatenate((E_next, E[..., -1:]), axis=-1)
        E = E_next
    return E[..., 0], None if Q is None else Q[..., 0]


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
        self._consts = None  # the constants the window is built from
        self._win = None

    def kmag_base(self, t):
        """Base K_mag along the segment at a time, or at an array of times
        (one trajectory lookup and one field evaluation for the array)."""
        return magnetic_curvature(self.surface, self.field, self.traj, t)

    def base_matrix(self, t):
        """X at a time (2x2), or at an array of times (shape t.shape + (2, 2))."""
        if np.ndim(t) == 0:
            return self._vp.matrix(t)
        return self._vp.matrices(t)

    def set_window(self, consts):
        """Fix the support window of consts' profiles and sample the base
        K_mag for responses.

        The window is [delta's support start - 0.02 lambda, Delta's support
        end + 0.02 lambda], clipped to [0, T]; it keeps the profiles (delta,
        Delta, alpha) that beta_A is made of.  Step i of the n RK4 steps has
        its stage times t0, t0 + h/2, t0 + h at the points 2i, 2i + 1, 2i + 2
        of the uniform half-step grid (`stage_t`, a float64 array of length
        3n), and K_mag there (`k`, the same layout): one K_mag lookup of the
        2n + 1 grid points serves every response.
        """
        d, D = consts.delta_profile, consts.Delta_profile
        t_a = max(0.0, d.support[0] - 0.02 * consts.lam_window)
        t_b = min(self.T, D.support[1] + 0.02 * consts.lam_window)
        n = self.n_window_steps
        ts = np.linspace(t_a, t_b, 2 * n + 1)
        stages = (2 * np.arange(n)[:, None] + np.arange(3)).ravel()
        self._win = {
            "h": (t_b - t_a) / n, "k": self.kmag_base(ts)[stages],
            "stage_t": ts[stages], "profiles": (d, D, consts.alpha),
            "X_a": self.base_matrix(t_a),
            "X_after": self.base_matrix(self.T) @ np.linalg.inv(self.base_matrix(t_b)),
        }

    @property
    def _window(self):
        """The window `set_window` set or, on first use, the window of the
        constants `compute_constants` gave the kit: only a kit that responds
        pays for its window."""
        if self._win is None:
            if self._consts is None:
                raise RuntimeError("compute_constants or set_window must run "
                                   "before responses")
            self.set_window(self._consts)
        return self._win

    def _rk4(self, k, b=None):
        """Fixed-step RK4 across the window for X' = [[0, 1], [-K, 0]] X.

        k holds K at the three stage times of each step (a float64 array of
        length 3n).  Given b (same layout), also integrates Y' = [[0, 1],
        [-K, 0]] Y + [[0, 0], [b, 0]] X from Y = 0 and returns X_after
        Y(t_b); otherwise X_after X(t_b).  The steps are linear, so the
        window is the ordered product of their matrices (`_step_factors`,
        `_window_product`) applied to X(t_a).
        """
        w = self._window
        E, Q = _window_product(*_step_factors(w["h"], k, b))
        X_a = w["X_a"]
        if b is not None:
            return w["X_after"] @ (Q @ X_a)
        return w["X_after"] @ (X_a + E @ X_a)

    def response(self, A=None):
        """S(A): X(T) of the variational system for the field G(A).

        G(A) vanishes on the core, so its only effect on the transversal
        linearization is K_mag -> K_mag - beta_A(t) in the window; None means
        the base field.  The window is crossed with fixed-step RK4
        (deterministic and smooth in A); outside it the cached base
        propagators are used.
        """
        w = self._window
        k = w["k"]
        if A is not None:
            k = k - _beta_A(A, _profiles(*w["profiles"], w["stage_t"]), k)
        return self._rk4(k)

    def response_derivative(self, A):
        """Z(T) = X(T) int X^{-1} [[0,0],[db,0]] X dt, the first variation of
        S at 0 along A (db the derivative of beta_A along A, `_del_b`)."""
        w = self._window
        prof = _profiles(*w["profiles"], w["stage_t"])
        return self._rk4(w["k"], _del_b(A, prof, w["k"]))


def build_franks_kit(split, i):
    """Kit for segment i of a `SegmentSplit`, on the segment's tube
    (`SegmentSplit.tube`)."""
    return FranksKit(split.tube(i))


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


def compute_constants(kit: FranksKit, eps_c1):
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

    lam = min(k0 / 16.0, 0.45 * (T - k0 / 2.0))
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
    k6 = 0.0
    tgrid = np.linspace(max(0.0, sup_lo - 2 * lam), min(T, sup_hi + 2 * lam), 20001)
    kgrid = kit.kmag_base(tgrid)
    prof = _profiles(delta_p, Delta_p, alpha, tgrid)
    for dirn in _unit_directions():
        A = PerturbA(delta1 * dirn[0], delta1 * dirn[1], delta1 * dirn[2])
        vals = _beta_A(A, prof, kgrid)
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
    kit._consts, kit._win = consts, None  # the window follows on first response
    return consts


def _unit_directions():
    dirs = []
    for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1),
              (1, 1, 1), (1, -1, 1)):
        a = PerturbA(*v)
        n = a.norm()
        dirs.append((v[0] / n, v[1] / n, v[2] / n))
    return dirs


def _profiles(d, D, alpha, t):
    """(alpha, delta, delta', Delta, Delta'') at t (a time or an array), from
    the bump profiles d = delta, D = Delta and the cutoff alpha."""
    return alpha.value(t), d.value(t), d.d1(t), D.value(t), D.d2(t)


def _beta_A(A: PerturbA, prof, kmag):
    """beta_A = alpha (delta a + delta' b) + (K0 + Delta''/2Delta)(e^{-alpha Delta c}-1).

    prof is `_profiles` at some times and kmag the base K_mag (K0) there,
    numbers or arrays of one shape.
    """
    al, dv, dd1, Dv, Dd2 = prof
    out = al * (dv * A.a + dd1 * A.b)
    y = -al * Dv * A.c
    em1 = np.where(np.abs(y) >= 1e-6, np.expm1(y),
                   y * (1.0 + 0.5 * y * (1.0 + y / 3.0)))
    # em1 / Dv stays finite as Dv -> 0 since y = -al * Dv * c
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(Dv != 0.0, em1 / Dv, 0.0)
    return out + (kmag * em1 + 0.5 * Dd2 * ratio)


def _del_b(A: PerturbA, prof, kmag):
    """Directional derivative of beta_A at A = 0 (prof, kmag as in _beta_A)."""
    al, dv, dd1, Dv, Dd2 = prof
    return al * (dv * A.a + dd1 * A.b - (Dv * kmag + 0.5 * Dd2) * A.c)


# -- perturbations and responses -----------------------------------------------------


def build_GA(kit: FranksKit, consts: FranksConstants, A: PerturbA):
    """The perturbation G(A) - f0 as a PerturbationField plus its profile.

    Requires |A| < delta1.  Returns (perturbed_field, perturbation, beta);
    beta takes a time, as PerturbationField calls it, or an array of times.
    """
    if A.norm() >= consts.delta1:
        raise ValueError(f"|A| = {A.norm():.3e} >= delta1 = {consts.delta1:.3e}")
    profiles = (consts.delta_profile, consts.Delta_profile, consts.alpha)

    def beta(t):  # [()]: a number for a time
        return _beta_A(A, _profiles(*profiles, t), kit.kmag_base(t))[()]

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


# -- verification ----------------------------------------------------------------------


@dataclass
class CotaReport:
    margins: list
    min_margin: float
    linearity_defect: float
    samples: int


def verify_cota(kit: FranksKit, consts: FranksConstants, sample_count, seed):
    """Sampled check of |Z(T)| >= |A| / (2 k1^3) over random unit directions.

    Raises CotaViolationError if any margin drops below 1.
    """
    rng = np.random.default_rng(seed)
    margins = []
    worst = math.inf
    for _ in range(sample_count):
        A = PerturbA.random_unit(rng)
        Z = kit.response_derivative(A)
        margin = float(np.linalg.norm(Z, 2) * 2.0 * consts.k1**3 / A.norm())
        margins.append(margin)
        if margin < worst:
            worst = margin
        if margin < 1.0:
            raise CotaViolationError(
                f"response bound violated: margin {margin:.6f}", direction=A)
    # linearity of the first variation: Z(2A) = 2 Z(A)
    A = PerturbA.random_unit(rng)
    Z1 = kit.response_derivative(A)
    Z2 = kit.response_derivative(PerturbA(2 * A.a, 2 * A.b, 2 * A.c))
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
    below_floor: int


def verify_ball_surjectivity(kit: FranksKit, consts: FranksConstants,
                             n_targets, mode, seed):
    """Newton inversion of A -> S(G(A)) for targets near S0 = S(f0).

    mode="sphere": targets S0 exp(s D) on the delta/2 sphere (the first
    n_targets of 8 coordinate and mixed directions of the traceless algebra;
    seed is not read).  mode="forward": targets generated as S(G(A0)) for
    known A0 with |A0| = delta1/2, drawn with seed; the report then also
    carries the recovery error |A - A0|.  Newton (at most 30 iterates)
    stops at residual max(1e-3 * dist(target, S0), few ulps), so the
    inversion genuinely runs whenever the target is numerically
    distinguishable from S0; each solve must end with residual <= 1e-6,
    |A| <= delta1, and |A| within the covering bound 2 k1^3 dist(target, S0).
    Each detail counts its `newton_steps`; `below_floor` counts the targets
    within the floor 32 eps |S0|_F of S0, 'solved' at A = 0 without a step.
    """
    def S_of(Avec):
        return kit.response(PerturbA(*Avec))

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
    below_floor = 0
    gene_ok = True
    hA = 0.1 * consts.delta1
    for it, tgt in enumerate(targets):
        dist = float(np.linalg.norm(tgt - S0, "fro"))
        below_floor += int(dist <= floor)
        stop = max(1e-3 * dist, floor)
        A = np.zeros(3)
        S = S0  # S at A = 0
        for step_no in range(30):
            if step_no:
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
        else:  # the last step moved A past the last S
            S = S_of(A)
            step_no = 30
        resid = float(np.linalg.norm(S - tgt, "fro"))
        a_norm = PerturbA(*A).norm()
        ok = resid <= 1e-6 and a_norm <= consts.delta1
        bound = 2.0 * consts.k1**3 * dist * (1.0 + 1e-6) + 1e-30
        if a_norm > bound:
            gene_ok = False
        solved += int(ok)
        max_res = max(max_res, resid)
        max_norm = max(max_norm, a_norm)
        det = {"dist": dist, "residual": resid, "A_norm": a_norm, "ok": ok,
               "newton_steps": step_no}
        if known is not None:
            det["recovery_error"] = float(np.linalg.norm(A - known[it]))
        details.append(det)
    return SurjectivityReport(len(targets), solved, max_res, max_norm,
                              gene_ok, details, below_floor)


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


def segment_split(orbit, eps0, options):
    """Cut a closed orbit into n segments of equal length t0 in (K/2, K].

    The surface, field and energy are the orbit's.  n is the smallest count
    with t0 = T_theta / n <= K.  One variational flow of the orbit, at the
    integrator options given, gives the segment starts, the per-segment
    transversal propagators (whose ordered product is the full monodromy),
    256 core samples per segment and each segment's mid-patch samples,
    (x, y, vx, vy) at 64 times over 0.3-0.7 t0.  No tube is built here:
    `SegmentSplit.tube(i)` builds segment i's tube, of width at most eps0,
    when it is needed.
    """
    surface, field = orbit.return_map.section.surface, orbit.return_map.section.field
    K = injectivity_time(surface, field, orbit.c)
    T_theta = orbit.period
    if T_theta <= K / 2.0:
        raise DataInconsistencyError(
            f"period {T_theta} <= K/2 = {K/2}: contradicts the injectivity bound")
    n = max(1, math.ceil(T_theta / K - 1e-12))
    t0 = T_theta / n
    if not (K / 2.0 < t0 <= K * (1.0 + 1e-12)):
        raise DataInconsistencyError(
            f"t0 = {t0} not in (K/2, K] = ({K/2}, {K}]")
    traj, vp = flow_with_variation(surface, field, orbit.initial_state, T_theta,
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
    return SegmentSplit(n, t0, starts, responses, surface, field, eps0, options,
                        core_samples, patch_samples)
