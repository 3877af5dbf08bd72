"""Poincare sections, first-return maps, closed-orbit shooting and Floquet data.

A section through an anchor state (p0, v0) on the energy level E = c is the
set of unit-level states based on the chart line through p0 in the i*v0
direction.  With s the g-arclength parameter at the anchor and

    R = g(v, c'(s))          (tangential momentum along the section curve)

the induced symplectic form of the twisted structure is exactly dR ^ ds: the
position component of the section is one-dimensional, so the magnetic term
pulls back to zero, and the canonical 1-form restricts to R ds.  First-return
maps in (s, R) are therefore area-preserving in exact arithmetic, and
(s, R) agree with the transversal-frame coordinates (y, y') at the anchor up
to a constant-determinant linear change, leaving traces, Floquet classes and
normal-form invariants unchanged.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoReturnError, NewtonDivergenceError, ContinuationLostError
from .geometry import PhasePoint, energy as phase_energy
from .dynamics import IntegratorOptions, flow, flow_with_variation
from .maps import fd_jacobian

__all__ = [
    "Section",
    "first_return",
    "SectionReturnMap",
    "ClosedOrbit",
    "find_closed_orbit",
    "classify",
    "continue_orbit",
    "phase_distance",
    "seed_grid",
]

log = logging.getLogger("maglab.orbits")

# radius of the disk around the anchor (in the chart, after wrapping) outside
# which a torus section offset is not defined: the section line is local
_TORUS_WINDOW = 0.35
_T_SKIP = 1e-9    # a crossing this soon after the start is the start itself
_MAX_NEWTON = 25  # Newton iterates of find_closed_orbit


def rescale_to_energy(surface, state: PhasePoint, c) -> PhasePoint:
    lam = surface.metric_at(state.chart, *surface.wrap_position(state.x, state.y)).lam
    sp = lam * math.hypot(state.vx, state.vy)
    if sp == 0.0:
        raise ValueError("zero velocity")
    s = math.sqrt(2.0 * c) / sp
    return PhasePoint(state.chart, state.x, state.y, state.vx * s, state.vy * s)


def phase_distance(surface, a: PhasePoint, b: PhasePoint):
    """Chart-Euclidean phase-space distance with torus wrapping."""
    if a.chart != b.chart:
        conv = surface.to_chart(b, a.chart)
        if conv is None:
            return math.inf
        b = conv
    dx, dy = surface.wrap_diff(b.x - a.x, b.y - a.y)
    return math.sqrt(dx * dx + dy * dy + (b.vx - a.vx) ** 2 + (b.vy - a.vy) ** 2)


class Section:
    """Transversal section anchored at a unit-energy-level state."""

    def __init__(self, surface, field, anchor: PhasePoint, half_width=0.2):
        self.surface = surface
        self.field = field
        # Python floats, so that no numpy scalar reaches a return's flow
        anchor = PhasePoint(anchor.chart, float(anchor.x), float(anchor.y),
                            float(anchor.vx), float(anchor.vy))
        self.c = phase_energy(surface, anchor)
        if self.c <= 0:
            raise ValueError("anchor must have positive energy")
        sp = math.hypot(anchor.vx, anchor.vy)
        if sp == 0.0:
            raise ValueError("anchor velocity vanishes")
        self.anchor = anchor
        self.half_width = half_width
        u = (-anchor.vy, anchor.vx)
        self.unit_e = (u[0] / sp, u[1] / sp)
        self.normal_e = (-self.unit_e[1], self.unit_e[0])
        md = surface.metric_at(anchor.chart, *surface.wrap_position(anchor.x, anchor.y))
        self.lam0 = md.lam
        # forward crossings keep the anchor's transversality sign
        self.cross_sign = 1.0 if (anchor.vx * self.normal_e[0] + anchor.vy * self.normal_e[1]) > 0 else -1.0

    # -- coordinates ---------------------------------------------------------

    def embed(self, s, R) -> PhasePoint:
        """Phase point with section coordinates (s, R)."""
        s, R = float(s), float(R)
        x = self.anchor.x + s * self.unit_e[0] / self.lam0
        y = self.anchor.y + s * self.unit_e[1] / self.lam0
        lam = self.surface.metric_at(self.anchor.chart, *self.surface.wrap_position(x, y)).lam
        m = lam / self.lam0
        a = R / m
        two_c = 2.0 * self.c
        disc = two_c - a * a
        if disc <= 0.0:
            raise ValueError(f"R={R} exceeds the energy circle at s={s}")
        b = math.sqrt(disc)
        # unit tangent/normal of the section curve at psi(s); the normal branch
        # N = -i T is the one through the anchor velocity
        tx, ty = self.unit_e[0] / lam, self.unit_e[1] / lam
        nx, ny = -self.normal_e[0] / lam, -self.normal_e[1] / lam
        vx = a * tx + b * nx
        vy = a * ty + b * ny
        return PhasePoint(self.anchor.chart, x, y, vx, vy)

    def coords(self, state: PhasePoint):
        """(s, R) of a state lying on (or near) the section curve."""
        if state.chart != self.anchor.chart:
            conv = self.surface.to_chart(state, self.anchor.chart)
            if conv is None:
                raise ValueError("state not expressible in the section chart")
            state = conv
        dx, dy = self.surface.wrap_diff(state.x - self.anchor.x, state.y - self.anchor.y)
        s = self.lam0 * (dx * self.unit_e[0] + dy * self.unit_e[1])
        xs = self.anchor.x + s * self.unit_e[0] / self.lam0
        ys = self.anchor.y + s * self.unit_e[1] / self.lam0
        lam = self.surface.metric_at(self.anchor.chart, *self.surface.wrap_position(xs, ys)).lam
        R = lam * lam * (state.vx * self.unit_e[0] + state.vy * self.unit_e[1]) / self.lam0
        return (s, R)

    def offset_at(self, chart, x, y):
        """Signed chart-normal offset of a position in `chart` from the
        section curve (the event function); None outside the window."""
        anchor = self.anchor
        if chart != anchor.chart:
            pos = self.surface.position_to_chart(chart, x, y, anchor.chart)
            if pos is None:
                return None
            x, y = pos
        dx, dy = self.surface.wrap_diff(x - anchor.x, y - anchor.y)
        if self.surface.kind == "torus" and \
                dx * dx + dy * dy > _TORUS_WINDOW * _TORUS_WINDOW:
            return None
        return dx * self.normal_e[0] + dy * self.normal_e[1]

    def crossing_ok(self, state: PhasePoint):
        """Correct transversality sign and within the monitoring window."""
        if state.chart != self.anchor.chart:
            state = self.surface.to_chart(state, self.anchor.chart)
            if state is None:
                return False
        v_n = state.vx * self.normal_e[0] + state.vy * self.normal_e[1]
        if v_n * self.cross_sign <= 0:
            return False
        s, _ = self.coords(state)
        return abs(s) <= 4.0 * self.half_width


class _CrossingMonitor:
    """Scans accepted integration steps for section-line crossings.

    Each step is sampled at n points (`__call__`) and a sign change of the
    section offset between consecutive samples is refined on the
    interpolant (`_refine`).  A step in the anchor chart that provably
    holds no crossing is not sampled (`_skip`): along the step the offset
    is l(theta) = l0 + h * sum_j e_j theta^j, e_j = (a_j, b_j) . normal_e,
    with (a_j, b_j) the interpolant's position rows, so it stays within
    |h| * sum_j |e_j| of l0.  When |l0| exceeds that by a margin of at
    least 1e-9 (every sample would arm the monitor) plus a rounding slack,
    and the last sample before the step cannot pair with the step's first
    sample into a sign change (the monitor not armed, which it never is
    without a previous sample, or the same sign as l0), the step sets the
    state its last sample would have set and skips the others.  On the
    torus this is done only when the whole step is provably inside the
    offset window; a step provably outside it sets the state of a sample
    outside.  Every other step is sampled, so the hits are those of
    sampling every step.
    """

    def __init__(self, section):
        self.section = section
        self.prev_t = 0.0
        self.prev_l = None
        self.armed = False
        self.hits = []
        self.want = 1
        anchor = section.anchor
        self._chart = anchor.chart
        self._anchor_size = abs(anchor.x) + abs(anchor.y)
        # the torus wraps offsets and has the window; the other surfaces neither
        self._torus = section.surface.kind == "torus"

    def _state_of(self, chart, step, tau):
        y = step.eval(tau)
        return PhasePoint(chart, y[0], y[1], y[2], y[3])

    def __call__(self, chart, step, offset):
        if chart == self._chart and self._skip(chart, step, offset):
            return True
        offset_at = self.section.offset_at
        position = step.eval_position
        t0, h = step.t0, step.h
        # subsample so consecutive samples move < ~0.08 chart units
        speed = math.hypot(step.y1[2], step.y1[3])
        n = max(3, min(256, int(h * speed / 0.08) + 1))
        for k in range(1, n + 1):
            tau = t0 + k / n * h
            t_glob = offset + tau
            x, y = position(tau)
            l = offset_at(chart, x, y)
            if l is None:
                self.prev_l = None
                self.armed = False
                continue
            # every assignment keeps the monitor unarmed without a previous
            # sample, so an armed monitor has one to pair with
            if not self.armed:
                self.armed = abs(l) > 1e-9
            elif (l == 0.0 or (self.prev_l < 0.0) != (l < 0.0)) and \
                    abs(l - self.prev_l) < 0.3:
                hit = self._refine(self.prev_t, (t_glob, chart, step, tau))
                if hit is not None and hit[0] > _T_SKIP:
                    self.hits.append(hit)
                    if len(self.hits) >= self.want:
                        return False
            self.prev_l, self.prev_t = l, (t_glob, chart, step, tau)
        return True

    def _skip(self, chart, step, offset):
        """Whether a step in the anchor chart provably holds no crossing; if
        so, the state is set as the sample loop would leave it."""
        (a1, a2, a3, a4), (b1, b2, b3, b4) = step.position_rows()
        section = self.section
        n0, n1 = section.normal_e
        x0, y0 = step.y0[0], step.y0[1]
        h = abs(step.h)
        # over theta in [0, 1] the position moves at most `move` and the
        # offset at most `reach`
        move = h * (math.hypot(a1, b1) + math.hypot(a2, b2)
                    + math.hypot(a3, b3) + math.hypot(a4, b4))
        reach = h * (abs(a1 * n0 + b1 * n1) + abs(a2 * n0 + b2 * n1)
                     + abs(a3 * n0 + b3 * n1) + abs(a4 * n0 + b4 * n1))
        # far above the rounding of one sample, which is a few ulps of these
        margin = 1e-9 + 1e-12 * (abs(x0) + abs(y0) + self._anchor_size + move)
        if self._torus:
            anchor = section.anchor
            dist = math.hypot(*section.surface.wrap_diff(x0 - anchor.x,
                                                         y0 - anchor.y))
            if dist - move > _TORUS_WINDOW + margin:
                # every sample is outside the window
                self.prev_l = None
                self.armed = False
                return True
            if dist + move >= _TORUS_WINDOW - margin:
                return False
        # no window off the torus, and inside it on the torus: l0 is a number
        l0 = section.offset_at(chart, x0, y0)
        if abs(l0) <= reach + margin:
            return False
        if self.armed and (self.prev_l < 0.0) != (l0 < 0.0):
            return False
        # the last sample, k = n
        tau = step.t0 + step.h
        x, y = step.eval_position(tau)
        self.prev_l = section.offset_at(chart, x, y)
        self.prev_t = (offset + tau, chart, step, tau)
        self.armed = True
        return True

    def _refine(self, rec_a, rec_b):
        sec = self.section
        ta, chart_a, step_a, tau_a = rec_a
        tb, chart_b, step_b, tau_b = rec_b

        def ell(t_glob):
            if step_a is step_b or t_glob >= tb - (tau_b - step_b.t0) - 1e-18:
                step, chart, tau = step_b, chart_b, step_b.t0 + (t_glob - (tb - (tau_b - step_b.t0)))
            else:
                step, chart, tau = step_a, chart_a, step_a.t0 + (t_glob - (ta - (tau_a - step_a.t0)))
            tau = min(max(tau, step.t0), step.t1)
            x, y = step.eval_position(tau)
            v = sec.offset_at(chart, x, y)
            return v if v is not None else math.nan

        la, lb = ell(ta), ell(tb)
        if math.isnan(la) or math.isnan(lb) or la * lb > 0:
            return None
        if la == 0.0:
            t_star = ta
        elif lb == 0.0:
            t_star = tb
        else:
            t_star = _brent(ell, ta, tb, xtol=1e-13, rtol=8.9e-16)
        # state at the crossing
        if t_star >= tb - (tau_b - step_b.t0):
            st = self._state_of(chart_b, step_b, step_b.t0 + (t_star - (tb - (tau_b - step_b.t0))))
        else:
            st = self._state_of(chart_a, step_a, step_a.t0 + (t_star - (ta - (tau_a - step_a.t0))))
        if not sec.crossing_ok(st):
            return None
        return (t_star, st)


def _brent(f, xa, xb, xtol, rtol):
    """Root of f in [xa, xb], where f changes sign, by Brent's method.

    A transcription of scipy's `brentq` (its brentq.c, after R. P. Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 4): the same
    bisection, secant and inverse quadratic steps in the same order and the
    same xtol + rtol*|x| stopping test, so the roots agree bit for bit.  As
    there, a NaN value of f raises ValueError and running out of brentq's
    default 100 iterations raises RuntimeError.
    """

    def fval(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; "
                             "solver cannot continue.")
        return fx

    xpre, xcur = xa, xb
    fpre = fval(xpre)
    fcur = fval(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        # the tolerance is 2 * delta
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # in C the step is then inf or nan, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fval(xcur)
    raise RuntimeError(f"Failed to converge after 100 iterations, value is {xcur}")


def first_return(section, coords, max_time=50.0, backward=False, options=None):
    """Next section crossing with matching orientation, in the section's field.

    Returns (coords', transit_time, state).  transit_time is positive also for
    backward returns (time until the *previous* crossing).  Raises
    NoReturnError when no vetted crossing occurs within max_time.
    """
    options = options or IntegratorOptions()
    state = section.embed(*coords)
    sign = -1 if backward else 1
    monitor = _CrossingMonitor(section)
    flow(section.surface, section.field, state, sign * max_time, options,
         observer=lambda chart, step, off: monitor(chart, step, off))
    if not monitor.hits:
        raise NoReturnError(
            f"no section return within {max_time} time units"
            f"{' (backward)' if backward else ''}")
    t_star, st = monitor.hits[0]
    return section.coords(st), t_star, st


class SectionReturnMap:
    """The first-return map as a planar map oracle (callable, invertible)."""

    def __init__(self, section, max_time=50.0, options=None):
        self.section = section
        self.max_time = max_time
        self.options = options or IntegratorOptions()

    def __call__(self, z):
        zc, _, _ = first_return(self.section, tuple(z), self.max_time,
                                options=self.options)
        return np.asarray(zc)

    def inverse(self, z):
        zc, _, _ = first_return(self.section, tuple(z), self.max_time,
                                backward=True, options=self.options)
        return np.asarray(zc)


# -- closed orbits ------------------------------------------------------------


@dataclass
class EigenData:
    kind: str
    eigenvalues: tuple = ()
    stable: tuple = ()
    unstable: tuple = ()
    alpha: float = 0.0


@dataclass
class ClosedOrbit:
    initial_state: PhasePoint
    period: float
    monodromy: np.ndarray
    floquet_class: str
    residual: float
    c: float
    eigen: EigenData
    section: Section
    parabolic_suspect: bool = False

    @property
    def trace(self):
        return float(np.trace(self.monodromy))

    def record(self):
        s = self.initial_state
        return {
            "initial_state": {"chart": s.chart, "x": s.x, "y": s.y,
                              "vx": s.vx, "vy": s.vy},
            "period": self.period,
            "monodromy": [[float(v) for v in row] for row in self.monodromy],
            "trace": self.trace,
            "class": self.floquet_class,
            "residual": self.residual,
        }


def classify(monodromy, class_tol=1e-6):
    """Floquet class from the trace; elliptic also returns the label angle.

    Returns (class, EigenData).  Hyperbolic iff |tr| > 2 + class_tol,
    elliptic iff |tr| < 2 - class_tol, parabolic in the closed strip between.
    """
    M = np.asarray(monodromy, dtype=float)
    tr = float(np.trace(M))
    if abs(tr) > 2.0 + class_tol:
        disc = math.sqrt(tr * tr - 4.0)
        lam_u = (tr + disc) / 2.0 if tr > 0 else (tr - disc) / 2.0
        lam_s = 1.0 / lam_u
        vecs = {}
        for name, lam in (("unstable", lam_u), ("stable", lam_s)):
            A = M - lam * np.eye(2)
            v = np.array([A[0, 1], -A[0, 0]])
            if np.linalg.norm(v) < 1e-12:
                v = np.array([A[1, 1], -A[1, 0]])
            vecs[name] = v / np.linalg.norm(v)
        return "hyperbolic", EigenData("hyperbolic", (lam_u, lam_s),
                                       tuple(vecs["stable"]), tuple(vecs["unstable"]))
    if abs(tr) < 2.0 - class_tol:
        alpha = math.acos(tr / 2.0) / (2.0 * math.pi)
        return "elliptic", EigenData("elliptic", alpha=alpha)
    return "parabolic", EigenData("parabolic")


def _minimal_period(surface, field, state, T, tol, options):
    """Shooting can converge onto a multiple; test period divisors k = 2..6."""
    best = T
    for k in range(6, 1, -1):
        cand = T / k
        end = flow(surface, field, state, cand, options).end_state()
        if phase_distance(surface, state, end) <= 100.0 * tol:
            best = cand
            log.info("transit time %.12g covers the orbit %d times; period %.12g",
                     T, k, cand)
            break
    return best


def find_closed_orbit(surface, field, c, seed_state, tol=1e-10, options=None,
                      max_time=50.0, class_tol=1e-6, half_width=0.2):
    """Newton shooting on the first-return map from a seed state.

    The seed is projected onto the energy level c.  Raises
    NewtonDivergenceError if the residual does not reach tol; a near-singular
    I - dP marks the result parabolic-suspect (best point returned when the
    residual is already acceptable).
    """
    options = options or IntegratorOptions()
    seed = rescale_to_energy(surface, seed_state, c)
    section = Section(surface, field, seed, half_width)
    rmap = SectionReturnMap(section, max_time, options)
    z = np.zeros(2)
    suspect = False
    fd_h = max(1e-7, 1e-6 * half_width)
    converged = False
    for it in range(_MAX_NEWTON):
        zc, transit, _ = first_return(section, tuple(z), max_time, options=options)
        w = np.asarray(zc)
        r = float(np.linalg.norm(w - z))
        if r <= tol:
            log.debug("newton iterate %d: residual %.3e, converged", it, r)
            converged = True
            break
        J = fd_jacobian(rmap, z, fd_h)
        A = J - np.eye(2)
        det = abs(np.linalg.det(A))
        if det < 1e-10:
            log.debug("newton iterate %d: residual %.3e, |det(J - I)| %.3e",
                      it, r, det)
            suspect = True
            break
        dz = np.linalg.solve(A, -(w - z))
        # keep the iterate inside the section window
        lim = 2.0 * half_width
        n = np.linalg.norm(dz)
        if n > lim:
            dz *= lim / n
        log.debug("newton iterate %d: residual %.3e, |dz| %.3e, |det(J - I)| %.3e",
                  it, r, min(n, lim), det)
        z = z + dz
    else:
        # the last iterate moved z: return from z once more
        zc, transit, _ = first_return(section, tuple(z), max_time, options=options)
        w = np.asarray(zc)
    resid_map = float(np.linalg.norm(w - z))
    if not converged and not (suspect and resid_map <= 1e3 * tol):
        if resid_map > tol:
            raise NewtonDivergenceError(
                f"shooting stalled with section residual {resid_map:.3e}")
    state = section.embed(*z)
    T = _minimal_period(surface, field, state, transit, max(resid_map, tol), options)
    traj, vp = flow_with_variation(surface, field, state, T, options)
    M = vp.matrix(T)
    residual = phase_distance(surface, state, traj.end_state())
    cls, eig = classify(M, class_tol)
    if suspect:
        log.info("orbit of period %.12g marked parabolic-suspect: "
                 "|det(J - I)| = %.3e < 1e-10 (class from the trace: %s)",
                 T, det, cls)
    if suspect and cls != "parabolic":
        cls = "parabolic"
        eig = EigenData("parabolic")
    orbit_section = Section(surface, field, state, half_width)
    return ClosedOrbit(state, T, M, cls, residual, c, eig, orbit_section,
                       parabolic_suspect=suspect)


def continue_orbit(orbit: ClosedOrbit, surface, new_field):
    """Re-shoot the orbit under a C1-close field (find_closed_orbit's
    defaults); reports the displacement."""
    try:
        new = find_closed_orbit(surface, new_field, orbit.c, orbit.initial_state)
    except (NewtonDivergenceError, NoReturnError) as exc:
        raise ContinuationLostError(
            f"continuation left the Newton basin: {exc}") from exc
    displacement = phase_distance(surface, orbit.initial_state, new.initial_state)
    return new, displacement


def seed_grid(surface, c, base_points, n_directions=8):
    """Phase-point seeds: n directions on the energy circle over base points."""
    seeds = []
    for chart, x, y in base_points:
        lam = surface.metric_at(chart, *surface.wrap_position(x, y)).lam
        sp = math.sqrt(2.0 * c) / lam
        for k in range(n_directions):
            th = 2.0 * math.pi * k / n_directions
            seeds.append(PhasePoint(chart, x, y, sp * math.cos(th), sp * math.sin(th)))
    return seeds
