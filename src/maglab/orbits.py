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
from dataclasses import asdict, dataclass

import numpy as np

from . import fanout
from .errors import NoReturnError, NewtonDivergenceError, SectionDomainError
from .geometry import PhasePoint, energy as phase_energy
from .dynamics import flow, flow_with_variation
from .maps import fd_jacobian

__all__ = [
    "Section",
    "first_return",
    "SectionReturnMap",
    "ClosedOrbit",
    "find_closed_orbit",
    "classify",
    "phase_distance",
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

    def __init__(self, surface, field, anchor: PhasePoint, half_width):
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
            raise SectionDomainError(f"R={R} exceeds the energy circle at s={s}")
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

    `flow` calls it as observer(chart, step) with each accepted step in
    trajectory time, the step that leaves a sphere chart too.  Each step is
    sampled at theta_k = k/n, k = 0..n (`__call__`), and a sign change of
    the section offset between consecutive samples of the step is refined
    on that step's interpolant (`_refine`): every bracket lies inside one
    step.  The monitor is `armed` by a sample with |offset| above
    1e-9 and disarmed by one where the offset is undefined (outside the
    torus window, or on the sphere outside the anchor chart's disk); a pair
    is tested only when it is armed.  `armed` is all that one step hands on
    to the next.  The k = 0 sample reads the step's start, which is the
    previous step's end up to rounding, so a crossing can hide between two
    steps only at rounding level.

    A step in the anchor chart that provably holds no crossing is not
    sampled (`_skip`): along the step the offset is
    l(theta) = l0 + h*theta*(e0 + (1-theta)*(e1 + theta*(e2 + ...))),
    e_j = (a_j, b_j) . normal_e with (a_j, b_j) the interpolant's position
    rows, and every factor theta or 1 - theta lies in [0, 1], so it stays
    within |h| * sum_j |e_j| of l0.  When |l0| exceeds that by a margin of at
    least 1e-9 plus a rounding slack, every sample has l0's sign and would
    arm the monitor, so the step only arms it.  On the torus this is done
    only when the whole step is provably inside the offset window; a step
    provably outside it only disarms the monitor.  Every other step is
    sampled, so the hits are those of sampling every step.
    """

    def __init__(self, section):
        self.section = section
        self.armed = False
        self.hits = []
        self.want = 1
        anchor = section.anchor
        self._chart = anchor.chart
        self._anchor_size = abs(anchor.x) + abs(anchor.y)
        # the torus wraps offsets and has the window; the other surfaces neither
        self._torus = section.surface.kind == "torus"

    def __call__(self, chart, step):
        if chart == self._chart and self._skip(chart, step):
            return True
        offset_at = self.section.offset_at
        position = step.eval_position
        t0, h = step.t0, step.h
        # subsample so consecutive samples move < ~0.08 chart units.  No
        # pair needs a guard against a jump in the offset: offset_at has
        # none inside the 0.35 torus window, and none on the disk or the
        # sphere, whose other chart maps continuously into the anchor chart
        speed = math.hypot(step.y1[2], step.y1[3])
        n = max(3, min(256, int(h * speed / 0.08) + 1))
        l_a = tau_a = None  # the step's previous sample, none before k = 0
        for k in range(n + 1):
            tau = t0 + k / n * h
            x, y = position(tau)
            l = offset_at(chart, x, y)
            if l is None:
                self.armed = False
            elif not self.armed:
                self.armed = abs(l) > 1e-9
            elif l_a is not None and (l == 0.0 or (l_a < 0.0) != (l < 0.0)):
                hit = self._refine(chart, step, tau_a, tau)
                if hit is not None and hit[0] > _T_SKIP:
                    self.hits.append(hit)
                    if len(self.hits) >= self.want:
                        return False
            l_a, tau_a = l, tau
        return True

    def _bounds(self, step):
        """(move, reach): over theta in [0, 1] the step's position stays
        within `move` of its start and the chart-normal offset within `reach`
        of the start's (the sums of |h| times the rows' norms and normal
        components)."""
        a, b = step.position_rows()
        a0, a1, a2, a3, a4, a5, a6 = a
        b0, b1, b2, b3, b4, b5, b6 = b
        n0, n1 = self.section.normal_e
        h = abs(step.h)
        move = h * sum(map(math.hypot, a, b))
        reach = h * (abs(a0 * n0 + b0 * n1) + abs(a1 * n0 + b1 * n1)
                     + abs(a2 * n0 + b2 * n1) + abs(a3 * n0 + b3 * n1)
                     + abs(a4 * n0 + b4 * n1) + abs(a5 * n0 + b5 * n1)
                     + abs(a6 * n0 + b6 * n1))
        return move, reach

    def _skip(self, chart, step):
        """Whether a step in the anchor chart provably holds no crossing; if
        so, `armed` is set as sampling the step would leave it."""
        section = self.section
        x0, y0 = step.y0[0], step.y0[1]
        move, reach = self._bounds(step)
        # far above the rounding of one sample, which is a few ulps of these
        margin = 1e-9 + 1e-12 * (abs(x0) + abs(y0) + self._anchor_size + move)
        if self._torus:
            anchor = section.anchor
            dist = math.hypot(*section.surface.wrap_diff(x0 - anchor.x,
                                                         y0 - anchor.y))
            if dist - move > _TORUS_WINDOW + margin:
                # every sample is outside the window
                self.armed = False
                return True
            if dist + move >= _TORUS_WINDOW - margin:
                return False
        # no window off the torus, and inside it on the torus: l0 is a number
        l0 = section.offset_at(chart, x0, y0)
        if abs(l0) <= reach + margin:
            return False
        # every sample has l0's sign and arms the monitor
        self.armed = True
        return True

    def _refine(self, chart, step, tau_a, tau_b):
        """(trajectory time, state) of the crossing between the step's
        samples at tau_a and tau_b; None when the refinement finds no sign
        change or `crossing_ok` rejects the crossing."""
        sec = self.section
        t0 = step.t0
        # read the interpolant at t0 + (t - start), not at t: start is t0 up
        # to the rounding of tau_b - t0, which is inexact in a step that
        # starts below tau_b - t0, and reading at t there moves crossings,
        # and the reports that hold them, in their last bits
        start = tau_b - (tau_b - t0)

        def ell(t):
            tau = min(max(t0 + (t - start), t0), step.t1)
            x, y = step.eval_position(tau)
            v = sec.offset_at(chart, x, y)
            return v if v is not None else math.nan

        try:
            t_star = _brent(ell, tau_a, tau_b, xtol=1e-13, rtol=8.9e-16)
        except ValueError:
            # re-evaluated, the ends have one sign (a rounding-level change),
            # or the interpolant leaves the offset's domain between them: the
            # torus window, or on the sphere the anchor chart's disk, which a
            # far crossing can straddle and crossing_ok would reject
            return None
        y = step.eval(t0 + (t_star - start))
        st = PhasePoint(chart, y[0], y[1], y[2], y[3])
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


def first_return(section, coords, max_time, options, backward=False):
    """Next section crossing with matching orientation, in the section's field.

    Returns (coords', transit_time, state).  transit_time is positive also for
    backward returns (time until the *previous* crossing).  Raises
    NoReturnError when no vetted crossing occurs within max_time.
    """
    state = section.embed(*coords)
    sign = -1 if backward else 1
    monitor = _CrossingMonitor(section)
    flow(section.surface, section.field, state, sign * max_time, options,
         observer=monitor)
    if not monitor.hits:
        raise NoReturnError(
            f"no section return within {max_time} time units"
            f"{' (backward)' if backward else ''}")
    t_star, st = monitor.hits[0]
    return section.coords(st), t_star, st


class SectionReturnMap:
    """The first-return map as a planar map oracle (callable, invertible); a
    return costs far more than a fork, so `fan_out` is `fanout.run`."""

    def __init__(self, section, max_time, options):
        self.section = section
        self.max_time = max_time
        self.options = options

    def __call__(self, z):
        zc, _, _ = first_return(self.section, tuple(z), self.max_time,
                                self.options)
        return np.asarray(zc)

    def inverse(self, z):
        zc, _, _ = first_return(self.section, tuple(z), self.max_time,
                                self.options, backward=True)
        return np.asarray(zc)

    def fan_out(self, fn, tasks):
        return fanout.run(fn, tasks)


# -- closed orbits ------------------------------------------------------------


@dataclass
class EigenData:
    eigenvalues: tuple = ()
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
    return_map: SectionReturnMap  # the search's, on the section through initial_state
    end_state: PhasePoint  # where the flow from initial_state is after period
    parabolic_suspect: bool = False

    @property
    def trace(self):
        return float(np.trace(self.monodromy))

    def record(self):
        return {
            "initial_state": asdict(self.initial_state),
            "period": self.period,
            "monodromy": self.monodromy.tolist(),
            "trace": self.trace,
            "class": self.floquet_class,
            "residual": self.residual,
        }


def classify(monodromy, class_tol):
    """Floquet class from the trace; elliptic also returns the label angle.

    Returns (class, EigenData).  Hyperbolic iff |tr| > 2 + class_tol,
    elliptic iff |tr| < 2 - class_tol, parabolic in the closed strip between.
    """
    tr = float(np.trace(np.asarray(monodromy, dtype=float)))
    if abs(tr) > 2.0 + class_tol:
        disc = math.sqrt(tr * tr - 4.0)
        lam_u = (tr + disc) / 2.0 if tr > 0 else (tr - disc) / 2.0
        return "hyperbolic", EigenData((lam_u, 1.0 / lam_u))
    if abs(tr) < 2.0 - class_tol:
        alpha = math.acos(tr / 2.0) / (2.0 * math.pi)
        return "elliptic", EigenData(alpha=alpha)
    return "parabolic", EigenData()


def find_closed_orbit(surface, field, c, seed_state, tol, options, max_time,
                      class_tol, half_width):
    """Newton shooting on the first-return map from a seed state.

    The seed is projected onto the energy level c.  The period is the transit
    time of the last return: a shorter one would bring the flow back to the
    start earlier, at a crossing that `crossing_ok` accepts.  Raises
    NewtonDivergenceError if the residual does not reach tol; a near-singular
    I - dP marks the result parabolic-suspect (best point returned when the
    residual is already acceptable).  The orbit's `return_map` is the return
    map on the section of half_width through its state, with the max_time and
    integrator options of the search, so the orbit's users return as it did.
    """
    seed = rescale_to_energy(surface, seed_state, c)
    section = Section(surface, field, seed, half_width)
    rmap = SectionReturnMap(section, max_time, options)
    z = np.zeros(2)
    suspect = False
    fd_h = max(1e-7, 1e-6 * half_width)
    for it in range(_MAX_NEWTON):
        zc, T, _ = first_return(section, tuple(z), max_time, options)
        w = np.asarray(zc)
        r = float(np.linalg.norm(w - z))
        if r <= tol:
            log.debug("newton iterate %d: residual %.3e, converged", it, r)
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
        zc, T, _ = first_return(section, tuple(z), max_time, options)
        w = np.asarray(zc)
    resid_map = float(np.linalg.norm(w - z))
    if resid_map > tol and not (suspect and resid_map <= 1e3 * tol):
        raise NewtonDivergenceError(
            f"shooting stalled with section residual {resid_map:.3e}")
    state = section.embed(*z)
    traj, vp = flow_with_variation(surface, field, state, T, options)
    M = vp.matrices(T)
    end = traj.end_state()
    residual = phase_distance(surface, state, end)
    cls, eig = classify(M, class_tol)
    if suspect:
        log.info("orbit of period %.12g marked parabolic-suspect: "
                 "|det(J - I)| = %.3e < 1e-10 (class from the trace: %s)",
                 T, det, cls)
    if suspect and cls != "parabolic":
        cls = "parabolic"
        eig = EigenData()
    return_map = SectionReturnMap(Section(surface, field, state, half_width),
                                  max_time, options)
    return ClosedOrbit(state, T, M, cls, residual, c, eig, return_map, end,
                       parabolic_suspect=suspect)

