"""Loop actions and critical-value brackets on the flat torus.

For L(x, v) = |v|^2/2 - eta_x(v) the strict critical value is the infimum
of k such that every null-homologous closed loop has nonnegative (L + k)-
action.  The lower end of the bracket is certified by an explicit witness
loop with negative action; the upper end is heuristic ("no negative loop
found up to the configured search effort"), matching the one-sided nature
of the infimum.  Contractible loops are searched over circles, rounded
rectangles and a Fourier parametrization descended with Nelder-Mead.

The descent is `_nelder_mead`, a transcription of scipy 1.17.1's Nelder-Mead
(`scipy.optimize.minimize(method="Nelder-Mead")`) reduced to the branch used
here; its x and fun are == to scipy's (tests/test_mane.py), and maglab
needs no scipy at run time.

`FourierLoop.sample` reads its nodes, cos/sin tables and mode numbers from
small caches keyed by (period, n, modes) and by modes: the Nelder-Mead descent
samples thousands of shapes with the same period, node count and mode count,
and rebuilt the same tables for each.  The cached arrays are read-only, as
are the value arrays `ConstantForm.components` keeps per shape.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DataInconsistencyError, UnsupportedSurfaceError
from .dynamics import flow

log = logging.getLogger("maglab.mane")

_SEARCH_NODES, _WITNESS_NODES = 256, 512  # quadrature nodes: search, witness
_T_CAP = 1e4          # longest period of a witness loop
_WINDING_TOL = 1e-6   # largest distance of a winding from an integer

__all__ = [
    "ConstantForm",
    "SinPrimitiveForm",
    "LagrangianSpec",
    "FourierLoop",
    "CircleLoop",
    "RoundedRectangleLoop",
    "loop_action",
    "CriticalBracket",
    "estimate_critical_value",
    "RotationVector",
    "rotation_vector",
]


# -- primitive one-forms ---------------------------------------------------------


class ConstantForm:
    """eta = a1 dx + a2 dy (closed: induces the zero intensity)."""

    def __init__(self, a1, a2=0.0):
        self.a1 = float(a1)
        self.a2 = float(a2)
        self._values = {}   # shape -> read-only (a1, a2) value arrays

    def components(self, xs, ys):
        shape = np.shape(xs)
        values = self._values.get(shape)
        if values is None:
            ones = np.ones(shape)
            values = (self.a1 * ones, self.a2 * ones)
            for a in values:
                a.setflags(write=False)
            self._values[shape] = values
        return values

    def curl(self, xs, ys):
        return np.zeros_like(np.asarray(xs, dtype=float))


class SinPrimitiveForm:
    """Primitive of the sinusoidal intensity: d eta = A sin(2 pi k.(x,y)) dx^dy."""

    def __init__(self, amplitude=1.0, k=(1, 0)):
        self.amplitude = float(amplitude)
        self.k = (int(k[0]), int(k[1]))

    def components(self, xs, ys):
        k1, k2 = self.k
        s = k1 * np.asarray(xs, dtype=float) + k2 * np.asarray(ys, dtype=float)
        norm2 = k1 * k1 + k2 * k2
        cos = np.cos(2.0 * math.pi * s)
        c = self.amplitude / (2.0 * math.pi * norm2)
        return c * k2 * cos, -c * k1 * cos

    def curl(self, xs, ys):
        k1, k2 = self.k
        s = k1 * np.asarray(xs, dtype=float) + k2 * np.asarray(ys, dtype=float)
        return self.amplitude * np.sin(2.0 * math.pi * s)


class LagrangianSpec:
    """L = kinetic - eta on the flat torus."""

    def __init__(self, surface, eta):
        if surface.kind != "torus":
            raise UnsupportedSurfaceError("critical-value machinery is torus-only")
        self.surface = surface
        self.eta = eta

    def induced_intensity(self, xs, ys):
        """f with d eta = f * area form (lam = 1 on the flat torus)."""
        return self.eta.curl(xs, ys)

    def field_consistency(self, field):
        """Largest |d eta - f| on a 64 x 64 grid."""
        g = np.linspace(0.0, 1.0, 64, endpoint=False)
        X, Y = np.meshgrid(g, g)
        mine = self.induced_intensity(X.ravel(), Y.ravel())
        theirs = np.array([field.value(0, x, y)
                           for x, y in zip(X.ravel(), Y.ravel())])
        return float(np.max(np.abs(mine - theirs)))


# -- loops -----------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _fourier_tables(period, n, modes):
    """Nodes t (n,) and cos, sin (modes, n) of FourierLoop.sample, read-only."""
    t = np.arange(n) * (period / n)
    ang = 2.0 * math.pi * np.outer(np.arange(1, modes + 1), t / period)
    cos = np.cos(ang)
    sin = np.sin(ang)
    for a in (t, cos, sin):
        a.setflags(write=False)
    return t, cos, sin


@functools.lru_cache(maxsize=8)
def _mode_numbers(modes):
    """m = 1..modes and -m of FourierLoop.sample, read-only."""
    m = np.arange(1, modes + 1)
    neg_m = -m
    for a in (m, neg_m):
        a.setflags(write=False)
    return m, neg_m


class FourierLoop:
    """Closed curve x(t) = c0 + sum_m a_m cos(2 pi m t/T) + b_m sin(2 pi m t/T)."""

    def __init__(self, period, coeffs):
        # coeffs: array (2, 2M+1): [c0, a1..aM, b1..bM] per coordinate
        self.period = float(period)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.modes = (self.coeffs.shape[1] - 1) // 2

    def sample(self, n):
        M = self.modes
        t, cos, sin = _fourier_tables(self.period, n, M)
        m, neg_m = _mode_numbers(M)
        w = 2.0 * math.pi / self.period
        coeffs = self.coeffs
        a = coeffs[:, 1:M + 1]
        b = coeffs[:, M + 1:]
        # elementwise, a * -m is -a * m bit for bit; v.dot(table) makes the
        # same BLAS call as v @ table with less dispatch, one row at a time
        am = a * neg_m
        bm = b * m
        pos = np.empty((2, n))
        vel = np.empty((2, n))
        for c in (0, 1):
            pos[c] = coeffs[c, 0] + a[c].dot(cos) + b[c].dot(sin)
            vel[c] = am[c].dot(sin) * w + bm[c].dot(cos) * w
        return t, pos, vel

    def describe(self):
        return {"kind": "fourier", "period": self.period,
                "coeffs": [list(map(float, row)) for row in self.coeffs]}


def CircleLoop(center, radius, period):
    coeffs = np.zeros((2, 3))
    coeffs[0, 0], coeffs[1, 0] = center
    coeffs[0, 1] = radius   # x: cos
    coeffs[1, 2] = radius   # y: sin
    return FourierLoop(period, coeffs)


class RoundedRectangleLoop:
    """x = cx + A tanh(q cos u)/tanh q, y = cy + B tanh(q sin u)/tanh q."""

    def __init__(self, center, half_x, half_y, squareness, period):
        self.center = center
        self.A = half_x
        self.B = half_y
        self.q = squareness
        self.period = float(period)

    def sample(self, n):
        t = np.arange(n) * (self.period / n)
        u = 2.0 * math.pi * t / self.period
        tq = math.tanh(self.q)
        cu, su = np.cos(u), np.sin(u)
        pos = np.stack([
            self.center[0] + self.A * np.tanh(self.q * cu) / tq,
            self.center[1] + self.B * np.tanh(self.q * su) / tq,
        ])
        du = 2.0 * math.pi / self.period
        vel = np.stack([
            -self.A * self.q * (1.0 - np.tanh(self.q * cu) ** 2) * su * du / tq,
            self.B * self.q * (1.0 - np.tanh(self.q * su) ** 2) * cu * du / tq,
        ])
        return t, pos, vel

    def describe(self):
        return {"kind": "rounded_rectangle", "center": list(self.center),
                "half": [self.A, self.B], "squareness": self.q,
                "period": self.period}


def loop_action(lagrangian: LagrangianSpec, loop, k, n_nodes=_WITNESS_NODES):
    """Quadrature of (L + k) over one loop period (trapezoid; spectral here)."""
    t, pos, vel = loop.sample(n_nodes)
    e1, e2 = lagrangian.eta.components(pos[0], pos[1])
    integrand = 0.5 * (vel[0] ** 2 + vel[1] ** 2) - (e1 * vel[0] + e2 * vel[1]) + k
    return float(np.sum(integrand) * (loop.period / n_nodes))


# -- critical value ----------------------------------------------------------------


@dataclass
class CriticalBracket:
    c_lo: float
    c_hi: float
    witness: dict
    witness_action: float
    effort: dict

    def as_dict(self):
        return {"c_lo": self.c_lo, "c_hi": self.c_hi,
                "witness_loop": self.witness,
                "witness_action": self.witness_action,
                "effort": self.effort}


def _shape_functional(lag, loop, k, n_nodes):
    """Speed-optimized action sqrt(2k) Len(gamma) - circulation of eta.

    For a fixed geometric loop the (L + k)-action over the traversal period
    T is Len^2/(2T) + kT - circulation, minimized at T* = Len/sqrt(2k); the
    minimum value is the Maupertuis form above.  Negative value at the
    optimal speed is exactly a negative-action witness.
    """
    _, (x, y), (vx, vy) = loop.sample(n_nodes)
    dt = loop.period / n_nodes
    length = float(np.hypot(vx, vy).sum() * dt)
    e1, e2 = lag.eta.components(x, y)
    circ = float((e1 * vx + e2 * vy).sum() * dt)
    return math.sqrt(2.0 * max(k, 0.0)) * length - circ, length


def _at_optimal_period(loop, length, k):
    period = min(length / math.sqrt(2.0 * k), _T_CAP) if k > 0.0 else _T_CAP
    if isinstance(loop, FourierLoop):
        return FourierLoop(period, loop.coeffs)
    return RoundedRectangleLoop(loop.center, loop.A, loop.B, loop.q, period)


def _nelder_mead(func, x0, maxiter, xatol, fatol):
    """Minimize func from x0 by Nelder-Mead; returns (x, fun, nit, nfev).

    A transcription of scipy 1.17.1's `_minimize_neldermead`, the solver of
    `scipy.optimize.minimize(method="Nelder-Mead", options={"maxiter",
    "xatol", "fatol"})`, kept to that branch: no bounds, not adaptive, no
    callback, the default initial simplex (nonzdelt 0.05, zdelt 0.00025) and
    no evaluation budget, so only maxiter stops the search, counting from 1.
    The coefficients rho = 1, chi = 2, psi = sigma = 0.5 are folded into the
    literals below (1 * v == v), func gets a copy of each vertex, and the
    simplex is re-sorted with argsort and take after every iteration, so x
    and fun are == to scipy's, ties included.
    """
    x0 = np.asarray(x0, dtype=float)
    N = len(x0)
    sim = np.tile(x0, (N + 1, 1))
    diag = np.arange(N)
    sim[diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)

    nfev = 0

    def f(v):
        nonlocal nfev
        nfev += 1
        return func(np.copy(v))

    fsim = np.array([f(v) for v in sim], dtype=float)
    # scipy sorts twice here; argsort is not stable, so tied values could
    # leave the second sort in another order than the first
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    iterations = 1
    while iterations < maxiter:
        if (np.abs(sim[1:] - sim[0]).max() <= xatol
                and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            if fxe < fxr:
                sim[-1], fsim[-1] = xe, fxe
            else:
                sim[-1], fsim[-1] = xr, fxr
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:              # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc <= fxr
            else:                           # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                accept = fxc < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xc, fxc
            else:                           # shrink toward the best vertex
                for j in range(1, N + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)
    return sim[0], fsim.min(), iterations, nfev


def _negative_loop_search(lag, k, rng, modes, restarts, maxiter):
    """A loop with A_{L+k} < 0, or None.  Deterministic given the rng state."""
    # rest points: action k * T
    if k < 0.0:
        loop = CircleLoop((0.5, 0.5), 0.0, 1.0)
        return loop, loop_action(lag, loop, k, _SEARCH_NODES)

    def realize(shape):
        """Turn a shape with negative speed-optimized action into a witness."""
        val, length = _shape_functional(lag, shape, k, _SEARCH_NODES)
        if val >= 0.0 or length <= 0.0:
            return None
        loop = _at_optimal_period(shape, length, k)
        a = loop_action(lag, loop, k)
        return (loop, a) if a < 0.0 else None

    best = None
    centers = [(cx, cy) for cx in (0.25, 0.5, 0.75) for cy in (0.25, 0.5, 0.75)]
    for cx, cy in centers:
        for r in (0.08, 0.15, 0.25, 0.4):
            for shape in (CircleLoop((cx, cy), r, 1.0),
                          RoundedRectangleLoop((cx, cy), r, 0.6 * r, 2.5, 1.0)):
                hit = realize(shape)
                if hit is not None and (best is None or hit[1] < best[1]):
                    best = hit
    if best is not None:
        return best

    # Nelder-Mead descent of the speed-optimized functional over Fourier shapes
    def unpack(vec):
        return FourierLoop(1.0, vec.reshape(2, 2 * modes + 1))

    def objective(vec):
        val, _ = _shape_functional(lag, unpack(vec), k, _SEARCH_NODES)
        return val

    for _ in range(restarts):
        coeffs0 = np.zeros((2, 2 * modes + 1))
        coeffs0[0, 0] = rng.uniform(0.0, 1.0)
        coeffs0[1, 0] = rng.uniform(0.0, 1.0)
        amp = rng.uniform(0.02, 0.3)
        coeffs0[0, 1] = amp
        coeffs0[1, modes + 1] = amp
        coeffs0[:, 1:] += 0.1 * amp * rng.standard_normal((2, 2 * modes))
        x, fun, _, _ = _nelder_mead(objective, coeffs0.ravel(), maxiter,
                                    xatol=1e-9, fatol=1e-13)
        if fun < 0.0:
            hit = realize(unpack(x))
            if hit is not None:
                return hit
    return None


def estimate_critical_value(lagrangian, k_range=(-0.25, 1.0), bisection_tol=1e-4,
                            seed=0, modes=8, *, restarts, maxiter):
    """Bisection bracket [c_lo, c_hi] for the strict critical value.

    A found negative-action loop at level k certifies k < c0 and becomes the
    stored witness; absence of one after the configured effort moves the
    upper end down (heuristically).  The initial range must bracket: a
    witness must exist at k_range[0] and none may be found at k_range[1].
    """
    lo, hi = float(k_range[0]), float(k_range[1])
    rng = np.random.default_rng(seed)
    found_lo = _negative_loop_search(lagrangian, lo, rng, modes, restarts,
                                     maxiter)
    if found_lo is None:
        raise BracketError(f"k_range does not bracket: no negative loop at k={lo}")
    if _negative_loop_search(lagrangian, hi, rng, modes, restarts,
                             maxiter) is not None:
        raise BracketError(f"k_range does not bracket: negative loop found at k={hi}")
    witness, w_action = found_lo
    evals = 2
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        hit = _negative_loop_search(lagrangian, mid, rng, modes, restarts,
                                    maxiter)
        evals += 1
        log.debug("bisection step %d: k = %.12g, %s", evals, mid,
                  "witness found" if hit is not None else "no witness")
        if hit is not None:
            lo = mid
            witness, w_action = hit
        else:
            hi = mid
    log.info("critical value bracket [%.12g, %.12g] after %d searches "
             "(witness action %.6g)", lo, hi, evals, w_action)
    effort = {"bisection_steps": evals, "restarts": restarts, "modes": modes,
              "maxiter": maxiter, "nodes": _SEARCH_NODES, "seed": seed}
    return CriticalBracket(lo, hi, witness.describe(), w_action, effort)


def verify_witness(lagrangian, bracket: CriticalBracket):
    """Re-evaluate the stored witness loop at c_lo; must be negative."""
    w = bracket.witness
    if w["kind"] == "fourier":
        loop = FourierLoop(w["period"], np.array(w["coeffs"]))
    elif w["kind"] == "rounded_rectangle":
        loop = RoundedRectangleLoop(tuple(w["center"]), w["half"][0], w["half"][1],
                                    w["squareness"], w["period"])
    else:
        raise ValueError(f"unknown witness kind {w['kind']}")
    return loop_action(lagrangian, loop, bracket.c_lo)


# -- rotation vectors ---------------------------------------------------------------


@dataclass
class RotationVector:
    homology: tuple
    period: float

    @property
    def rho(self):
        return (self.homology[0] / self.period, self.homology[1] / self.period)

    def as_dict(self):
        return {"homology": list(self.homology), "period": self.period,
                "rho": list(self.rho)}


def rotation_vector(surface, field, orbit, options):
    """Winding class over one minimal period divided by the period.

    Raises DataInconsistencyError when the flow over the period does not
    close up to an integer winding (within _WINDING_TOL).
    """
    if surface.kind != "torus":
        raise UnsupportedSurfaceError("rotation vectors are defined on the torus")
    traj = flow(surface, field, orbit.initial_state, orbit.period, options)
    s0 = traj.state(0.0)
    s1 = traj.end_state()
    dx = s1.x - s0.x
    dy = s1.y - s0.y
    p, q = round(dx), round(dy)
    if abs(dx - p) > _WINDING_TOL or abs(dy - q) > _WINDING_TOL:
        raise DataInconsistencyError(f"winding not integral: ({dx}, {dy})")
    return RotationVector((int(p), int(q)), orbit.period)
