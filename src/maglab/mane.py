"""Loop actions and critical-value brackets on the flat torus.

For L(x, v) = |v|^2/2 - eta_x(v) the strict critical value is the infimum
of k such that every null-homologous closed loop has nonnegative (L + k)-
action.  The lower end of the bracket is certified by an explicit witness
loop with negative action; the upper end is heuristic ("no negative loop
found up to the configured search effort"), matching the one-sided nature
of the infimum.  Contractible loops are searched over circles, rounded
rectangles and a Fourier parametrization descended with Nelder-Mead.

`FourierLoop.sample` reads its nodes and cos/sin tables from a small cache
keyed by (period, n, modes): the Nelder-Mead descent samples thousands of
shapes with the same period, node count and mode count, and rebuilt the same
tables for each.  The cached arrays are read-only.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, UnsupportedSurfaceError
from .dynamics import flow, IntegratorOptions

log = logging.getLogger("maglab.mane")

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

    def components(self, xs, ys):
        ones = np.ones_like(np.asarray(xs, dtype=float))
        return self.a1 * ones, self.a2 * ones

    def curl(self, xs, ys):
        return np.zeros_like(np.asarray(xs, dtype=float))

    def describe(self):
        return {"kind": "constant", "a": [self.a1, self.a2]}


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

    def describe(self):
        return {"kind": "sin_primitive", "amplitude": self.amplitude,
                "k": list(self.k)}


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

    def field_consistency(self, field, n=64):
        g = np.linspace(0.0, 1.0, n, endpoint=False)
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
        pos = np.empty((2, n))
        vel = np.empty((2, n))
        w = 2.0 * math.pi / self.period
        for c in range(2):
            c0 = self.coeffs[c, 0]
            a = self.coeffs[c, 1:M + 1]
            b = self.coeffs[c, M + 1:]
            pos[c] = c0 + a @ cos + b @ sin
            vel[c] = (-a * np.arange(1, M + 1)) @ sin * w + (b * np.arange(1, M + 1)) @ cos * w
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


def loop_action(lagrangian: LagrangianSpec, loop, k, n_nodes=512):
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
    _, pos, vel = loop.sample(n_nodes)
    dt = loop.period / n_nodes
    length = float(np.sum(np.hypot(vel[0], vel[1])) * dt)
    e1, e2 = lag.eta.components(pos[0], pos[1])
    circ = float(np.sum(e1 * vel[0] + e2 * vel[1]) * dt)
    return math.sqrt(2.0 * max(k, 0.0)) * length - circ, length


def _at_optimal_period(loop, length, k, t_cap=1e4):
    period = min(length / math.sqrt(2.0 * k), t_cap) if k > 0.0 else t_cap
    if isinstance(loop, FourierLoop):
        return FourierLoop(period, loop.coeffs)
    out = RoundedRectangleLoop(loop.center, loop.A, loop.B, loop.q, period)
    return out


def _negative_loop_search(lag, k, rng, modes=8, restarts=20, maxiter=250,
                          n_nodes=256):
    """A loop with A_{L+k} < 0, or None.  Deterministic given the rng state."""
    # imported here, not at the top, to keep scipy.optimize (about half a
    # second) off the start-up of every run that brackets no Mane value
    from scipy.optimize import minimize

    # rest points: action k * T
    if k < 0.0:
        loop = CircleLoop((0.5, 0.5), 0.0, 1.0)
        return loop, loop_action(lag, loop, k, n_nodes)

    def realize(shape):
        """Turn a shape with negative speed-optimized action into a witness."""
        val, length = _shape_functional(lag, shape, k, n_nodes)
        if val >= 0.0 or length <= 0.0:
            return None
        loop = _at_optimal_period(shape, length, k)
        a = loop_action(lag, loop, k, max(n_nodes, 512))
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
        val, _ = _shape_functional(lag, unpack(vec), k, n_nodes)
        return val

    for _ in range(restarts):
        coeffs0 = np.zeros((2, 2 * modes + 1))
        coeffs0[0, 0] = rng.uniform(0.0, 1.0)
        coeffs0[1, 0] = rng.uniform(0.0, 1.0)
        amp = rng.uniform(0.02, 0.3)
        coeffs0[0, 1] = amp
        coeffs0[1, modes + 1] = amp
        coeffs0[:, 1:] += 0.1 * amp * rng.standard_normal((2, 2 * modes))
        res = minimize(objective, coeffs0.ravel(), method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-9, "fatol": 1e-13})
        if res.fun < 0.0:
            hit = realize(unpack(res.x))
            if hit is not None:
                return hit
    return None


def estimate_critical_value(lagrangian, k_range=(-0.25, 1.0), bisection_tol=1e-4,
                            seed=0, modes=8, restarts=50, maxiter=250,
                            n_nodes=256):
    """Bisection bracket [c_lo, c_hi] for the strict critical value.

    A found negative-action loop at level k certifies k < c0 and becomes the
    stored witness; absence of one after the configured effort moves the
    upper end down (heuristically).  The initial range must bracket: a
    witness must exist at k_range[0] and none may be found at k_range[1].
    """
    lo, hi = float(k_range[0]), float(k_range[1])
    rng = np.random.default_rng(seed)
    found_lo = _negative_loop_search(lagrangian, lo, rng, modes, restarts,
                                     maxiter, n_nodes)
    if found_lo is None:
        raise BracketError(f"k_range does not bracket: no negative loop at k={lo}")
    if _negative_loop_search(lagrangian, hi, rng, modes, restarts, maxiter,
                             n_nodes) is not None:
        raise BracketError(f"k_range does not bracket: negative loop found at k={hi}")
    witness, w_action = found_lo
    evals = 2
    while hi - lo > bisection_tol:
        mid = 0.5 * (lo + hi)
        hit = _negative_loop_search(lagrangian, mid, rng, modes, restarts,
                                    maxiter, n_nodes)
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
              "maxiter": maxiter, "nodes": n_nodes, "seed": seed}
    return CriticalBracket(lo, hi, witness.describe(), w_action, effort)


def verify_witness(lagrangian, bracket: CriticalBracket, n_nodes=512):
    """Re-evaluate the stored witness loop at c_lo; must be negative."""
    w = bracket.witness
    if w["kind"] == "fourier":
        loop = FourierLoop(w["period"], np.array(w["coeffs"]))
    elif w["kind"] == "rounded_rectangle":
        loop = RoundedRectangleLoop(tuple(w["center"]), w["half"][0], w["half"][1],
                                    w["squareness"], w["period"])
    else:
        raise ValueError(f"unknown witness kind {w['kind']}")
    return loop_action(lagrangian, loop, bracket.c_lo, n_nodes)


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


def rotation_vector(surface, field, orbit, options=None, tol=1e-6):
    """Winding class over one minimal period divided by the period."""
    if surface.kind != "torus":
        raise UnsupportedSurfaceError("rotation vectors are defined on the torus")
    options = options or IntegratorOptions(rel_tol=1e-11, abs_tol=1e-12)
    traj = flow(surface, field, orbit.initial_state, orbit.period, options)
    s0 = traj.state(0.0)
    s1 = traj.end_state()
    dx = s1.x - s0.x
    dy = s1.y - s0.y
    p, q = round(dx), round(dy)
    if abs(dx - p) > tol or abs(dy - q) > tol:
        raise ValueError(f"winding not integral: ({dx}, {dy})")
    return RotationVector((int(p), int(q)), orbit.period)
