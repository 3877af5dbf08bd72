"""Loop actions and critical-value brackets on the flat torus.

For L(x, v) = |v|^2/2 - eta_x(v) the strict critical value is the infimum
of k such that every null-homologous closed loop has nonnegative (L + k)-
action.  The lower end of the bracket is certified by an explicit witness
loop with negative action; the upper end is heuristic ("no negative loop
found up to the configured search effort"), matching the one-sided nature
of the infimum.  Contractible loops are searched over circles, rounded
rectangles and a Fourier parametrization descended with Nelder-Mead.
The stored witness is the loop's `describe()`, a dict of its kind and its
constructor's arguments, so `verify_witness` rebuilds it by kind from the
written report alone.

The circles and rounded rectangles are fixed, so their lengths L and
circulations C, which do not depend on k, are computed once per
`LagrangianSpec` (`LagrangianSpec.candidates`); a search at level k forms
sqrt(2k) L - C for all of them at once, as `_maupertuis` forms it, and
samples only the shapes whose value is negative.

A search's restarts descend in lockstep, one lane each, in
`_nelder_mead_lanes`: a transcription of scipy 1.17.1's Nelder-Mead
(`scipy.optimize.minimize(method="Nelder-Mead")`), reduced to the branch
used here, whose lanes each end on the x, fun, nit and nfev scipy reaches
from that lane's start (tests/test_mane.py); maglab needs no scipy at run
time.  Each iteration evaluates the points all live lanes need in one call
of `_loop_functional`, which takes Fourier coefficients (P, 2, 2M+1) to P
values of the speed-optimized action.  In most iterations every live lane
takes its reflection; such an iteration writes the reflections over the
worst vertices and re-sorts, and only the others form expansion,
contraction and shrink points.

Fourier shapes are evaluated against one cached, read-only table per node
count and mode count, the rows [1; cos; sin] and their derivatives
(`_fourier_tables`), one (2, 2M+1) @ (2M+1, 2n) product per shape, so a
shape's value does not depend on the batch it came in; `FourierLoop.sample`
makes the same product.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DataInconsistencyError, UnsupportedSurfaceError

log = logging.getLogger("maglab.mane")

_SEARCH_NODES, _WITNESS_NODES = 256, 512  # quadrature nodes: search, witness
_T_CAP = 1e4          # longest period of a witness loop
_BATCH = 40           # most Fourier shapes evaluated in one array pass
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
        self._a = np.array([self.a1, self.a2])
        self._a.setflags(write=False)

    def components(self, xs, ys):
        """Read-only views of a1 and a2 in the shape of xs, every stride 0
        (np.broadcast_to makes the same views at three times the cost)."""
        shape = np.shape(xs)
        zero = (0,) * len(shape)
        return (np.ndarray(shape, float, self._a, 0, zero),
                np.ndarray(shape, float, self._a, self._a.itemsize, zero))

    def curl(self, xs, ys):
        return np.zeros_like(np.asarray(xs, dtype=float))


class SinPrimitiveForm:
    """Primitive of the sinusoidal intensity: d eta = A sin(2 pi k.(x,y)) dx^dy."""

    def __init__(self, amplitude, k):
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

    @functools.cached_property
    def candidates(self):
        """The fixed witness shapes, circles and rounded rectangles of four
        sizes about nine centres, with the length and the circulation of eta
        (arrays) of each at _SEARCH_NODES nodes.  Neither depends on k, so a
        spec scores them once for all its searches."""
        shapes = [shape
                  for cx in (0.25, 0.5, 0.75) for cy in (0.25, 0.5, 0.75)
                  for r in (0.08, 0.15, 0.25, 0.4)
                  for shape in (CircleLoop((cx, cy), r, 1.0),
                                RoundedRectangleLoop((cx, cy), (r, 0.6 * r), 2.5, 1.0))]
        lengths, circs = np.empty(len(shapes)), np.empty(len(shapes))
        for i, shape in enumerate(shapes):
            _, pos, vel = shape.sample(_SEARCH_NODES)
            (lengths[i],), (circs[i],) = _length_circulation(
                self, pos[None], vel[None], shape.period / _SEARCH_NODES)
        return shapes, lengths, circs


# -- loops -----------------------------------------------------------------------


@functools.lru_cache(maxsize=8)
def _fourier_tables(n, modes):
    """The (2M+1, 2n) table of a period-1 FourierLoop at its n nodes s = j/n,
    read-only: the rows [1; cos 2 pi m s; sin 2 pi m s] in its first n
    columns, their s-derivatives [0; -2 pi m sin; 2 pi m cos] in the last n.
    """
    ang = 2.0 * math.pi * np.outer(np.arange(1, modes + 1), np.arange(n) / n)
    cos, sin = np.cos(ang), np.sin(ang)
    w = 2.0 * math.pi * np.arange(1, modes + 1)[:, None]
    table = np.block([[np.ones((1, n)), np.zeros((1, n))],
                      [cos, -w * sin],
                      [sin, w * cos]])
    table.setflags(write=False)
    return table


def _fourier_points(coeffs, n):
    """Positions and s-velocities (P, 2, n) of P period-1 Fourier shapes.

    coeffs is (P, 2, 2M+1).  The stacked product makes one (2, 2M+1) @
    (2M+1, 2n) product per shape, so a shape's values do not depend on the
    others in its batch.
    """
    out = coeffs @ _fourier_tables(n, (coeffs.shape[-1] - 1) // 2)
    return out[..., :n], out[..., n:]


class FourierLoop:
    """Closed curve x(t) = c0 + sum_m a_m cos(2 pi m t/T) + b_m sin(2 pi m t/T)."""

    kind = "fourier"

    def __init__(self, period, coeffs):
        # coeffs: array (2, 2M+1): [c0, a1..aM, b1..bM] per coordinate
        self.period = float(period)
        self.coeffs = np.asarray(coeffs, dtype=float)

    def sample(self, n):
        pos, vel = _fourier_points(self.coeffs[None], n)
        return np.arange(n) * (self.period / n), pos[0], vel[0] / self.period

    def describe(self):
        return {"kind": self.kind, "period": self.period,
                "coeffs": [list(map(float, row)) for row in self.coeffs]}


def CircleLoop(center, radius, period):
    coeffs = np.zeros((2, 3))
    coeffs[0, 0], coeffs[1, 0] = center
    coeffs[0, 1] = radius   # x: cos
    coeffs[1, 2] = radius   # y: sin
    return FourierLoop(period, coeffs)


class RoundedRectangleLoop:
    """x = cx + A tanh(q cos u)/tanh q, y = cy + B tanh(q sin u)/tanh q, with
    center (cx, cy), half = (A, B) and squareness q."""

    kind = "rounded_rectangle"

    def __init__(self, center, half, squareness, period):
        self.center = center
        self.half = half
        self.squareness = squareness
        self.period = float(period)

    def sample(self, n):
        t = np.arange(n) * (self.period / n)
        u = 2.0 * math.pi * t / self.period
        (A, B), q = self.half, self.squareness
        tq = math.tanh(q)
        cu, su = np.cos(u), np.sin(u)
        pos = np.stack([
            self.center[0] + A * np.tanh(q * cu) / tq,
            self.center[1] + B * np.tanh(q * su) / tq,
        ])
        du = 2.0 * math.pi / self.period
        vel = np.stack([
            -A * q * (1.0 - np.tanh(q * cu) ** 2) * su * du / tq,
            B * q * (1.0 - np.tanh(q * su) ** 2) * cu * du / tq,
        ])
        return t, pos, vel

    def describe(self):
        return {"kind": self.kind, "center": list(self.center),
                "half": list(self.half), "squareness": self.squareness,
                "period": self.period}


# a witness loop's kind -> its class, which rebuilds it from its describe()
_LOOP_KINDS = {cls.kind: cls for cls in (FourierLoop, RoundedRectangleLoop)}


def loop_action(lagrangian: LagrangianSpec, loop, k, n_nodes=_WITNESS_NODES):
    """Quadrature of (L + k) over one loop period (trapezoid; spectral here)."""
    t, pos, vel = loop.sample(n_nodes)
    e1, e2 = lagrangian.eta.components(pos[0], pos[1])
    integrand = 0.5 * (vel[0] ** 2 + vel[1] ** 2) - (e1 * vel[0] + e2 * vel[1]) + k
    return float(np.sum(integrand) * (loop.period / n_nodes))


# -- critical value ----------------------------------------------------------------


@dataclass
class CriticalBracket:
    """The critical-value report, a field per key (witness_loop: describe())."""

    c_lo: float
    c_hi: float
    witness_loop: dict
    witness_action: float
    effort: dict


def _length_circulation(lag, pos, vel, dt):
    """Len(gamma) and the circulation of eta (P,) of P loops sampled (P, 2, n)
    at spacing dt; two (P, n) temporaries serve every product."""
    vx, vy = vel[:, 0], vel[:, 1]
    e1, e2 = lag.eta.components(pos[:, 0], pos[:, 1])
    a, b = vx * vx, vy * vy
    a += b
    length = np.sqrt(a, out=a).sum(axis=1) * dt
    np.multiply(e1, vx, out=a)
    np.multiply(e2, vy, out=b)
    a += b
    return length, a.sum(axis=1) * dt


def _maupertuis(lag, pos, vel, k, dt):
    """sqrt(2k) Len(gamma) - circulation of eta, and Len, of P sampled loops.

    pos and vel are (P, 2, n) samples at spacing dt.  For a fixed geometric
    loop the (L + k)-action over the traversal period T is Len^2/(2T) + kT -
    circulation, minimized at T* = Len/sqrt(2k); the minimum value is the
    Maupertuis form above.  Negative value at the optimal speed is exactly a
    negative-action witness.
    """
    length, circ = _length_circulation(lag, pos, vel, dt)
    return math.sqrt(2.0 * max(k, 0.0)) * length - circ, length


def _shape_functional(lag, loop, k, n_nodes):
    """(value, Len) of `_maupertuis` for one loop."""
    _, pos, vel = loop.sample(n_nodes)
    val, length = _maupertuis(lag, pos[None], vel[None], k,
                              loop.period / n_nodes)
    return float(val[0]), float(length[0])


def _loop_functional(lag, coeffs, k, n_nodes):
    """`_maupertuis` values (P,) of P period-1 Fourier shapes (P, 2, 2M+1).

    Shapes go through in chunks of _BATCH, which bounds the temporaries; a
    shape's value is the same in any chunk, and == to `_shape_functional`
    of its period-1 FourierLoop.
    """
    val = np.empty(len(coeffs))
    for i in range(0, len(coeffs), _BATCH):
        pos, vel = _fourier_points(coeffs[i:i + _BATCH], n_nodes)
        val[i:i + _BATCH] = _maupertuis(lag, pos, vel, k, 1.0 / n_nodes)[0]
    return val


def _at_optimal_period(loop, length, k):
    period = min(length / math.sqrt(2.0 * k), _T_CAP) if k > 0.0 else _T_CAP
    if isinstance(loop, FourierLoop):
        return FourierLoop(period, loop.coeffs)
    return RoundedRectangleLoop(loop.center, loop.half, loop.squareness, period)


def _sorted(sim, fsim):
    """The simplices (N+1, L, N) and values (L, N+1) of L lanes, each lane's
    best vertex first: each lane's values argsorted as scipy sorts them, then
    gathered."""
    ind = fsim.argsort(axis=1)
    lanes = np.arange(len(fsim))
    return sim[ind.T, lanes], fsim[lanes[:, None], ind]


def _nelder_mead_lanes(func, x0, maxiter, xatol, fatol):
    """Minimize func by Nelder-Mead from each row of x0 (R, N), in lockstep.

    func maps points (P, N) to values (P,), each value independent of the
    other points.  Returns per lane x (R, N), fun, nit and nfev (R,).

    Lane r runs scipy 1.17.1's `_minimize_neldermead` from x0[r] with
    options {"maxiter", "xatol", "fatol"}, kept to that branch: no bounds,
    not adaptive, no callback, the default initial simplex (nonzdelt 0.05,
    zdelt 0.00025) and no evaluation budget, so only maxiter stops it,
    counting from 1.  The coefficients rho = 1, chi = 2, psi = sigma = 0.5
    are folded into the literals below (1 * v == v, and the inside
    contraction 0.5 xbar + 0.5 v is 0.5 xbar - (-0.5) v), and each simplex
    is re-sorted by argsort and a gather after every iteration, so a lane's x,
    fun, nit and nfev are == to scipy's, ties included.

    The simplices are held vertex-major, (N+1, L, N), so the centroid is
    one sequential sum over the vertices, as scipy's np.add.reduce(sim[:-1],
    0), on rows of L N values.  An iteration makes one func call for the live
    lanes' reflections; when every lane takes its reflection, as in most
    iterations, it only writes them over the worst vertices, and otherwise
    it makes one func call for the expansion or contraction points the lanes
    need and one for their shrinks.  A lane leaves the live set on its own
    xatol/fatol test, and its x, fun, nit and nfev are written then, or at
    the end.
    """
    R, N = x0.shape
    sim = np.repeat(x0[:, None, :], N + 1, axis=1)
    diag = np.arange(N)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    # one lane's simplex per call bounds the batch
    fsim = np.array([func(lane) for lane in sim]).reshape(R, N + 1)
    # scipy sorts twice here; argsort is not stable, so tied values could
    # leave the second sort in another order than the first
    sim, fsim = _sorted(*_sorted(sim.transpose(1, 0, 2), fsim))

    x, fun = np.empty((R, N)), np.empty(R)
    nit, nfev = np.empty(R, dtype=int), np.empty(R, dtype=int)
    live = np.arange(R)         # the lanes sim, fsim and nf hold, in order
    nf = np.full(R, N + 1)      # their evaluations so far
    iterations = 1

    def leave(out):
        """Write the lanes out (a mask over live) as they stand."""
        lanes = live[out]
        x[lanes], fun[lanes] = sim[0, out], fsim[out].min(axis=1)
        nit[lanes], nfev[lanes] = iterations, nf[out]

    while live.size and iterations < maxiter:
        # scipy's test, xatol and fatol; fatol first, as the x test costs
        # more.  On a sorted simplex the largest |f0 - fi| is fN - f0, and a
        # NaN, which sorts last, fails both forms.
        done = fsim[:, -1] - fsim[:, 0] <= fatol
        if done.any():
            done &= np.abs(sim[1:] - sim[0]).max(axis=(0, 2)) <= xatol
            if done.any():
                leave(done)
                keep = ~done
                live, sim, fsim, nf = live[keep], sim[:, keep], fsim[keep], nf[keep]
                if not live.size:
                    break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = 2 * xbar - sim[-1]
        fxr = func(xr)
        nf += 1
        expand = fxr < fsim[:, 0]
        reflect = ~expand & (fxr < fsim[:, -2])
        if reflect.all():       # every lane takes its reflection
            sim[-1], fsim[:, -1] = xr, fxr
        else:
            worst = sim[-1]
            outside = ~expand & ~reflect & (fxr < fsim[:, -1])
            probe = ~reflect    # lanes that try an expansion or a contraction
            a = np.where(expand, 3.0, np.where(outside, 1.5, 0.5))[:, None]
            b = np.where(expand, 2.0, np.where(outside, 0.5, -0.5))[:, None]
            pts = a * xbar - b * worst
            fpts = np.full_like(fxr, np.inf)
            fpts[probe] = func(pts[probe])
            nf[probe] += 1

            # the expansion if better than the reflection, the outside
            # contraction if no worse than it, the inside one if better than
            # the worst vertex
            take_pts = np.where(expand, fpts < fxr,
                                np.where(outside, fpts <= fxr, fpts < fsim[:, -1]))
            take_pts &= probe
            take_xr = (expand | reflect) & ~take_pts
            sim[-1, take_pts], fsim[take_pts, -1] = pts[take_pts], fpts[take_pts]
            sim[-1, take_xr], fsim[take_xr, -1] = xr[take_xr], fxr[take_xr]
            shrink = probe & ~expand & ~take_pts      # toward the best vertex
            if shrink.any():
                best = sim[0, shrink]
                shrunk = best + 0.5 * (sim[1:, shrink] - best)
                sim[1:, shrink] = shrunk
                fsim[shrink, 1:] = func(shrunk.reshape(-1, N)).reshape(N, -1).T
                nf[shrink] += N
        iterations += 1
        sim, fsim = _sorted(sim, fsim)
    leave(np.ones(live.size, dtype=bool))
    return x, fun, nit, nfev


def _negative_loop_search(lag, k, rng, modes, restarts, maxiter):
    """A loop with A_{L+k} < 0, or None.  Deterministic given the rng state."""
    # rest points: action k * T
    if k < 0.0:
        loop = CircleLoop((0.5, 0.5), 0.0, 1.0)
        return loop, loop_action(lag, loop, k, _SEARCH_NODES)

    def realize(shape, val, length):
        """Turn a shape with negative speed-optimized action into a witness."""
        if val >= 0.0 or length <= 0.0:
            return None
        loop = _at_optimal_period(shape, length, k)
        a = loop_action(lag, loop, k)
        return (loop, a) if a < 0.0 else None

    best = None
    shapes, lengths, circs = lag.candidates
    vals = math.sqrt(2.0 * max(k, 0.0)) * lengths - circs   # as _maupertuis
    for shape, val, length in zip(shapes, vals.tolist(), lengths.tolist()):
        hit = realize(shape, val, length)
        if hit is not None and (best is None or hit[1] < best[1]):
            best = hit
    if best is not None:
        return best

    # Nelder-Mead descents of the speed-optimized functional over Fourier
    # shapes, one lane per restart.  The starts are drawn in restart order,
    # and the rng state after each draw is kept: a search that stops at
    # restart r's witness leaves the rng where a restart-by-restart loop would.
    shape = (2, 2 * modes + 1)
    starts = np.zeros((restarts, 2 * shape[1]))
    states = []
    for row in starts:
        coeffs0 = row.reshape(shape)    # a view: filling it fills the row
        coeffs0[0, 0] = rng.uniform(0.0, 1.0)
        coeffs0[1, 0] = rng.uniform(0.0, 1.0)
        amp = rng.uniform(0.02, 0.3)
        coeffs0[0, 1] = amp
        coeffs0[1, modes + 1] = amp
        coeffs0[:, 1:] += 0.1 * amp * rng.standard_normal((2, 2 * modes))
        states.append(rng.bit_generator.state)

    def objective(vecs):
        return _loop_functional(lag, vecs.reshape(-1, *shape), k, _SEARCH_NODES)

    xs, funs, _, _ = _nelder_mead_lanes(objective, starts, maxiter,
                                        xatol=1e-9, fatol=1e-13)
    for x, fun, state in zip(xs, funs, states):
        if fun < 0.0:
            loop = FourierLoop(1.0, x.reshape(shape))
            hit = realize(loop, *_shape_functional(lag, loop, k, _SEARCH_NODES))
            if hit is not None:
                rng.bit_generator.state = state
                return hit
    return None


def estimate_critical_value(lagrangian, k_range, bisection_tol, seed, modes, *,
                            restarts, maxiter):
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
    """The (L + c_lo)-action of the stored witness loop, rebuilt by its kind
    from its description (`_LOOP_KINDS`); a certificate's is negative.  A
    bracket reads back from its report: CriticalBracket(**fields of report)."""
    rest = dict(bracket.witness_loop)
    loop = _LOOP_KINDS[rest.pop("kind")](**rest)
    return loop_action(lagrangian, loop, bracket.c_lo)


# -- rotation vectors ---------------------------------------------------------------


@dataclass
class RotationVector:
    """The classify report's rotation vector: rho = homology / period."""

    homology: list
    period: float
    rho: list


def rotation_vector(orbit):
    """Winding class over one minimal period divided by the period.

    The winding is read from the orbit's `end_state`, where the orbit search
    left the flow over one period, unwrapped.  Raises DataInconsistencyError
    when it does not close up to an integer winding (within _WINDING_TOL).
    """
    if orbit.return_map.section.surface.kind != "torus":
        raise UnsupportedSurfaceError("rotation vectors are defined on the torus")
    s0, s1 = orbit.initial_state, orbit.end_state
    dx = s1.x - s0.x
    dy = s1.y - s0.y
    p, q = round(dx), round(dy)
    if abs(dx - p) > _WINDING_TOL or abs(dy - q) > _WINDING_TOL:
        raise DataInconsistencyError(f"winding not integral: ({dx}, {dy})")
    hom = [int(p), int(q)]
    return RotationVector(hom, orbit.period, [n / orbit.period for n in hom])
