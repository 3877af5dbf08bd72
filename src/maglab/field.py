"""Magnetic intensity functions f with Omega = f * (area form).

A MagneticField is a base intensity plus an ordered list of localized
tubular perturbations added pointwise.  Every field evaluates through
`value(chart, x, y)` and `eval(chart, x, y) -> (f, (fx, fy))` and bounds
itself by the closed form `sup_norm(surface)`.  On a closed
surface, f * Omega_0 is exact iff the total integral of f vanishes; localized
perturbations are built so their surface integral is exactly zero and they
vanish identically on the core curve of their tube.

The transversal bump template is

    a(u) = u (1 - 4u^2)^4   on [-1/2, 1/2],   0 outside,

which satisfies a(0) = 0, a'(0) = 1, supp a in [-1/2, 1/2], integral 0 (odd)
and max(|a|, |a'|) = 1, and rescales as a_eps(u) = eps * a(u / eps).

The base fields, the template and `PerturbationField.eval_tube` take numbers
or arrays of points through one formula each: a function such as sin comes
from math for a number and from numpy for an array, where the two agree bit
for bit.  numpy's `**` does not agree with Python's float pow, so powers go
through `_pow`, which applies Python's pow to each entry of an array.
`PerturbationField.value`/`eval` loop over the points of an array, since
locating a point in the tube is a per-point Newton solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSurfaceError, ChartDomainError

__all__ = [
    "ConstantField",
    "SinusoidalTorusField",
    "ZonalSphereField",
    "PolynomialField",
    "MagneticField",
    "PerturbationField",
    "bump_a",
    "bump_a_deriv",
    "is_exact",
    "add_perturbation",
    "ExactnessReport",
    "C1NormReport",
]


# -- numbers or arrays ---------------------------------------------------------


def _pow(x, n):
    """x ** n, for an array with Python's float pow entry by entry."""
    if isinstance(x, np.ndarray):
        return np.array([v**n for v in x.ravel().tolist()]).reshape(x.shape)
    return x**n


def _full(x, v):
    """v, as an array of x's shape when x is an array."""
    return np.full(x.shape, v) if isinstance(x, np.ndarray) else v


# -- transversal bump template ----------------------------------------------


def _on_support(u, formula):
    """formula(u) where |u| < 1/2 and 0 elsewhere, at a number or over an array."""
    if isinstance(u, np.ndarray):
        outside = np.abs(u) >= 0.5
        return np.where(outside, 0.0, formula(np.where(outside, 0.0, u)))
    return 0.0 if abs(u) >= 0.5 else formula(u)


def bump_a(u):
    return _on_support(u, lambda v: v * _pow(1.0 - 4.0 * v * v, 4))


def bump_a_deriv(u):
    return _on_support(u, lambda v: _pow(1.0 - 4.0 * v * v, 3) * (1.0 - 36.0 * v * v))


# -- base intensities --------------------------------------------------------


class ConstantField:
    def __init__(self, value):
        self.const = float(value)

    def value(self, chart, x, y):
        return _full(x, self.const)

    def eval(self, chart, x, y):
        return (_full(x, self.const), (_full(x, 0.0), _full(x, 0.0)))

    def sup_norm(self, surface):
        return abs(self.const)


class SinusoidalTorusField:
    """f = A sin(2 pi (kx x + ky y) + phase) on the torus chart."""

    def __init__(self, amplitude=1.0, k=(1, 0), phase=0.0):
        self.amplitude = float(amplitude)
        self.k = (int(k[0]), int(k[1]))
        self.phase = float(phase)

    def _arg(self, x, y):
        return 2.0 * math.pi * (self.k[0] * x + self.k[1] * y) + self.phase

    # arg is a float (or a numpy float64, a float subclass) for numbers;
    # numpy's sin and cos, which take arrays, agree with math's bit for bit

    def value(self, chart, x, y):
        arg = self._arg(x, y)
        return self.amplitude * (math.sin if isinstance(arg, float) else np.sin)(arg)

    def eval(self, chart, x, y):
        arg = self._arg(x, y)
        lib = math if isinstance(arg, float) else np
        s = 2.0 * math.pi * self.amplitude * lib.cos(arg)
        return (self.amplitude * lib.sin(arg), (s * self.k[0], s * self.k[1]))

    def sup_norm(self, surface):
        if self.k == (0, 0):
            return abs(self.amplitude * math.sin(self.phase))
        return abs(self.amplitude)


class ZonalSphereField:
    """Axially symmetric intensity A * (1-|z|^2)/(1+|z|^2) (the height function).

    Odd under the hemisphere exchange, hence exact on the sphere.
    """

    def __init__(self, amplitude=1.0):
        self.amplitude = float(amplitude)

    def _signed(self, chart):
        return self.amplitude if chart == 0 else -self.amplitude

    def value(self, chart, x, y):
        r2 = x * x + y * y
        return self._signed(chart) * (1.0 - r2) / (1.0 + r2)

    def eval(self, chart, x, y):
        r2 = x * x + y * y
        a = self._signed(chart)
        s = a * (-4.0) / _pow(1.0 + r2, 2)
        return (a * (1.0 - r2) / (1.0 + r2), (s * x, s * y))

    def sup_norm(self, surface):
        """|A|, attained at the chart origin (a pole)."""
        return abs(self.amplitude)


class PolynomialField:
    """f = sum c[i][j] x^i y^j on a planar chart."""

    def __init__(self, coeffs):
        self.coeffs = [[float(c) for c in row] for row in coeffs]

    def value(self, chart, x, y):
        return self.eval(chart, x, y)[0]

    def eval(self, chart, x, y):
        total = _full(x, 0.0)
        fx = _full(x, 0.0)
        fy = _full(x, 0.0)
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                if c == 0.0:
                    continue
                total = total + c * _pow(x, i) * _pow(y, j)
                if i > 0:
                    fx = fx + i * c * _pow(x, i - 1) * _pow(y, j)
                if j > 0:
                    fy = fy + j * c * _pow(x, i) * _pow(y, j - 1)
        return (total, (fx, fy))

    def sup_norm(self, surface):
        """sum |c_ij| rho^(i+j), a bound over the chart box |x|, |y| <= rho.

        rho is 1 on the torus and sphere charts and the disk radius on the
        planar chart.
        """
        rho = surface.charts[0].radius if surface.kind == "planar" else 1.0
        total = 0.0
        for i, row in enumerate(self.coeffs):
            for j, c in enumerate(row):
                total += abs(c) * rho**i * rho**j
        return total


# -- tubular perturbations ----------------------------------------------------


@dataclass(frozen=True)
class C1NormReport:
    """Product-structure bound |h|_C1 <= 2 |b|_C0 + eps0 |b|_C1."""

    b_c0: float
    b_c1: float
    eps0: float

    @property
    def bound(self):
        return 2.0 * self.b_c0 + self.eps0 * self.b_c1


class PerturbationField:
    """h(t, u) = a_eps(u) b(t) / omega(t, u) in tubular coordinates.

    `tube` is a TubularChart (franks module); eps0, at most the tube's
    width, scales the bump a_eps, while the tube keeps its own width for
    inversion and its area bound.  Dividing by the relative area density
    omega makes the chart integral of h dA exactly zero while keeping h = 0
    and dh/du = b(t) on the core (a(0) = 0 kills the omega correction
    there).  b must be smooth with support inside the tube's time range.
    """

    def __init__(self, tube, eps0, b, b_deriv, b_c0, b_c1, support_t=None):
        self.tube = tube
        self.eps0 = eps0
        self.b = b
        self.b_deriv = b_deriv
        self.b_c0 = float(b_c0)
        self.b_c1 = float(b_c1)
        self.support_t = support_t or tube.t_range

    @property
    def chart(self):
        return self.tube.chart_id

    def c1_report(self):
        return C1NormReport(self.b_c0, self.b_c1, self.eps0)

    def sup_norm(self, surface):
        """sup |h| <= eps0 max|a| |b|_C0 / min omega."""
        # max |a| = a(1/6) for the template; omega >= omega_min on the tube
        amax = bump_a(1.0 / 6.0)
        return self.eps0 * amax * self.b_c0 / self.tube.omega_min()

    def eval_tube(self, t, u):
        """(h, dh/dt, dh/du) in tubular coordinates.

        t and u are numbers, or arrays (broadcast together) for which the
        three parts are arrays, each entry == to the numbers' result.
        """
        eps = self.eps0
        a = eps * bump_a(u / eps)
        off = (a == 0.0) & (abs(u) >= 0.5 * eps)
        if not isinstance(off, np.ndarray):
            return (0.0, 0.0, 0.0) if off else self._tube_terms(t, u, a)
        # the formula runs only where the bump is on; elsewhere all parts are 0
        t, u, a, off = np.broadcast_arrays(t, u, a, off)
        out = np.zeros((3,) + off.shape)
        on = ~off
        out[:, on] = self._tube_terms(t[on], u[on], a[on])
        return tuple(out)

    def _tube_terms(self, t, u, a):
        ap = bump_a_deriv(u / self.eps0)
        b = self.b(t)
        bp = self.b_deriv(t)
        w, wt, wu = self.tube.omega(t, u)
        inv = 1.0 / w
        h = a * b * inv
        ht = (a * bp - a * b * wt * inv) * inv
        hu = (ap * b - a * b * wu * inv) * inv
        return (h, ht, hu)

    def value(self, chart, x, y):
        if isinstance(x, np.ndarray):
            return _pointwise(lambda p, q: (self.value(chart, p, q),), x, y, 1)[0]
        if chart != self.chart:
            return 0.0
        loc = self.tube.invert(x, y)
        if loc is None:
            return 0.0
        t, u = loc
        lo, hi = self.support_t
        if not (lo < t < hi) or abs(u) >= 0.5 * self.eps0:
            return 0.0
        return self.eval_tube(t, u)[0]

    def eval(self, chart, x, y):
        """(h, chart gradient of h)."""
        if isinstance(x, np.ndarray):
            def one(p, q):
                h, (gx, gy) = self.eval(chart, p, q)
                return (h, gx, gy)

            h, gx, gy = _pointwise(one, x, y, 3)
            return (h, (gx, gy))
        if chart != self.chart:
            return (0.0, (0.0, 0.0))
        loc = self.tube.invert(x, y)
        if loc is None:
            return (0.0, (0.0, 0.0))
        t, u = loc
        lo, hi = self.support_t
        if not (lo < t < hi) or abs(u) >= 0.5 * self.eps0:
            return (0.0, (0.0, 0.0))
        h, ht, hu = self.eval_tube(t, u)
        # chart gradient = dpsi^{-T} (ht, hu)
        (px, pu), (qx, qu) = self.tube.dpsi(t, u)  # columns d psi/dt, d psi/du
        det = px * qu - pu * qx
        gx = (qu * ht - qx * hu) / det
        gy = (-pu * ht + px * hu) / det
        return (h, (gx, gy))


def _pointwise(fn, x, y, n):
    """fn(x_i, y_i), a tuple of n numbers, at each point of arrays x and y;
    returns n arrays of x's shape."""
    rows = [fn(p, q) for p, q in zip(x.ravel().tolist(), y.ravel().tolist())]
    cols = np.array(rows, dtype=float).reshape(len(rows), n).T
    return [col.reshape(x.shape) for col in cols]


# -- composite field -----------------------------------------------------------


class MagneticField:
    """Base intensity plus ordered tubular perturbations; immutable."""

    def __init__(self, base, perturbations=()):
        self.base = base
        self.perturbations = tuple(perturbations)
        if not self.perturbations:
            # nothing to add: evaluate the base field without forwarding
            self.value = base.value
            self.eval = base.eval

    def value(self, chart, x, y):
        f = self.base.value(chart, x, y)
        for p in self.perturbations:
            f = f + p.value(chart, x, y)
        return f

    def eval(self, chart, x, y):
        f, (gx, gy) = self.base.eval(chart, x, y)
        for p in self.perturbations:
            h, (px, py) = p.eval(chart, x, y)
            f = f + h
            gx = gx + px
            gy = gy + py
        return (f, (gx, gy))

    def with_perturbation(self, p):
        return MagneticField(self.base, self.perturbations + (p,))

    def sup_norm(self, surface):
        """Closed-form bound on sup |f|: the sum of the parts' bounds."""
        best = self.base.sup_norm(surface)
        for p in self.perturbations:
            best += p.sup_norm(surface)
        return best

    def c0_norm(self, surface):
        """|f|_C0 for the injectivity time: sup_norm inflated by 1%."""
        return 1.01 * self.sup_norm(surface)


# -- exactness -----------------------------------------------------------------


_EXACT_TOL = 1e-9  # |total integral| up to which a field counts as exact


@dataclass(frozen=True)
class ExactnessReport:
    integral: float
    exact: bool
    tol: float


def _gl_panels(a, b, panels):
    """Three-point Gauss-Legendre nodes and weights on `panels` equal panels."""
    nodes, weights = np.polynomial.legendre.leggauss(3)
    edges = np.linspace(a, b, panels + 1)
    xs = []
    ws = []
    for i in range(panels):
        mid = 0.5 * (edges[i] + edges[i + 1])
        half = 0.5 * (edges[i + 1] - edges[i])
        xs.append(mid + half * nodes)
        ws.append(half * weights)
    return np.concatenate(xs), np.concatenate(ws)


def surface_integral(surface, func, panels=64):
    """Integral of func(chart, x, y) over the surface w.r.t. the area form."""
    if surface.kind == "torus":
        xs, wx = _gl_panels(0.0, 1.0, panels)
        total = 0.0
        for x, w1 in zip(xs, wx):
            for y, w2 in zip(xs, wx):
                lam = surface.charts[0].lam(x, y)
                total += w1 * w2 * func(0, x, y) * lam * lam
        return total
    if surface.kind == "sphere":
        # each stereographic unit disk covers one closed hemisphere
        rs, wr = _gl_panels(0.0, 1.0, max(8, panels // 4))
        nth = 4 * max(8, panels // 4)
        ths = np.arange(nth) * (2.0 * math.pi / nth)
        wth = 2.0 * math.pi / nth
        total = 0.0
        for chart in (0, 1):
            for r, w1 in zip(rs, wr):
                for th in ths:
                    x = r * math.cos(th)
                    y = r * math.sin(th)
                    lam = surface.charts[chart].lam(x, y)
                    total += w1 * wth * r * func(chart, x, y) * lam * lam
        return total
    raise UnsupportedSurfaceError("surface integral needs a compact surface")


def is_exact(field, surface, panels=64, brute=False):
    """Whether [f Omega_0] = 0, i.e. the total integral of f vanishes (to
    _EXACT_TOL).

    Tubular perturbations integrate to zero by construction and are skipped
    unless brute=True, which forces pointwise evaluation of the full field.
    """
    if surface.kind == "planar":
        raise UnsupportedSurfaceError("exactness is defined on compact surfaces")
    if brute:
        target = field
    else:
        target = MagneticField(field.base) if isinstance(field, MagneticField) else field
    integral = surface_integral(surface, target.value, panels=panels)
    return ExactnessReport(integral, abs(integral) <= _EXACT_TOL, _EXACT_TOL)


def add_perturbation(field, perturbation):
    """Field plus one tubular perturbation, with its C1 norm report.

    The tube must live in a single chart of the surface the field is used on;
    incompatible chart ids fail at evaluation time via ChartDomainError.
    """
    if not isinstance(field, MagneticField):
        field = MagneticField(field)
    if perturbation.tube.chart_id >= 16:
        raise ChartDomainError("perturbation chart id out of range")
    return field.with_perturbation(perturbation), perturbation.c1_report()
