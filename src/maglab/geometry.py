"""Closed oriented surfaces as conformal chart atlases.

Every surface is described by one or two conformal charts with metric
g = lam(x,y)^2 (dx^2 + dy^2).  In such a chart the 90-degree rotation is the
plain Euclidean rotation, the Gaussian curvature is

    K = -(Delta log lam) / lam^2,

and the Christoffel symbols are first partials of log lam.  Each chart
answers `lam(x, y)` and `log_grad(x, y)` = (lam_x/lam, lam_y/lam), the two
quantities the flow's right-hand side reads, with the same operations as the
full `metric(x, y)` (a `MetricData`, for curvature and the tests).
`metric_at`, `wrap_position` and the chart formulas also take arrays of
points, elementwise with the same operations.  Built-in
surfaces: the flat torus R^2/Z^2 (single periodic chart), the round sphere
of radius R (two stereographic charts with lam = 2R/(1+|z|^2), transition
w = 1/z), and a planar chart (flat disk, used for the constant-intensity
disk example).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ChartDomainError

__all__ = [
    "PhasePoint",
    "MetricData",
    "Surface",
    "flat_torus",
    "sphere",
    "planar_chart",
    "rotate90",
    "energy",
]


@dataclass(frozen=True)
class PhasePoint:
    """A tangent vector (x, y, vx, vy) in chart coordinates."""

    chart: int
    x: float
    y: float
    vx: float
    vy: float


@dataclass(frozen=True)
class MetricData:
    """Conformal metric data at one chart point."""

    lam: float
    lam_x: float
    lam_y: float
    curvature: float

    @property
    def log_grad(self):
        """(d/dx log lam, d/dy log lam) -- the Christoffel building blocks."""
        return (self.lam_x / self.lam, self.lam_y / self.lam)


class _FlatChart:
    """lam == 1 chart, optionally periodic (torus) or a bounded disk."""

    curvature = 0.0

    def __init__(self, periodic=False, radius=None):
        self.periodic = periodic
        self.radius = radius

    def metric(self, x, y):
        return MetricData(1.0, 0.0, 0.0, 0.0)

    def lam(self, x, y):
        return 1.0

    def log_grad(self, x, y):
        return (0.0, 0.0)

    def contains(self, x, y):
        if self.periodic or self.radius is None:
            return True
        return x * x + y * y < self.radius * self.radius


class _SphereChart:
    """Stereographic chart of the round sphere, lam = 2R/(1+|z|^2)."""

    #: hard validity limit for evaluations
    R_MAX = 8.0

    def __init__(self, radius):
        self.radius = radius
        self.curvature = 1.0 / (radius * radius)

    def metric(self, x, y):
        R = self.radius
        s = 1.0 + x * x + y * y
        lam = 2.0 * R / s
        lam_x = -4.0 * R * x / (s * s)
        lam_y = -4.0 * R * y / (s * s)
        return MetricData(lam, lam_x, lam_y, self.curvature)

    def lam(self, x, y):
        return 2.0 * self.radius / (1.0 + x * x + y * y)

    def log_grad(self, x, y):
        """(lam_x / lam, lam_y / lam), each factor formed as in `metric`."""
        R = self.radius
        s = 1.0 + x * x + y * y
        lam = 2.0 * R / s
        ss = s * s
        return (-4.0 * R * x / ss / lam, -4.0 * R * y / ss / lam)

    def contains(self, x, y):
        return x * x + y * y < self.R_MAX * self.R_MAX


class Surface:
    """Conformal chart atlas with topology tag and injectivity radius."""

    def __init__(self, kind, charts, injectivity_radius):
        if injectivity_radius <= 0:
            raise ValueError("injectivity_radius must be positive")
        self.kind = kind
        self.charts = charts
        self.injectivity_radius = injectivity_radius

    # -- metric ------------------------------------------------------------

    def metric_at(self, chart, x, y):
        """Metric data at a chart point, or at arrays of points (fields
        elementwise); ChartDomainError if any point is outside the domain."""
        ch = self._chart(chart)
        inside = ch.contains(x, y)
        if getattr(inside, "ndim", 0):  # arrays: name the first point outside
            outside = (~inside).ravel().nonzero()[0]
            if outside.size:
                i = outside[0]
                raise self._outside(chart, x.flat[i], y.flat[i])
        elif not inside:
            raise self._outside(chart, x, y)
        if self.kind == "torus":
            x, y = self.wrap_position(x, y)
        return ch.metric(x, y)

    def _outside(self, chart, x, y):
        return ChartDomainError(
            f"point ({x:.6g}, {y:.6g}) outside domain of chart {chart} of {self.kind}")

    def _chart(self, chart):
        try:
            return self.charts[chart]
        except IndexError:
            raise ChartDomainError(f"no chart {chart} on {self.kind}") from None

    # -- torus helpers -----------------------------------------------------

    def wrap_position(self, x, y):
        """Fundamental-domain representative (identity off the torus).

        x and y are numbers or numpy arrays; for arrays, floor division by
        1.0 is numpy's exact floor, equal to math.floor entry by entry.
        """
        if self.kind != "torus":
            return (x, y)
        if getattr(x, "ndim", 0):
            return (x - x // 1.0, y - y // 1.0)
        return (x - math.floor(x), y - math.floor(y))

    def wrap_diff(self, dx, dy):
        """Difference vector reduced to the nearest lattice image."""
        if self.kind != "torus":
            return (dx, dy)
        return (dx - round(dx), dy - round(dy))

    # -- sphere chart transitions -------------------------------------------

    def transition(self, state: PhasePoint) -> PhasePoint:
        """Express a sphere phase point in the companion chart (w = 1/z)."""
        if self.kind != "sphere":
            raise ChartDomainError(f"{self.kind} has a single chart")
        x, y, vx, vy = state.x, state.y, state.vx, state.vy
        r2 = x * x + y * y
        if r2 == 0.0:
            raise ChartDomainError("chart transition undefined at the chart origin")
        u = x / r2
        v = -y / r2
        r4 = r2 * r2
        a = (y * y - x * x) / r4
        b = -2.0 * x * y / r4
        # d(1/z) real Jacobian [[a, b], [-b, a]]
        wx = a * vx + b * vy
        wy = -b * vx + a * vy
        return PhasePoint(1 - state.chart, u, v, wx, wy)

    def position_to_chart(self, chart_from, x, y, chart):
        """A chart point's (x, y) in the requested chart, or None if impossible.

        The position half of `to_chart`, with the same operations and checks.
        """
        if chart_from == chart:
            return (x, y)
        if self.kind != "sphere":
            return None
        r2 = x * x + y * y
        if r2 < 1e-12:
            return None
        u = x / r2
        v = -y / r2
        if not self._chart(chart).contains(u, v):
            return None
        return (u, v)

    def to_chart(self, state: PhasePoint, chart: int):
        """Convert a phase point into the requested chart, or None if impossible."""
        if state.chart == chart:
            return state
        if self.position_to_chart(state.chart, state.x, state.y, chart) is None:
            return None
        return self.transition(state)

    def contains(self, chart, x, y):
        return self._chart(chart).contains(x, y)


# -- built-in surfaces -----------------------------------------------------


def flat_torus():
    """Flat torus R^2/Z^2; shortest closed geodesic has length 1."""
    return Surface("torus", [_FlatChart(periodic=True)], injectivity_radius=0.5)


def sphere(radius=1.0):
    """Round sphere of the given radius, two stereographic charts."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return Surface(
        "sphere",
        [_SphereChart(radius), _SphereChart(radius)],
        injectivity_radius=math.pi * radius,
    )


def planar_chart(radius=3.0, injectivity_radius=math.pi):
    """Single flat disk chart (noncompact model for the disk example).

    The default radius 3 holds every unit circle through points of the unit
    disk; pass a different radius to reproduce a specific workspace.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    return Surface(
        "planar", [_FlatChart(periodic=False, radius=radius)], injectivity_radius
    )


# -- pointwise tangent operations -------------------------------------------


def rotate90(surface, state: PhasePoint, v=None):
    """Rotation i with {v, i v} a positive orthogonal basis.

    In a conformal chart this is the Euclidean rotation (vx, vy) -> (-vy, vx),
    independent of the point.
    """
    if v is None:
        v = (state.vx, state.vy)
    return (-v[1], v[0])


def energy(surface, state: PhasePoint):
    """Kinetic energy E = (1/2) lam^2 (vx^2 + vy^2)."""
    md = surface.metric_at(state.chart, state.x, state.y)
    return 0.5 * md.lam * md.lam * (state.vx * state.vx + state.vy * state.vy)
