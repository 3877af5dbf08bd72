import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maglab.errors import ChartDomainError
from maglab.geometry import (
    PhasePoint,
    energy,
    flat_torus,
    planar_chart,
    sphere,
)


def test_flat_torus_metric(torus):
    md = torus.metric_at(0, 0.3, 0.7)
    assert md.lam == 1.0
    assert md.curvature == 0.0


def test_planar_curvature(disk):
    assert disk.metric_at(0, 0.5, -0.2).curvature == 0.0


def sympy_curvature_oracle(radius, x0, y0):
    """(lam, K = -(Delta log lam)/lam^2) by symbolic differentiation."""
    import sympy as sp

    x, y = sp.symbols("x y", real=True)
    lam = 2 * radius / (1 + x**2 + y**2)
    L = sp.log(lam)
    K = -(sp.diff(L, x, 2) + sp.diff(L, y, 2)) / lam**2
    subs = {x: x0, y: y0}
    return float(lam.subs(subs)), float(K.subs(subs))


@pytest.mark.parametrize("radius", [1.0, 2.0])
@pytest.mark.parametrize("pt", [(0.0, 0.0), (0.4, -0.3), (1.2, 0.5)])
def test_sphere_curvature_vs_symbolic(radius, pt):
    """The chart's lam and its curvature are the symbolic lam and the K it
    gives, which ties K to lam."""
    s = sphere(radius)
    md = s.metric_at(0, *pt)
    want_lam, want = sympy_curvature_oracle(radius, *pt)
    assert md.lam == pytest.approx(want_lam, abs=1e-12)
    assert md.curvature == pytest.approx(want, abs=1e-12)
    assert md.curvature == pytest.approx(1.0 / radius**2, abs=1e-12)


def test_sphere_metric_partials_vs_symbolic():
    import sympy as sp

    x, y = sp.symbols("x y", real=True)
    lam = 2 / (1 + x**2 + y**2)
    s = sphere(1.0)
    md = s.metric_at(0, 0.7, -0.2)
    subs = {x: 0.7, y: -0.2}
    assert md.lam_x == pytest.approx(float(sp.diff(lam, x).subs(subs)), abs=1e-12)
    assert md.lam_y == pytest.approx(float(sp.diff(lam, y).subs(subs)), abs=1e-12)


def test_energy_examples(torus, unit_sphere):
    assert energy(torus, PhasePoint(0, 0.0, 0.0, 1.0, 0.0)) == 0.5
    assert energy(torus, PhasePoint(0, 0.0, 0.0, 1.0, 1.0)) == 1.0
    # sphere chart center has lam = 2
    assert energy(unit_sphere, PhasePoint(0, 0.0, 0.0, 0.5, 0.0)) == pytest.approx(0.5)


def test_domain_error(disk):
    with pytest.raises(ChartDomainError):
        disk.metric_at(0, 5.0, 0.0)


def test_sphere_transition_consistency(unit_sphere):
    rng = np.random.default_rng(3)
    for _ in range(50):
        x, y = rng.uniform(0.5, 1.5, 2)  # overlap annulus
        v = rng.standard_normal(2)
        st = PhasePoint(0, x, y, v[0], v[1])
        st2 = unit_sphere.transition(st)
        # curvature agreement across the overlap
        k1 = unit_sphere.metric_at(0, st.x, st.y).curvature
        k2 = unit_sphere.metric_at(1, st2.x, st2.y).curvature
        assert abs(k1 - k2) <= 1e-8
        # energy is chart-independent
        assert energy(unit_sphere, st) == pytest.approx(
            energy(unit_sphere, st2), abs=1e-10)
        # round trip
        st3 = unit_sphere.transition(st2)
        assert st3.x == pytest.approx(st.x, abs=1e-12)
        assert st3.vy == pytest.approx(st.vy, rel=1e-10)


def _polar(r, phi):
    return r * math.cos(phi), r * math.sin(phi)


@given(st.sampled_from([0.5, 1.0, 2.5]), st.integers(0, 1),
       st.floats(0.25, 4.0, exclude_min=True, exclude_max=True),
       st.floats(1e-3, 1e3), st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi))
def test_sphere_transition_involution_preserves_energy(radius, chart, r, speed, phi, psi):
    s = sphere(radius)
    st0 = PhasePoint(chart, *_polar(r, phi), *_polar(speed, psi))
    st1 = s.transition(st0)
    st2 = s.transition(st1)
    assert (st1.chart, st2.chart) == (1 - chart, chart)
    assert math.hypot(st2.x - st0.x, st2.y - st0.y) <= 1e-12 * math.hypot(st0.x, st0.y)
    assert math.hypot(st2.vx - st0.vx, st2.vy - st0.vy) <= \
        1e-12 * math.hypot(st0.vx, st0.vy)
    e0 = energy(s, st0)
    assert abs(energy(s, st1) - e0) <= 1e-12 * e0


def test_torus_wrapping(torus):
    assert torus.wrap_position(1.25, -0.5) == (0.25, 0.5)
    assert torus.wrap_diff(0.75, -0.6) == (-0.25, 0.4)


def test_invalid_surfaces():
    with pytest.raises(ValueError):
        sphere(-1.0)
    with pytest.raises(ValueError):
        planar_chart(0.0, math.pi)


@given(st.sampled_from([flat_torus(), sphere(0.7), planar_chart(3.0, math.pi)]),
       st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                min_size=1, max_size=30))
def test_metric_at_over_arrays_matches_points(surface, pts):
    """metric_at and wrap_position over arrays of points give, field by
    field, == the values at each point (a constant field stays a number)."""
    x = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    wx, wy = surface.wrap_position(x, y)
    want_w = [surface.wrap_position(a, b) for a, b in zip(x.tolist(), y.tolist())]
    assert wx.tolist() == [w[0] for w in want_w]
    assert wy.tolist() == [w[1] for w in want_w]
    md = surface.metric_at(0, x, y)
    for name in ("lam", "lam_x", "lam_y", "curvature"):
        want = [getattr(surface.metric_at(0, a, b), name)
                for a, b in zip(x.tolist(), y.tolist())]
        assert np.broadcast_to(getattr(md, name), x.shape).tolist() == want


def test_metric_at_over_arrays_rejects_a_point_outside(disk):
    x = np.array([0.0, 1.0, 3.5, 0.2])
    y = np.zeros(4)
    with pytest.raises(ChartDomainError, match="3.5"):
        disk.metric_at(0, x, y)
    assert disk.metric_at(0, x[:0], y[:0]).lam == 1.0  # no point, none outside
