import copy
import math
import struct

import numpy as np
import pytest
from scipy.integrate import quad

from hypothesis import example, given, strategies as st

from maglab.errors import UnsupportedSurfaceError
from maglab.field import (
    C1NormReport,
    ConstantField,
    MagneticField,
    PerturbationField,
    PolynomialField,
    SinusoidalTorusField,
    ZonalSphereField,
    bump_a,
    bump_a_deriv,
    is_exact,
)
from maglab.geometry import PhasePoint, flat_torus, planar_chart, sphere
from maglab.franks import (BumpProfile, FranksKit, PerturbA, build_GA,
                           build_tubular_chart, compute_constants)
from maglab.orbits import find_closed_orbit

from oracles import psi
from stage_defaults import orbit_search


def test_eval_constant(disk):
    fld = MagneticField(ConstantField(-1.0))
    f, g = fld.eval(0, 0.3, -0.8)
    assert f == -1.0 and g == (0.0, 0.0)


def test_eval_zero(torus, zero_field):
    f, g = zero_field.eval(0, 0.1, 0.9)
    assert f == 0.0 and g == (0.0, 0.0)


def test_eval_sinusoidal(torus, sin_field):
    f, g = sin_field.eval(0, 0.25, 0.0)
    assert f == pytest.approx(1.0, abs=1e-15)
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    assert g[1] == 0.0


def test_sin_gradient_fd(torus, sin_field):
    h = 1e-6
    for x, y in [(0.1, 0.2), (0.7, 0.4)]:
        fx = (sin_field.value(0, x + h, y) - sin_field.value(0, x - h, y)) / (2 * h)
        g = sin_field.eval(0, x, y)[1]
        assert g[0] == pytest.approx(fx, abs=1e-7)


def test_is_exact_zero(torus, zero_field):
    rep = is_exact(zero_field, torus)
    assert rep.exact and rep.integral == pytest.approx(0.0, abs=1e-12)


def test_is_exact_constant(torus):
    rep = is_exact(MagneticField(ConstantField(1.0)), torus)
    assert not rep.exact
    assert rep.integral == pytest.approx(1.0, abs=1e-10)


def test_is_exact_sinusoidal(torus, sin_field):
    rep = is_exact(sin_field, torus)
    assert rep.exact
    assert abs(rep.integral) <= 1e-12


def test_is_exact_zonal(unit_sphere):
    rep = is_exact(MagneticField(ZonalSphereField(0.7)), unit_sphere)
    assert rep.exact
    # total area check rides along: integral of 1 over the unit sphere
    from maglab.field import surface_integral

    area = surface_integral(unit_sphere, lambda ch, x, y: 1.0)
    assert area == pytest.approx(4.0 * math.pi, rel=1e-9)


def test_is_exact_planar_unsupported(disk, zero_field):
    with pytest.raises(UnsupportedSurfaceError):
        is_exact(zero_field, disk)


def test_zonal_chart_agreement(unit_sphere):
    fld = MagneticField(ZonalSphereField(1.3))
    rng = np.random.default_rng(5)
    for _ in range(30):
        x, y = rng.uniform(0.6, 1.4, 2)
        st = PhasePoint(0, x, y, 0.0, 0.0)
        st2 = unit_sphere.transition(st)
        v1 = fld.value(0, st.x, st.y)
        v2 = fld.value(1, st2.x, st2.y)
        assert abs(v1 - v2) <= 1e-8


# -- closed-form sup norms (property tests) ----------------------------------

amplitudes = st.floats(-10.0, 10.0)
unit = st.floats(0.0, 1.0, exclude_max=True)
box = st.floats(-1.0, 1.0)
coeffs = st.lists(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
                  min_size=1, max_size=4)
# (surface, chart box half-width rho); the torus box is [0, 1)^2
SURFACES = [(flat_torus(), 1.0), (sphere(1.0), 1.0), (planar_chart(3.0, math.pi), 3.0)]


def base_fields():
    sin = st.builds(SinusoidalTorusField, amplitudes,
                    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                    st.floats(-7.0, 7.0))
    return st.one_of(st.builds(ConstantField, amplitudes), sin,
                     st.builds(ZonalSphereField, amplitudes),
                     st.builds(PolynomialField, coeffs))


@given(base_fields(), st.sampled_from(SURFACES), st.integers(0, 1), box, box)
@example(SinusoidalTorusField(1.5, (0, 0), 0.7), SURFACES[0], 0, 0.3, 0.6)
def test_value_within_sup_norm(fld, surf, chart, x, y):
    surface, rho = surf
    chart = min(chart, len(surface.charts) - 1)
    if surface.kind == "torus":
        x, y = abs(x) % 1.0, abs(y) % 1.0
    else:
        x, y = rho * x, rho * y
    assert abs(fld.value(chart, x, y)) <= fld.sup_norm(surface)


@given(amplitudes, st.integers(0, 1))
def test_zonal_sup_norm_attained_at_pole(a, chart):
    fld = ZonalSphereField(a)
    assert abs(fld.value(chart, 0.0, 0.0)) == fld.sup_norm(sphere(1.0))


@given(amplitudes, unit)
def test_sin_sup_norm_attained(a, y):
    fld = SinusoidalTorusField(a, (1, 0), 0.0)
    assert abs(fld.value(0, 0.25, y)) == fld.sup_norm(flat_torus())


@given(base_fields(), st.integers(0, 1), box, box)
def test_eval_value_bitwise(fld, chart, x, y):
    assert struct.pack("<d", fld.eval(chart, x, y)[0]) == \
        struct.pack("<d", fld.value(chart, x, y))


# -- arrays of points against one point at a time -----------------------------

points = st.lists(st.tuples(box, box), min_size=1, max_size=24)


def _xy(pts, shape):
    x, y = (np.array([p[i] for p in pts]) for i in (0, 1))
    return x.reshape(shape), y.reshape(shape)


@given(base_fields(), st.integers(0, 1), points, st.booleans())
@example(PolynomialField([[0.0, 0.0, 1.7], [0.0, -0.3], [2.2, 0.0, 0.0, 1.1]]), 0,
         [(0.7, -0.3), (-1.0, 1.0), (0.0, 0.0), (0.123, 0.987)], False)
@example(ZonalSphereField(1.6), 1, [(0.3, 0.4), (-0.9, 0.2), (0.0, 0.0)], True)
@example(ConstantField(0.0), 0, [(0.5, 0.5)], True)
def test_array_eval_matches_scalar(fld, chart, pts, column):
    """value and eval over arrays of points are == to the pointwise calls,
    for every base field and the composite field over it, in the array's
    shape (a flat array or a column)."""
    x, y = _xy(pts, (len(pts), 1) if column else (len(pts),))
    xs, ys = x.ravel().tolist(), y.ravel().tolist()
    for f in (fld, MagneticField(fld)):
        v = f.value(chart, x, y)
        g, (gx, gy) = f.eval(chart, x, y)
        for arr in (v, g, gx, gy):
            assert isinstance(arr, np.ndarray) and arr.shape == x.shape
        want = [f.eval(chart, a, b) for a, b in zip(xs, ys)]
        assert v.ravel().tolist() == [f.value(chart, a, b) for a, b in zip(xs, ys)]
        assert g.ravel().tolist() == [w[0] for w in want]
        assert gx.ravel().tolist() == [w[1][0] for w in want]
        assert gy.ravel().tolist() == [w[1][1] for w in want]


@given(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
@example([0.5, -0.5, 0.4999999999, 0.0, 1.0 / 6.0, -0.25])
def test_array_bump_template_matches_scalar(us):
    u = np.array(us)
    assert bump_a(u).tolist() == [bump_a(v) for v in us]
    assert bump_a_deriv(u).tolist() == [bump_a_deriv(v) for v in us]


# -- bump template conditions -------------------------------------------------


def test_bump_template_conditions():
    # (i) a(0) = 0, (ii) a'(0) = 1, support in [-1/2, 1/2], integral zero
    assert bump_a(0.0) == 0.0
    h = 1e-7
    assert (bump_a(h) - bump_a(-h)) / (2 * h) == pytest.approx(1.0, abs=1e-9)
    assert bump_a_deriv(0.0) == 1.0
    assert bump_a(0.5) == 0.0 and bump_a(0.51) == 0.0 and bump_a(-0.7) == 0.0
    val, _ = quad(bump_a, -1.0, 1.0)
    assert val == pytest.approx(0.0, abs=1e-14)
    # |a|_C1 = max(sup |a|, sup |a'|) = 1, attained at 0
    u = np.linspace(-0.5, 0.5, 20001)
    sup_a = max(abs(bump_a(x)) for x in u)
    sup_da = max(abs(bump_a_deriv(x)) for x in u)
    assert sup_a < 1.0
    assert sup_da == pytest.approx(1.0, abs=1e-12)


# -- tubular perturbations ------------------------------------------------------


@pytest.fixture(scope="module")
def torus_kit(torus, sin_field, tight_options):
    seed = PhasePoint(0, 0.0, 0.0, 0.0, -1.0)
    orb = find_closed_orbit(torus, sin_field, 0.5, seed, **orbit_search())
    kit = FranksKit(build_tubular_chart(torus, sin_field, orb.initial_state, 0.2,
                                        0.02, tight_options))
    consts = compute_constants(kit, 0.1)
    return kit, consts


def test_zero_perturbation_leaves_field(torus, torus_kit):
    kit, consts = torus_kit
    f2, pert, beta = build_GA(kit, consts, PerturbA(0.0, 0.0, 0.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, y = rng.uniform(0, 1, 2)
        assert f2.value(0, x, y) == kit.field.value(0, x, y)


def test_perturbation_vanishes_on_core(torus, torus_kit):
    kit, consts = torus_kit
    A = PerturbA(0.5 * consts.delta1, 0.2 * consts.delta1, 0.1 * consts.delta1)
    f2, pert, beta = build_GA(kit, consts, A)
    for t in np.linspace(0.0, kit.T, 200):
        st = kit.traj.state(t)
        x, y = torus.wrap_position(st.x, st.y)
        assert f2.value(0, x, y) == kit.field.value(0, x, y)


def test_perturbation_zero_integral_brute(torus, torus_kit):
    kit, consts = torus_kit
    A = PerturbA(0.6 * consts.delta1, 0.0, 0.0)
    f2, pert, beta = build_GA(kit, consts, A)
    base = is_exact(kit.field, torus, panels=96)
    pert_rep = is_exact(f2, torus, panels=96)
    # fiberwise zero-mean of a_eps forces the surface integral to stay put
    assert abs(pert_rep.integral - base.integral) <= 1e-9


# At the ledger's scale the perturbation above is far below every sample and
# quadrature point (torus_kit's eps0 is about 6e-17 and its sup |h| 3e-27),
# so the three checks are repeated on a bump of the tube's own width with a
# unit-mass profile b over the middle 80% of the segment (sup |h| about
# 0.03): on torus_kit's tube, whose core runs where f = 0 (omega = 1), and on
# a tube whose core runs near f = 1, where the 1/omega factor matters.


@pytest.fixture(scope="module")
def curved_tube(torus, sin_field, tight_options):
    return build_tubular_chart(torus, sin_field, PhasePoint(0, 0.25, 0.5, 0.0, -1.0),
                               0.2, 0.02, tight_options)


@pytest.fixture(scope="module", params=["straight", "curved"])
def visible_tube(request, torus_kit, curved_tube):
    return torus_kit[0].chart if request.param == "straight" else curved_tube


def _visible_bump(tube):
    prof = BumpProfile(0.5 * tube.T, 0.4 * tube.T)
    return PerturbationField(tube, tube.eps0, lambda t: prof.value(t)[()],
                             lambda t: prof.d1(t)[()], prof.c0,
                             prof.c0 + prof.c0_d1, support_t=prof.support)


def _tube_integral(surface, pert, h):
    """(integral of h dA, integral of |h| dA) over the bump's support, by
    3-point Gauss-Legendre on 16 x 4 panels of (t, u), with h(chart, x, y)
    evaluated at the chart points psi(t, u) and dA = |det dpsi| dt du from
    central differences of psi.  For a bump h = a_eps b / omega the second
    is eps0^2 / 20 (the mass of |a_eps| times b's unit mass)."""
    tube = pert.tube

    def nodes(a, b, panels):
        x, w = np.polynomial.legendre.leggauss(3)
        edges = np.linspace(a, b, panels + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()

    ts, wt = nodes(*pert.support_t, 16)
    us, wu = nodes(-0.5 * pert.eps0, 0.5 * pert.eps0, 4)
    t, u = (a.ravel() for a in np.meshgrid(ts, us, indexing="ij"))
    k = 1e-5
    pt = (psi(tube, t + k, u) - psi(tube, t - k, u)) / (2.0 * k)
    pu = (psi(tube, t, u + k) - psi(tube, t, u - k)) / (2.0 * k)
    dA = np.outer(wt, wu).ravel() * np.abs(pt[0] * pu[1] - pt[1] * pu[0])
    vals = h(tube.chart_id, *surface.wrap_position(*psi(tube, t, u)))
    return float(np.sum(dA * vals)), float(np.sum(dA * np.abs(vals)))


def test_visible_bump_vanishes_on_core(torus, sin_field, visible_tube):
    """On the core h is within Newton's inversion error of 0 (u there is
    at most 1e-9), a quarter width off it h is clearly not 0."""
    pert = _visible_bump(visible_tube)
    f2 = sin_field.with_perturbation(pert)
    for t in np.linspace(0.0, visible_tube.T, 101):
        x, y = torus.wrap_position(*psi(visible_tube, t, 0.0))
        assert abs(f2.value(0, x, y) - sin_field.value(0, x, y)) <= 1e-9 * pert.b_c0
    for t in np.linspace(*pert.support_t, 13)[3:-3]:
        for u in (-0.25 * pert.eps0, 0.25 * pert.eps0):
            assert abs(pert.eval(
                0, *torus.wrap_position(*psi(visible_tube, t, u)))[0]) > 1e-3


def test_visible_bump_zero_integral(torus, visible_tube):
    pert = _visible_bump(visible_tube)
    total, mass = _tube_integral(torus, pert, lambda c, x, y: pert.eval(c, x, y)[0])
    assert mass == pytest.approx(pert.eps0**2 / 20.0, rel=1e-3)  # resolved
    assert abs(total) <= 1e-8 * mass


def test_visible_bump_within_sup_norm(torus, sin_field, visible_tube):
    """|h| over a (t, u) grid of the bump stays within the perturbation's
    closed-form bound, which a perturbed field adds to its base's."""
    pert = _visible_bump(visible_tube)
    t = np.linspace(*pert.support_t, 401)[:, None]
    u = np.linspace(-0.5, 0.5, 201)[None, :] * pert.eps0
    h = pert.eval_tube(t, u)[0]
    assert float(np.max(np.abs(h))) <= pert.sup_norm(torus)
    assert sin_field.with_perturbation(pert).sup_norm(torus) == 1.0 + pert.sup_norm(torus)


def test_visible_bump_exactness_preserved(torus, sin_field, visible_tube):
    """The perturbed field, evaluated pointwise, integrates to the base
    field's integral: their difference integrates to 0 over the bump."""
    pert = _visible_bump(visible_tube)
    f2 = sin_field.with_perturbation(pert)
    total, mass = _tube_integral(
        torus, pert, lambda c, x, y: f2.value(c, x, y) - sin_field.value(c, x, y))
    assert mass == pytest.approx(pert.eps0**2 / 20.0, rel=1e-3)
    assert abs(total) <= 1e-8 * mass
    assert is_exact(sin_field, torus).exact


def test_zero_integral_needs_the_omega_factor(torus, curved_tube):
    """On a tube whose core runs near f = 1, a bump without the 1/omega
    factor (a tube whose omega reads 1) has a nonzero integral, which the
    zero-integral check sees."""
    flat = copy.copy(curved_tube)
    flat.omega = lambda t, u: (1.0, 0.0, 0.0)
    pert = _visible_bump(flat)
    total, mass = _tube_integral(torus, pert, lambda c, x, y: pert.eval(c, x, y)[0])
    assert abs(total) > 1e-3 * mass


def test_c1_norm_report_bound(torus, torus_kit):
    """Sampled C1 data of h must obey |h|_C1 <= 2 |b|_C0 + eps0 |b|_C1."""
    kit, consts = torus_kit
    A = PerturbA(0.7 * consts.delta1, 0.0, 0.0)
    f2, pert, beta = build_GA(kit, consts, A)
    rep = pert.c1_report()
    lo, hi = pert.support_t
    ts = np.linspace(lo, hi, 200)
    us = np.linspace(-0.5 * pert.eps0, 0.5 * pert.eps0, 200)
    # the 200 x 200 grid in one call (test_array_eval_tube_matches_scalar
    # ties the arrays to the pointwise values)
    h, ht, hu = pert.eval_tube(np.repeat(ts, 200), np.tile(us, 200))
    worst = float(np.max(np.abs(h) + np.abs(ht) + np.abs(hu)))
    assert worst <= rep.bound * (1.0 + 1e-9)


@pytest.fixture(scope="module")
def torus_pert(torus_kit):
    kit, consts = torus_kit
    A = PerturbA(0.4 * consts.delta1, -0.3 * consts.delta1, 0.2 * consts.delta1)
    return build_GA(kit, consts, A)[1]


@given(st.lists(st.tuples(unit, st.floats(-1.0, 1.0)), min_size=1, max_size=40))
@example([(0.0, 0.5), (0.5, -0.5), (0.5, 0.0), (0.3, 0.4999999999), (0.7, 0.9)])
def test_array_eval_tube_matches_scalar(torus_pert, draws):
    """eval_tube over arrays of (t, u) is == to the pointwise calls, with
    |u| on both sides of the bump's edge eps0/2."""
    pert = torus_pert
    lo, hi = pert.support_t
    t = np.array([lo + f * (hi - lo) for f, _ in draws])
    u = np.array([s * pert.eps0 for _, s in draws])
    got = pert.eval_tube(t, u)
    want = [pert.eval_tube(a, b) for a, b in zip(t.tolist(), u.tolist())]
    for k in range(3):
        assert got[k].tolist() == [w[k] for w in want]


def test_perturbation_array_eval_matches_scalar(torus_kit, torus_pert):
    """The perturbation's eval loops over the points of an array."""
    kit, _ = torus_kit
    pert = torus_pert
    rng = np.random.default_rng(3)
    ts = rng.uniform(*pert.support_t, 40)
    cores = [kit.traj.state(t) for t in ts]
    x = np.array([s.x - s.vy * d for s, d in zip(cores, rng.uniform(-1, 1, 40) * pert.eps0)])
    y = np.array([s.y + s.vx * d for s, d in zip(cores, rng.uniform(-1, 1, 40) * pert.eps0)])
    x, y = np.mod(x, 1.0), np.mod(y, 1.0)
    for chart in (0, 1):
        g, (gx, gy) = pert.eval(chart, x, y)
        want = [pert.eval(chart, a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert g.tolist() == [w[0] for w in want]
        assert gx.tolist() == [w[1][0] for w in want]
        assert gy.tolist() == [w[1][1] for w in want]
        assert pert.eval(chart, x, y)[0].tolist() == [w[0] for w in want]
    assert np.count_nonzero(g) == 0 and np.count_nonzero(pert.eval(0, x, y)[0]) > 0


def test_add_perturbation_api(torus, torus_kit):
    kit, consts = torus_kit
    _, pert, _ = build_GA(kit, consts, PerturbA(0.5 * consts.delta1, 0.0, 0.0))
    new_field, rep = kit.field.with_perturbation(pert), pert.c1_report()
    assert len(new_field.perturbations) == len(kit.field.perturbations) + 1
    assert rep.bound == pytest.approx(2.0 * pert.b_c0 + pert.eps0 * pert.b_c1)


def test_c1_report_arithmetic():
    rep = C1NormReport(b_c0=1.0, b_c1=10.0, eps0=0.01)
    assert rep.bound == pytest.approx(2.1)


class _Ramp:
    """A stand-in perturbation, f = a x y, with value and eval only."""

    def __init__(self, a):
        self.a = a

    def value(self, chart, x, y):
        return self.a * x * y

    def eval(self, chart, x, y):
        return (self.a * x * y, (self.a * y, self.a * x))


def test_magnetic_field_sums_perturbations():
    """A field with perturbations adds them to the base in order; one
    without evaluates as its base, which it calls directly."""
    base = SinusoidalTorusField(1.0, (1, 1), 0.2)
    p1, p2 = _Ramp(0.3), _Ramp(-1.7)
    fld = MagneticField(base, (p1, p2))
    lone = MagneticField(base)
    assert (lone.value, lone.eval) == (base.value, base.eval)
    for x, y in [(0.1, 0.2), (0.7, -0.4), (0.35, 0.9)]:
        want = base.value(0, x, y) + p1.value(0, x, y) + p2.value(0, x, y)
        assert fld.value(0, x, y) == want
        assert lone.with_perturbation(p1).with_perturbation(p2).value(0, x, y) == want
        f, (gx, gy) = fld.eval(0, x, y)
        parts = [base.eval(0, x, y), p1.eval(0, x, y), p2.eval(0, x, y)]
        assert f == parts[0][0] + parts[1][0] + parts[2][0]
        assert gx == parts[0][1][0] + parts[1][1][0] + parts[2][1][0]
        assert gy == parts[0][1][1] + parts[1][1][1] + parts[2][1][1]
        assert lone.value(0, x, y) == base.value(0, x, y)
        assert lone.eval(0, x, y) == base.eval(0, x, y)


def test_is_exact_integrates_the_perturbations(torus):
    """A perturbation's integral counts: 0.3 x y adds 0.075 to the exact
    sinusoidal field, and the report holds a bool and a float."""
    fld = MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0), (_Ramp(0.3),))
    rep = is_exact(fld, torus)
    assert rep.exact is False
    assert abs(rep.integral - 0.075) <= 1e-12
    assert type(rep.exact) is bool and type(rep.integral) is float
