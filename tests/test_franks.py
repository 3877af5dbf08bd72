import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.integrate import quad

from maglab.errors import DataInconsistencyError, UnsupportedSurfaceError
from maglab.geometry import PhasePoint, sphere
from maglab.field import MagneticField, ConstantField, SinusoidalTorusField, is_exact
from maglab.dynamics import (
    IntegratorOptions,
    Trajectory,
    flow,
    flow_with_variation,
    injectivity_time,
    magnetic_curvature_at,
)
from maglab.orbits import find_closed_orbit, phase_distance
from maglab.scenarios import Scenario, run_scenario
from maglab.franks import (
    PerturbA,
    TubularChart,
    build_GA,
    build_franks_kit,
    build_tubular_chart,
    compute_constants,
    franks_response,
    segment_split,
    variational_response,
    verify_ball_surjectivity,
    verify_cota,
    _beta_A,
    _del_b,
    _smoothstep,
)


@pytest.fixture(scope="module")
def hyper_setup(torus, sin_field):
    seed = PhasePoint(0, 0.0, 0.0, 0.0, -1.0)
    orb = find_closed_orbit(torus, sin_field, 0.5, seed)
    split = segment_split(orb, torus, sin_field, 0.5)
    kit = build_franks_kit(torus, sin_field, orb.initial_state, split.t0)
    consts = compute_constants(kit)
    return orb, split, kit, consts


# -- tubular charts ---------------------------------------------------------


def test_tubular_chart_disk_radial(disk, minus_one_field, disk_circle_seed):
    """On the unit-circle orbit the chart is psi(t, u) = (1 + u) * circle."""
    T = 0.2  # inside the injectivity window K = 1/4-ish
    chart = build_tubular_chart(disk, minus_one_field, disk_circle_seed, T, 0.05)
    for t in np.linspace(0.0, T, 7):
        for u in (-0.02, 0.0, 0.02):
            p = chart.psi(t, u)
            want = (1.0 + u) * np.array([math.cos(math.pi - t),
                                         math.sin(math.pi - t)])
            assert np.abs(p - want).max() <= 1e-9


def test_tubular_chart_flat_segment(torus, zero_field):
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    chart = build_tubular_chart(torus, zero_field, st, 0.4, 0.03)
    for t in np.linspace(0.0, 0.4, 9):
        for u in (-0.01, 0.01):
            p = chart.psi(t, u)
            assert p[0] == pytest.approx(0.2 + t, abs=1e-12)
            assert p[1] == pytest.approx(0.3 + u, abs=1e-12)


def test_tubular_chart_core_roundtrip(hyper_setup, torus):
    _, _, kit, _ = hyper_setup
    chart = kit.chart
    for t in np.linspace(0.01, kit.T - 0.01, 11):
        for u in (-0.3 * chart.eps0, 0.0, 0.4 * chart.eps0):
            p = chart.psi(t, u)
            loc = chart.invert(p[0], p[1])
            assert loc is not None
            assert loc[0] == pytest.approx(t, abs=1e-9)
            assert loc[1] == pytest.approx(u, abs=1e-9)


def test_tubular_chart_autoshrink(torus, zero_field, caplog):
    """A width beyond the wrap separation must shrink automatically."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    with caplog.at_level(logging.INFO, logger="maglab.franks"):
        chart = build_tubular_chart(torus, zero_field, st, 0.45, 0.9)
    assert chart.eps0 < 0.9
    assert chart.injectivity_report()["injective"]
    shrinks = [r.getMessage() for r in caplog.records
               if r.name == "maglab.franks" and "not injective" in r.getMessage()]
    assert len(shrinks) == round(math.log2(0.9 / chart.eps0))
    assert shrinks[0].startswith("tube of width 0.9 ")


def _dense_min_ratio(chart, nt=100, nu=20):
    """injectivity_report's min_ratio from full pairwise distance matrices."""
    ts = np.linspace(0.0, chart.T, nt)
    us = np.linspace(-0.999 * chart.eps0, 0.999 * chart.eps0, nu)
    pts = np.array([chart.psi(t, u) for t in ts for u in us])
    speed = math.sqrt(2.0 * chart.c)
    tub = np.array([[t * speed, u] for t in ts for u in us])
    d = pts[:, None, :] - pts[None, :, :]
    d = d - np.round(d)  # torus charts
    dist = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    dt = tub[:, None, :] - tub[None, :, :]
    tub_dist = np.sqrt(np.einsum("ijk,ijk->ij", dt, dt))
    grid_h = max(chart.T * speed / (nt - 1), 2.0 * chart.eps0 / (nu - 1))
    mask = tub_dist > 4.0 * grid_h
    return float((dist[mask] / tub_dist[mask]).min())


def test_injectivity_report_matches_dense(hyper_setup, torus, zero_field):
    """The blockwise minimum equals the dense one bit for bit."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    traj = flow(torus, zero_field, st, 0.45)
    wide = TubularChart(torus, zero_field, traj, 0.45, 0.9)
    for chart, injective in ((hyper_setup[2].chart, True), (wide, False)):
        rep = chart.injectivity_report()
        assert rep["injective"] is injective
        assert rep["min_ratio"] == _dense_min_ratio(chart)


def test_tubular_chart_needs_flat_chart(unit_sphere, zero_field):
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    st = PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / lam)
    with pytest.raises(UnsupportedSurfaceError):
        build_tubular_chart(unit_sphere, zero_field, st, 0.3, 0.02)


def test_tubular_chart_rejects_long_segment(torus, zero_field):
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_tubular_chart(torus, zero_field, st, 0.9, 0.02)  # K = 1/2


# -- constants ledger ----------------------------------------------------------


def test_constants_inequalities(hyper_setup):
    _, _, _, consts = hyper_setup
    assert consts.all_inequalities_hold()
    # the ledger chain: 0 < k2 < 1/(16 k1^3) < 1 < k1
    assert 0.0 < consts.k2 < 1.0 / (16.0 * consts.k1**3) < 1.0 < consts.k1
    # 0 < rho < 1/(4 k1^2 k3)
    assert 0.0 < consts.rho < 1.0 / (4.0 * consts.k1**2 * consts.k3)
    # profile supports and unit masses
    lo, hi = consts.delta_profile.support
    assert consts.k0 / 2 - consts.lam_window <= lo and hi < consts.k0 / 2
    lo, hi = consts.Delta_profile.support
    assert consts.k0 / 2 < lo and hi <= consts.k0 / 2 + consts.lam_window
    for prof in (consts.delta_profile, consts.Delta_profile):
        mass, _ = quad(prof.value, *prof.support, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)


def test_alpha_mass_quadrature(hyper_setup):
    """int |alpha - 1| <= rho, by targeted quadrature over the windows."""
    _, _, _, consts = hyper_setup
    alpha = consts.alpha
    total = 0.0
    for a, b in alpha.windows:
        val, _ = quad(lambda t: abs(alpha.value(t) - 1.0), a - alpha.w,
                      b + alpha.w, limit=400)
        total += val
    assert total <= consts.rho
    assert total <= alpha.deviation_mass() * (1.0 + 1e-6)


def test_constants_shear_oracle(torus, zero_field):
    """f = 0: X(t) is the unit shear; k1 matches the closed-form sup norm."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    kit = build_franks_kit(torus, zero_field, st, 0.5)
    consts = compute_constants(kit)
    # spectral norm of [[1, t], [0, 1]] maximized at t = k0 = 1/2
    t = 0.5
    shear_norm = math.sqrt((2.0 + t * t + t * math.sqrt(t * t + 4.0)) / 2.0)
    assert consts.k0 == pytest.approx(0.5)
    assert consts.k1 == pytest.approx(1.01 * shear_norm, rel=1e-3)
    assert consts.all_inequalities_hold()


def test_constants_on_two_segments(hyper_setup, torus, sin_field):
    orb, split, kit, consts = hyper_setup
    kit2 = build_franks_kit(torus, sin_field, split.start_states[1], split.t0)
    consts2 = compute_constants(kit2)
    assert consts2.all_inequalities_hold()
    assert all(v >= 0.0 for v in consts.checks.values())
    assert all(v >= 0.0 for v in consts2.checks.values())


# -- responses ------------------------------------------------------------------


def test_zero_direction_zero_response(hyper_setup):
    _, _, kit, _ = hyper_setup
    Z = variational_response(kit, lambda t: np.zeros_like(t))
    assert np.abs(Z).max() == 0.0


def test_variational_response_shear_oracle(torus, zero_field):
    """Closed-form conjugation integral for the flat geodesic shear."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    kit = build_franks_kit(torus, zero_field, st, 0.5)
    consts = compute_constants(kit)
    prof = consts.delta_profile
    b = prof.value
    # Z(T) = X(T) * int X^{-1} [[0,0],[b,0]] X dt with X = [[1,t],[0,1]]:
    # integrand = [[-t b, -t^2 b], [b, t b]]
    m0, _ = quad(b, *prof.support, limit=200)
    m1, _ = quad(lambda t: t * b(t), *prof.support, limit=200)
    m2, _ = quad(lambda t: t * t * b(t), *prof.support, limit=200)
    T = kit.T
    I = np.array([[-m1, -m2], [m0, m1]])
    want = np.array([[1.0, T], [0.0, 1.0]]) @ I
    Z = variational_response(kit, b)
    assert np.abs(Z - want).max() <= 1e-8 * max(1.0, np.abs(want).max())


def test_response_linearity(hyper_setup):
    _, _, kit, consts = hyper_setup
    rng = np.random.default_rng(3)
    A1 = PerturbA.random_unit(rng)
    A2 = PerturbA.random_unit(rng)
    b1 = lambda t, km: _del_b(t, A1, consts, km)
    b2 = lambda t, km: _del_b(t, A2, consts, km)
    b12 = lambda t, km: b1(t, km) + b2(t, km)
    Z1 = kit.response_derivative(b1)
    Z2 = kit.response_derivative(b2)
    Z12 = kit.response_derivative(b12)
    assert np.abs(Z12 - (Z1 + Z2)).max() <= 1e-9 * max(1.0, np.abs(Z12).max())


def test_response_fd_cross_check_smooth(hyper_setup):
    """Z matches (S(f + s b) - S(f)) / s for a smooth unit-height bump."""
    _, _, kit, consts = hyper_setup
    prof = consts.delta_profile
    scale = 1.0 / prof.c0  # unit sup norm

    def bdir(t):
        return scale * prof.value(t)

    Z = variational_response(kit, bdir)
    s = 1e-4
    S0 = kit.response(None)
    S1 = kit.response(lambda t, km: s * bdir(t))
    fd = (S1 - S0) / s
    assert np.abs(fd - Z).max() <= 1e-3 * max(1.0, np.abs(Z).max())


def test_response_fd_cross_check_cut_direction(hyper_setup):
    """The cut-estimate directions carry 1/lambda^2 sup norms; the linear
    regime only opens at steps scaled down by the squared L1 mass."""
    _, _, kit, consts = hyper_setup
    A = PerturbA(0.6, 0.0, 0.3)
    n = A.norm()
    A = PerturbA(A.a / n, A.b / n, A.c / n)
    bdir = lambda t, km: _del_b(t, A, consts, km)
    Z = kit.response_derivative(bdir)
    s = 1e-12
    S0 = kit.response(None)
    S1 = kit.response(lambda t, km: s * bdir(t, km))
    fd = (S1 - S0) / s
    assert np.abs(fd - Z).max() <= 1e-2 * max(1.0, np.abs(Z).max())


def test_callbacks_see_base_kmag_at_stage_times(hyper_setup):
    """Each response calls its callback once, with the stage times and the
    base K_mag there as arrays of length 3 n."""
    _, _, kit, _ = hyper_setup
    n = 3 * kit.n_window_steps
    for respond in (kit.response, kit.response_derivative):
        seen = []

        def record(t, km):
            seen.append((t, km))
            return np.zeros_like(t)

        respond(record)
        assert len(seen) == 1
        t, km = seen[0]
        assert t.shape == km.shape == (n,)
        assert t.dtype == km.dtype == np.float64
        for i in list(range(0, n, 997)) + [n - 2, n - 1]:
            assert km[i] == kit.kmag_base(t[i])
    Z = kit.response_derivative(lambda t, km: np.zeros_like(t))
    assert np.abs(Z).max() == 0.0


# -- array profiles and beta_A against the scalar formulas ---------------------
#
# The references below evaluate one time at a time with math, as the profiles
# and beta_A were first written; the array code must reproduce them term for
# term (numpy's vectorised pow may differ from libm's in the last bit).

_REF_PHI_C = 315.0 / 256.0


def _ref_bump(prof, t, order):
    u = (t - prof.center) / prof.half
    if abs(u) >= 1.0:
        return 0.0
    w = 1.0 - u * u
    if order == 0:
        return _REF_PHI_C * w**4 / prof.half
    if order == 1:
        return -8.0 * _REF_PHI_C * u * w**3 / prof.half**2
    return -8.0 * _REF_PHI_C * w * w * (1.0 - 7.0 * u * u) / prof.half**3


def _ref_smoothstep(u):
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _ref_alpha(alpha, t):
    out = 1.0
    for a, b in alpha.windows:
        if a - alpha.w < t < b + alpha.w:
            rise = _ref_smoothstep((t - (a - alpha.w)) / alpha.w)
            fall = _ref_smoothstep(((b + alpha.w) - t) / alpha.w)
            out *= 1.0 - min(rise, fall)
    return out


def _ref_profiles(consts, t):
    """(alpha, delta, delta', Delta, Delta'') at one time."""
    d, D = consts.delta_profile, consts.Delta_profile
    return (_ref_alpha(consts.alpha, t), _ref_bump(d, t, 0), _ref_bump(d, t, 1),
            _ref_bump(D, t, 0), _ref_bump(D, t, 2))


def _ref_beta_terms(al, dv, dd1, Dv, Dd2, A, kmag):
    """beta_A at one time from the profile values there."""
    out = al * (dv * A.a + dd1 * A.b)
    y = -al * Dv * A.c
    em1 = math.expm1(y) if abs(y) >= 1e-6 else y * (1.0 + 0.5 * y * (1.0 + y / 3.0))
    out += kmag * em1 + 0.5 * Dd2 * (em1 / Dv if Dv != 0.0 else 0.0)
    return out


def _ref_del_b(al, dv, dd1, Dv, Dd2, A, kmag):
    return al * (dv * A.a + dd1 * A.b - (Dv * kmag + 0.5 * Dd2) * A.c)


def _oracle_times(consts, fracs):
    """A grid over the window (both sides of every support), the support
    and alpha-window edges with their neighbours, and the drawn times."""
    lo = consts.delta_profile.support[0] - 0.1 * consts.lam_window
    hi = consts.Delta_profile.support[1] + 0.1 * consts.lam_window
    ts = list(np.linspace(lo, hi, 257)) + [lo + f * (hi - lo) for f in fracs]
    for prof in (consts.delta_profile, consts.Delta_profile):
        for e in prof.support:
            ts += [np.nextafter(e, -np.inf), e, np.nextafter(e, np.inf)]
    w = consts.alpha.w
    for a, b in consts.alpha.windows:
        ts += list(np.linspace(a - w, b + w, 17))
    return np.array(ts)


@given(st.lists(st.floats(0.0, 1.0), max_size=64))
def test_array_profiles_match_scalar_formulas(hyper_setup, fracs):
    _, _, _, consts = hyper_setup
    t = _oracle_times(consts, fracs)
    for prof in (consts.delta_profile, consts.Delta_profile):
        for order, fn in enumerate((prof.value, prof.d1, prof.d2)):
            want = np.array([_ref_bump(prof, s, order) for s in t.tolist()])
            got = fn(t)
            assert got.shape == t.shape
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
            assert np.all(got[want == 0.0] == 0.0)  # the support cut is exact
    want = [_ref_alpha(consts.alpha, s) for s in t.tolist()]
    assert np.array_equal(consts.alpha.value(t), want)
    u = np.concatenate((np.linspace(-0.5, 1.5, 201), fracs))
    assert np.array_equal(_smoothstep(u), [_ref_smoothstep(x) for x in u.tolist()])


@given(st.tuples(*[st.floats(-1.0, 1.0)] * 3), st.floats(0.0, 1.0),
       st.booleans(), st.floats(0.0, 7.0), st.lists(st.floats(0.0, 1.0), max_size=64))
@example((1.0, 1.0, 1.0), 1.0, False, 0.0, [])
@example((0.0, 0.0, 0.0), 1.0, False, 0.0, [])
@example((0.0, 0.0, -1.0), 1.0, True, 3.5, [])  # max |y| about 2e-6
@example((0.0, 0.0, 1.0), 1.0, True, 6.0, [])
@example((0.0, 5e-324, 0.0), 1.0, False, 0.0, [])  # subnormal direction
def test_array_beta_A_matches_scalar_formula(hyper_setup, vec, scale, c_only,
                                             c_exp, fracs):
    """A with |A| up to delta1, or c-only with |c| up to 1e7 delta1 so that
    |y| = |alpha Delta c| lies on both sides of the series cut 1e-6."""
    _, _, kit, consts = hyper_setup
    if c_only:
        A = PerturbA(0.0, 0.0, math.copysign(consts.delta1 * 10.0**c_exp, vec[2]))
    else:
        # divide by |vec| first: delta1 / |vec| overflows for a subnormal vec
        n = PerturbA(*vec).norm()
        u = [x / n for x in vec] if n > 0.0 else [0.0, 0.0, 0.0]
        k = scale * consts.delta1
        A = PerturbA(k * u[0], k * u[1], k * u[2])
    t = _oracle_times(consts, fracs)
    km = np.array([kit.kmag_base(s) for s in t.tolist()])
    refs = [_ref_profiles(consts, s) for s in t.tolist()]
    got = _beta_A(t, A, consts, km)
    for arr, ref in ((got, _ref_beta_terms), (_del_b(t, A, consts, km), _ref_del_b)):
        want = np.array([ref(*p, A, k) for p, k in zip(refs, km.tolist())])
        assert arr.shape == t.shape
        assert np.abs(arr - want).max() <= 1e-13 * np.abs(want).max()
    # from the array profiles' own values, the series branch is reproduced
    # bit for bit (expm1 itself may differ in the last bit between libraries)
    prof = [p(t) for p in (consts.alpha.value, consts.delta_profile.value,
                           consts.delta_profile.d1, consts.Delta_profile.value,
                           consts.Delta_profile.d2)]
    exact = np.array([_ref_beta_terms(*p, A, k)
                      for p, k in zip(zip(*(a.tolist() for a in prof)), km.tolist())])
    series = np.abs(-prof[0] * prof[3] * A.c) < 1e-6
    assert np.array_equal(got[series], exact[series])


@given(st.lists(st.floats(0.0, 1.0), max_size=64))
def test_array_kmag_base_matches_scalar(hyper_setup, fracs):
    """kmag_base over an array of times is == to kmag_base at each time: the
    segment's ends, every step boundary of the base orbit and drawn times."""
    _, _, kit, _ = hyper_setup
    sol = kit.traj.segments[0].sol
    ts = np.array([0.0, kit.T] + [s.t0 for s in sol.steps]
                  + [f * kit.T for f in fracs])
    km = kit.kmag_base(ts)
    assert km.tolist() == [kit.kmag_base(t) for t in ts.tolist()]
    assert kit.kmag_base(ts.reshape(1, -1)).tolist() == [km.tolist()]
    Xs = kit.base_matrix(ts)
    assert all(np.array_equal(X, kit.base_matrix(t)) for X, t in zip(Xs, ts.tolist()))


def test_kit_and_ledger_read_the_base_orbit_by_arrays(hyper_setup, torus,
                                                     sin_field, monkeypatch):
    """build_franks_kit plus compute_constants read the base orbit through
    array lookups; scalar Trajectory.state/raw calls stay below a small
    ceiling (one call per time made tens of thousands)."""
    orb, split, _, _ = hyper_setup
    calls = []
    for name in ("state", "raw"):
        def counted(self, t, _fn=getattr(Trajectory, name)):
            calls.append(t)
            return _fn(self, t)

        monkeypatch.setattr(Trajectory, name, counted)
    kit = build_franks_kit(torus, sin_field, orb.initial_state, split.t0)
    compute_constants(kit)
    assert len(calls) <= 200


def test_franks_response_matches_variational(hyper_setup, torus, sin_field,
                                             tight_options):
    _, _, kit, _ = hyper_setup
    S0 = franks_response(kit)
    _, vp = flow_with_variation(torus, sin_field, kit.traj.state(0.0), kit.T,
                                tight_options)
    assert np.abs(S0 - vp.matrix(kit.T)).max() <= 1e-9


def test_franks_response_takes_build_GA_beta(hyper_setup):
    """build_GA's beta evaluates the window's stage times as one array."""
    _, _, kit, consts = hyper_setup
    A = PerturbA(0.5 * consts.delta1, 0.3 * consts.delta1, 0.2 * consts.delta1)
    _, _, beta = build_GA(kit, consts, A)
    S = franks_response(kit, beta)
    assert np.array_equal(S, kit.response(lambda t, km: _beta_A(t, A, consts, km)))
    assert not np.array_equal(S, franks_response(kit))


def test_kmag_shift_pointwise(hyper_setup, torus, sin_field):
    """K_mag(f + h) = K_mag(f) - beta(t) along the core, to 1e-8."""
    _, _, kit, consts = hyper_setup
    A = PerturbA(0.5 * consts.delta1, 0.3 * consts.delta1, 0.2 * consts.delta1)
    f2, _, beta = build_GA(kit, consts, A)
    lo = consts.delta_profile.support[0]
    hi = consts.Delta_profile.support[1]
    for t in np.linspace(lo, hi, 101):
        st = kit.traj.state(t)
        base = magnetic_curvature_at(torus, sin_field, st, 0.5)
        pert = magnetic_curvature_at(torus, f2, st, 0.5)
        assert abs(pert - (base - beta(t))) <= 1e-8


def test_beta_A_displays(hyper_setup):
    """a-only: beta = alpha delta a; c-only: support inside supp Delta."""
    _, _, kit, consts = hyper_setup
    a_val = 0.5 * consts.delta1
    _, _, beta_a = build_GA(kit, consts, PerturbA(a_val, 0.0, 0.0))
    d = consts.delta_profile
    for t in np.linspace(consts.k0 / 2 - consts.lam_window,
                         consts.k0 / 2 + consts.lam_window, 301):
        want = consts.alpha.value(t) * d.value(t) * a_val
        assert beta_a(t) == pytest.approx(want, abs=1e-18 + 1e-12 * abs(want))
    _, _, beta_c = build_GA(kit, consts, PerturbA(0.0, 0.0, a_val))
    lo, hi = consts.Delta_profile.support
    for t in np.linspace(0.0, kit.T, 101):
        if not (lo - 1e-9 <= t <= hi + 1e-9):
            assert beta_c(t) == 0.0


def test_build_GA_rejects_large_A(hyper_setup):
    _, _, kit, consts = hyper_setup
    with pytest.raises(ValueError):
        build_GA(kit, consts, PerturbA(consts.delta1, consts.delta1, 0.0))


def test_core_preservation(hyper_setup, torus, sin_field, tight_options):
    orb, _, kit, consts = hyper_setup
    A = PerturbA(0.5 * consts.delta1, 0.0, 0.2 * consts.delta1)
    f2, _, _ = build_GA(kit, consts, A)
    end = flow(torus, f2, orb.initial_state, orb.period, tight_options).end_state()
    assert phase_distance(torus, orb.initial_state, end) <= 1e-9


def test_exactness_preserved(hyper_setup, torus, sin_field):
    _, _, kit, consts = hyper_setup
    f2, _, _ = build_GA(kit, consts, PerturbA(0.6 * consts.delta1, 0.0, 0.0))
    base = is_exact(sin_field, torus)
    pert = is_exact(f2, torus)
    assert pert.exact
    assert abs(pert.integral - base.integral) <= 1e-9


# -- verification ------------------------------------------------------------------


def test_verify_cota(hyper_setup):
    _, _, kit, consts = hyper_setup
    rep = verify_cota(kit, consts, sample_count=8, seed=11)
    assert rep.min_margin >= 1.0
    assert rep.linearity_defect <= 1e-6


def test_cota_zero_direction_trivial(hyper_setup):
    _, _, kit, consts = hyper_setup
    Z = kit.response_derivative(lambda t, km: _del_b(t, PerturbA(0, 0, 0),
                                                     consts, km))
    assert np.linalg.norm(Z, 2) == 0.0  # 0 >= 0 trivially


def test_surjectivity_sphere_targets(hyper_setup):
    _, _, kit, consts = hyper_setup
    rep = verify_ball_surjectivity(kit, consts, n_targets=4, mode="sphere")
    assert rep.solved == rep.targets
    assert rep.max_residual <= 1e-6
    assert rep.max_A_norm <= consts.delta1
    assert rep.gene_bound_ok


def test_surjectivity_forward_recovery(hyper_setup):
    _, _, kit, consts = hyper_setup
    rep = verify_ball_surjectivity(kit, consts, n_targets=3, mode="forward",
                                   seed=5)
    assert rep.solved == rep.targets
    for det in rep.details:
        assert det["A_norm"] <= consts.delta1
        assert det["recovery_error"] <= 0.2 * 0.5 * consts.delta1


# -- segment decomposition -----------------------------------------------------------


def test_segment_split_arithmetic(hyper_setup, torus, sin_field):
    orb, split, _, _ = hyper_setup
    K = injectivity_time(torus, sin_field, 0.5)
    assert split.n == math.ceil(orb.period / K)
    assert K / 2.0 < split.t0 <= K
    assert split.n * split.t0 == pytest.approx(orb.period)


def test_segment_split_single_segment(torus, zero_field):
    """T_theta = K gives n = 1."""
    orb = find_closed_orbit(torus, zero_field, 1.0 / 8.0,
                            PhasePoint(0, 0.2, 0.3, 1.0, 0.0))
    # c = 1/8: K = min(1, i/(2c)) = min(1, 2) = 1... period at speed 1/2 is 2
    K = injectivity_time(torus, zero_field, orb.c)
    split = segment_split(orb, torus, zero_field, orb.c)
    assert split.t0 <= K and split.t0 > K / 2


def test_segment_split_inconsistent_period(hyper_setup, torus, sin_field):
    orb, _, _, _ = hyper_setup
    import copy

    fake = copy.copy(orb)
    fake.period = 0.05  # below K/2: impossible for a closed orbit
    with pytest.raises(DataInconsistencyError):
        segment_split(fake, torus, sin_field, 0.5)


def test_segment_product_is_monodromy(hyper_setup):
    orb, split, _, _ = hyper_setup
    assert np.abs(split.product() - orb.monodromy).max() <= 1e-6


def test_segment_supports_disjoint(hyper_setup, torus):
    """Mid-segment tube patches avoid every other segment's core."""
    orb, split, _, _ = hyper_setup
    charts = [split.tube(i) for i in range(split.n)]
    cores = []
    for i in range(split.n):
        ts = np.linspace(i * split.t0, (i + 1) * split.t0, 128)
        tr = flow(torus, charts[i].field, orb.initial_state, orb.period)
        cores.append(np.array([[tr.state(t).x, tr.state(t).y] for t in ts]))
    for i, chart in enumerate(charts):
        pts = []
        for t in np.linspace(0.35 * split.t0, 0.65 * split.t0, 32):
            for u in (-0.5 * chart.eps0, 0.5 * chart.eps0):
                pts.append(chart.psi(t, u))
        pts = np.array(pts)
        for j in range(split.n):
            if j == i:
                continue
            d = pts[:, None, :] - cores[j][None, :, :]
            d = d - np.round(d)
            assert np.sqrt(np.einsum("ijk,ijk->ij", d, d)).min() > 0.0


def test_split_tube_matches_build_tubular_chart(hyper_setup, torus, sin_field):
    """Where clearance does not bind, segment i's tube is the one
    build_tubular_chart gives from its start state: same width, length and
    core samples."""
    _, split, _, _ = hyper_setup
    for i in range(split.n):
        tube = split.tube(i)
        want = build_tubular_chart(torus, sin_field, split.start_states[i],
                                   split.t0, 0.02)
        assert tube.eps0 == want.eps0 == 0.02
        assert tube.T == want.T == split.t0
        for name in ("_ts", "_pos", "_f0"):
            assert np.array_equal(getattr(tube, name), getattr(want, name))


def test_split_tube_halves_until_clear(hyper_setup, torus, sin_field, caplog):
    """A width whose mid-segment patch comes within 1.5 widths of another
    segment's core is halved until it clears."""
    orb, _, _, _ = hyper_setup
    split = segment_split(orb, torus, sin_field, 0.5, eps0=0.2)
    with caplog.at_level(logging.INFO, logger="maglab.franks"):
        tube = split.tube(0)
    halvings = [r.getMessage() for r in caplog.records
                if "within 1.5 width" in r.getMessage()]
    assert halvings and halvings[0].startswith("segment 0: tube patch of width 0.2 ")
    assert tube.eps0 == 0.2 / 2 ** len(halvings)


def test_franks_stage_builds_one_tube_per_segment(tmp_path, monkeypatch):
    """franks-verify builds exactly `segments` tubes, one per kit, and none
    for the segments it does not verify.  Each segment is flown once: one
    variational flow of the orbit in segment_split plus one per tube, no
    4-component flow, and each kit's X(t) reads its tube's flow."""
    from maglab import franks

    built = []
    init = TubularChart.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    flows = []

    def counting(kind, fn):
        def run(*args, **kwargs):
            flows.append(kind)
            return fn(*args, **kwargs)
        return run

    kits = []
    kit_init = franks.FranksKit.__init__

    def kept(self, *args, **kwargs):
        kits.append(self)
        kit_init(self, *args, **kwargs)

    monkeypatch.setattr(TubularChart, "__init__", counted)
    monkeypatch.setattr(franks.FranksKit, "__init__", kept)
    monkeypatch.setattr(franks, "flow_with_variation",
                        counting("variational", flow_with_variation))
    monkeypatch.setattr(franks, "flow", counting("flow", flow), raising=False)
    sc = Scenario({
        "surface": {"kind": "torus"},
        "field": {"kind": "sinusoidal", "amplitude": 1.0, "k": [1, 0]},
        "energy": 0.5, "seed": 1,
        "seeds": [{"chart": 0, "x": 0.0, "y": 0.0, "vx": 0.0, "vy": -1.0}],
        "pipeline": [
            {"stage": "orbits", "tol": 1e-10},
            {"stage": "franks-verify", "cota_samples": 2, "targets": 1,
             "segments": 2, "eps0": 0.02, "eps_c1": 0.1}]})
    code, reports = run_scenario(sc, out_dir=str(tmp_path))
    assert code == 0
    assert reports["franks-verify"]["segments"]["n"] > 2
    assert len(built) == 2
    assert flows == ["variational"] * 3
    assert len(kits) == 2
    for kit in kits:
        assert kit._vp._traj is kit.chart.traj is kit.traj
