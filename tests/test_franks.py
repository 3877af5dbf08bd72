import collections
import copy
import logging
import math
import os
from dataclasses import asdict

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
    magnetic_curvature,
)
from maglab.orbits import find_closed_orbit, phase_distance
from maglab.scenarios import Scenario, load_scenario, run_scenario
from maglab.franks import (
    BumpProfile,
    FranksKit,
    PerturbA,
    TubularChart,
    build_GA,
    build_franks_kit,
    build_tubular_chart,
    compute_constants,
    segment_split,
    verify_ball_surjectivity,
    verify_cota,
    _beta_A,
    _del_b,
    _profiles,
    _smoothstep,
)

from oracles import psi, reference_kmag
from stage_defaults import orbit_search


# The Franks tests fly their tubes at `tight_options` (rel_tol 1e-12,
# abs_tol 1e-13); split widths and eps_c1 are the franks-verify stage's
# defaults, 0.02 and 0.1.


@pytest.fixture(scope="module")
def hyper_setup(torus, sin_field, tight_options):
    seed = PhasePoint(0, 0.0, 0.0, 0.0, -1.0)
    orb = find_closed_orbit(torus, sin_field, 0.5, seed, **orbit_search())
    split = segment_split(orb, 0.02, tight_options)
    kit = FranksKit(build_tubular_chart(torus, sin_field, orb.initial_state,
                                        split.t0, 0.02, tight_options))
    consts = compute_constants(kit, 0.1)
    return orb, split, kit, consts


# -- tubular charts ---------------------------------------------------------


def test_tubular_chart_disk_radial(disk, minus_one_field, disk_circle_seed,
                                   tight_options):
    """On the unit-circle orbit the chart is psi(t, u) = (1 + u) * circle."""
    T = 0.2  # inside the injectivity window K = 1/4-ish
    chart = build_tubular_chart(disk, minus_one_field, disk_circle_seed, T, 0.05,
                                tight_options)
    for t in np.linspace(0.0, T, 7):
        for u in (-0.02, 0.0, 0.02):
            p = psi(chart, t, u)
            want = (1.0 + u) * np.array([math.cos(math.pi - t),
                                         math.sin(math.pi - t)])
            assert np.abs(p - want).max() <= 1e-9


def test_tubular_chart_flat_segment(torus, zero_field, tight_options):
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    chart = build_tubular_chart(torus, zero_field, st, 0.4, 0.03, tight_options)
    for t in np.linspace(0.0, 0.4, 9):
        for u in (-0.01, 0.01):
            p = psi(chart, t, u)
            assert p[0] == pytest.approx(0.2 + t, abs=1e-12)
            assert p[1] == pytest.approx(0.3 + u, abs=1e-12)


def test_tubular_chart_core_roundtrip(hyper_setup, torus):
    _, _, kit, _ = hyper_setup
    chart = kit.chart
    for t in np.linspace(0.01, kit.T - 0.01, 11):
        for u in (-0.3 * chart.eps0, 0.0, 0.4 * chart.eps0):
            p = psi(chart, t, u)
            loc = chart.invert(p[0], p[1])
            assert loc is not None
            assert loc[0] == pytest.approx(t, abs=1e-9)
            assert loc[1] == pytest.approx(u, abs=1e-9)


def test_tubular_chart_autoshrink(torus, zero_field, tight_options, caplog):
    """A width beyond the wrap separation must shrink automatically."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    with caplog.at_level(logging.INFO, logger="maglab.franks"):
        chart = build_tubular_chart(torus, zero_field, st, 0.45, 0.9,
                                    tight_options)
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
    pts = np.array([psi(chart, t, u) for t in ts for u in us])
    speed = math.sqrt(2.0 * chart.c)
    tub = np.array([[t * speed, u] for t in ts for u in us])
    d = pts[:, None, :] - pts[None, :, :]
    if chart.surface.kind == "torus":
        d = d - np.round(d)
    dist = np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    dt = tub[:, None, :] - tub[None, :, :]
    tub_dist = np.sqrt(np.einsum("ijk,ijk->ij", dt, dt))
    grid_h = max(chart.T * speed / (nt - 1), 2.0 * chart.eps0 / (nu - 1))
    mask = tub_dist > 4.0 * grid_h
    return float((dist[mask] / tub_dist[mask]).min())


def test_injectivity_report_matches_dense(hyper_setup, torus, zero_field, disk,
                                          minus_one_field, disk_circle_seed,
                                          tight_options):
    """The blockwise minimum equals the dense one bit for bit."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    traj = flow(torus, zero_field, st, 0.45, IntegratorOptions())
    wide = TubularChart(torus, zero_field, traj, 0.45, 0.9)
    ring = build_tubular_chart(disk, minus_one_field, disk_circle_seed, 0.2, 0.05,
                               tight_options)
    for chart, injective in ((hyper_setup[2].chart, True), (wide, False),
                             (ring, True)):
        rep = chart.injectivity_report()
        assert rep["injective"] is injective
        assert rep["min_ratio"] == _dense_min_ratio(chart)


def test_tubular_chart_needs_flat_chart(unit_sphere, zero_field, tight_options):
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    st = PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / lam)
    with pytest.raises(UnsupportedSurfaceError):
        build_tubular_chart(unit_sphere, zero_field, st, 0.3, 0.02, tight_options)


def test_tubular_chart_rejects_long_segment(torus, zero_field, tight_options):
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    with pytest.raises(ValueError):
        build_tubular_chart(torus, zero_field, st, 0.9, 0.02,  # K = 1/2
                            tight_options)


@pytest.fixture(scope="module")
def box_tubes(hyper_setup, torus, zero_field, disk, minus_one_field, disk_circle_seed,
              tight_options):
    """Tubes whose core box can reject: the hyperbolic torus kit's, one
    across both wrap lines of the torus (x from 0.8 to 1.2 at y = 0.98) and
    one on the unit circle of the disk."""
    across = PhasePoint(0, 0.8, 0.98, 1.0, 0.0)
    return {
        "torus kit": hyper_setup[2].chart,
        "torus wrap": build_tubular_chart(torus, zero_field, across, 0.4, 0.03,
                                          tight_options),
        "disk": build_tubular_chart(disk, minus_one_field, disk_circle_seed, 0.2,
                                    0.05, tight_options),
    }


_offset = st.tuples(st.sampled_from([0.0, 1e-3, 0.03, 0.3]), st.floats(-1.0, 1.0))


@given(st.sampled_from(["torus kit", "torus wrap", "disk"]), st.floats(0.0, 1.0),
       st.floats(-3.0, 3.0), _offset, _offset, st.integers(-1, 1), st.integers(-1, 1))
@example("torus wrap", 0.5, 0.0, (0.0, 0.0), (0.0, 0.0), -1, -1)  # core mid, wrapped
@example("torus wrap", 0.1, 2.0, (0.03, 1.0), (0.0, 0.0), 0, 0)   # beyond the edge
def test_invert_box_test_matches_nearest_sample_search(
        box_tubes, name, th, w, off_x, off_y, i, j):
    """invert with the core-box test returns what the nearest-sample search
    alone returns, near the tube, across its edge and across the wrap."""
    chart = box_tubes[name]
    assert chart._box  # the box test is live on every one of these tubes
    plain = copy.copy(chart)
    plain._box = ()
    p = psi(chart, th * chart.T, w * chart.eps0)
    x = float(p[0]) + off_x[0] * off_x[1] + i
    y = float(p[1]) + off_y[0] * off_y[1] + j
    assert chart.invert(x, y) == plain.invert(x, y)


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


def test_constants_shear_oracle(torus, zero_field, tight_options):
    """f = 0: X(t) is the unit shear; k1 matches the closed-form sup norm."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    kit = FranksKit(build_tubular_chart(torus, zero_field, st, 0.5, 0.02,
                                        tight_options))
    consts = compute_constants(kit, 0.1)
    # spectral norm of [[1, t], [0, 1]] maximized at t = k0 = 1/2
    t = 0.5
    shear_norm = math.sqrt((2.0 + t * t + t * math.sqrt(t * t + 4.0)) / 2.0)
    assert consts.k0 == pytest.approx(0.5)
    assert consts.k1 == pytest.approx(1.01 * shear_norm, rel=1e-3)
    assert consts.all_inequalities_hold()


def test_constants_on_two_segments(hyper_setup):
    orb, split, kit, consts = hyper_setup
    kit2 = build_franks_kit(split, 1)
    consts2 = compute_constants(kit2, 0.1)
    assert consts2.all_inequalities_hold()
    assert all(v >= 0.0 for v in consts.checks.values())
    assert all(v >= 0.0 for v in consts2.checks.values())


# -- responses ------------------------------------------------------------------


def _stage_profiles(kit):
    """`_profiles` of the kit's window at its stage times."""
    return _profiles(*kit._window["profiles"], kit._window["stage_t"])


def test_zero_direction_zero_response(hyper_setup):
    _, _, kit, _ = hyper_setup
    w = kit._window
    Z = kit._rk4(w["k"], np.zeros_like(w["stage_t"]))
    assert np.abs(Z).max() == 0.0


def test_variational_response_shear_oracle(torus, zero_field, tight_options):
    """Closed-form conjugation integral for the flat geodesic shear."""
    st = PhasePoint(0, 0.2, 0.3, 1.0, 0.0)
    kit = FranksKit(build_tubular_chart(torus, zero_field, st, 0.5, 0.02,
                                        tight_options))
    consts = compute_constants(kit, 0.1)
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
    w = kit._window
    Z = kit._rk4(w["k"], b(w["stage_t"]))
    assert np.abs(Z - want).max() <= 1e-8 * max(1.0, np.abs(want).max())


def test_response_linearity(hyper_setup):
    _, _, kit, _ = hyper_setup
    rng = np.random.default_rng(3)
    A1 = PerturbA.random_unit(rng)
    A2 = PerturbA.random_unit(rng)
    Z1 = kit.response_derivative(A1)
    Z2 = kit.response_derivative(A2)
    Z12 = kit.response_derivative(PerturbA(A1.a + A2.a, A1.b + A2.b, A1.c + A2.c))
    assert np.abs(Z12 - (Z1 + Z2)).max() <= 1e-9 * max(1.0, np.abs(Z12).max())


def test_response_fd_cross_check_smooth(hyper_setup):
    """Z matches (S(f + s b) - S(f)) / s for a smooth unit-height bump."""
    _, _, kit, consts = hyper_setup
    prof = consts.delta_profile
    scale = 1.0 / prof.c0  # unit sup norm

    w = kit._window
    b = scale * prof.value(w["stage_t"])
    Z = kit._rk4(w["k"], b)
    s = 1e-4
    S0 = kit.response()
    S1 = kit._rk4(w["k"] - s * b)
    fd = (S1 - S0) / s
    assert np.abs(fd - Z).max() <= 1e-3 * max(1.0, np.abs(Z).max())


def test_response_fd_cross_check_cut_direction(hyper_setup):
    """Z along A matches (S(s A) - S(0)) / s.  The cut-estimate directions
    carry 1/lambda^2 sup norms; the linear regime only opens at steps scaled
    down by the squared L1 mass."""
    _, _, kit, _ = hyper_setup
    A = _cut_direction()
    Z = kit.response_derivative(A)
    s = 1e-12
    S0 = kit.response()
    S1 = kit.response(PerturbA(s * A.a, s * A.b, s * A.c))
    fd = (S1 - S0) / s
    assert np.abs(fd - Z).max() <= 1e-2 * max(1.0, np.abs(Z).max())


def test_window_k_is_base_kmag_at_stage_times(hyper_setup):
    """The window holds the stage times and the base K_mag there as float64
    arrays of length 3 n, inside the ledger's window around the supports."""
    _, _, kit, consts = hyper_setup
    n = 3 * kit.n_window_steps
    t, km = kit._window["stage_t"], kit._window["k"]
    assert t.shape == km.shape == (n,)
    assert t.dtype == km.dtype == np.float64
    idx = list(range(0, n, 997)) + [n - 2, n - 1]
    assert km[idx].tolist() == [reference_kmag(kit.surface, kit.field, kit.traj, s)
                                for s in t[idx].tolist()]
    lam = consts.lam_window
    assert t[0] == max(0.0, consts.delta_profile.support[0] - 0.02 * lam)
    assert t[-1] == min(kit.T, consts.Delta_profile.support[1] + 0.02 * lam)


# -- the window product against the sequential RK4 loop ------------------------
#
# FranksKit propagates the window as a pairwise product of the RK4 steps'
# matrices.  The references below run the same RK4 recurrence step by step:
# in floats, as the kit once did, and in 40-digit mpmath arithmetic.


def _rk4_loop(w, k, b=None):
    """The window's RK4 recurrence one step at a time, in floats."""
    h = w["h"]
    h2 = 0.5 * h
    h6 = h / 6.0
    k = k.tolist()
    q = b.tolist() if b is not None else [0.0] * len(k)
    x11, x12, x21, x22 = w["X_a"].ravel().tolist()
    y11 = y12 = y21 = y22 = 0.0
    for i in range(0, len(k), 3):
        k0, k1, k2 = k[i:i + 3]
        q0, q1, q2 = q[i:i + 3]
        c1, d1 = -k0 * x11, -k0 * x12
        a2, b2 = x21 + h2 * c1, x22 + h2 * d1
        m2a, m2b = x11 + h2 * x21, x12 + h2 * x22
        c2, d2 = -k1 * m2a, -k1 * m2b
        a3, b3 = x21 + h2 * c2, x22 + h2 * d2
        m3a, m3b = x11 + h2 * a2, x12 + h2 * b2
        c3, d3 = -k1 * m3a, -k1 * m3b
        a4, b4 = x21 + h * c3, x22 + h * d3
        m4a, m4b = x11 + h * a3, x12 + h * b3
        c4, d4 = -k2 * m4a, -k2 * m4b
        e1c, e1d = q0 * x11 - k0 * y11, q0 * x12 - k0 * y12
        n2a, n2b = y11 + h2 * y21, y12 + h2 * y22
        n2c, n2d = y21 + h2 * e1c, y22 + h2 * e1d
        e2c, e2d = q1 * m2a - k1 * n2a, q1 * m2b - k1 * n2b
        n3a, n3b = y11 + h2 * n2c, y12 + h2 * n2d
        n3c, n3d = y21 + h2 * e2c, y22 + h2 * e2d
        e3c, e3d = q1 * m3a - k1 * n3a, q1 * m3b - k1 * n3b
        n4a, n4b = y11 + h * n3c, y12 + h * n3d
        n4c, n4d = y21 + h * e3c, y22 + h * e3d
        e4c, e4d = q2 * m4a - k2 * n4a, q2 * m4b - k2 * n4b
        y11 += h6 * (y21 + 2.0 * (n2c + n3c) + n4c)
        y12 += h6 * (y22 + 2.0 * (n2d + n3d) + n4d)
        y21 += h6 * (e1c + 2.0 * (e2c + e3c) + e4c)
        y22 += h6 * (e1d + 2.0 * (e2d + e3d) + e4d)
        x11 += h6 * (x21 + 2.0 * (a2 + a3) + a4)
        x12 += h6 * (x22 + 2.0 * (b2 + b3) + b4)
        x21 += h6 * (c1 + 2.0 * (c2 + c3) + c4)
        x22 += h6 * (d1 + 2.0 * (d2 + d3) + d4)
    X = np.array([[x11, x12], [x21, x22]])
    Y = np.array([[y11, y12], [y21, y22]])
    return w["X_after"] @ (Y if b is not None else X)


def _rk4_mp(w, k, b=None, dps=40):
    """The same recurrence in dps-digit arithmetic from the same float
    inputs: the result's entries as mpmath numbers, row by row."""
    mpmath = pytest.importorskip("mpmath")
    ctx = mpmath.mp.clone()
    ctx.dps = dps
    f = ctx.mpf
    h = f(w["h"])
    h2, h6 = h / 2, h / 6
    k = [f(v) for v in k.tolist()]
    q = [f(v) for v in b.tolist()] if b is not None else [f(0)] * len(k)

    def mul(M, N):
        return [[M[i][0] * N[0][j] + M[i][1] * N[1][j] for j in range(2)]
                for i in range(2)]

    def axpy(X, s, D):
        return [[X[i][j] + s * D[i][j] for j in range(2)] for i in range(2)]

    def lin(X, Y, kk, qq):  # (X', Y') at one stage
        dX = [X[1], [-kk * X[0][0], -kk * X[0][1]]]
        dY = [Y[1], [qq * X[0][0] - kk * Y[0][0], qq * X[0][1] - kk * Y[0][1]]]
        return dX, dY

    X = [[f(v) for v in row] for row in w["X_a"].tolist()]
    Y = [[f(0)] * 2 for _ in range(2)]
    for i in range(0, len(k), 3):
        (k0, k1, k2), (q0, q1, q2) = k[i:i + 3], q[i:i + 3]
        K1, L1 = lin(X, Y, k0, q0)
        K2, L2 = lin(axpy(X, h2, K1), axpy(Y, h2, L1), k1, q1)
        K3, L3 = lin(axpy(X, h2, K2), axpy(Y, h2, L2), k1, q1)
        K4, L4 = lin(axpy(X, h, K3), axpy(Y, h, L3), k2, q2)
        X = [[X[r][c] + h6 * (K1[r][c] + 2 * (K2[r][c] + K3[r][c]) + K4[r][c])
              for c in range(2)] for r in range(2)]
        Y = [[Y[r][c] + h6 * (L1[r][c] + 2 * (L2[r][c] + L3[r][c]) + L4[r][c])
              for c in range(2)] for r in range(2)]
    after = [[f(v) for v in row] for row in w["X_after"].tolist()]
    return mul(after, Y if b is not None else X)


def _rel_error(M, ref):
    """max |M - ref| / max |ref| over the entries, ref in mpmath numbers."""
    scale = max(abs(v) for row in ref for v in row)
    return float(max(abs(M[i][j] - ref[i][j]) for i in range(2) for j in range(2))
                 / scale)


def _cut_direction():
    A = PerturbA(0.6, 0.0, 0.3)
    n = A.norm()
    return PerturbA(A.a / n, A.b / n, A.c / n)


def _kit_with_steps(kit, consts, n):
    """A copy of kit whose window (the same one) takes n RK4 steps."""
    out = copy.copy(kit)
    out.n_window_steps = n
    out.set_window(consts)
    return out


def test_window_product_matches_sequential_loop(hyper_setup):
    _, _, kit, consts = hyper_setup
    w = kit._window
    S = kit.response()
    ref = _rk4_loop(w, w["k"])
    assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max()
    # the first variation differs at the loop's own rounding level
    b = _del_b(_cut_direction(), _stage_profiles(kit), w["k"])
    Z = kit.response_derivative(_cut_direction())
    ref = _rk4_loop(w, w["k"], b)
    assert np.abs(Z - ref).max() <= 1e-7 * np.abs(ref).max()


def _with_identity_ends(kit):
    """A copy of kit whose window (the same steps) has X_a = X_after = I, so
    that its responses are the window's bare propagators."""
    out = copy.copy(kit)
    out._win = dict(kit._window, X_a=np.eye(2), X_after=np.eye(2))
    return out


@pytest.mark.parametrize("n", [300, 301])
def test_window_product_against_40_digit_recurrence(hyper_setup, n):
    """Against the RK4 recurrence in 40-digit arithmetic, the pairwise
    product is no less accurate than the sequential float loop: for S with
    the kit's own ends, and for the window's propagator of Z along the cut
    direction.  Z is compared with identity ends: its ends X_a and X_after
    come from the adaptive flow, and with them even correctly rounded factors
    multiplied exactly stay 5.6e-11 off at n = 300, where the loop can land
    closer by chance.  n = 301 carries an odd factor at several levels."""
    _, _, kit, consts = hyper_setup
    kit = _kit_with_steps(kit, consts, n)
    w = kit._window
    assert len(w["k"]) == len(w["stage_t"]) == 3 * n
    ref = _rk4_mp(w, w["k"])
    assert _rel_error(kit.response(), ref) <= _rel_error(_rk4_loop(w, w["k"]), ref)
    bare = _with_identity_ends(kit)
    wb = bare._window
    b = _del_b(_cut_direction(), _stage_profiles(kit), w["k"])
    ref = _rk4_mp(wb, w["k"], b)
    err = _rel_error(bare.response_derivative(_cut_direction()), ref)
    assert err <= _rel_error(_rk4_loop(wb, w["k"], b), ref)


def test_odd_window_steps_match_sequential_loop(hyper_setup):
    _, _, kit, consts = hyper_setup
    for n in (1, 3, 7, 1025):
        odd = _kit_with_steps(kit, consts, n)
        S = odd.response()
        ref = _rk4_loop(odd._window, odd._window["k"])
        assert np.abs(S - ref).max() <= 1e-14 * np.abs(ref).max()
    assert kit.n_window_steps == type(kit).n_window_steps  # the copy's own

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
    km = kit.kmag_base(t)
    refs = [_ref_profiles(consts, s) for s in t.tolist()]
    prof = _profiles(consts.delta_profile, consts.Delta_profile, consts.alpha, t)
    got = _beta_A(A, prof, km)
    for arr, ref in ((got, _ref_beta_terms), (_del_b(A, prof, km), _ref_del_b)):
        want = np.array([ref(*p, A, k) for p, k in zip(refs, km.tolist())])
        assert arr.shape == t.shape
        assert np.abs(arr - want).max() <= 1e-13 * np.abs(want).max()
    # from the array profiles' own values, the series branch is reproduced
    # bit for bit (expm1 itself may differ in the last bit between libraries)
    exact = np.array([_ref_beta_terms(*p, A, k)
                      for p, k in zip(zip(*(a.tolist() for a in prof)), km.tolist())])
    series = np.abs(-prof[0] * prof[3] * A.c) < 1e-6
    assert np.array_equal(got[series], exact[series])


@given(st.lists(st.floats(0.0, 1.0), max_size=64))
def test_array_kmag_base_matches_scalar(hyper_setup, fracs):
    """kmag_base and base_matrix over an array of times are == to the
    single-time reads at each time (`reference_kmag`, components 4-7 of
    raw): the orbit's ends, every step boundary of the base orbit and drawn
    times."""
    _, _, kit, _ = hyper_setup
    ts = np.array([0.0, kit.T] + [s.t0 for s in kit.traj.sol.steps]
                  + [f * kit.T for f in fracs])
    km = kit.kmag_base(ts)
    assert km.tolist() == [reference_kmag(kit.surface, kit.field, kit.traj, t)
                           for t in ts.tolist()]
    assert kit.kmag_base(ts.reshape(1, -1)).tolist() == [km.tolist()]
    Xs = kit.base_matrix(ts)
    assert Xs.reshape(-1, 4).tolist() == [list(kit.traj.raw(t)[1][4:8])
                                          for t in ts.tolist()]


def test_kit_and_ledger_read_the_base_orbit_by_arrays(hyper_setup, torus,
                                                     sin_field, tight_options,
                                                     monkeypatch):
    """A kit's tube plus compute_constants read the base orbit through
    array lookups; scalar Trajectory.state/raw calls stay below a small
    ceiling (one call per time made tens of thousands)."""
    orb, split, _, _ = hyper_setup
    calls = []
    for name in ("state", "raw"):
        def counted(self, t, _fn=getattr(Trajectory, name)):
            calls.append(t)
            return _fn(self, t)

        monkeypatch.setattr(Trajectory, name, counted)
    kit = FranksKit(build_tubular_chart(torus, sin_field, orb.initial_state,
                                        split.t0, 0.02, tight_options))
    compute_constants(kit, 0.1)
    assert len(calls) <= 200


def test_ledger_evaluates_each_profile_once(hyper_setup, monkeypatch):
    """compute_constants evaluates delta, delta', Delta and Delta'' once
    each, on the k6 grid: the grid's profiles serve every direction."""
    _, _, kit, _ = hyper_setup
    calls = collections.Counter()
    for name in ("value", "d1", "d2"):
        def counted(self, t, _fn=getattr(BumpProfile, name), _name=name):
            calls[self, _name] += 1
            return _fn(self, t)

        monkeypatch.setattr(BumpProfile, name, counted)
    consts = compute_constants(copy.copy(kit), 0.1)
    d, D = consts.delta_profile, consts.Delta_profile
    assert calls == {(d, "value"): 1, (d, "d1"): 1, (D, "value"): 1, (D, "d2"): 1}


def test_franks_response_matches_variational(hyper_setup, torus, sin_field,
                                             tight_options):
    _, _, kit, _ = hyper_setup
    S0 = kit.response()
    _, vp = flow_with_variation(torus, sin_field, kit.traj.state(0.0), kit.T,
                                tight_options)
    assert np.abs(S0 - vp.matrices(kit.T)).max() <= 1e-9


def test_response_matches_build_GA_beta(hyper_setup):
    """S(A) is the window crossed with K_mag - beta, build_GA's beta for the
    same A evaluated at the window's stage times as one array."""
    _, _, kit, consts = hyper_setup
    A = PerturbA(0.5 * consts.delta1, 0.3 * consts.delta1, 0.2 * consts.delta1)
    _, _, beta = build_GA(kit, consts, A)
    w = kit._window
    S = kit.response(A)
    assert np.array_equal(S, kit._rk4(w["k"] - beta(w["stage_t"])))
    assert not np.array_equal(S, kit.response())


def test_kmag_shift_pointwise(hyper_setup, torus, sin_field):
    """K_mag(f + h) = K_mag(f) - beta(t) along the core, to 1e-8."""
    _, _, kit, consts = hyper_setup
    A = PerturbA(0.5 * consts.delta1, 0.3 * consts.delta1, 0.2 * consts.delta1)
    f2, _, beta = build_GA(kit, consts, A)
    lo = consts.delta_profile.support[0]
    hi = consts.Delta_profile.support[1]
    ts = np.linspace(lo, hi, 101)
    base = magnetic_curvature(torus, sin_field, kit.traj, ts)
    pert = magnetic_curvature(torus, f2, kit.traj, ts)
    assert np.abs(pert - (base - beta(ts))).max() <= 1e-8


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
    """The perturbed field, evaluated with its perturbation, is exact and
    integrates to the base field's integral."""
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
    Z = kit.response_derivative(PerturbA(0, 0, 0))
    assert np.linalg.norm(Z, 2) == 0.0  # 0 >= 0 trivially


def test_surjectivity_sphere_targets(hyper_setup):
    _, _, kit, consts = hyper_setup
    rep = verify_ball_surjectivity(kit, consts, n_targets=4, mode="sphere",
                                   seed=0)
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


def test_surjectivity_counts_targets_below_the_floor(hyper_setup):
    """Every sphere target sits within the stop floor 32 eps |S0|_F of S0,
    so it is 'solved' at A = 0 without a Newton step; every forward target
    lies beyond the floor and takes steps."""
    _, _, kit, consts = hyper_setup
    sph = verify_ball_surjectivity(kit, consts, n_targets=8, mode="sphere",
                                   seed=0)
    fwd = verify_ball_surjectivity(kit, consts, n_targets=4, mode="forward",
                                   seed=0)
    assert (sph.below_floor, fwd.below_floor) == (8, 0)
    assert [d["newton_steps"] for d in sph.details] == [0] * 8
    assert all(d["A_norm"] == 0.0 and d["residual"] == d["dist"]
               for d in sph.details)
    assert all(d["newton_steps"] >= 1 for d in fwd.details)
    assert asdict(sph)["below_floor"] == 8


def test_surjectivity_newton_propagates_no_response_twice(hyper_setup,
                                                          monkeypatch):
    """The Newton starts from S0 and ends on its last iterate's S, so no A
    is propagated twice in a row and A = 0 once; each value it reuses is ==
    to a fresh response at its A."""
    _, _, kit, consts = hyper_setup

    def S_of(Avec):
        return kit.response(PerturbA(*Avec))

    assert np.array_equal(S_of(np.zeros(3)), S_of((0.0, 0.0, 0.0)))
    seen_A, seen_S = [], []
    real_response = kit.response

    def response(A=None):
        seen_A.append((A.a, A.b, A.c))
        seen_S.append(real_response(A))
        return seen_S[-1]

    for mode in ("sphere", "forward"):
        seen_A.clear()
        seen_S.clear()
        with monkeypatch.context() as m:
            m.setattr(kit, "response", response)
            rep = verify_ball_surjectivity(kit, consts, n_targets=2, mode=mode,
                                           seed=5)
        assert rep.solved == rep.targets == 2
        assert len(seen_A) == len(seen_S)
        assert all(a != b for a, b in zip(seen_A, seen_A[1:]))
        assert seen_A.count((0.0, 0.0, 0.0)) == 1  # S0
        for Avec, S in zip(seen_A, seen_S):
            assert np.array_equal(S, S_of(Avec))
    assert len(seen_A) > 10  # the forward targets take Newton steps


# -- segment decomposition -----------------------------------------------------------


def test_segment_split_arithmetic(hyper_setup, torus, sin_field):
    orb, split, _, _ = hyper_setup
    K = injectivity_time(torus, sin_field, 0.5)
    assert split.n == math.ceil(orb.period / K)
    assert K / 2.0 < split.t0 <= K
    assert split.n * split.t0 == pytest.approx(orb.period)


def test_segment_split_single_segment(torus, zero_field, tight_options):
    """T_theta = K gives n = 1."""
    orb = find_closed_orbit(torus, zero_field, 1.0 / 8.0,
                            PhasePoint(0, 0.2, 0.3, 1.0, 0.0), **orbit_search())
    # c = 1/8: K = min(1, i/(2c)) = min(1, 2) = 1... period at speed 1/2 is 2
    K = injectivity_time(torus, zero_field, orb.c)
    split = segment_split(orb, 0.02, tight_options)
    assert split.t0 <= K and split.t0 > K / 2


def test_segment_split_inconsistent_period(hyper_setup, torus, sin_field,
                                           tight_options):
    orb, _, _, _ = hyper_setup
    import copy

    fake = copy.copy(orb)
    fake.period = 0.05  # below K/2: impossible for a closed orbit
    with pytest.raises(DataInconsistencyError):
        segment_split(fake, 0.02, tight_options)


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
        tr = flow(torus, charts[i].field, orb.initial_state, orb.period,
                  IntegratorOptions())
        cores.append(np.array([[tr.state(t).x, tr.state(t).y] for t in ts]))
    for i, chart in enumerate(charts):
        pts = []
        for t in np.linspace(0.35 * split.t0, 0.65 * split.t0, 32):
            for u in (-0.5 * chart.eps0, 0.5 * chart.eps0):
                pts.append(psi(chart, t, u))
        pts = np.array(pts)
        for j in range(split.n):
            if j == i:
                continue
            d = pts[:, None, :] - cores[j][None, :, :]
            d = d - np.round(d)
            assert np.sqrt(np.einsum("ijk,ijk->ij", d, d)).min() > 0.0


def test_split_tube_matches_build_tubular_chart(hyper_setup, torus, sin_field,
                                                tight_options):
    """Where clearance does not bind, segment i's tube is the one
    build_tubular_chart gives from its start state: same width, length and
    core samples."""
    _, split, _, _ = hyper_setup
    for i in range(split.n):
        tube = split.tube(i)
        want = build_tubular_chart(torus, sin_field, split.start_states[i],
                                   split.t0, 0.02, tight_options)
        assert tube.eps0 == want.eps0 == 0.02
        assert tube.T == want.T == split.t0
        for name in ("_ts", "_pos", "_f0"):
            assert np.array_equal(getattr(tube, name), getattr(want, name))


def test_split_tube_halves_until_clear(hyper_setup, torus, sin_field,
                                       tight_options, caplog):
    """A width whose mid-segment patch comes within 1.5 widths of another
    segment's core is halved until it clears."""
    orb, _, _, _ = hyper_setup
    split = segment_split(orb, 0.2, tight_options)
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


def test_franks_stage_builds_one_window(monkeypatch, tmp_path):
    """The bundled franks_verify stage computes the constants of two
    segments, but only segment 0's kit responds, so exactly one window is
    built, on that kit's first response."""
    import maglab
    import maglab.franks as franks

    built = []
    set_window = franks.FranksKit.set_window

    def counted(self, consts):
        built.append(consts)
        return set_window(self, consts)

    monkeypatch.setattr(franks.FranksKit, "set_window", counted)
    path = os.path.join(os.path.dirname(maglab.__file__), "scenarios",
                        "franks_verify.json")
    code, reports = run_scenario(load_scenario(path), out_dir=str(tmp_path))
    assert code == 0
    assert len(reports["franks-verify"]["constants_by_segment"]) == 2
    assert len(built) == 1
