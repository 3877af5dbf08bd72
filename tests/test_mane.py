import copy
import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize

from maglab.dynamics import IntegratorOptions
from maglab.errors import DataInconsistencyError, UnsupportedSurfaceError
from maglab.geometry import PhasePoint
from maglab.field import MagneticField, ConstantField, SinusoidalTorusField
from maglab.mane import (
    _fourier_tables,
    _mode_numbers,
    _nelder_mead,
    _shape_functional,
    CircleLoop,
    ConstantForm,
    FourierLoop,
    LagrangianSpec,
    SinPrimitiveForm,
    estimate_critical_value,
    loop_action,
    rotation_vector,
    verify_witness,
)
from maglab.orbits import find_closed_orbit


@pytest.fixture(scope="module")
def lag_zero(torus):
    return LagrangianSpec(torus, ConstantForm(0.0, 0.0))


@pytest.fixture(scope="module")
def lag_sin(torus):
    return LagrangianSpec(torus, SinPrimitiveForm(1.0, (1, 0)))


def _fresh_sample(period, coeffs, n):
    """FourierLoop.sample's arithmetic with the tables built on the spot."""
    t = np.arange(n) * (period / n)
    M = (coeffs.shape[1] - 1) // 2
    ang = 2.0 * math.pi * np.outer(np.arange(1, M + 1), t / period)
    cos = np.cos(ang)
    sin = np.sin(ang)
    pos = np.empty((2, n))
    vel = np.empty((2, n))
    w = 2.0 * math.pi / period
    for c in range(2):
        a = coeffs[c, 1:M + 1]
        b = coeffs[c, M + 1:]
        pos[c] = coeffs[c, 0] + a @ cos + b @ sin
        vel[c] = (-a * np.arange(1, M + 1)) @ sin * w + (b * np.arange(1, M + 1)) @ cos * w
    return t, pos, vel


@given(period=st.floats(1e-3, 1e4), n=st.integers(1, 700),
       modes=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_cached_tables_match_fresh(period, n, modes, seed):
    coeffs = np.random.default_rng(seed).standard_normal((2, 2 * modes + 1))
    loop = FourierLoop(period, coeffs)
    want = _fresh_sample(float(period), coeffs, n)
    for _ in range(2):          # cold (or evicted) and then warm
        got = loop.sample(n)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def test_cached_tables_read_only():
    """Every caller gets the same cached arrays, so none may write to them."""
    t, _, _ = FourierLoop(1.0, np.ones((2, 5))).sample(64)
    _, cos, sin = _fourier_tables(1.0, 64, 2)
    e1, e2 = ConstantForm(0.7, 0.1).components(t, t)
    for arr in (t, cos, sin, *_mode_numbers(2), e1, e2):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_loop_action_cold_and_warm(lag_sin):
    loop = FourierLoop(0.8, 0.1 * np.random.default_rng(5).standard_normal((2, 17)))
    _fourier_tables.cache_clear()
    cold = loop_action(lag_sin, loop, 0.3)
    hits = _fourier_tables.cache_info().hits
    warm = loop_action(lag_sin, loop, 0.3)
    assert _fourier_tables.cache_info().hits == hits + 1
    assert cold == warm


def test_lagrangian_torus_only(unit_sphere):
    with pytest.raises(UnsupportedSurfaceError):
        LagrangianSpec(unit_sphere, ConstantForm(0.0, 0.0))


def test_induced_intensity_matches_field(torus, lag_sin, sin_field):
    """d eta = f on a 64 x 64 grid (lam = 1 on the flat torus)."""
    g = np.linspace(0.0, 1.0, 64, endpoint=False)
    X, Y = np.meshgrid(g, g)
    mine = lag_sin.eta.curl(X.ravel(), Y.ravel())
    theirs = np.array([sin_field.value(0, x, y) for x, y in zip(X.ravel(), Y.ravel())])
    assert np.max(np.abs(mine - theirs)) <= 1e-8


def test_circle_action_closed_form(lag_zero):
    r, speed, k = 0.2, 1.5, 0.3
    T = 2.0 * math.pi * r / speed
    a = loop_action(lag_zero, CircleLoop((0.5, 0.5), r, T), k)
    assert a == pytest.approx(0.5 * speed**2 * T + k * T, rel=1e-12)


def test_rest_loop_action(lag_zero):
    loop = CircleLoop((0.3, 0.3), 0.0, 2.0)
    for k in (0.0, 0.4, 1.0):
        assert loop_action(lag_zero, loop, k) == pytest.approx(k * 2.0, abs=1e-14)


def test_closed_form_contributes_nothing(torus):
    """Stokes: a closed 1-form integrates to zero over contractible loops."""
    lag = LagrangianSpec(torus, ConstantForm(0.8, -0.3))
    lag0 = LagrangianSpec(torus, ConstantForm(0.0, 0.0))
    rng = np.random.default_rng(2)
    for _ in range(5):
        coeffs = 0.1 * rng.standard_normal((2, 7))
        loop = FourierLoop(1.3, coeffs)
        assert loop_action(lag, loop, 0.2) == pytest.approx(
            loop_action(lag0, loop, 0.2), abs=1e-8)


def test_action_affine_in_k(lag_sin):
    loop = CircleLoop((0.25, 0.5), 0.2, 1.7)
    a0 = loop_action(lag_sin, loop, 0.0)
    a1 = loop_action(lag_sin, loop, 1.0)
    a2 = loop_action(lag_sin, loop, 2.0)
    assert a1 - a0 == pytest.approx(loop.period, rel=1e-12)
    assert a2 - a1 == pytest.approx(loop.period, rel=1e-12)


def test_gauge_property(torus, lag_sin):
    """Adding a closed form to eta moves no null-homologous action."""
    gauged = LagrangianSpec(torus, _Sum(lag_sin.eta, ConstantForm(0.5, 0.2)))
    rng = np.random.default_rng(4)
    for _ in range(5):
        loop = FourierLoop(0.9, 0.15 * rng.standard_normal((2, 5)))
        assert loop_action(gauged, loop, 0.1) == pytest.approx(
            loop_action(lag_sin, loop, 0.1), abs=1e-9)


class _Sum:
    def __init__(self, f1, f2):
        self.f1, self.f2 = f1, f2

    def components(self, xs, ys):
        a1, a2 = self.f1.components(xs, ys)
        b1, b2 = self.f2.components(xs, ys)
        return a1 + b1, a2 + b2

    def curl(self, xs, ys):
        return self.f1.curl(xs, ys) + self.f2.curl(xs, ys)


def test_bracket_closed_form(torus):
    lag = LagrangianSpec(torus, ConstantForm(0.7, 0.0))
    br = estimate_critical_value(lag, k_range=(-0.25, 1.0), bisection_tol=1e-4,
                                 restarts=6, maxiter=150)
    assert br.c_lo <= 0.0 <= br.c_hi
    assert br.c_hi - br.c_lo <= 2e-4
    assert br.witness_action < 0.0
    assert verify_witness(lag, br) < 0.0


def test_bracket_logs(lag_zero, caplog):
    with caplog.at_level(logging.DEBUG, logger="maglab.mane"):
        br = estimate_critical_value(lag_zero, k_range=(-0.25, 1.0),
                                     bisection_tol=1e-1, restarts=2, maxiter=50)
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert info == [f"critical value bracket [{br.c_lo:.12g}, {br.c_hi:.12g}] "
                    f"after {br.effort['bisection_steps']} searches "
                    f"(witness action {br.witness_action:.6g})"]
    steps = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(steps) == br.effort["bisection_steps"] - 2
    assert all("witness" in r.getMessage() for r in steps)


def test_bracket_zero_form(lag_zero):
    br = estimate_critical_value(lag_zero, k_range=(-0.25, 1.0),
                                 bisection_tol=1e-4, restarts=4, maxiter=100)
    assert br.c_lo <= 0.0 <= br.c_hi
    assert br.c_hi - br.c_lo <= 2e-4


def test_bracket_sin_field(lag_sin):
    br = estimate_critical_value(lag_sin, k_range=(-0.25, 1.0),
                                 bisection_tol=1e-3, restarts=8, maxiter=200)
    assert br.c_lo > 0.0        # flux through a disk beats the length cost
    assert br.c_lo <= br.c_hi
    assert verify_witness(lag_sin, br) < 0.0


def test_bracket_requires_bracketing(lag_zero):
    with pytest.raises(ValueError):
        estimate_critical_value(lag_zero, k_range=(0.1, 1.0), restarts=2,
                                maxiter=50)


_RV_OPTIONS = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-12)


def test_rotation_vector_geodesic(torus, zero_field):
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.1, 0.2, 1.0, 0.0))
    rv = rotation_vector(torus, zero_field, orb, _RV_OPTIONS)
    assert rv.homology == (1, 0)
    assert rv.rho[0] == pytest.approx(1.0, rel=1e-9)
    assert rv.rho[1] == 0.0


def test_rotation_vector_contractible(torus):
    """A small magnetic circle winds (0, 0)."""
    fld = MagneticField(ConstantField(4.0))
    orb = find_closed_orbit(torus, fld, 0.5, PhasePoint(0, 0.5, 0.5, 1.0, 0.0))
    rv = rotation_vector(torus, fld, orb, _RV_OPTIONS)
    assert rv.homology == (0, 0)
    assert orb.period == pytest.approx(2.0 * math.pi / 4.0, abs=1e-8)


def test_rotation_vector_minimal_period(torus, zero_field):
    """Subdivision check prevents reporting (2, 0) / 2T."""
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.7, 0.1, 1.0, 0.0))
    rv = rotation_vector(torus, zero_field, orb, _RV_OPTIONS)
    assert rv.homology == (1, 0) and rv.period == pytest.approx(1.0, abs=1e-10)


def test_rotation_vector_non_integral_winding_is_typed(torus, zero_field):
    """Half a period winds (1/2, 0): a DataInconsistencyError, which a stage
    reports as a numerical failure."""
    orb = copy.copy(find_closed_orbit(torus, zero_field, 0.5,
                                      PhasePoint(0, 0.1, 0.2, 1.0, 0.0)))
    orb.period *= 0.5
    with pytest.raises(DataInconsistencyError, match="winding not integral"):
        rotation_vector(torus, zero_field, orb, _RV_OPTIONS)


def test_rotation_vector_torus_only(unit_sphere, zero_field, tight_options):
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    orb = find_closed_orbit(unit_sphere, zero_field, 0.5,
                            PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / lam),
                            max_time=20.0, options=tight_options)
    with pytest.raises(UnsupportedSurfaceError):
        rotation_vector(unit_sphere, zero_field, orb, _RV_OPTIONS)


# -- the Nelder-Mead transcription against scipy's ------------------------------------


def _assert_matches_scipy(func, x0, maxiter):
    """_nelder_mead and scipy's Nelder-Mead, on the options the loop search
    passes, end on the same vertex, value, iteration and evaluation counts."""
    x, fun, nit, nfev = _nelder_mead(func, x0, maxiter, xatol=1e-9, fatol=1e-13)
    res = minimize(func, x0, method="Nelder-Mead",
                   options={"maxiter": maxiter, "xatol": 1e-9, "fatol": 1e-13})
    assert np.array_equal(x, res.x)
    assert fun == res.fun
    assert (nit, nfev) == (res.nit, res.nfev)


def _quadratic(x):
    w = np.arange(1.0, len(x) + 1.0)
    return float(np.sum(w * (x - 0.3) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _flat(x):
    # every vertex ties, so each iteration shrinks and the sorts meet ties only
    return 1.0


@given(objective=st.sampled_from([_quadratic, _rosenbrock, _flat]),
       dim=st.integers(2, 34), seed=st.integers(0, 2**32 - 1),
       maxiter=st.sampled_from([1, 2, 5, 200]))
def test_nelder_mead_matches_scipy(objective, dim, seed, maxiter):
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(dim)
    x0[rng.random(dim) < 0.25] = 0.0    # zero entries take the zdelt step
    _assert_matches_scipy(objective, x0, maxiter)


@given(k=st.floats(0.0, 1.0), modes=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), maxiter=st.sampled_from([1, 2, 5, 200]),
       sin_eta=st.booleans())
def test_nelder_mead_matches_scipy_on_loop_functional(torus, k, modes, seed,
                                                     maxiter, sin_eta):
    """The speed-optimized loop functional from a start drawn as the loop
    search draws its restarts."""
    eta = SinPrimitiveForm(1.0, (1, 0)) if sin_eta else ConstantForm(0.7, 0.0)
    lag = LagrangianSpec(torus, eta)

    def objective(vec):
        loop = FourierLoop(1.0, vec.reshape(2, 2 * modes + 1))
        return _shape_functional(lag, loop, k, 256)[0]

    rng = np.random.default_rng(seed)
    coeffs0 = np.zeros((2, 2 * modes + 1))
    coeffs0[:, 0] = rng.uniform(0.0, 1.0, 2)
    amp = rng.uniform(0.02, 0.3)
    coeffs0[0, 1] = amp
    coeffs0[1, modes + 1] = amp
    coeffs0[:, 1:] += 0.1 * amp * rng.standard_normal((2, 2 * modes))
    _assert_matches_scipy(objective, coeffs0.ravel(), maxiter)
