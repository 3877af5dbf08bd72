import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import minimize

from maglab.errors import DataInconsistencyError, UnsupportedSurfaceError
from maglab.geometry import PhasePoint
from maglab.field import MagneticField, ConstantField, SinusoidalTorusField
import maglab.mane as mane
from maglab.mane import (
    _fourier_tables,
    _loop_functional,
    _negative_loop_search,
    _nelder_mead_lanes,
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

from stage_defaults import CRITICAL_VALUE, SEED, orbit_search


@pytest.fixture(scope="module")
def lag_zero(torus):
    return LagrangianSpec(torus, ConstantForm(0.0, 0.0))


@pytest.fixture(scope="module")
def lag_sin(torus):
    return LagrangianSpec(torus, SinPrimitiveForm(1.0, (1, 0)))


def _per_mode_sample(period, coeffs, n):
    """FourierLoop.sample summed mode by mode: nodes, positions, velocities."""
    t = np.arange(n) * (period / n)
    M = (coeffs.shape[1] - 1) // 2
    pos = np.repeat(coeffs[:, :1], n, axis=1)
    vel = np.zeros((2, n))
    for m in range(1, M + 1):
        c = np.cos(2.0 * math.pi * m * t / period)
        s = np.sin(2.0 * math.pi * m * t / period)
        a, b = coeffs[:, m:m + 1], coeffs[:, M + m:M + m + 1]
        pos += a * c + b * s
        vel += 2.0 * math.pi * m / period * (b * c - a * s)
    return t, pos, vel


@given(period=st.floats(1e-3, 1e4), n=st.integers(1, 700),
       modes=st.integers(0, 12), seed=st.integers(0, 2**16))
def test_cached_tables_match_fresh(period, n, modes, seed):
    """A cold (or evicted) and a warm sample are ==, and both agree with the
    mode-by-mode sum to rounding, which the table product sums in another
    order."""
    coeffs = np.random.default_rng(seed).standard_normal((2, 2 * modes + 1))
    loop = FourierLoop(period, coeffs)
    got = loop.sample(n)
    for g, w in zip(got, loop.sample(n)):
        assert np.array_equal(g, w)
    t, pos, vel = _per_mode_sample(float(period), coeffs, n)
    size = np.abs(coeffs).sum()
    assert np.array_equal(got[0], t)
    assert np.abs(got[1] - pos).max() <= 1e-12 * size
    assert np.abs(got[2] - vel).max() <= 1e-12 * size * 2.0 * math.pi * (modes + 1) / period


def test_cached_tables_read_only():
    """Every caller gets the same cached table, so none may write to it; the
    arrays FourierLoop.sample and ConstantForm.components return are the
    caller's own."""
    with pytest.raises(ValueError):
        _fourier_tables(64, 2)[0, 0] = 0.0
    loop = FourierLoop(1.0, np.ones((2, 5)))
    eta = ConstantForm(0.7, 0.1)
    xs = np.zeros(64)
    for arr in (*loop.sample(64), *eta.components(xs, xs)):
        arr.flat[0] = -1.0
    t, pos, vel = loop.sample(64)
    e1, e2 = eta.components(xs, xs)
    assert (t[0], pos[0, 0], e1[0], e2[0]) == (0.0, 3.0, 0.7, 0.1)
    assert vel[0, 0] == pytest.approx(6.0 * math.pi, rel=1e-15)


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
                                 seed=SEED, modes=CRITICAL_VALUE["modes"],
                                 restarts=6, maxiter=150)
    assert br.c_lo <= 0.0 <= br.c_hi
    assert br.c_hi - br.c_lo <= 2e-4
    assert br.witness_action < 0.0
    assert verify_witness(lag, br) < 0.0


def test_bracket_logs(lag_zero, caplog):
    with caplog.at_level(logging.DEBUG, logger="maglab.mane"):
        br = estimate_critical_value(lag_zero, k_range=(-0.25, 1.0),
                                     bisection_tol=1e-1, seed=SEED,
                                     modes=CRITICAL_VALUE["modes"], restarts=2, maxiter=50)
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert info == [f"critical value bracket [{br.c_lo:.12g}, {br.c_hi:.12g}] "
                    f"after {br.effort['bisection_steps']} searches "
                    f"(witness action {br.witness_action:.6g})"]
    steps = [r for r in caplog.records if r.levelno == logging.DEBUG]
    assert len(steps) == br.effort["bisection_steps"] - 2
    assert all("witness" in r.getMessage() for r in steps)


def test_bracket_zero_form(lag_zero):
    br = estimate_critical_value(lag_zero, k_range=(-0.25, 1.0),
                                 bisection_tol=1e-4, seed=SEED,
                                 modes=CRITICAL_VALUE["modes"], restarts=4, maxiter=100)
    assert br.c_lo <= 0.0 <= br.c_hi
    assert br.c_hi - br.c_lo <= 2e-4


def test_bracket_sin_field(lag_sin):
    br = estimate_critical_value(lag_sin, k_range=(-0.25, 1.0),
                                 bisection_tol=1e-3, seed=SEED,
                                 modes=CRITICAL_VALUE["modes"], restarts=8, maxiter=200)
    assert br.c_lo > 0.0        # flux through a disk beats the length cost
    assert br.c_lo <= br.c_hi
    assert verify_witness(lag_sin, br) < 0.0


def test_bracket_requires_bracketing(lag_zero):
    with pytest.raises(ValueError):
        estimate_critical_value(lag_zero, k_range=(0.1, 1.0),
                                bisection_tol=CRITICAL_VALUE["bisection_tol"], seed=SEED,
                                modes=CRITICAL_VALUE["modes"], restarts=2, maxiter=50)


def test_rotation_vector_geodesic(torus, zero_field):
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.1, 0.2, 1.0, 0.0),
                            **orbit_search())
    rv = rotation_vector(orb)
    assert rv.homology == (1, 0)
    assert rv.rho[0] == pytest.approx(1.0, rel=1e-9)
    assert rv.rho[1] == 0.0


def test_rotation_vector_contractible(torus):
    """A small magnetic circle winds (0, 0)."""
    fld = MagneticField(ConstantField(4.0))
    orb = find_closed_orbit(torus, fld, 0.5, PhasePoint(0, 0.5, 0.5, 1.0, 0.0),
                            **orbit_search())
    rv = rotation_vector(orb)
    assert rv.homology == (0, 0)
    assert orb.period == pytest.approx(2.0 * math.pi / 4.0, abs=1e-8)


def test_rotation_vector_minimal_period(torus, zero_field):
    """The search's period is the first return's transit time, so the line
    orbit reports (1, 0) over T = 1, not (2, 0) over a double cover."""
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.7, 0.1, 1.0, 0.0),
                            **orbit_search())
    rv = rotation_vector(orb)
    assert rv.homology == (1, 0) and rv.period == pytest.approx(1.0, abs=1e-10)


def test_rotation_vector_non_integral_winding_is_typed(torus, zero_field):
    """An end state half a turn past the start winds (1/2, 0): a
    DataInconsistencyError, which a stage reports as a numerical failure."""
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.1, 0.2, 1.0, 0.0),
                            **orbit_search())
    s = orb.initial_state
    orb = dataclasses.replace(orb, end_state=dataclasses.replace(s, x=s.x + 0.5))
    with pytest.raises(DataInconsistencyError, match="winding not integral"):
        rotation_vector(orb)


def test_rotation_vector_torus_only(unit_sphere, zero_field, tight_options):
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    orb = find_closed_orbit(unit_sphere, zero_field, 0.5,
                            PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / lam),
                            **orbit_search(max_time=20.0, options=tight_options))
    with pytest.raises(UnsupportedSurfaceError):
        rotation_vector(orb)


# -- the Nelder-Mead lanes against scipy's ---------------------------------------------


def _assert_lanes_match_scipy(func, starts, maxiter, batched=None):
    """Each lane of _nelder_mead_lanes and scipy's Nelder-Mead from that lane's
    start, on the options the loop search passes, end on the same vertex,
    value, iteration and evaluation counts.  Returns the lanes' nit and nfev."""
    if batched is None:
        def batched(points):
            return np.array([func(v) for v in points])
    xs, funs, nits, nfevs = _nelder_mead_lanes(batched, starts, maxiter,
                                               xatol=1e-9, fatol=1e-13)
    for x0, x, fun, nit, nfev in zip(starts, xs, funs, nits, nfevs):
        res = minimize(func, x0, method="Nelder-Mead",
                       options={"maxiter": maxiter, "xatol": 1e-9, "fatol": 1e-13})
        assert np.array_equal(x, res.x)
        assert fun == res.fun
        assert (nit, nfev) == (res.nit, res.nfev)
    return nits, nfevs


def _quadratic(x):
    w = np.arange(1.0, len(x) + 1.0)
    return float(np.sum(w * (x - 0.3) ** 2))


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def _flat(x):
    # every vertex ties, so each iteration shrinks and the sorts meet ties only
    return 1.0


@given(objective=st.sampled_from([_quadratic, _rosenbrock, _flat]),
       dim=st.integers(2, 34), lanes=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1), maxiter=st.sampled_from([1, 2, 5, 200]))
def test_nelder_mead_matches_scipy(objective, dim, lanes, seed, maxiter):
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((lanes, dim))
    starts[rng.random((lanes, dim)) < 0.25] = 0.0  # zero entries take the zdelt step
    _assert_lanes_match_scipy(objective, starts, maxiter)


@pytest.mark.parametrize("objective, starts, maxiter, nits", [
    (_quadratic, [[0.3, 0.3], [0.31, 0.29], [5.0, -4.0], [40.0, 25.0]], 90,
     [49, 52, 88, 90]),
    (_flat, [[0.4, -1.2, 0.0], [2.0, 0.5, 0.1], [1e3, 0.0, 0.0]], 90, [27, 28, 37]),
], ids=["quadratic", "flat"])
def test_nelder_mead_lanes_stop_on_their_own_tests(objective, starts, maxiter, nits):
    """Lanes that converge at different iterations leave the others running,
    and each still matches scipy; on the flat function every iteration
    shrinks (a reflection, an inside contraction and N shrunk vertices)."""
    got, nfevs = _assert_lanes_match_scipy(objective, np.array(starts), maxiter)
    assert list(got) == nits
    if objective is _flat:
        assert list(nfevs) == [4 + (nit - 1) * 5 for nit in nits]


def _search_starts(rng, lanes, modes):
    """Restart starts (lanes, 2 (2 modes + 1)), drawn as the loop search draws
    them."""
    starts = np.zeros((lanes, 2, 2 * modes + 1))
    for coeffs0 in starts:
        coeffs0[0, 0] = rng.uniform(0.0, 1.0)
        coeffs0[1, 0] = rng.uniform(0.0, 1.0)
        amp = rng.uniform(0.02, 0.3)
        coeffs0[0, 1] = amp
        coeffs0[1, modes + 1] = amp
        coeffs0[:, 1:] += 0.1 * amp * rng.standard_normal((2, 2 * modes))
    return starts.reshape(lanes, -1)


@given(k=st.floats(0.0, 1.0), modes=st.integers(1, 8), lanes=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1), maxiter=st.sampled_from([1, 2, 5, 200]),
       sin_eta=st.booleans())
def test_nelder_mead_matches_scipy_on_loop_functional(torus, k, modes, lanes, seed,
                                                     maxiter, sin_eta):
    """The speed-optimized loop functional from starts drawn as the loop
    search draws its restarts: the lanes minimize the batched functional,
    scipy the one-loop `_shape_functional` that decides a witness."""
    eta = SinPrimitiveForm(1.0, (1, 0)) if sin_eta else ConstantForm(0.7, 0.0)
    lag = LagrangianSpec(torus, eta)
    shape = (2, 2 * modes + 1)

    def objective(vec):
        return _shape_functional(lag, FourierLoop(1.0, vec.reshape(shape)), k, 256)[0]

    def batched(points):
        return _loop_functional(lag, points.reshape(-1, *shape), k, 256)

    starts = _search_starts(np.random.default_rng(seed), lanes, modes)
    _assert_lanes_match_scipy(objective, starts, maxiter, batched)


@pytest.mark.parametrize("sin_eta", [False, True])
def test_loop_functional_lane_value_alone_and_in_a_batch(torus, sin_eta):
    """A shape's value is the same in any batch, across the chunk boundary
    included, and == to `_shape_functional` of its period-1 FourierLoop, the
    number `realize` tests for its sign."""
    eta = SinPrimitiveForm(1.0, (1, 0)) if sin_eta else ConstantForm(0.7, 0.0)
    lag = LagrangianSpec(torus, eta)
    coeffs = _search_starts(np.random.default_rng(11), 2 * mane._BATCH + 3, 8)
    coeffs = coeffs.reshape(len(coeffs), 2, 17)
    for k in (0.0, 0.004, 0.3):
        batch = _loop_functional(lag, coeffs, k, 256)
        for i in (0, 1, mane._BATCH - 1, mane._BATCH, len(coeffs) - 1):
            alone = _loop_functional(lag, coeffs[i:i + 1], k, 256)
            one = _shape_functional(lag, FourierLoop(1.0, coeffs[i]), k, 256)[0]
            assert batch[i] == alone[0] == one


def _draws_left(seed, restarts, modes):
    """The state of an rng seeded with seed after `restarts` search draws."""
    rng = np.random.default_rng(seed)
    _search_starts(rng, restarts, modes)
    return rng.bit_generator.state


def test_loop_search_rng_when_no_lane_hits(lag_zero):
    """No witness at k > 0 for a closed form: every restart was drawn."""
    rng = np.random.default_rng(7)
    assert _negative_loop_search(lag_zero, 0.3, rng, 2, 5, 20) is None
    assert rng.bit_generator.state == _draws_left(7, 5, 2)


def test_loop_search_rng_when_an_early_lane_hits(lag_sin, monkeypatch):
    """Lanes 2 and 3 of 5 end on witness shapes (stubbed lane results): the
    search returns lane 2's, with the rng where a restart-by-restart loop
    stops, after three draws.  At k = 0.006 no circle or rounded rectangle
    gives a witness, so the search reaches the lanes."""
    k, modes, restarts = 0.006, 1, 5
    # ellipses over x in [0, 1/2], where the field is positive, 6 and 8 cells high
    tall = {r: np.array([[0.25, 0.25, 0.0], [0.5, 0.0, h]])
            for r, h in ((2, 3.0), (3, 4.0))}
    seen = []

    def lanes(func, starts, maxiter, xatol, fatol):
        seen.append(starts.copy())
        xs = starts.copy()
        funs = np.ones(restarts)
        for r, coeffs in tall.items():
            assert _shape_functional(lag_sin, FourierLoop(1.0, coeffs), k, 256)[0] < 0.0
            xs[r], funs[r] = coeffs.ravel(), -1.0
        return xs, funs, np.ones(restarts, int), np.ones(restarts, int)

    monkeypatch.setattr(mane, "_nelder_mead_lanes", lanes)
    rng = np.random.default_rng(7)
    loop, action = _negative_loop_search(lag_sin, k, rng, modes, restarts, 20)
    assert np.array_equal(seen[0], _search_starts(np.random.default_rng(7),
                                                  restarts, modes))
    assert np.array_equal(loop.coeffs, tall[2]) and action < 0.0
    assert rng.bit_generator.state == _draws_left(7, 3, modes)
