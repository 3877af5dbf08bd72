"""The DOP853 stepper against a reference step written from the tableau.

The reference forms every stage, the solution, both error estimates, the
dense stages and the interpolant rows as sums over the tables `_A`, `_B`,
`_E5`, `_E3` and `_P`, zero entries included.  `integrate` must reproduce it
bit for bit.
"""

import math
import traceback

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from maglab.dynamics import IntegratorOptions
from maglab.field import MagneticField, SinusoidalTorusField, ZonalSphereField
from maglab.geometry import PhasePoint, flat_torus, sphere
from maglab.integrate import (
    _A, _B, _C, _E3, _E5, _P, DenseStep, _initial_step, integrate,
)
import maglab.orbits as orbits

from oracles import reference_step_index
from stage_defaults import OPTIONS, orbit_search


def _fold(terms):
    """Left-to-right sum starting from integer 0.

    This is how builtins.sum adds floats up to Python 3.11; from 3.12 it
    compensates float sums, so it is not used as the reference here.
    """
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def _stage_arg(y, h, ks, row):
    """y + h * sum_j row[j] k_j, per component."""
    return tuple(y[c] + h * _fold(row[j] * ks[j][c] for j in range(len(row)))
                 for c in range(len(y)))


def reference_step(rhs, t, y, h):
    """One DOP853 step: (y1, (e5, e3), interpolant rows d[c][j]), with e5
    and e3 the unscaled error estimates."""
    n = len(y)
    ks = [rhs(t, y)]
    for i in range(1, 12):
        ks.append(rhs(t + _C[i] * h, _stage_arg(y, h, ks, _A[i])))
    y1 = _stage_arg(y, h, ks, _B)
    ks.append(rhs(t + h, y1))
    errs = tuple(tuple(_fold(e[j] * ks[j][c] for j in range(12)) for c in range(n))
                 for e in (_E5, _E3))
    for i in range(13, 16):
        ks.append(rhs(t + _C[i] * h, _stage_arg(y, h, ks, _A[i])))
    d = tuple(tuple(_fold(p[i] * ks[i][c] for i in range(16)) for p in _P)
              for c in range(n))
    return y1, errs, d


def reference_norm(errs, y, y1, h, rtol, atol):
    """|h| s5 / sqrt((s5 + 0.01 s3) n), s5 and s3 the sums of the squared
    scaled estimates; 0 when the root's argument is 0 (then s5 is 0, while
    0.01 s3 can underflow)."""
    sums = []
    for e in errs:
        rs = [x / (atol + rtol * (abs(b) if abs(b) > abs(a) else abs(a)))
              for x, a, b in zip(e, y, y1)]
        sums.append(_fold(r * r for r in rs))
    s5, s3 = sums
    d = (s5 + 0.01 * s3) * len(y)
    if d == 0.0:
        return 0.0
    return abs(h) * s5 / math.sqrt(d)


def reference_eval(t0, h, y0, d, t):
    """y0 + h*theta*(d0 + (1-theta)*(d1 + theta*(d2 + ...))), the factor
    of d_j's bracket theta for odd j and 1 - theta for even j."""
    th = (t - t0) / h
    u = 1.0 - th
    out = []
    for y, dc in zip(y0, d):
        acc = dc[6]
        for j in range(5, -1, -1):
            acc = dc[j] + (th if j % 2 else u) * acc
        out.append(y + h * (th * acc))
    return tuple(out)


def reference_run(rhs, t0, y0, t_final, rtol, atol):
    """Accepted step end times and the final state under integrate's controller."""
    y, t = tuple(y0), t0
    h = _initial_step(rhs, t0, y, rhs(t, y), rtol, atol, t_final)
    h = min(h, t_final - t0)
    times = []
    while t < t_final:
        h = min(h, t_final - t)
        y1, errs, _ = reference_step(rhs, t, y, h)
        enorm = reference_norm(errs, y, y1, h, rtol, atol)
        if not enorm <= 1.0:
            h *= max(0.2, 0.9 * enorm ** (-0.125))
            continue
        t = t + h
        times.append(t)
        y = y1
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.125)))
        h = h * factor
    return times, y


def linear_rhs(m):
    n = len(m)
    return lambda t, y: tuple(_fold(m[r][c] * y[c] for c in range(n)) for r in range(n))


def nonlinear_rhs(t, y):
    n = len(y)
    return tuple(math.sin(t + y[(c + 1) % n]) - 0.3 * y[c] * y[c - 1]
                 for c in range(n))


coord = st.floats(-2.0, 2.0)


@st.composite
def systems(draw):
    """(rhs, y0) for a linear or nonlinear system in dimension 1, 3, 4 or 10."""
    n = draw(st.sampled_from([1, 3, 4, 10]))
    y0 = tuple(draw(st.lists(coord, min_size=n, max_size=n)))
    if draw(st.booleans()):
        row = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
        return linear_rhs(draw(st.lists(row, min_size=n, max_size=n))), y0
    return nonlinear_rhs, y0


@given(systems(), st.floats(-3.0, 3.0), st.floats(1e-3, 0.2),
       st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_single_step_matches_reference(system, t0, h, thetas):
    rhs, y0 = system
    # loose tolerances so the one step is accepted
    sol = integrate(rhs, t0, y0, t0 + h, rtol=1.0, atol=1.0,
                    max_step=OPTIONS.max_step, first_step=h)
    assert (sol.n_accepted, sol.n_rejected) == (1, 0)
    h = min(h, (t0 + h) - t0)  # the step integrate takes to land on t_final
    y1, _, d = reference_step(rhs, t0, y0, h)
    step = sol.steps[0]
    assert step.h == h
    assert sol.y_end == y1
    for th in thetas:
        t = t0 + th * h
        assert step.eval(t) == reference_eval(t0, h, y0, d, t)


# a tiny state makes e5 exactly 0 while 0.01 e3 underflows: enorm is 0
TINY = 2.708898894882621e-162


@given(systems(), st.floats(0.0, 1.0))
@example((linear_rhs([[1.0]]), (TINY,)), 0.0)
@example((linear_rhs([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
          (0.0, 0.0, TINY)), 0.0)
def test_adaptive_run_matches_reference(system, t0):
    rhs, y0 = system
    rtol, atol = 1e-8, 1e-10
    sol = integrate(rhs, t0, y0, t0 + 1.0, rtol=rtol, atol=atol,
                    max_step=OPTIONS.max_step)
    times, y_end = reference_run(rhs, t0, y0, t0 + 1.0, rtol, atol)
    assert [s.t1 for s in sol.steps] == times
    assert sol.y_end == y_end


@given(st.integers(2, 10).flatmap(lambda n: st.tuples(
    st.lists(coord, min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
             min_size=16, max_size=16))),
    st.floats(-3.0, 3.0), st.floats(1e-3, 0.5),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_eval_position_is_eval_prefix(data, t0, h, thetas):
    """eval_position(t) is eval(t)[:2], bit for bit, on any step."""
    y0, ks = data
    step = DenseStep(t0, h, tuple(y0), tuple(y0), tuple(tuple(k) for k in ks))
    for th in thetas + [0.0, 1.0]:
        t = t0 + th * h
        assert step.eval_position(t) == step.eval(t)[:2]


def _eval(sol, t):
    """The state at a time in [t0, t_end], from the step `_index` picks."""
    return sol.steps[sol._index(t)].eval(t)


def _eval_many(sol, ts, n):
    """Components 0..n-1 at a list of times in [t0, t_end], in the steps
    `_index` picks."""
    t = np.array(ts)
    return sol.eval_many(t, sol._index(t), range(n))


@given(systems(), st.lists(st.floats(-0.01, 1.01), max_size=30))
def test_eval_many_matches_eval(system, fracs):
    """eval_many over an array of clamped times in their steps is == to the
    step's eval at each time, step ends and the clamp slack included, and
    `_index` of a number picks the step of the reference search."""
    rhs, y0 = system
    sol = integrate(rhs, 0.0, y0, 1.0, rtol=1e-8, atol=1e-10,
                    max_step=OPTIONS.max_step)
    ts = [s.t0 for s in sol.steps] + [s.t1 for s in sol.steps]
    ts += [sol.t_end * (1 + 1e-13), -1e-13] + fracs
    eps = 1e-12 * max(1.0, abs(sol.t_end))
    inside = [t for t in ts if sol.t0 - eps <= t <= sol.t_end + eps]
    clamped = [min(max(t, sol.t0), sol.t_end) for t in inside]
    t = np.array(clamped)
    cols = sol.eval_many(t, sol._index(t), range(len(y0)))
    assert [sol._index(t) for t in clamped] == \
        [reference_step_index(sol.steps, t) for t in clamped]
    want = [_eval(sol, t) for t in clamped]
    for c, col in enumerate(cols):
        assert col.tolist() == [w[c] for w in want]


@given(systems(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       st.sampled_from(["eval", "eval_position", "eval_many"]))
def test_rows_formed_on_use_agree_in_any_order(system, fracs, first):
    """A step forms the rows of components 2 and up on first use: eval and
    eval_many are == whichever lookup ran first, and eval is the reference
    interpolant."""
    rhs, y0 = system
    n = len(y0)

    def run():
        return integrate(rhs, 0.0, y0, 1.0, rtol=1e-8, atol=1e-10,
                         max_step=OPTIONS.max_step)

    fresh, probed = run(), run()
    ts = [s.t0 + f * s.h for s in fresh.steps for f in fracs]
    if first == "eval":
        for t in ts:
            _eval(probed, t)
    elif first == "eval_position" and n >= 2:
        for s in probed.steps:
            for f in fracs:
                s.eval_position(s.t0 + f * s.h)
    elif first == "eval_many":
        _eval_many(probed, ts, n)
    for sol in (fresh, probed):
        assert [_eval(sol, t) for t in ts] == [_eval(probed, t) for t in ts]
    many = [col.tolist() for col in _eval_many(fresh, ts, n)]
    assert many == [col.tolist() for col in _eval_many(probed, ts, n)]
    step = fresh.steps[0]
    _, _, d = reference_step(rhs, step.t0, step.y0, step.h)
    for f in fracs:
        t = step.t0 + f * step.h
        assert step.eval(t) == reference_eval(step.t0, step.h, step.y0, d, t)


def test_generated_step_shows_in_tracebacks():
    """A failure inside the generated step names it and shows its line."""
    def rhs(t, y):
        if t > 0.0:
            raise RuntimeError("stage")
        return (1.0, 0.0, -1.0)

    with pytest.raises(RuntimeError) as info:
        integrate(rhs, 0.0, (0.0, 0.0, 0.0), 1.0, OPTIONS.rel_tol, OPTIONS.abs_tol,
                  OPTIONS.max_step, first_step=0.1)
    frames = [f for f in traceback.extract_tb(info.value.__traceback__)
              if f.filename == "<maglab dop853 step n=3>"]
    assert len(frames) == 1
    assert frames[0].line == "k2 = rhs(t + 0.05260015195876773 * h, (s0, s1, s2))"


@pytest.mark.parametrize("case", ["computed_first_step", "given_first_step",
                                  "observer_stop", "rejected_steps"])
def test_n_fev_counts_every_rhs_call(case):
    """n_fev is the number of RHS calls, and each call feeds a step: one k1
    at the start, one for the initial-step estimate when integrate computes
    the first step, twelve per trial step, three dense stages per accepted
    step and one k1 per accepted step that another step follows."""
    calls = []
    osc = linear_rhs([[0.0, 1.0], [-1.0, 0.0]])

    def rhs(t, y):
        calls.append(t)
        return osc(t, y)

    kwargs = {"first_step": 0.05}
    if case == "computed_first_step":
        kwargs = {}
    elif case == "observer_stop":
        kwargs["observer"] = lambda step: step.t1 < 0.3
    elif case == "rejected_steps":
        kwargs["first_step"] = 1.0  # far above what rtol 1e-10 accepts
    sol = integrate(rhs, 0.0, (1.0, 0.0), 2.0, OPTIONS.rel_tol, OPTIONS.abs_tol,
                    OPTIONS.max_step, **kwargs)
    assert sol.n_fev == len(calls)
    assert (sol.t_end < 2.0) == (case == "observer_stop")
    if case == "rejected_steps":
        assert sol.n_rejected > 0
    computed = "first_step" not in kwargs
    assert len(calls) == (1 + computed + 12 * (sol.n_accepted + sol.n_rejected)
                          + 3 * sol.n_accepted + sol.n_accepted - 1)


def test_tables_close_in_table_order():
    """Added in table order, as the generated step adds them, the weights
    sum to exactly 1, the first interpolant row (the weights again) to 1 and
    the other six rows to exactly 0; every stage's coefficients sum to its
    node within rounding."""
    assert _fold(x for x in _B if x != 0.0) == 1.0
    assert _P[0][:12] == _B and not any(_P[0][12:])
    for row in _P[1:]:
        assert _fold(x for x in row if x != 0.0) == 0.0
    for i in range(1, 16):
        assert abs(math.fsum(_A[i]) - _C[i]) <= 1e-15 * max(map(abs, _A[i]))
    assert _A[12] == _B and _C[12] == 1.0


def test_tables_transcribe_scipy_dop853():
    """The tables are scipy's DOP853 coefficients; only the closed entries
    (the last weight and each row's last entry) differ, by rounding."""
    coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert _C == tuple(coef.C.tolist())
    for i in range(16):
        want = tuple(coef.A[i, :i].tolist())
        if i != 12:
            assert _A[i] == want
    assert _B[:11] == tuple(coef.B[:11].tolist())
    assert abs(_B[11] - coef.B[11]) <= 1e-15
    assert _E5 == tuple(coef.E5[:12].tolist()) and coef.E5[12] == 0.0
    assert _E3 == tuple(coef.E3[:12].tolist()) and coef.E3[12] == 0.0
    b = np.zeros(16)
    b[:12] = coef.B
    e1, e13 = np.eye(16)[0], np.eye(16)[12]
    rows = np.vstack([b, e1 - b, 2.0 * b - e1 - e13, coef.D])
    for got, want in zip(_P, rows):
        assert np.abs(np.array(got) - want).max() <= 1e-13


def test_sphere_twist_return_takes_few_steps(monkeypatch):
    """One section return on sphere_twist's closed orbit, at its tolerances
    (rtol 1e-12, atol 1e-13), takes at most 60 accepted steps (DP5(4) took
    442)."""
    options = IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    orb = orbits.find_closed_orbit(
        sphere(1.0), MagneticField(ZonalSphereField(1.6)), 0.5,
        PhasePoint(0, 0.35, 0.0, 0.0, 0.5),
        **orbit_search(tol=1e-10, options=options, max_time=30.0))
    trajs = []
    real_flow = orbits.flow

    def recording_flow(*args, **kwargs):
        trajs.append(real_flow(*args, **kwargs))
        return trajs[-1]

    monkeypatch.setattr(orbits, "flow", recording_flow)
    orbits.first_return(orb.return_map.section, (0.0, 0.0), 30.0, options=options)
    assert len(trajs) == 1
    assert 0 < trajs[0].n_accepted <= 60


def test_hyperbolic_torus_monodromy_matches_closed_form():
    """franks_verify's hyperbolic orbit (x = 0, v = (0, -1) on the flat torus
    with f = sin 2 pi x, c = 1/2) has K_mag = -2 pi along its period 1, so
    its monodromy is [[cosh a, sinh a / a], [a sinh a, cosh a]], a =
    sqrt(2 pi).  At the default tolerances each entry of the shot orbit's is
    within 4e-11 of its closed form, relatively (3.3e-11; DP5(4) read
    6.5e-11, its diagonal 4.0e-10 off where this reads 2.0e-10)."""
    orb = orbits.find_closed_orbit(
        flat_torus(), MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0)), 0.5,
        PhasePoint(0, 0.0, 0.0, 0.0, -1.0), **orbit_search())
    a = math.sqrt(2.0 * math.pi)
    want = np.array([[math.cosh(a), math.sinh(a) / a],
                     [a * math.sinh(a), math.cosh(a)]])
    assert (np.abs(np.asarray(orb.monodromy) - want) / np.abs(want)).max() <= 4.0e-11
