"""The DP5(4) stepper against a reference step written from the tableau.

The reference forms every stage, the solution, the error estimate and the
interpolant coefficients as sums over the tables `_A`, `_B`, `_E` and `_P`,
zero entries included.  `integrate` must reproduce it bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from maglab.integrate import (
    _A, _B, _C, _E, _P, DenseStep, _error_norm, _initial_step, integrate,
)


def _fold(terms):
    """Left-to-right sum starting from integer 0.

    This is how builtins.sum adds floats up to Python 3.11; from 3.12 it
    compensates float sums, so it is not used as the reference here.
    """
    acc = 0
    for x in terms:
        acc = acc + x
    return acc


def reference_step(rhs, t, y, h):
    """One DP5(4) step: (y1, err, dense coefficients d[c][j])."""
    n = len(y)
    ks = [rhs(t, y)]
    for i in range(1, 6):
        yi = tuple(y[c] + h * _fold(_A[i][j] * ks[j][c] for j in range(i))
                   for c in range(n))
        ks.append(rhs(t + _C[i] * h, yi))
    y1 = tuple(y[c] + h * _fold(_B[j] * ks[j][c] for j in range(6))
               for c in range(n))
    ks.append(rhs(t + h, y1))
    err = tuple(h * _fold(_E[j] * ks[j][c] for j in range(7)) for c in range(n))
    d = tuple(tuple(_fold(_P[i][j] * ks[i][c] for i in range(7)) for j in range(4))
              for c in range(n))
    return y1, err, d


def reference_eval(t0, h, y0, d, t):
    th = (t - t0) / h
    th2 = th * th
    p = (th, th2, th2 * th, th2 * th2)
    return tuple(y + h * (dc[0] * p[0] + dc[1] * p[1] + dc[2] * p[2] + dc[3] * p[3])
                 for y, dc in zip(y0, d))


def reference_run(rhs, t0, y0, t_final, rtol, atol):
    """Accepted step end times and the final state under integrate's controller."""
    y, t = tuple(y0), t0
    h = _initial_step(rhs, t0, y, rhs(t, y), rtol, atol, t_final)
    h = min(h, t_final - t0)
    times = []
    while t < t_final:
        h = min(h, t_final - t)
        y1, err, _ = reference_step(rhs, t, y, h)
        enorm = _error_norm(err, y, y1, rtol, atol)
        if not enorm <= 1.0:
            h *= max(0.2, 0.9 * enorm ** (-0.2))
            continue
        t = t + h
        times.append(t)
        y = y1
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.2)))
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
    """(rhs, y0) for a linear or nonlinear system in dimension 1, 4 or 10."""
    n = draw(st.sampled_from([1, 4, 10]))
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
    sol = integrate(rhs, t0, y0, t0 + h, rtol=1.0, atol=1.0, first_step=h)
    assert (sol.n_accepted, sol.n_rejected) == (1, 0)
    h = min(h, (t0 + h) - t0)  # the step integrate takes to land on t_final
    y1, _, d = reference_step(rhs, t0, y0, h)
    step = sol.steps[0]
    assert step.h == h
    assert sol.y_end == y1
    for th in thetas:
        t = t0 + th * h
        assert step.eval(t) == reference_eval(t0, h, y0, d, t)


@given(systems(), st.floats(0.0, 1.0))
def test_adaptive_run_matches_reference(system, t0):
    rhs, y0 = system
    rtol, atol = 1e-8, 1e-10
    sol = integrate(rhs, t0, y0, t0 + 1.0, rtol=rtol, atol=atol)
    times, y_end = reference_run(rhs, t0, y0, t0 + 1.0, rtol, atol)
    assert [s.t1 for s in sol.steps] == times
    assert sol.y_end == y_end


def test_solution_eval_derivative_rejects_out_of_range():
    sol = integrate(lambda t, y: (math.cos(t),), 0.0, (0.0,), 1.0)
    with pytest.raises(ValueError):
        sol.eval_derivative(sol.t_end + 1.0)
    with pytest.raises(ValueError):
        sol.eval_derivative(sol.t0 - 1.0)
    # within the slack the time is clamped onto the end of the solution
    assert sol.eval_derivative(sol.t_end * (1 + 1e-14)) == \
        sol.eval_derivative(sol.t_end)


@given(st.integers(2, 10).flatmap(lambda n: st.tuples(
    st.lists(coord, min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n),
             min_size=7, max_size=7))),
    st.floats(-3.0, 3.0), st.floats(1e-3, 0.5),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
def test_eval_position_is_eval_prefix(data, t0, h, thetas):
    """eval_position(t) is eval(t)[:2], bit for bit, on any step."""
    y0, ks = data
    step = DenseStep(t0, h, tuple(y0), tuple(y0), tuple(tuple(k) for k in ks))
    for th in thetas + [0.0, 1.0]:
        t = t0 + th * h
        assert step.eval_position(t) == step.eval(t)[:2]


@given(systems(), st.lists(st.floats(-0.01, 1.01), max_size=30))
def test_eval_many_matches_eval(system, fracs):
    """eval_many over an array of times is == to eval at each time, step
    ends and the clamp slack included; beyond the slack it raises alike."""
    rhs, y0 = system
    sol = integrate(rhs, 0.0, y0, 1.0, rtol=1e-8, atol=1e-10)
    ts = [s.t0 for s in sol.steps] + [s.t1 for s in sol.steps]
    ts += [sol.t_end * (1 + 1e-13), -1e-13] + fracs
    eps = 1e-12 * max(1.0, abs(sol.t_end))
    inside = [t for t in ts if sol.t0 - eps <= t <= sol.t_end + eps]
    cols = sol.eval_many(np.array(inside), range(len(y0)))
    want = [sol.eval(t) for t in inside]
    for c, col in enumerate(cols):
        assert col.tolist() == [w[c] for w in want]
    for t in set(ts) - set(inside):
        with pytest.raises(ValueError):
            sol.eval(t)
        with pytest.raises(ValueError):
            sol.eval_many(np.array([0.5, t]), (0,))


@given(systems(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
       st.sampled_from(["eval", "eval_position", "eval_many"]))
def test_rows_formed_on_use_agree_in_any_order(system, fracs, first):
    """A step forms the rows of components 2 and up on first use: eval,
    eval_derivative and eval_many are == whichever lookup ran first, and
    eval_derivative is the reference interpolant's derivative."""
    rhs, y0 = system
    n = len(y0)

    def run():
        return integrate(rhs, 0.0, y0, 1.0, rtol=1e-8, atol=1e-10)

    fresh, probed = run(), run()
    ts = [s.t0 + f * s.h for s in fresh.steps for f in fracs]
    if first == "eval":
        for t in ts:
            probed.eval(t)
    elif first == "eval_position" and n >= 2:
        for s in probed.steps:
            for f in fracs:
                s.eval_position(s.t0 + f * s.h)
    elif first == "eval_many":
        probed.eval_many(np.array(ts), range(n))
    for sol in (fresh, probed):
        assert [sol.eval(t) for t in ts] == [probed.eval(t) for t in ts]
        assert [sol.eval_derivative(t) for t in ts] == \
            [probed.eval_derivative(t) for t in ts]
    many = [col.tolist() for col in fresh.eval_many(np.array(ts), range(n))]
    assert many == [col.tolist() for col in probed.eval_many(np.array(ts), range(n))]
    step = fresh.steps[0]
    _, _, d = reference_step(rhs, step.t0, step.y0, step.h)
    for f in fracs:
        t = step.t0 + f * step.h
        th = (t - step.t0) / step.h
        q = (1.0, 2.0 * th, 3.0 * (th * th), 4.0 * (th * th) * th)
        assert step.eval_derivative(t) == tuple(
            dc[0] * q[0] + dc[1] * q[1] + dc[2] * q[2] + dc[3] * q[3] for dc in d)
