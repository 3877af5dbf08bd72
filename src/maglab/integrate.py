"""Embedded Dormand-Prince 5(4) integrator with dense output.

A hand-rolled stepper (rather than scipy's solve_ivp) because the flows here
need machinery solve_ivp does not expose: a per-step projection hook (energy
renormalization), step-by-step observation for section-event detection on the
dense interpolant, and mid-integration state surgery for chart switching.

State vectors are plain tuples of floats of any length (the flows use 4 and
10 components); tuple arithmetic beats numpy at this size.  The flows
guarantee it at their two entry points: `dynamics._run_flow` converts the
start state and the end time to Python floats, and `orbits.Section` its
anchor and the (s, R) it embeds.  A numpy float64 scalar that got in would
spread through every stage, step size and RHS evaluation, with the same
bits at about twice the cost per step.  A `DenseStep`
evaluates its interpolant with `eval(t)` (all components) or
`eval_position(t)` (components 0 and 1 only, the same operations), which is
what the section-crossing monitor samples.  The interpolant rows of
components 0 and 1 are formed when the step is accepted; those of the other
components (velocity, variational data) are formed by the first `eval` or
array lookup, from the same expressions, so most steps of a section return
never form them.  `Solution.eval(t)` and `eval_many(ts, comps)` pick the
step by one rule (`Solution._index`: `first_reaching` on cached step ends,
which form no rows); `eval_many` applies `DenseStep.eval`'s operations
elementwise in float64, from flat per-step arrays built on its first call.

The trial step (the six new stages, the solution, the error estimate and its
norm) is straight-line code generated per state dimension: `_step_source(n)`
writes it out component by component from the tables `_C`, `_A`, `_B` and
`_E`, and `_stepper(n)` compiles it on the first `integrate` call for that n
and caches it.  Its source is registered in linecache under
`<maglab dp54 step n=N>`, so tracebacks and profiles show its lines.  The
interpolant rows are written out over `_P` in `_row`.  The tables `_C`, `_A`,
`_B`, `_E` and `_P` are the one source of the coefficients: each expression
has its terms in the tables' order, with the zero terms left out.  The
reference step of tests/test_integrate.py, written as sums over the tables,
is the oracle: `integrate` must match it bit for bit, in dimensions no flow
uses too.  `_error_norm` is the norm as a loop, for `_initial_step`.
"""

from __future__ import annotations

import functools
import linecache
import math
from bisect import bisect_left

import numpy as np

from .errors import NonFiniteError, StiffnessError

__all__ = ["DenseStep", "Solution", "integrate"]

_MAX_STEPS = 10_000_000  # accepted steps before status "max_steps"

# Dormand-Prince 5(4) tableau.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
)
_B = (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0)
# b - b*  (error coefficients, applied to k1..k7)
_E = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# Dense-output polynomial coefficients (Shampine's 4th-order interpolant):
# y(t0 + theta*h) = y0 + h * sum_j theta^(j+1) * sum_i P[i][j]*k_i
_P = (
    (1.0, -2.8535800653862835, 3.0717434641059005, -1.1270175653862835),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 4.023133379230305, -6.249321565289, 2.675424484351598),
    (0.0, -3.7324019615885042, 10.068970589843675, -5.685526961588504),
    (0.0, 2.5548038301849423, -6.399112377351017, 3.5219323679207912),
    (0.0, -1.3744241142186024, 3.272657752246729, -1.7672812570757455),
    (0.0, 1.3824689317781436, -3.764937863556287, 2.382468931778144),
)

# The entries of P as module constants for the interpolant rows, named by
# stage (1-7) and power of theta (1-4).  The k2 row of P and the theta^1
# entries of the k3..k7 rows are zero; their terms are left out, which
# changes no finite result (x + 0.0 * k == x).
_P11, _P12, _P13, _P14 = _P[0]
(_P32, _P33, _P34), (_P42, _P43, _P44), (_P52, _P53, _P54), (_P62, _P63, _P64), (
    _P72, _P73, _P74) = (row[1:] for row in _P[2:])


def _row(a, c, d, e, f, g):
    """Interpolant coefficients (theta^1..theta^4) of one component from that
    component of k1 and k3..k7: d[j] = sum_i P[i][j] * k_i."""
    return (_P11 * a,
            _P12 * a + _P32 * c + _P42 * d + _P52 * e + _P62 * f + _P72 * g,
            _P13 * a + _P33 * c + _P43 * d + _P53 * e + _P63 * f + _P73 * g,
            _P14 * a + _P34 * c + _P44 * d + _P54 * e + _P64 * f + _P74 * g)


class DenseStep:
    """One accepted step with its quartic interpolant.

    ks holds the seven stage derivatives k1..k7 of the step.  The rows of
    the position components 0 and 1 are formed here.  The rows of the other
    components are formed on first use (`_rows`), from their components of
    k1 and k3..k7, which the step keeps until then.
    """

    __slots__ = ("t0", "t1", "h", "y0", "y1", "_d", "_ks")

    def __init__(self, t0, h, y0, y1, ks):
        self.t0 = t0
        self.h = h
        self.t1 = t0 + h
        self.y0 = y0
        self.y1 = y1
        k1, _, k3, k4, k5, k6, k7 = ks
        if len(k1) < 2:  # a one-component state has one row and no rest
            self._d = (_row(k1[0], k3[0], k4[0], k5[0], k6[0], k7[0]),)
            self._ks = None
            return
        self._d = (_row(k1[0], k3[0], k4[0], k5[0], k6[0], k7[0]),
                   _row(k1[1], k3[1], k4[1], k5[1], k6[1], k7[1]))
        # None when there is no component past the position
        self._ks = (k1[2:] + k3[2:] + k4[2:] + k5[2:] + k6[2:] + k7[2:]) or None

    def _rows(self):
        """d[c] for every component c: the position rows plus, formed on the
        first call, the rest; the kept stage components are then dropped."""
        ks = self._ks
        if ks is not None:
            m = len(ks) // 6
            stages = (ks[i:i + m] for i in range(0, 6 * m, m))
            self._d += tuple(map(_row, *stages))
            self._ks = None
        return self._d

    def position_rows(self):
        """(d[0], d[1]): the theta^1..theta^4 coefficients of components 0
        and 1, so that component c at t0 + theta*h is
        y0[c] + h * sum_j d[c][j-1] * theta^j."""
        return self._d[0], self._d[1]

    def eval(self, t):
        th = (t - self.t0) / self.h
        th2 = th * th
        th3 = th2 * th
        th4 = th2 * th2
        h = self.h
        return tuple([
            y + h * (d1 * th + d2 * th2 + d3 * th3 + d4 * th4)
            for y, (d1, d2, d3, d4) in zip(self.y0, self._rows())
        ])

    def eval_position(self, t):
        """Components 0 and 1 of `eval(t)`, from the same operations."""
        th = (t - self.t0) / self.h
        th2 = th * th
        th3 = th2 * th
        th4 = th2 * th2
        h = self.h
        (a1, a2, a3, a4), (b1, b2, b3, b4) = self._d[0], self._d[1]
        return (self.y0[0] + h * (a1 * th + a2 * th2 + a3 * th3 + a4 * th4),
                self.y0[1] + h * (b1 * th + b2 * th2 + b3 * th3 + b4 * th4))


class Solution:
    """Dense solution of one integration run."""

    def __init__(self, steps, status="finished"):
        self.steps = steps
        self.status = status
        self.n_accepted = len(steps)
        self.n_rejected = 0
        self.n_fev = 0

    @property
    def t0(self):
        return self.steps[0].t0 if self.steps else 0.0

    @property
    def t_end(self):
        return self.steps[-1].t1 if self.steps else 0.0

    @property
    def y_end(self):
        return self.steps[-1].y1

    @functools.cached_property
    def _ends(self):
        """The ends t1 of all steps but the last, as a list and an array."""
        ends = [s.t1 for s in self.steps[:-1]]
        return ends, np.array(ends)

    def _index(self, t):
        """The step of `eval` and `eval_many` at a clamped t (a number or an
        array): the first whose end reaches t, else the last, which also
        takes its own start unless that is the first step's end."""
        i = first_reaching(self._ends, t)
        last, t_last = len(self.steps) - 1, self.steps[-1].t0
        if isinstance(t, np.ndarray):
            return np.where((i > 0) & (t >= t_last), last, i)
        return last if i and t >= t_last else i

    def _clamp(self, t):
        """t clamped into [t0, t_end]; ValueError beyond a 1e-12 relative slack.

        t may be an array; then every entry is checked and clamped.
        """
        if not self.steps:
            raise ValueError("empty solution")
        eps = 1e-12 * max(1.0, abs(self.t_end))
        if isinstance(t, np.ndarray):
            bad = (t < self.t0 - eps) | (t > self.t_end + eps)
            if bad.any():
                raise ValueError(f"t={t[bad][0]} outside [{self.t0}, {self.t_end}]")
            return clamp(t, self.t0, self.t_end)
        if t < self.t0 - eps or t > self.t_end + eps:
            raise ValueError(f"t={t} outside [{self.t0}, {self.t_end}]")
        return min(max(t, self.t0), self.t_end)

    def eval(self, t):
        t = self._clamp(t)
        return self.steps[self._index(t)].eval(t)

    def eval_many(self, ts, comps):
        """Components `comps` of the solution at an array of times.

        Returns one float64 array per component, of ts's shape.  Each entry
        is == to the matching component of `eval(t)`: the same clamp, the
        same step (`_index`) and `DenseStep.eval`'s operations, applied
        elementwise.
        """
        t = self._clamp(np.asarray(ts, dtype=float))
        t0s, hs, y0, d = self._flat
        i = self._index(t)
        h = hs[i]
        th = (t - t0s[i]) / h
        th2 = th * th
        th3 = th2 * th
        th4 = th2 * th2
        return [y0[c][i] + h * (d[c][0][i] * th + d[c][1][i] * th2
                                + d[c][2][i] * th3 + d[c][3][i] * th4)
                for c in comps]

    @functools.cached_property
    def _flat(self):
        """(t0, h, y0, d) of all steps as arrays; y0[c] and d[c][j] are
        component c's start values and theta^(j+1) coefficients per step."""
        steps = self.steps
        return (
            np.array([s.t0 for s in steps]),
            np.array([s.h for s in steps]),
            np.array([s.y0 for s in steps]).T.copy(),
            np.array([s._rows() for s in steps]).transpose(1, 2, 0).copy(),
        )


def first_reaching(ends, t):
    """The index of the first of the sorted `ends` that reaches t, or
    len(ends) past them all: bisect_left on their list for a number t,
    searchsorted on their array for an array; `ends` is the (list, array)
    pair."""
    if isinstance(t, np.ndarray):
        return np.searchsorted(ends[1], t, "left")
    return bisect_left(ends[0], t)


def clamp(t, lo, hi):
    """min(max(t, lo), hi) elementwise, with Python's choice on ties and NaN."""
    t = np.where(lo > t, lo, t)
    return np.where(hi < t, hi, t)


def _error_norm(err, y0, y1, rtol, atol):
    acc = 0.0
    for e, a, b in zip(err, y0, y1):
        a, b = abs(a), abs(b)
        r = e / (atol + rtol * (b if b > a else a))  # max(a, b), NaN included
        acc += r * r
    return math.sqrt(acc / len(err))


def _initial_step(rhs, t0, y0, f0, rtol, atol, t_final):
    d0 = _error_norm(y0, y0, y0, rtol, atol)
    d1 = _error_norm(f0, y0, y0, rtol, atol)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    y1 = tuple(y + h0 * f for y, f in zip(y0, f0))
    f1 = rhs(t0 + h0, y1)
    d2 = _error_norm(tuple(b - a for a, b in zip(f0, f1)), y0, y0, rtol, atol) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, abs(t_final - t0))


def _step_source(n):
    """Source of `step(rhs, t, h, y, k1, rtol, atol) -> (y1, ks, enorm)`, the
    DP5(4) trial step for n-component states, written out per component.

    Locals: z for y, a..g for k1..k7, s for a stage's argument and w for y1,
    suffixed by the component.  Every stage argument, the solution and the
    error estimate is its sum over `_C`/`_A`/`_B`/`_E` with the terms in
    table order and the zero terms left out; the norm is `_error_norm`'s loop
    unrolled.  Coefficients are float literals, which repr round-trips.
    """
    comps = range(n)

    def names(k):
        """k0, k1, ..., with the comma a one-element tuple needs."""
        return ", ".join(f"{k}{c}" for c in comps) + ("," if n == 1 else "")

    def combo(coefs, c):
        return " + ".join(f"{x!r} * {k}{c}" for x, k in zip(coefs, "abcdefg")
                          if x != 0.0)

    lines = ["def step(rhs, t, h, y, k1, rtol, atol):",
             f"    {names('z')} = y",
             f"    {names('a')} = k1"]
    for i in range(1, 6):
        lines += [f"    s{c} = z{c} + h * ({combo(_A[i], c)})" for c in comps]
        lines += [f"    k{i + 1} = rhs(t + {_C[i]!r} * h, ({names('s')}))",
                  f"    {names('abcdefg'[i])} = k{i + 1}"]
    lines += [f"    w{c} = z{c} + h * ({combo(_B, c)})" for c in comps]
    lines += [f"    y1 = ({names('w')})",
              "    k7 = rhs(t + h, y1)",
              f"    {names('g')} = k7",
              "    acc = 0.0"]
    for c in comps:
        lines += [f"    err = h * ({combo(_E, c)})",
                  f"    p, q = abs(z{c}), abs(w{c})",
                  "    r = err / (atol + rtol * (q if q > p else p))",  # max, NaN too
                  "    acc += r * r"]
    lines.append(f"    return y1, (k1, k2, k3, k4, k5, k6, k7), sqrt(acc / {n})")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _stepper(n):
    """The compiled `_step_source(n)`, built on first use for each n.

    Its source is registered in linecache under `<maglab dp54 step n=N>`,
    so tracebacks and profiles show the generated lines.
    """
    source = _step_source(n)
    filename = f"<maglab dp54 step n={n}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["step"]


def integrate(
    rhs,
    t0,
    y0,
    t_final,
    rtol=1e-10,
    atol=1e-12,
    max_step=math.inf,
    first_step=None,
    post_step=None,
    observer=None,
):
    """Integrate y' = rhs(t, y) from t0 to t_final (t_final > t0).

    post_step(t, y) -> y may project the accepted state (e.g. back onto an
    energy level).  observer(dense_step) may return False to stop early (the
    step is kept); it sees each accepted step after projection of y1.
    Returns a Solution, whose n_fev counts every RHS evaluation (the
    initial-step estimate's too); raises StiffnessError on step-size
    underflow and NonFiniteError when the error estimate is NaN.
    """
    if t_final <= t0:
        raise ValueError("integrate requires t_final > t0; reverse the field instead")
    y = tuple(y0)
    step_fn = _stepper(len(y))
    t = t0
    k1 = rhs(t, y)
    nfev = 1 if first_step is not None else 2  # with _initial_step's evaluation
    h = first_step if first_step is not None else _initial_step(rhs, t0, y, k1, rtol, atol, t_final)
    h = min(h, max_step, t_final - t0)
    steps = []
    n_rej = 0
    status = "finished"
    hmin = 1e-14 * max(abs(t0), abs(t_final), 1.0)
    while t < t_final:
        if len(steps) >= _MAX_STEPS:
            status = "max_steps"
            break
        if h < hmin:
            raise StiffnessError(f"step size underflow at t={t:.6g} (h={h:.3g})")
        if k1 is None:  # the start derivative, once per accepted step
            k1 = rhs(t, y)
            nfev += 1
        h = min(h, t_final - t)
        y1, ks, enorm = step_fn(rhs, t, h, y, k1, rtol, atol)
        nfev += 6
        if not enorm <= 1.0:
            if math.isnan(enorm):
                raise NonFiniteError(f"NaN in the step from t={t:.6g} (h={h:.3g})")
            n_rej += 1
            h *= max(0.2, 0.9 * enorm ** (-0.2))
            continue
        step = DenseStep(t, h, y, y1, ks)
        t = step.t1
        if post_step is not None:
            y1p = post_step(t, y1)
            if y1p is not None and y1p != y1:
                y1 = tuple(y1p)
                step.y1 = y1
        steps.append(step)
        y = y1
        k1 = None  # the next step's, evaluated only if a step follows
        if observer is not None and observer(step) is False:
            status = "stopped"
            break
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.2)))
        h = min(h * factor, max_step)
    sol = Solution(steps, status)
    sol.n_rejected = n_rej
    sol.n_fev = nfev
    return sol
