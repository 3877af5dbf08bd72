"""Embedded Dormand-Prince 5(4) integrator with dense output.

A hand-rolled stepper (rather than scipy's solve_ivp) because the flows here
need machinery solve_ivp does not expose: a per-step projection hook (energy
renormalization), step-by-step observation for section-event detection on the
dense interpolant, and mid-integration state surgery for chart switching.

State vectors are plain tuples of floats of any length (the flows use 4 and
10 components); tuple arithmetic beats numpy at this size.  A `DenseStep`
evaluates its interpolant with `eval(t)` (all components) or
`eval_position(t)` (components 0 and 1 only, the same operations), which is
what the section-crossing monitor samples.  The interpolant rows of
components 0 and 1 are formed when the step is accepted; those of the other
components (velocity, variational data) are formed by the first `eval`,
`eval_derivative` or array lookup, from the same expressions, so most steps
of a section return never form them.  `Solution.eval_many(ts, comps)`
evaluates an array of times with the same operations, elementwise in
float64, from flat per-step arrays built on its first call.  The tables `_A`,
`_B`, `_E` and `_P` are the one source of the coefficients.  The stages, the
solution, the error estimate and the interpolant coefficients are written
out term by term over them, one expression per quantity, with the terms in
the tables' order and the terms with a zero coefficient left out.
"""

from __future__ import annotations

import math

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

# The entries above as module constants for the straight-line code, named by
# stage (1-7) and, for P, by the power of theta (1-4).  b2, e2, the k2 row of
# P and the theta^1 entries of the k3..k7 rows are zero; their terms are left
# out, which changes no finite result (x + 0.0 * k == x).
_C2, _C3, _C4, _C5, _C6 = _C[1:]
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), (
    _A61, _A62, _A63, _A64, _A65) = _A[1:]
_B1, _B3, _B4, _B5, _B6 = _B[:1] + _B[2:]
_E1, _E3, _E4, _E5, _E6, _E7 = _E[:1] + _E[2:]
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
        self._d = tuple(map(_row, k1[:2], k3[:2], k4[:2], k5[:2], k6[:2], k7[:2]))
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

    def eval_derivative(self, t):
        th = (t - self.t0) / self.h
        th2 = th * th
        q2 = 2.0 * th
        q3 = 3.0 * th2
        q4 = 4.0 * th2 * th
        return tuple([
            d1 + d2 * q2 + d3 * q3 + d4 * q4 for d1, d2, d3, d4 in self._rows()
        ])


class Solution:
    """Dense solution of one integration run."""

    def __init__(self, steps, status="finished"):
        self.steps = steps
        self.status = status
        self.n_accepted = len(steps)
        self.n_rejected = 0
        self.n_fev = 0
        self._flat = None

    @property
    def t0(self):
        return self.steps[0].t0 if self.steps else 0.0

    @property
    def t_end(self):
        return self.steps[-1].t1 if self.steps else 0.0

    @property
    def y_end(self):
        return self.steps[-1].y1

    def _locate(self, t):
        steps = self.steps
        lo, hi = 0, len(steps) - 1
        if t <= steps[0].t1:
            return steps[0]
        if t >= steps[hi].t0:
            return steps[hi]
        while lo < hi:
            mid = (lo + hi) // 2
            if steps[mid].t1 < t:
                lo = mid + 1
            else:
                hi = mid
        return steps[lo]

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
        return self._locate(t).eval(t)

    def eval_derivative(self, t):
        t = self._clamp(t)
        return self._locate(t).eval_derivative(t)

    def eval_many(self, ts, comps):
        """Components `comps` of the solution at an array of times.

        Returns one float64 array per component, of ts's shape.  Each entry
        is == to the matching component of `eval(t)`: the same clamp, the
        same step (`_locate`'s rule, as one searchsorted) and `DenseStep.eval`'s
        operations, applied elementwise.
        """
        t = self._clamp(np.asarray(ts, dtype=float))
        t0s, t1s, hs, y0, d = self._flat_steps()
        last = len(t0s) - 1
        i = np.minimum(np.searchsorted(t1s, t, "left"), last)
        i = np.where(t <= t1s[0], 0, np.where(t >= t0s[last], last, i))
        h = hs[i]
        th = (t - t0s[i]) / h
        th2 = th * th
        th3 = th2 * th
        th4 = th2 * th2
        return [y0[c][i] + h * (d[c][0][i] * th + d[c][1][i] * th2
                                + d[c][2][i] * th3 + d[c][3][i] * th4)
                for c in comps]

    def _flat_steps(self):
        """(t0, t1, h, y0, d) of all steps as arrays; y0[c] and d[c][j] are
        component c's start values and theta^(j+1) coefficients per step."""
        if self._flat is None:
            steps = self.steps
            self._flat = (
                np.array([s.t0 for s in steps]),
                np.array([s.t1 for s in steps]),
                np.array([s.h for s in steps]),
                np.array([s.y0 for s in steps]).T.copy(),
                np.array([s._rows() for s in steps]).transpose(1, 2, 0).copy(),
            )
        return self._flat


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
    Returns a Solution; raises StiffnessError on step-size underflow and
    NonFiniteError when the error estimate is NaN.
    """
    if t_final <= t0:
        raise ValueError("integrate requires t_final > t0; reverse the field instead")
    y = tuple(y0)
    t = t0
    k1 = rhs(t, y)
    nfev = 1
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
        h = min(h, t_final - t)
        # z: a component of y; a..g: the same component of k1..k7
        k2 = rhs(t + _C2 * h, tuple([z + h * (_A21 * a) for z, a in zip(y, k1)]))
        k3 = rhs(t + _C3 * h, tuple([
            z + h * (_A31 * a + _A32 * b) for z, a, b in zip(y, k1, k2)]))
        k4 = rhs(t + _C4 * h, tuple([
            z + h * (_A41 * a + _A42 * b + _A43 * c)
            for z, a, b, c in zip(y, k1, k2, k3)]))
        k5 = rhs(t + _C5 * h, tuple([
            z + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
            for z, a, b, c, d in zip(y, k1, k2, k3, k4)]))
        k6 = rhs(t + _C6 * h, tuple([
            z + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
            for z, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)]))
        y1 = tuple([
            z + h * (_B1 * a + _B3 * c + _B4 * d + _B5 * e + _B6 * f)
            for z, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)])
        k7 = rhs(t + h, y1)
        nfev += 6
        err = [
            h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
            for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)]
        enorm = _error_norm(err, y, y1, rtol, atol)
        if not enorm <= 1.0:
            if math.isnan(enorm):
                raise NonFiniteError(f"NaN in the step from t={t:.6g} (h={h:.3g})")
            n_rej += 1
            h *= max(0.2, 0.9 * enorm ** (-0.2))
            continue
        step = DenseStep(t, h, y, y1, (k1, k2, k3, k4, k5, k6, k7))
        t = step.t1
        if post_step is not None:
            y1p = post_step(t, y1)
            if y1p is not None and y1p != y1:
                y1 = tuple(y1p)
                step.y1 = y1
        steps.append(step)
        k1 = rhs(t, y1)
        nfev += 1
        y = y1
        if observer is not None and observer(step) is False:
            status = "stopped"
            break
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.2)))
        h = min(h * factor, max_step)
    sol = Solution(steps, status)
    sol.n_rejected = n_rej
    sol.n_fev = nfev
    return sol
