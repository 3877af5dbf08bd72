"""Embedded Dormand-Prince 5(4) integrator with dense output.

A hand-rolled stepper (rather than scipy's solve_ivp) because the flows here
need machinery solve_ivp does not expose: a per-step projection hook (energy
renormalization), step-by-step observation for section-event detection on the
dense interpolant, and mid-integration state surgery for chart switching.

State vectors are plain tuples of floats; dimensions are small (4 or 10) and
tuple arithmetic beats numpy at this size.
"""

from __future__ import annotations

import math

from .errors import NonFiniteError, StiffnessError

__all__ = ["DenseStep", "Solution", "integrate"]

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


class DenseStep:
    """One accepted step with its quartic interpolant."""

    __slots__ = ("t0", "t1", "h", "y0", "y1", "_d")

    def __init__(self, t0, h, y0, y1, ks):
        self.t0 = t0
        self.h = h
        self.t1 = t0 + h
        self.y0 = y0
        self.y1 = y1
        n = len(y0)
        # d[c][j] = sum_i P[i][j] * ks[i][c]
        self._d = tuple(
            tuple(sum(_P[i][j] * ks[i][c] for i in range(7)) for j in range(4))
            for c in range(n)
        )

    def eval(self, t):
        th = (t - self.t0) / self.h
        th2 = th * th
        p = (th, th2, th2 * th, th2 * th2)
        h = self.h
        return tuple(
            y + h * (d[0] * p[0] + d[1] * p[1] + d[2] * p[2] + d[3] * p[3])
            for y, d in zip(self.y0, self._d)
        )

    def eval_derivative(self, t):
        th = (t - self.t0) / self.h
        th2 = th * th
        q = (1.0, 2.0 * th, 3.0 * th2, 4.0 * th2 * th)
        return tuple(
            d[0] * q[0] + d[1] * q[1] + d[2] * q[2] + d[3] * q[3] for d in self._d
        )


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

    def eval(self, t):
        if not self.steps:
            raise ValueError("empty solution")
        eps = 1e-12 * max(1.0, abs(self.t_end))
        if t < self.t0 - eps or t > self.t_end + eps:
            raise ValueError(f"t={t} outside [{self.t0}, {self.t_end}]")
        return self._locate(t).eval(min(max(t, self.t0), self.t_end))

    def eval_derivative(self, t):
        return self._locate(t).eval_derivative(t)


def _error_norm(err, y0, y1, rtol, atol):
    acc = 0.0
    for e, a, b in zip(err, y0, y1):
        sc = atol + rtol * max(abs(a), abs(b))
        r = e / sc
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
    max_steps=10_000_000,
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
    f = rhs(t, y)
    nfev = 1
    h = first_step if first_step is not None else _initial_step(rhs, t0, y, f, rtol, atol, t_final)
    h = min(h, max_step, t_final - t0)
    steps = []
    n_rej = 0
    status = "finished"
    hmin = 1e-14 * max(abs(t0), abs(t_final), 1.0)
    ks = [None] * 7
    while t < t_final:
        if len(steps) >= max_steps:
            status = "max_steps"
            break
        if h < hmin:
            raise StiffnessError(f"step size underflow at t={t:.6g} (h={h:.3g})")
        h = min(h, t_final - t)
        ks[0] = f
        for i in range(1, 6):
            ai = _A[i]
            yi = tuple(
                y[c] + h * sum(ai[j] * ks[j][c] for j in range(i))
                for c in range(len(y))
            )
            ks[i] = rhs(t + _C[i] * h, yi)
        y1 = tuple(
            y[c] + h * sum(_B[j] * ks[j][c] for j in range(6)) for c in range(len(y))
        )
        ks[6] = rhs(t + h, y1)
        nfev += 6
        err = tuple(
            h * sum(_E[j] * ks[j][c] for j in range(7)) for c in range(len(y))
        )
        enorm = _error_norm(err, y, y1, rtol, atol)
        if not enorm <= 1.0:
            if math.isnan(enorm):
                raise NonFiniteError(f"NaN in the step from t={t:.6g} (h={h:.3g})")
            n_rej += 1
            h *= max(0.2, 0.9 * enorm ** (-0.2))
            continue
        step = DenseStep(t, h, y, y1, tuple(ks))
        t = step.t1
        if post_step is not None:
            y1p = post_step(t, y1)
            if y1p is not None and y1p != y1:
                y1 = tuple(y1p)
                step.y1 = y1
        steps.append(step)
        f = rhs(t, y1)
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
