"""Embedded Dormand-Prince 8(5,3) integrator (DOP853) with dense output.

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
evaluates its degree-7 interpolant with `eval(t)` (all components) or
`eval_position(t)` (components 0 and 1 only, the same operations), which is
what the section-crossing monitor samples.  The interpolant rows of
components 0 and 1 are formed when the step is accepted; those of the other
components (velocity, variational data) are formed by the first `eval` or
array lookup, from the same expressions, so most steps of a section return
never form them.  A solution picks the step of a time by one rule
(`Solution._index`: `first_reaching` on cached step ends, which form no
rows); `eval_many(t, i, comps)` applies `DenseStep.eval`'s operations at
clamped times t in their steps i elementwise in float64, from flat per-step
arrays built on its first call.

The method is DOP853 (E. Hairer, S. P. Norsett and G. Wanner, *Solving
Ordinary Differential Equations I*, 2nd ed., sections II.5-II.6): twelve
stages, the solution of order 8, the error estimate that combines the
embedded 5th- and 3rd-order differences, and a dense output of order 7 from
three more stages.  Its coefficients are transcribed from scipy's
`scipy/integrate/_ivp/dop853_coefficients.py` as float literals, so maglab
imports no scipy.  Two entries are then closed in floating point
(`_closed`): the last weight, so that the weights add up to exactly 1 in
table order (a constant field then moves the state by exactly h times its
value), and the last entry of each interpolant row, so that those rows add
up to exactly 0 (the transcribed rows miss by up to 5e-14).

The trial step (the eleven new stages, the solution, the stage at its end,
the two error estimates and their norm) is straight-line code generated per
state dimension: `_step_source(n)` writes it out component by component from
the tables `_C`, `_A`, `_B`, `_E5` and `_E3`, together with the three dense
stages of an accepted step, and `_stepper(n)` compiles it on the first
`integrate` call for that n and caches it.  Its source is registered in
linecache under `<maglab dop853 step n=N>`, so tracebacks and profiles show
its lines.  One component's interpolant row is written out over `_P` in
`_interp_row`, generated once the same way.  The tables are the one source
of the coefficients: each expression has its terms in the tables' order,
with the zero terms left out.  The reference step of tests/test_integrate.py,
written as sums over the tables, is the oracle: `integrate` must match it bit
for bit, in dimensions no flow uses too.  `_error_norm` is the root mean
square norm as a loop, for `_initial_step`.
"""

from __future__ import annotations

import functools
import linecache
import math
import operator
from bisect import bisect_left
from itertools import islice

import numpy as np

from .errors import NonFiniteError, StiffnessError

__all__ = ["DenseStep", "Solution", "integrate"]

_MAX_STEPS = 10_000_000  # accepted steps before StiffnessError

# DOP853 tableau: the nodes and stage coefficients of k1..k16.  Row 12 of
# _A holds the weights of the solution y1 (stage 13 is f(t + h, y1)); rows
# 13-15 are the dense output's extra stages.
_C = (0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
      0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
      0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
      0.7777777777777778)
_A = (
    (),
    (0.05260015195876773,),
    (0.0197250569845379, 0.0591751709536137),
    (0.02958758547680685, 0.0, 0.08876275643042054),
    (0.2413651341592667, 0.0, -0.8845494793282861, 0.924834003261792),
    (0.037037037037037035, 0.0, 0.0, 0.17082860872947386, 0.12546768756682242),
    (0.037109375, 0.0, 0.0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125),
    (0.03709200011850479, 0.0, 0.0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023),
    (0.6241109587160757, 0.0, 0.0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996),
    (0.47766253643826434, 0.0, 0.0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627),
    (-0.9371424300859873, 0.0, 0.0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196),
    (2.273310147516538, 0.0, 0.0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636),
    (0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
     1.8915178993145003, -5.801203960010585, 0.3111643669578199,
     -0.1521609496625161, 0.20136540080403034, 0.04471061572777259),
    (0.056167502283047954, 0.0, 0.0, 0.0, 0.0, 0.0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298),
    (0.03183464816350214, 0.0, 0.0, 0.0, 0.0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0.0, 0.0,
     -0.00010834732869724932, 0.0003825710908356584, -0.00034046500868740456,
     0.1413124436746325),
    (-0.42889630158379194, 0.0, 0.0, 0.0, 0.0, -4.697621415361164,
     7.683421196062599, 4.06898981839711, 0.3567271874552811, 0.0, 0.0, 0.0,
     -0.0013990241651590145, 2.9475147891527724, -9.15095847217987),
)
# the 5th- and 3rd-order error coefficients of k1..k12 (k13 has none)
_E5 = (0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
       -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
       0.3341791187130175, 0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
       1.8915178993145003, -5.801203960010585, -0.4226823213237919,
       -0.1521609496625161, 0.20136540080403034, 0.02265179219836082)
# rows d3..d6 of the dense output over k1..k16 (scipy's D)
_D = (
    (-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777,
     -3.0689499459498917, 2.38466765651207, 2.117034582445028,
     -0.871391583777973, 2.2404374302607883, 0.6315787787694688,
     -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894),
    (10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817,
     165.20045171727028, -374.5467547226902, -22.113666853125306,
     7.733432668472264, -30.674084731089398, -9.332130526430229,
     15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408),
    (19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518,
     -189.17813819516758, 527.8081592054236, -11.57390253995963,
     6.8812326946963, -1.0006050966910838, 0.7777137798053443,
     -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279),
    (-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643,
     -231.5293791760455, 357.6391179106141, 93.40532418362432,
     -37.45832313645163, 104.0996495089623, 29.8402934266605,
     -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564),
)


def _closed(row, total):
    """row with its last nonzero entry replaced by total minus the sum of the
    others, added in table order as the generated code adds them."""
    last = max(j for j, x in enumerate(row) if x != 0.0)
    rest = 0.0
    for x in row[:last]:
        if x != 0.0:
            rest += x
    return row[:last] + (total - rest,) + row[last + 1:]


_B = _closed(_A[12], 1.0)
_A = _A[:12] + (_B,) + _A[13:]
# Dense output (scipy's Dop853DenseOutput): component c at t0 + theta*h is
#   y0 + h*theta*(d0 + (1-theta)*(d1 + theta*(d2 + (1-theta)*(d3 + ...)))),
# with row d_j = sum_i P[j][i] * k_i[c]: d0 = sum b_i k_i (so d0 is
# (y1 - y0)/h), d1 = k1 - d0, d2 = 2 d0 - k13 - k1 and d3..d6 the _D rows.
_P = (_B + (0.0,) * 4,
      _closed((1.0 - _B[0],) + tuple(-b for b in _B[1:]) + (0.0,) * 4, 0.0),
      _closed((2.0 * _B[0] - 1.0,) + tuple(2.0 * b for b in _B[1:])
              + (-1.0, 0.0, 0.0, 0.0), 0.0),
      ) + tuple(_closed(row, 0.0) for row in _D)
# the stages the interpolant reads (k1 and k6..k16), in stage order
_ROW_STAGES = tuple(i for i in range(16) if any(row[i] != 0.0 for row in _P))
_row_stages = operator.itemgetter(*_ROW_STAGES)


def _combo(coefs, name):
    """sum_j coefs[j] * k_(j+1) in table order, the zero terms left out;
    name.format(i) is the variable holding stage i."""
    return " + ".join(f"{x!r} * {name.format(j + 1)}" for j, x in enumerate(coefs)
                      if x != 0.0)


def _compile(source, filename):
    """The namespace of source compiled under filename, which linecache holds
    so that tracebacks and profiles show the generated lines."""
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    namespace = {"sqrt": math.sqrt}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


def _row_source():
    """Source of `row(k1, k6, ..., k16) -> (d0, ..., d6)`: one component's
    interpolant row from that component of the stages `_ROW_STAGES`."""
    args = ", ".join(f"k{i + 1}" for i in _ROW_STAGES)
    terms = ",\n            ".join(_combo(p, "k{}") for p in _P)
    return f"def row({args}):\n    return ({terms})\n"


_interp_row = _compile(_row_source(), "<maglab dop853 row>")["row"]


class DenseStep:
    """One accepted step with its degree-7 interpolant.

    ks holds the sixteen stage derivatives k1..k16 of the step.  Component c
    at t0 + theta*h is y0[c] + h*theta*(d0 + (1-theta)*(d1 + theta*(d2 + ...
    + (1-theta)*(d5 + theta*d6)))), with d[c] = (d0, ..., d6) its row
    (`_interp_row`).  The rows of the position components 0 and 1 are formed
    here.  The rows of the other components are formed on first use
    (`_rows`), from the stages the interpolant reads, which the step keeps
    until then.
    """

    __slots__ = ("t0", "t1", "h", "y0", "y1", "_d", "_ks")

    def __init__(self, t0, h, y0, y1, ks):
        self.t0 = t0
        self.h = h
        self.t1 = t0 + h
        self.y0 = y0
        self.y1 = y1
        ks = _row_stages(ks)
        self._d = tuple(islice(map(_interp_row, *ks), 2))
        # None when there is no component past the position
        self._ks = ks if len(y0) > 2 else None

    def _rows(self):
        """d[c] for every component c: the position rows plus, formed on the
        first call, the rest; the kept stages are then dropped."""
        ks = self._ks
        if ks is not None:
            self._d += tuple(_interp_row(*col) for col in islice(zip(*ks), 2, None))
            self._ks = None
        return self._d

    def position_rows(self):
        """(d[0], d[1]): the interpolant rows of components 0 and 1."""
        return self._d[0], self._d[1]

    def eval(self, t):
        th = (t - self.t0) / self.h
        u = 1.0 - th
        h = self.h
        return tuple([
            y + h * (th * (d0 + u * (d1 + th * (d2 + u * (d3 + th * (
                d4 + u * (d5 + th * d6)))))))
            for y, (d0, d1, d2, d3, d4, d5, d6) in zip(self.y0, self._rows())
        ])

    def eval_position(self, t):
        """Components 0 and 1 of `eval(t)`, from the same operations."""
        th = (t - self.t0) / self.h
        u = 1.0 - th
        h = self.h
        (a0, a1, a2, a3, a4, a5, a6), (b0, b1, b2, b3, b4, b5, b6) = self._d[0], self._d[1]
        return (self.y0[0] + h * (th * (a0 + u * (a1 + th * (a2 + u * (a3 + th * (
                    a4 + u * (a5 + th * a6))))))),
                self.y0[1] + h * (th * (b0 + u * (b1 + th * (b2 + u * (b3 + th * (
                    b4 + u * (b5 + th * b6))))))))


class Solution:
    """Dense solution of one integration run."""

    def __init__(self, steps):
        self.steps = steps
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
        """The step read at a clamped t (a number or an array): the first
        whose end reaches t, else the last, which also takes its own start
        unless that is the first step's end."""
        i = first_reaching(self._ends, t)
        last, t_last = len(self.steps) - 1, self.steps[-1].t0
        if isinstance(t, np.ndarray):
            return np.where((i > 0) & (t >= t_last), last, i)
        return last if i and t >= t_last else i

    def eval_many(self, t, i, comps):
        """Components `comps` of the solution at an array t of clamped times
        in their steps i = `_index(t)`.

        Returns one float64 array per component, of t's shape.  Each entry
        is == to the matching component of `steps[i].eval(t)`:
        `DenseStep.eval`'s operations, applied elementwise.  The caller
        checks and clamps t (`Trajectory.states`).
        """
        t0s, hs, y0, d = self._flat
        h = hs[i]
        th = (t - t0s[i]) / h
        u = 1.0 - th
        out = []
        for c in comps:
            # the nested form from d6 outwards, in place on one array
            acc = d[c][6][i]
            for j in range(5, -1, -1):
                acc *= th if j % 2 else u
                acc += d[c][j][i]
            acc *= th
            acc *= h
            acc += y0[c][i]
            out.append(acc)
        return out

    @functools.cached_property
    def _flat(self):
        """(t0, h, y0, d) of all steps as arrays; y0[c] and d[c][j] are
        component c's start values and row entries d_j per step."""
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
        h1 = (0.01 / max(d1, d2)) ** 0.125
    return min(100.0 * h0, h1, abs(t_final - t0))


def _step_source(n):
    """Source of the DOP853 step for n-component states, written out per
    component: `step(rhs, t, h, y, k1, rtol, atol) -> (y1, (k1..k13), enorm)`
    the trial step, and `dense(rhs, t, h, y, ks) -> (k1..k16)` the three
    dense stages of an accepted one.

    Locals: z for y, k{i}_ for the components of stage i, s for a stage's
    argument and w for y1, suffixed by the component.  Every stage argument,
    the solution and both error estimates is its sum over `_A`/`_B`/`_E5`/
    `_E3` with the terms in table order and the zero terms left out;
    enorm is h e5 / sqrt((e5 + 0.01 e3) n) (h > 0 in `integrate`), e5 and
    e3 the sums of the squared scaled estimates; enorm is 0 when the root's
    argument is 0, which makes e5 0 too (0.01 e3 can underflow to 0 while
    e3 is not).
    Coefficients are float literals, which repr round-trips.
    """
    comps = range(n)

    def names(fmt):
        """The components, with the comma a one-element tuple needs."""
        return ", ".join(fmt.format(c) for c in comps) + ("," if n == 1 else "")

    def stage(i, unpack):
        """The lines of stage i + 1, from row i of the tables, with its
        components unpacked when a later expression reads them."""
        lines = [f"    s{c} = z{c} + h * ({_combo(_A[i], f'k{{}}_{c}')})"
                 for c in comps]
        lines.append(f"    k{i + 1} = rhs(t + {_C[i]!r} * h, ({names('s{}')}))")
        if unpack:
            lines.append(f"    {names(f'k{i + 1}_{{}}')} = k{i + 1}")
        return lines

    stages = ", ".join(f"k{i}" for i in range(1, 14))
    lines = ["def step(rhs, t, h, y, k1, rtol, atol):",
             f"    {names('z{}')} = y",
             f"    {names('k1_{}')} = k1"]
    for i in range(1, 12):
        lines += stage(i, True)
    lines += [f"    w{c} = z{c} + h * ({_combo(_B, f'k{{}}_{c}')})" for c in comps]
    lines += [f"    y1 = ({names('w{}')})",
              "    k13 = rhs(t + h, y1)",
              "    e5 = e3 = 0.0"]
    for c in comps:
        lines += [f"    p, q = abs(z{c}), abs(w{c})",
                  "    sc = atol + rtol * (q if q > p else p)",  # max, NaN too
                  f"    r = ({_combo(_E5, f'k{{}}_{c}')}) / sc",
                  "    e5 += r * r",
                  f"    r = ({_combo(_E3, f'k{{}}_{c}')}) / sc",
                  "    e3 += r * r"]
    lines += [f"    ks = ({stages})",
              f"    d = (e5 + 0.01 * e3) * {n}",
              "    if d == 0.0:",
              "        return y1, ks, 0.0",
              "    return y1, ks, h * e5 / sqrt(d)",
              "",
              "def dense(rhs, t, h, y, ks):",
              f"    {names('z{}')} = y",
              f"    {stages} = ks"]
    read = sorted({j for i in range(13, 16) for j, x in enumerate(_A[i])
                   if x != 0.0 and j < 13})
    lines += [f"    {names(f'k{j + 1}_{{}}')} = k{j + 1}" for j in read]
    for i in range(13, 16):
        lines += stage(i, i < 15)
    lines.append("    return ks + (k14, k15, k16)")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _stepper(n):
    """(step, dense) of the compiled `_step_source(n)`, built on first use for
    each n.

    Its source is registered in linecache under `<maglab dop853 step n=N>`,
    so tracebacks and profiles show the generated lines.
    """
    namespace = _compile(_step_source(n), f"<maglab dop853 step n={n}>")
    return namespace["step"], namespace["dense"]


def integrate(
    rhs,
    t0,
    y0,
    t_final,
    rtol,
    atol,
    max_step,
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
    underflow or after _MAX_STEPS accepted steps and NonFiniteError when the
    error estimate is NaN.
    """
    if t_final <= t0:
        raise ValueError("integrate requires t_final > t0; reverse the field instead")
    y = tuple(y0)
    step_fn, dense_fn = _stepper(len(y))
    t = t0
    k1 = rhs(t, y)
    nfev = 1 if first_step is not None else 2  # with _initial_step's evaluation
    h = first_step if first_step is not None else _initial_step(rhs, t0, y, k1, rtol, atol, t_final)
    h = min(h, max_step, t_final - t0)
    steps = []
    n_rej = 0
    hmin = 1e-14 * max(abs(t0), abs(t_final), 1.0)
    while t < t_final:
        if len(steps) >= _MAX_STEPS:
            raise StiffnessError(f"{_MAX_STEPS} steps taken by t={t:.6g} (h={h:.3g})")
        if h < hmin:
            raise StiffnessError(f"step size underflow at t={t:.6g} (h={h:.3g})")
        if k1 is None:  # the start derivative, once per accepted step
            k1 = rhs(t, y)
            nfev += 1
        h = min(h, t_final - t)
        y1, ks, enorm = step_fn(rhs, t, h, y, k1, rtol, atol)
        nfev += 12
        if not enorm <= 1.0:
            if math.isnan(enorm):
                raise NonFiniteError(f"NaN in the step from t={t:.6g} (h={h:.3g})")
            n_rej += 1
            h *= max(0.2, 0.9 * enorm ** (-0.125))
            continue
        step = DenseStep(t, h, y, y1, dense_fn(rhs, t, h, y, ks))
        nfev += 3
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
            break
        factor = 5.0 if enorm == 0.0 else min(5.0, max(0.2, 0.9 * enorm ** (-0.125)))
        h = min(h * factor, max_step)
    sol = Solution(steps)
    sol.n_rejected = n_rej
    sol.n_fev = nfev
    return sol
