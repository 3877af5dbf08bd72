import dataclasses
import itertools
import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import maglab
from maglab.errors import ChartDomainError, NonFiniteError, StiffnessError
from maglab.geometry import PhasePoint, energy, flat_torus, planar_chart, sphere
from maglab.field import (
    MagneticField,
    ConstantField,
    PolynomialField,
    SinusoidalTorusField,
    ZonalSphereField,
)
from maglab.dynamics import (
    IntegratorOptions,
    _chart_rhs,
    _chart_rhs_variational,
    _renormalizer,
    flow,
    flow_with_variation,
    injectivity_time,
    magnetic_curvature,
)
from maglab.integrate import integrate
from maglab.orbits import Section, first_return, phase_distance, rescale_to_energy
from maglab.scenarios import Scenario

from oracles import fd_monodromy, reference_step_index
from stage_defaults import OPTIONS, ORBITS


def test_disk_traces_unit_circle(disk, minus_one_field, disk_circle_seed):
    """The seed ((-1,0),(0,1)) follows (cos(pi - t), sin(pi - t))."""
    traj = flow(disk, minus_one_field, disk_circle_seed, math.pi, IntegratorOptions())
    for t in np.linspace(0.0, math.pi, 30):
        st = traj.state(t)
        assert st.x == pytest.approx(math.cos(math.pi - t), abs=1e-9)
        assert st.y == pytest.approx(math.sin(math.pi - t), abs=1e-9)
    end = traj.end_state()
    assert (end.x, end.y) == (pytest.approx(1.0, abs=1e-9),
                              pytest.approx(0.0, abs=1e-9))


def test_flat_geodesic(torus, zero_field):
    traj = flow(torus, zero_field, PhasePoint(0, 0.0, 0.0, 1.0, 0.0), 0.5,
                IntegratorOptions())
    st = traj.end_state()
    assert (st.x, st.y, st.vx, st.vy) == (0.5, 0.0, 1.0, 0.0)


def test_sphere_magnetic_period(unit_sphere, tight_options):
    """f = 1 at c = 1/2: circles of period 2 pi / sqrt(2) (K_mag = 2)."""
    fld = MagneticField(ConstantField(1.0))
    seed = PhasePoint(0, 0.4, 0.0, 0.0, 1.0 / unit_sphere.metric_at(0, 0.4, 0.0).lam)
    T = 2.0 * math.pi / math.sqrt(2.0)
    traj = flow(unit_sphere, fld, seed, T, tight_options)
    assert phase_distance(unit_sphere, seed, traj.end_state()) <= 1e-9


def test_energy_conservation_medium(torus, sin_field):
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = flow(torus, sin_field, PhasePoint(0, 0.1, 0.2, 0.6, 0.8), 100.0, opts)
    assert traj.max_energy_drift <= 1e-9


# largest |E - c| / c that max_energy_drift may read at the default
# tolerances (rel_tol 1e-10, abs_tol 1e-12); the draws below reach about
# 3.5e-9, on long torus flows whose unwrapped positions grow to ~20
_DRIFT_BOUND = 1e-8


@st.composite
def _drift_flows(draw):
    """(surface, field, start state, signed duration): a unit-direction seed
    on the torus, the disk or the sphere, scaled to an energy in [0.1, 2].
    A sphere seed starts in chart 0 near the switch radius 2 and heads
    outwards (in the flow's own time direction), so its flow crosses into
    the other chart."""
    kind = draw(st.sampled_from(["torus", "disk", "sphere"]))
    c = draw(st.floats(0.1, 2.0))
    duration = draw(st.floats(1.0, 10.0)) * draw(st.sampled_from([1, -1]))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    if kind == "torus":
        surface = flat_torus()
        field = MagneticField(SinusoidalTorusField(
            draw(st.floats(-2.0, 2.0)), (draw(st.integers(0, 1)), 1),
            draw(st.floats(0.0, 2.0 * math.pi))))
        x, y = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
    else:
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        if kind == "disk":
            surface, field = planar_chart(3.0, math.pi), MagneticField(ConstantField(
                draw(st.floats(-2.0, 2.0))))
            r = draw(st.floats(0.0, 2.0))
        else:
            surface, field = sphere(1.0), MagneticField(ZonalSphereField(
                draw(st.floats(-1.0, 1.0))))
            r = draw(st.floats(1.5, 1.95))
            # within 0.5 rad of outwards, in the flow's time direction
            angle = phi + draw(st.floats(-0.5, 0.5)) + (math.pi if duration < 0 else 0.0)
        x, y = r * math.cos(phi), r * math.sin(phi)
    state = rescale_to_energy(surface, PhasePoint(0, x, y, math.cos(angle),
                                                  math.sin(angle)), c)
    return surface, field, state, duration


@given(_drift_flows())
def test_energy_drift_bound_on_all_surfaces(args):
    """At the default tolerances a flow's max_energy_drift stays below
    _DRIFT_BOUND times its energy on the torus, the disk and the sphere, and
    every sphere flow drawn switches charts."""
    surface, field, state, duration = args
    traj = flow(surface, field, state, duration, IntegratorOptions())
    if surface.kind == "sphere":
        assert len(_chart_runs(traj)) > 1
    assert traj.max_energy_drift <= _DRIFT_BOUND * traj.c


def _drift_loop(traj):
    """max_energy_drift's reference: a loop of scalar lookups over its grid
    that skips the states outside the chart domain."""
    n = min(200, 2 * traj.n_accepted + 2)
    drift = 0.0
    for i in range(n):
        try:
            e = energy(traj.surface, traj.state(traj.t_reach * i / (n - 1)))
        except ChartDomainError:
            continue
        drift = max(drift, abs(e - traj.c))
    return drift


def test_energy_drift_matches_scalar_loop_on_an_exiting_disk_path(disk, minus_one_field):
    """The drift of a disk trajectory that exits is == to the scalar loop;
    read in a smaller disk, which leaves part of the path outside, it skips
    those states alike, the largest deviation among them."""
    traj = flow(disk, minus_one_field, PhasePoint(0, 2.2, 0.0, 0.6, 0.8), 20.0,
                IntegratorOptions())
    assert traj.exited
    inner = dataclasses.replace(traj, surface=planar_chart(2.5, math.pi))
    assert traj.max_energy_drift == _drift_loop(traj) > 0.0
    assert inner.max_energy_drift == _drift_loop(inner) < traj.max_energy_drift


def test_variational_shear(torus, zero_field):
    _, vp = flow_with_variation(torus, zero_field, PhasePoint(0, 0, 0, 1, 0), 1.0,
                                IntegratorOptions())
    assert np.abs(vp.matrix(1.0) - np.array([[1.0, 1.0], [0.0, 1.0]])).max() <= 1e-12


def test_variational_disk_full_turn(disk, minus_one_field, disk_seed, tight_options):
    _, vp = flow_with_variation(disk, minus_one_field, disk_seed, 2 * math.pi,
                                tight_options)
    assert np.abs(vp.matrix(2 * math.pi) - np.eye(2)).max() <= 1e-9


def test_liouville_det(torus, sin_field):
    """Trace-free system: det X = 1 along the whole run."""
    _, vp = flow_with_variation(torus, sin_field, PhasePoint(0, 0.13, 0.7, 0.8, -0.6),
                                12.0, IntegratorOptions())
    assert vp.det_defect(200) <= 1e-8


def test_magnetic_curvature_values(disk, torus, unit_sphere, minus_one_field,
                                   zero_field, disk_seed):
    traj = flow(disk, minus_one_field, disk_seed, 1.0, IntegratorOptions())
    assert magnetic_curvature(disk, minus_one_field, traj, 0.5) == pytest.approx(1.0)
    traj2 = flow(torus, zero_field, PhasePoint(0, 0, 0, 1, 0), 1.0, IntegratorOptions())
    assert magnetic_curvature(torus, zero_field, traj2, 0.3) == 0.0
    seed = PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / unit_sphere.metric_at(0, 0.1, 0.0).lam)
    traj3 = flow(unit_sphere, zero_field, seed, 1.0, IntegratorOptions())
    assert magnetic_curvature(unit_sphere, zero_field, traj3, 0.5) == pytest.approx(1.0)


def test_injectivity_time_values(torus, disk, zero_field, minus_one_field):
    assert injectivity_time(torus, zero_field, 0.5) == 0.5
    # |f| estimate is inflated 1%, so the bound is slightly conservative
    got = injectivity_time(disk, minus_one_field, 0.5)
    assert got == pytest.approx(0.25, rel=0.011)
    assert got <= 0.25
    # doubling c halves the injectivity-radius argument
    assert injectivity_time(torus, zero_field, 1.0) == 0.25


def test_flow_composition(torus, sin_field, tight_options):
    seed = PhasePoint(0, 0.3, 0.1, 0.8, 0.6)
    mid = flow(torus, sin_field, seed, 1.3, tight_options).end_state()
    end1 = flow(torus, sin_field, mid, 0.9, tight_options).end_state()
    end2 = flow(torus, sin_field, seed, 2.2, tight_options).end_state()
    assert phase_distance(torus, end1, end2) <= 1e-7


def test_time_reversal(torus, sin_field, tight_options):
    seed = PhasePoint(0, 0.3, 0.1, 0.8, 0.6)
    fwd = flow(torus, sin_field, seed, 2.0, tight_options).end_state()
    back = flow(torus, sin_field, fwd, -2.0, tight_options).end_state()
    assert phase_distance(torus, seed, back) <= 1e-7


def test_planar_exit_truncates(disk, zero_field):
    traj = flow(disk, zero_field, PhasePoint(0, 0, 0, 1, 0), 10.0, IntegratorOptions())
    assert traj.exited
    assert abs(traj.t_reach) < 10.0
    st = traj.end_state()
    assert math.hypot(st.x, st.y) <= disk.charts[0].radius * 1.01


def _steps(traj):
    return [(chart, step.t0, step.h, step.y1)
            for chart, step in zip(traj.charts, traj.sol.steps)]


def _chart_runs(traj):
    """The charts a flow passes through, in order, one entry per visit."""
    return [chart for chart, _ in itertools.groupby(traj.charts)]


@pytest.mark.parametrize("case", ["sphere", "torus"])
def test_numpy_scalar_start_is_bit_neutral(case, unit_sphere, torus, zero_field,
                                           sin_field):
    """A flow started from numpy float64 components and end time takes the
    steps, RHS evaluations and end state of the Python-float start, == for
    ==: on the sphere across a chart switch, on the torus with variation."""
    if case == "sphere":
        lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
        surface, field, comps, T = unit_sphere, zero_field, (0.1, 0.0, 0.0, 1.0 / lam), 4.0
        run = lambda *args: flow(*args, IntegratorOptions())
    else:
        surface, field, comps, T = torus, sin_field, (0.02, 0.3, 0.1, -0.9), 1.7
        run = lambda *args: flow_with_variation(*args, IntegratorOptions())[0]
    ref = run(surface, field, PhasePoint(0, *comps), T)
    got = run(surface, field, PhasePoint(0, *np.array(comps)), np.float64(T))
    if case == "sphere":
        assert len(_chart_runs(ref)) > 1
    else:
        assert ref.dim == 10
    assert _steps(got) == _steps(ref)
    assert got.n_fev == ref.n_fev
    assert got.end_state() == ref.end_state()


def test_flow_solution_counts_the_work_of_every_segment(unit_sphere, monkeypatch):
    """A flow's one Solution carries the accepted steps, rejections and RHS
    evaluations of all its integrate calls, and the trajectory reads its
    counters there: here a flow whose chart switches split it into segments,
    several of which reject steps."""
    sols = []

    def spy(*args, **kwargs):
        sols.append(integrate(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(maglab.dynamics, "integrate", spy)
    traj = flow(unit_sphere, MagneticField(ConstantField(0.2)),
                PhasePoint(0, 0.5, 0.0, 1.0, 0.3), 12.0, IntegratorOptions())
    assert len(sols) > 1 and all(s is not traj.sol for s in sols)
    for name in ("n_accepted", "n_rejected", "n_fev"):
        total = sum(getattr(s, name) for s in sols)
        assert getattr(traj.sol, name) == getattr(traj, name) == total > 0, name


def test_numpy_scalar_section_anchor_is_bit_neutral(unit_sphere, zero_field):
    """A section through a numpy float64 anchor returns == coordinates and
    transit time to those of the Python-float anchor (a return that passes
    through the sphere's other chart)."""
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    comps = (0.1, 0.0, 0.0, 1.0 / lam)
    ref = first_return(Section(unit_sphere, zero_field, PhasePoint(0, *comps),
                               ORBITS["half_width"]),
                       (2e-3, -1e-3), ORBITS["max_time"], IntegratorOptions())
    got = first_return(Section(unit_sphere, zero_field,
                               PhasePoint(0, *np.array(comps)), ORBITS["half_width"]),
                       (2e-3, -1e-3), ORBITS["max_time"], IntegratorOptions())
    assert got[0] == ref[0] and got[1] == ref[1]


def test_ode_residual_at_midpoints(torus, sin_field):
    """Midpoint states of the interpolant re-solve the ODE to 10x tolerance."""
    from maglab.dynamics import _chart_rhs

    rtol, atol = 1e-10, 1e-12
    opts = IntegratorOptions(rel_tol=rtol, abs_tol=atol)
    traj = flow(torus, sin_field, PhasePoint(0, 0.1, 0.2, 0.6, 0.8), 5.0, opts)
    rhs = _chart_rhs(torus, sin_field, 0)
    worst = 0.0
    for step in traj.sol.steps[1:40]:
        tmid = 0.5 * (step.t0 + step.t1)
        ref = integrate(rhs, step.t0, step.y0, tmid, rtol=1e-14,
                        atol=1e-15, max_step=OPTIONS.max_step).y_end
        got = step.eval(tmid)
        scale = max(atol + rtol * abs(r) for r in ref)
        worst = max(worst, max(abs(a - b) for a, b in zip(got, ref)) / scale)
    assert worst <= 10.0


@pytest.mark.parametrize("case", ["torus_sin", "disk", "sphere_zonal", "flat"])
def test_fd_vs_variational(case, torus, disk, unit_sphere, sin_field,
                           minus_one_field, zero_field, disk_seed):
    if case == "torus_sin":
        surf, fld = torus, sin_field
        seed, T = PhasePoint(0, 0.0, 0.0, 0.0, -1.0), 1.0
    elif case == "disk":
        surf, fld, seed, T = disk, minus_one_field, disk_seed, 2.0
    elif case == "sphere_zonal":
        surf, fld = unit_sphere, MagneticField(ZonalSphereField(1.6))
        lam = unit_sphere.metric_at(0, 0.35, 0.0).lam
        seed, T = PhasePoint(0, 0.35, 0.0, 0.0, 1.0 / lam), 1.5
    else:
        surf, fld, seed, T = torus, zero_field, PhasePoint(0, 0, 0, 1, 0), 1.0
    opts = IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)
    _, vp = flow_with_variation(surf, fld, seed, T, opts)
    F = fd_monodromy(surf, fld, seed, T, h=1e-5)
    assert np.abs(F - vp.matrix(T)).max() <= 1e-4


def test_stiffness_detection():
    with pytest.raises(StiffnessError):
        integrate(lambda t, y: (y[0] * y[0],), 0.0, (1.0,), 2.0,
                  rtol=1e-8, atol=1e-10, max_step=OPTIONS.max_step)


@pytest.mark.parametrize("n", [1, 4, 10])
def test_nan_rhs_raises(n):
    """An RHS that turns NaN mid-run must not end as a finished solution."""
    with pytest.raises(NonFiniteError):
        integrate(lambda t, y: (1.0,) * (n - 1) + (math.nan if t > 0.5 else 1.0,),
                  0.0, (0.0,) * n, 1.0, OPTIONS.rel_tol, OPTIONS.abs_tol,
                  OPTIONS.max_step)


def test_dense_output_precision():
    sol = integrate(lambda t, y: (math.cos(t),), 0.0, (0.0,), 10.0,
                    rtol=1e-10, atol=1e-12, max_step=OPTIONS.max_step)
    ts = np.linspace(0, 10, 500)
    (got,) = sol.eval_many(ts, (0,))
    assert np.abs(got - np.sin(ts)).max() <= 2e-9


# -- the fused chart RHS against the MetricData formula ---------------------------

_RHS_CASES = {
    "torus": (flat_torus(), MagneticField(SinusoidalTorusField(1.3, k=(1, 2), phase=0.4))),
    "planar": (planar_chart(3.0, math.pi),
               MagneticField(PolynomialField([[0.3, -0.5], [1.2, 0.0, 0.7]]))),
    "sphere 0.5": (sphere(0.5), MagneticField(ZonalSphereField(1.6))),
    "sphere 1": (sphere(1.0), MagneticField(ZonalSphereField(-0.7))),
    "sphere 2.5": (sphere(2.5), MagneticField(ZonalSphereField(2.2))),
}


def _ref_chart_point(surface, x, y):
    if surface.kind == "torus":
        return x - math.floor(x), y - math.floor(y)
    return x, y


def _ref_gamma(md, vx, vy):
    """Gamma^k_ij v^i v^j from a full MetricData, zero where grad lam is."""
    if md.lam_x == 0.0 and md.lam_y == 0.0:
        return 0.0, 0.0
    lx, ly = md.log_grad
    g1 = lx * (vx * vx - vy * vy) + 2.0 * ly * vx * vy
    g2 = ly * (vy * vy - vx * vx) + 2.0 * lx * vx * vy
    return g1, g2


def _ref_rhs(surface, field, chart, y):
    x, yy, vx, vy = y
    xm, ym = _ref_chart_point(surface, x, yy)
    md = surface.charts[chart].metric(xm, ym)
    f = field.value(chart, xm, ym)
    g1, g2 = _ref_gamma(md, vx, vy)
    return (vx, vy, -g1 - f * vy, -g2 + f * vx)


def _ref_rhs_variational(surface, field, chart, c, y):
    x, yy, vx, vy, x11, x12, x21, x22, _, _ = y
    xm, ym = _ref_chart_point(surface, x, yy)
    md = surface.charts[chart].metric(xm, ym)
    f, (fx, fy) = field.eval(chart, xm, ym)
    g1, g2 = _ref_gamma(md, vx, vy)
    kmag = 2.0 * c * md.curvature + f * f + fx * vy - fy * vx
    return (vx, vy, -g1 - f * vy, -g2 + f * vx, x21, x22,
            -kmag * x11, -kmag * x12, f * x11, f * x12)


def _ref_renormalize(surface, chart, c, y):
    xm, ym = _ref_chart_point(surface, y[0], y[1])
    lam = surface.charts[chart].metric(xm, ym).lam
    sp = lam * math.hypot(y[2], y[3])
    if sp == 0.0:
        return y
    s = math.sqrt(2.0 * c) / sp
    if not math.isfinite(s):  # a subnormal speed: the state is kept
        return y
    return (y[0], y[1], y[2] * s, y[3] * s) + tuple(y[4:])


@st.composite
def chart_states(draw):
    """(surface, field, chart, 10-component state) inside a chart domain."""
    name = draw(st.sampled_from(sorted(_RHS_CASES)))
    surface, field = _RHS_CASES[name]
    chart = draw(st.sampled_from(range(len(surface.charts))))
    box = {"torus": 3.0, "planar": 2.0}.get(surface.kind, 2.5)
    pos = st.floats(-box, box)
    comp = st.floats(-3.0, 3.0)
    y = (draw(pos), draw(pos)) + tuple(draw(comp) for _ in range(8))
    return surface, field, chart, y


def _same(a, b):
    """Exactly equal tuples of finite numbers."""
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    return np.isfinite(a).all() and np.array_equal(a, b)


@given(chart_states(), st.floats(0.05, 4.0))
@example((_RHS_CASES["sphere 1"] + (1, (0.0, 0.3, 0.8, -0.4) + (1.0,) * 6)), 0.5)
@example((_RHS_CASES["torus"] + (0, (0.0, 0.0, 0.0, 2.2e-311) + (0.0,) * 6)), 1.0)
def test_fused_rhs_matches_metric_formula(case, c):
    """The chart RHS, its variational twin and the projection read lam and
    log_grad; each agrees exactly with the formula over a full MetricData."""
    surface, field, chart, y = case
    assert _same(_chart_rhs(surface, field, chart)(0.0, y[:4]),
                 _ref_rhs(surface, field, chart, y[:4]))
    assert _same(_chart_rhs_variational(surface, field, chart, c)(0.0, y),
                 _ref_rhs_variational(surface, field, chart, c, y))
    post = _renormalizer(surface, chart, c)
    assert _same(post(0.0, y[:4]), _ref_renormalize(surface, chart, c, y[:4]))
    assert _same(post(0.0, y), _ref_renormalize(surface, chart, c, y))


def test_renormalizer_keeps_a_subnormal_speed():
    """The scale target / speed overflows for a subnormal speed; the
    projection then returns the state unchanged, as for a zero speed."""
    torus = flat_torus()
    post = _renormalizer(torus, 0, 1.0)
    for y in ((0.0, 0.0, 0.0, 2.2e-311), (0.3, 0.1, 5e-324, 0.0),
              (0.0, 0.0, 0.0, 0.0) + (1.0,) * 6):
        assert post(0.0, y) == y
    assert post(0.0, (0.0, 0.0, 0.0, 1e-300)) == (0.0, 0.0, 0.0, math.sqrt(2.0))


# -- lookups over arrays of times against one time at a time ------------------


@pytest.fixture(scope="module")
def lookup_cases(torus, unit_sphere, sin_field):
    """(surface, field, trajectory, variational path) per case: a forward and
    a backward torus flow, a sphere flow through several chart switches, and
    the simulate trajectory of the bundled sphere_oracle scenario with its
    seed's velocity reversed, a circle that crosses to the other chart and
    back."""
    seed = PhasePoint(0, 0.3, 0.1, 0.8, 0.6)
    zonal = MagneticField(ZonalSphereField(0.3))
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    sphere_seed = PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / lam)
    with open(os.path.join(os.path.dirname(maglab.__file__), "scenarios",
                           "sphere_oracle.json")) as fh:
        cfg = json.load(fh)
    cfg["seeds"][0]["vy"] *= -1.0
    sc = Scenario(cfg)
    cases = {
        "torus": (torus, sin_field, seed, 3.0, OPTIONS),
        "backward": (torus, sin_field, seed, -2.0, OPTIONS),
        "sphere": (unit_sphere, zonal, sphere_seed, 9.0, OPTIONS),
        # as its simulate stage flows it
        "sphere_oracle": (sc.surface, sc.field,
                          rescale_to_energy(sc.surface, sc.seeds[0], sc.c),
                          sc.pipeline[0]["t_final"], sc.options),
    }
    out = {}
    for name, (surface, field, state, T, options) in cases.items():
        out[name] = (surface, field) + flow_with_variation(surface, field, state,
                                                           T, options)
    assert len(_chart_runs(out["sphere"][2])) > 2
    assert _chart_runs(out["sphere_oracle"][2]) == [0, 1, 0]
    assert sc.pipeline[0]["n_samples"] == 100
    assert out["backward"][2].sign == -1
    return out


def _lookup_times(traj, fracs):
    """0 and t_reach, the same within their slack, every step start and end
    in trajectory time, the simulate stage's grid of 100 samples and the
    drawn fractions of t_reach."""
    s, end = traj.sign, traj.t_reach
    ts = [0.0, end, -s * 5e-13, end + s * 5e-10]
    for step in traj.sol.steps:
        ts += [s * step.t0, s * step.t1]
    ts += [end * i / 99 for i in range(100)]
    return np.array(ts + [f * end for f in fracs])


def _reference_chart(traj, t):
    """The chart raw reads at t, by a plain search: that of the step the
    trajectory's solution reads at the clamped time."""
    steps = traj.sol.steps
    tau = min(max(traj.sign * t, steps[0].t0), steps[-1].t1)
    return traj.charts[reference_step_index(steps, tau)]


cases = st.sampled_from(["torus", "backward", "sphere", "sphere_oracle"])


@given(cases, st.lists(st.floats(0.0, 1.0), max_size=40))
def test_states_match_scalar_lookups(lookup_cases, name, fracs):
    """states/energies/matrices/magnetic_curvature over an array are == to
    raw, energy, matrix and magnetic_curvature at each time, in the array's
    shape."""
    surface, field, traj, vp = lookup_cases[name]
    ts = _lookup_times(traj, fracs)
    raws = [traj.raw(t) for t in ts.tolist()]
    charts, cols = traj.states(ts, range(10))
    assert charts.tolist() == [c for c, _ in raws] == \
        [_reference_chart(traj, t) for t in ts.tolist()]
    for k, col in enumerate(cols):
        assert col.tolist() == [y[k] for _, y in raws]
    assert traj.energies(charts, cols[:4]).tolist() == \
        [energy(surface, traj.state(t)) for t in ts.tolist()]
    mats = vp.matrices(ts)
    assert mats.shape == ts.shape + (2, 2)
    assert all(np.array_equal(m, vp.matrix(t)) for m, t in zip(mats, ts.tolist()))
    km = magnetic_curvature(surface, field, traj, ts)
    assert km.tolist() == [magnetic_curvature(surface, field, traj, t)
                           for t in ts.tolist()]
    early = np.array([0.0, 1e-3]) * traj.t_reach  # within the first chart
    assert magnetic_curvature(surface, field, traj, early).tolist() == \
        [magnetic_curvature(surface, field, traj, t) for t in early.tolist()]
    grid = ts[:len(ts) // 2 * 2].reshape(-1, 2)
    _, (vy,) = traj.states(grid, (3,))
    assert vy.shape == grid.shape and vy.ravel().tolist() == cols[3][:grid.size].tolist()


def test_one_time_base_across_chart_switches(lookup_cases):
    """A sphere flow through chart switches is one list of steps in
    trajectory time: each step starts where the previous one ends, ==; and
    state(t) is == to states([t]) at every step boundary and at both ends."""
    _, _, traj, _ = lookup_cases["sphere"]
    steps = traj.sol.steps
    assert len(_chart_runs(traj)) > 2
    assert steps[0].t0 == 0.0 and steps[-1].t1 == traj.t_reach
    assert all(b.t0 == a.t1 for a, b in zip(steps, steps[1:]))
    for t in [0.0, traj.t_reach] + [s.t1 for s in steps]:
        charts, cols = traj.states(np.array([t]))
        assert traj.state(t) == PhasePoint(charts[0], *(col[0] for col in cols))


@given(cases, st.floats(1e-6, 10.0), st.booleans())
def test_states_reject_times_outside_range(lookup_cases, name, excess, after):
    _, _, traj, vp = lookup_cases[name]
    s, end = traj.sign, traj.t_reach
    t = end + s * excess * abs(end) if after else -s * excess
    with pytest.raises(ValueError):
        traj.raw(t)
    with pytest.raises(ValueError):
        traj.states(np.array([0.0, t, end]))
    with pytest.raises(ValueError):
        vp.matrices(np.array([t]))
