import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st
from scipy.optimize import brentq

from maglab.errors import NewtonDivergenceError, NoReturnError
from maglab.geometry import PhasePoint, energy, flat_torus, planar_chart, sphere
from maglab.field import (
    MagneticField,
    ConstantField,
    SinusoidalTorusField,
    ZonalSphereField,
)
from maglab.dynamics import IntegratorOptions, flow
from maglab.orbits import (
    Section,
    SectionReturnMap,
    _CrossingMonitor,
    _T_SKIP,
    _brent,
    classify,
    find_closed_orbit,
    first_return,
    phase_distance,
)
from maglab.franks import (FranksKit, PerturbA, build_GA, build_tubular_chart,
                           compute_constants)

from stage_defaults import ORBITS, orbit_search


def test_section_frame_anchor(disk, minus_one_field, disk_seed):
    sec = Section(disk, minus_one_field, disk_seed, ORBITS["half_width"])
    # (0, 0) embeds to the anchor
    st = sec.embed(0.0, 0.0)
    assert phase_distance(disk, st, disk_seed) <= 1e-14
    # the anchor has coordinates (0, 0)
    assert sec.coords(disk_seed) == (pytest.approx(0.0, abs=1e-15),) * 2
    # section curve direction is i v: orthogonal to the flow direction
    assert sec.unit_e[0] * disk_seed.vx + sec.unit_e[1] * disk_seed.vy == 0.0


def test_section_energy_preserved(torus, sin_field):
    sec = Section(torus, sin_field, PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                  ORBITS["half_width"])
    for s, R in [(0.05, 0.0), (-0.1, 0.2), (0.15, -0.3)]:
        st = sec.embed(s, R)
        assert energy(torus, st) == pytest.approx(0.5, abs=1e-14)
        ss, RR = sec.coords(st)
        assert ss == pytest.approx(s, abs=1e-12)
        assert RR == pytest.approx(R, abs=1e-12)


def test_first_return_disk_identity(disk, minus_one_field, disk_seed):
    sec = Section(disk, minus_one_field, disk_seed, ORBITS["half_width"])
    zc, transit, _ = first_return(sec, (0.0, 0.0), ORBITS["max_time"],
                                  IntegratorOptions())
    assert transit == pytest.approx(2.0 * math.pi, abs=1e-10)
    assert abs(zc[0]) <= 1e-9 and abs(zc[1]) <= 1e-9
    # all circles through nearby states close up: P = id near the origin
    for z in [(0.03, 0.0), (0.0, 0.04), (-0.02, 0.03)]:
        zc, _, _ = first_return(sec, z, ORBITS["max_time"], IntegratorOptions())
        assert abs(zc[0] - z[0]) <= 1e-6 and abs(zc[1] - z[1]) <= 1e-6


def test_first_return_torus_geodesic(torus, zero_field):
    sec = Section(torus, zero_field, PhasePoint(0, 0.4, 0.9, 1.0, 0.0),
                  ORBITS["half_width"])
    zc, transit, _ = first_return(sec, (0.0, 0.0), ORBITS["max_time"],
                                  IntegratorOptions())
    assert transit == pytest.approx(1.0, abs=1e-12)
    assert abs(zc[0]) <= 1e-12 and abs(zc[1]) <= 1e-12


def test_no_return_error(disk, zero_field):
    # straight geodesics on the disk never come back
    sec = Section(disk, zero_field, PhasePoint(0, 0.0, 0.0, 1.0, 0.0),
                  ORBITS["half_width"])
    with pytest.raises(NoReturnError):
        first_return(sec, (0.0, 0.0), max_time=5.0, options=IntegratorOptions())


def test_disk_closed_orbit(disk, minus_one_field, disk_seed):
    orb = find_closed_orbit(disk, minus_one_field, 0.5, disk_seed,
                            **orbit_search(tol=1e-10))
    assert abs(orb.period - 2.0 * math.pi) <= 1e-8
    assert np.abs(orb.monodromy - np.eye(2)).max() <= 1e-6
    assert orb.floquet_class == "parabolic"


def test_sphere_great_circle(unit_sphere, zero_field, tight_options):
    lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
    orb = find_closed_orbit(unit_sphere, zero_field, 0.5,
                            PhasePoint(0, 0.1, 0.0, 0.0, 1.0 / lam),
                            **orbit_search(max_time=20.0, options=tight_options))
    assert orb.period == pytest.approx(2.0 * math.pi, abs=1e-9)
    assert np.abs(orb.monodromy - np.eye(2)).max() <= 1e-7


def test_sphere_unit_field_orbit(unit_sphere, tight_options):
    fld = MagneticField(ConstantField(1.0))
    lam = unit_sphere.metric_at(0, 0.4, 0.0).lam
    orb = find_closed_orbit(unit_sphere, fld, 0.5,
                            PhasePoint(0, 0.4, 0.0, 0.0, 1.0 / lam),
                            **orbit_search(max_time=20.0, options=tight_options))
    assert orb.period == pytest.approx(2.0 * math.pi / math.sqrt(2.0), abs=1e-9)
    assert abs(orb.trace) <= 2.0 + 1e-9


def test_classify_cases():
    cls, eig = classify(np.array([[3.0, 0.0], [0.0, 1.0 / 3.0]]), ORBITS["class_tol"])
    assert cls == "hyperbolic"
    assert eig.eigenvalues[0] == pytest.approx(3.0)
    tr = 2.0 * math.cos(2.0 * math.pi * 0.3)
    M = np.array([[tr / 2, -math.sin(2 * math.pi * 0.3)],
                  [math.sin(2 * math.pi * 0.3), tr / 2]])
    cls, eig = classify(M, ORBITS["class_tol"])
    assert cls == "elliptic"
    assert eig.alpha == pytest.approx(0.3, abs=1e-12)
    cls, _ = classify(np.array([[1.0, 1.0], [0.0, 1.0]]), ORBITS["class_tol"])
    assert cls == "parabolic"


def test_classify_stability_band():
    """Perturbing a trace by class_tol cannot flip H <-> E directly."""
    ct = 1e-6
    for tr in np.linspace(2.0 - 3 * ct, 2.0 + 3 * ct, 25):
        M = np.array([[tr - 1.0, 1.0], [tr - 2.0, 1.0]])  # det = 1, trace = tr
        cls, _ = classify(M, ct)
        if cls == "hyperbolic":
            assert tr > 2.0 + ct
        elif cls == "elliptic":
            assert tr < 2.0 - ct
        else:
            assert 2.0 - 3 * ct <= tr <= 2.0 + 3 * ct


def test_hyperbolic_torus_orbit(torus, sin_field):
    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0), **orbit_search())
    om = math.sqrt(2.0 * math.pi)
    assert orb.floquet_class == "hyperbolic"
    assert orb.period == pytest.approx(1.0, abs=1e-10)
    assert orb.trace == pytest.approx(2.0 * math.cosh(om), abs=1e-8)
    assert abs(np.linalg.det(orb.monodromy) - 1.0) <= 1e-8
    assert orb.residual <= 1e-10
    # first return of the fixed point stays put
    zc, _, _ = first_return(orb.return_map.section, (0.0, 0.0), ORBITS["max_time"],
                            IntegratorOptions())
    assert abs(zc[0]) <= 1e-10 and abs(zc[1]) <= 1e-10


def test_orbit_keeps_the_return_map_of_its_search(torus, sin_field):
    """The orbit's return map is on the section through its state, with the
    search's half_width, max_time and integrator options."""
    opts = IntegratorOptions(rel_tol=1e-11, abs_tol=1e-13)
    orb = find_closed_orbit(torus, sin_field, 0.5, PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            **orbit_search(max_time=100.0, options=opts, half_width=0.1))
    rmap = orb.return_map
    assert rmap.max_time == 100.0 and rmap.options is opts
    assert rmap.section.half_width == 0.1
    assert rmap.section.anchor == orb.initial_state


def test_monodromy_conjugation_consistency(torus, sin_field, tight_options):
    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            **orbit_search(options=tight_options))
    moved = flow(torus, sin_field, orb.initial_state, 0.37, tight_options).end_state()
    orb2 = find_closed_orbit(torus, sin_field, 0.5, moved,
                             **orbit_search(options=tight_options))
    assert orb2.trace == pytest.approx(orb.trace, abs=1e-6)


def test_minimal_period_detection(torus, zero_field):
    """Seeding near a double cover still reports the primitive period."""
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.5, 0.5, 1.0, 0.0),
                            **orbit_search())
    assert orb.period == pytest.approx(1.0, abs=1e-10)


def test_orbit_search_logs_suspect(torus, zero_field, caplog):
    """The singular I - DP of the flat torus line orbit (a shear), seen from
    a seed tilted by 1e-9, is logged at INFO on maglab.orbits."""
    with caplog.at_level(logging.INFO, logger="maglab.orbits"):
        orb = find_closed_orbit(torus, zero_field, 0.5,
                                PhasePoint(0, 0.5, 0.5, 1.0, 1e-9), **orbit_search())
    lines = [r.getMessage() for r in caplog.records
             if r.name == "maglab.orbits" and r.levelno == logging.INFO]
    assert orb.parabolic_suspect
    assert any("parabolic-suspect" in m for m in lines), lines


def _count_search(monkeypatch):
    """Counts of the section returns, Jacobians, flows and variational flows
    that orbits.py makes from here on."""
    import maglab.orbits as orbits

    counts = dict.fromkeys(("returns", "jacobians", "flows", "variational"), 0)

    def counted(name, key):
        real = getattr(orbits, name)

        def call(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(orbits, name, call)

    counted("first_return", "returns")
    counted("fd_jacobian", "jacobians")
    counted("flow", "flows")
    counted("flow_with_variation", "variational")
    return counts


def test_converged_search_reuses_its_last_return(torus, sin_field, monkeypatch):
    """A converged search makes one return per Newton iterate plus 4 per
    Jacobian, and no more: the transit time comes from the return at the
    converged point, not from a repeat of it.  Each return is one flow, and
    the monodromy one variational flow over that transit time: the period
    is not re-derived by further flows."""
    counts = _count_search(monkeypatch)
    orb = find_closed_orbit(torus, sin_field, 0.5, PhasePoint(0, 0.02, 0.3, 0.0, -1.0),
                            **orbit_search())
    assert orb.residual <= 1e-8 and not orb.parabolic_suspect
    assert counts["jacobians"] >= 1
    assert counts["returns"] == 5 * counts["jacobians"] + 1
    assert counts["flows"] == counts["returns"]
    assert counts["variational"] == 1


def test_suspect_search_reuses_its_last_return(torus, zero_field, monkeypatch):
    """A search that breaks on a singular I - DP makes 5 returns per Newton
    iterate: the transit time comes from the return at the iterate, which
    the break does not move, not from a repeat of it.  Here too each return
    is one flow, and the monodromy one variational flow."""
    counts = _count_search(monkeypatch)
    orb = find_closed_orbit(torus, zero_field, 0.5, PhasePoint(0, 0.5, 0.5, 1.0, 1e-9),
                            **orbit_search())
    assert orb.parabolic_suspect
    assert orb.period == pytest.approx(1.0, abs=1e-10)
    assert counts["jacobians"] >= 1
    assert counts["returns"] == 5 * counts["jacobians"]
    assert counts["flows"] == counts["returns"]
    assert counts["variational"] == 1


def test_stalled_search_is_a_stage_failure(torus, sin_field, monkeypatch, tmp_path):
    """A search whose Newton iterates run out returns once more from the last
    iterate and raises NewtonDivergenceError with that return's residual; an
    orbits stage lists the seed under its failures and exits 0."""
    from maglab.scenarios import Scenario, run_scenario

    monkeypatch.setattr("maglab.orbits._MAX_NEWTON", 1)
    counts = _count_search(monkeypatch)
    with pytest.raises(NewtonDivergenceError,
                       match="shooting stalled with section residual 2.300e-02"):
        find_closed_orbit(torus, sin_field, 0.5, PhasePoint(0, 0.02, 0.3, 0.0, -1.0),
                          **orbit_search())
    # the iterate's return, its Jacobian's 4 and the return from the new point
    assert (counts["returns"], counts["jacobians"]) == (6, 1)
    assert counts["variational"] == 0
    sc = Scenario({"field": {"kind": "sinusoidal"},
                   "seeds": [{"chart": 0, "x": 0.02, "y": 0.3, "vx": 0.0, "vy": -1.0}],
                   "pipeline": [{"stage": "orbits"}]})
    code, reports = run_scenario(sc, out_dir=str(tmp_path))
    assert code == 0
    assert reports["orbits"]["orbits"] == []
    assert reports["orbits"]["failures"] == [{
        "seed_index": 0,
        "error": "shooting stalled with section residual 2.300e-02"}]


@pytest.mark.parametrize("case", ["sphere", "torus", "disk"])
def test_return_path_integrates_python_floats(case, unit_sphere, torus, disk,
                                              zero_field, sin_field, minus_one_field,
                                              monkeypatch):
    """Shooting and a return from an ndarray point hand the integrator only
    Python floats: the start time, the end time, the start state and every
    accepted step's h and y1.  A numpy scalar would run each step in numpy
    scalar arithmetic, with the same bits at about twice the cost."""
    import maglab.dynamics as dynamics

    seen = []
    real_integrate = dynamics.integrate

    def recorded(rhs, t0, y0, t_final, *args, **kwargs):
        sol = real_integrate(rhs, t0, y0, t_final, *args, **kwargs)
        seen.append((t0, t_final, tuple(y0), sol))
        return sol

    switches = []
    real_transition = type(unit_sphere).transition

    def counted_transition(self, state):
        switches.append(state.chart)
        return real_transition(self, state)

    monkeypatch.setattr(dynamics, "integrate", recorded)
    monkeypatch.setattr(type(unit_sphere), "transition", counted_transition)
    if case == "sphere":
        # a great circle leaves the chart of its seed
        lam = unit_sphere.metric_at(0, 0.1, 0.0).lam
        surface, field, seed = unit_sphere, zero_field, (0, 0.1, 0.0, 0.0, 1.0 / lam)
    elif case == "torus":
        surface, field, seed = torus, sin_field, (0, 0.02, 0.3, 0.0, -1.0)
    else:
        surface, field, seed = disk, minus_one_field, (0, -1.0, 0.0, 1.0, 0.0)
    orb = find_closed_orbit(surface, field, 0.5,
                            PhasePoint(seed[0], *np.array(seed[1:])),
                            **orbit_search(max_time=20.0))
    SectionReturnMap(orb.return_map.section, ORBITS["max_time"],
                     IntegratorOptions())(np.array([2e-3, -1e-3]))

    assert seen
    if case == "sphere":
        assert switches
    if case == "torus":
        assert any(len(y0) == 10 for _, _, y0, _ in seen)
    for t0, t_final, y0, sol in seen:
        assert type(t0) is float and type(t_final) is float
        assert all(type(v) is float for v in y0)
        for step in sol.steps:
            assert type(step.h) is float
            assert all(type(v) is float for v in step.y1)
    for point in (orb.initial_state, orb.return_map.section.anchor):
        assert all(type(v) is float for v in (point.x, point.y, point.vx, point.vy))


def _reshoot(orb, surface, field):
    """The orbit found from orb's own state in `field`, and its phase-space
    displacement from orb."""
    new = find_closed_orbit(surface, field, orb.c, orb.initial_state, **orbit_search())
    return new, phase_distance(surface, orb.initial_state, new.initial_state)


def test_continue_orbit_same_field(torus, sin_field):
    """Re-shooting from an orbit's own state returns that orbit."""
    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0), **orbit_search())
    new, disp = _reshoot(orb, torus, sin_field)
    assert disp <= 1e-9
    assert new.period == pytest.approx(orb.period, abs=1e-10)


def test_continue_orbit_supported_off_core(torus, sin_field, tight_options):
    """A perturbation vanishing on the core keeps the orbit and its period."""
    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0), **orbit_search())
    kit = FranksKit(build_tubular_chart(torus, sin_field, orb.initial_state, 0.2,
                                        0.02, tight_options))
    consts = compute_constants(kit, 0.1)
    f2, _, _ = build_GA(kit, consts, PerturbA(0.5 * consts.delta1, 0.0, 0.0))
    new, disp = _reshoot(orb, torus, f2)
    assert disp <= 1e-9
    assert new.period == pytest.approx(orb.period, abs=1e-9)


def test_continuation_displacement_scales(torus):
    """Displacement -> 0 linearly as the field perturbation shrinks."""
    base = MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0))
    seed = PhasePoint(0, 0.0, 0.0, 0.0, -1.0)
    orb = find_closed_orbit(torus, base, 0.5, seed, **orbit_search())
    disps = []
    for eps in (1e-2, 1e-3, 1e-4):
        shifted = MagneticField(SinusoidalTorusField(1.0, (1, 0), phase=eps))
        _, disp = _reshoot(orb, torus, shifted)
        disps.append(disp)
    assert disps[0] > disps[1] > disps[2]
    # 3-point slope: roughly one decade per decade
    r1 = math.log10(disps[0] / disps[1])
    r2 = math.log10(disps[1] / disps[2])
    assert 0.6 <= r1 <= 1.4 and 0.6 <= r2 <= 1.4


def test_return_map_inverse(torus, sin_field, tight_options):
    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            **orbit_search(options=tight_options))
    rmap = SectionReturnMap(orb.return_map.section, ORBITS["max_time"], tight_options)
    z = np.array([0.02, -0.01])
    w = rmap(z)
    back = rmap.inverse(w)
    assert np.abs(back - z).max() <= 1e-8


# -- the raw-float section offset against the PhasePoint path ---------------------

_OFFSET_SURFACES = {
    "torus": (flat_torus(), MagneticField(SinusoidalTorusField(1.0, (1, 0), 0.0))),
    "planar": (planar_chart(3.0, math.pi), MagneticField(ConstantField(-1.0))),
    "sphere 0.5": (sphere(0.5), MagneticField(ZonalSphereField(1.6))),
    "sphere 1": (sphere(1.0), MagneticField(ZonalSphereField(1.6))),
    "sphere 2.5": (sphere(2.5), MagneticField(ZonalSphereField(1.6))),
}


def _ref_offset(sec, state):
    """The section's offset through the full phase-point chart transition."""
    surface, anchor = sec.surface, sec.anchor
    if state.chart != anchor.chart:
        if surface.kind != "sphere" or state.x * state.x + state.y * state.y < 1e-12:
            return None
        state = surface.transition(state)
        if not surface.contains(anchor.chart, state.x, state.y):
            return None
    dx, dy = surface.wrap_diff(state.x - anchor.x, state.y - anchor.y)
    if dx * dx + dy * dy > 0.35 * 0.35 and surface.kind == "torus":
        return None
    return dx * sec.normal_e[0] + dy * sec.normal_e[1]


def _sections():
    """A section at a random anchor of a random surface."""
    return st.tuples(st.sampled_from(sorted(_OFFSET_SURFACES)), st.integers(0, 1),
                     st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                     st.floats(0.0, 2.0 * math.pi))


# positions spread over the chart, clustered near the anchor and near the origin
_coord = st.one_of(st.floats(-3.0, 3.0), st.floats(-1e-5, 1e-5))


@given(_sections(), st.integers(0, 1), _coord, _coord, st.floats(-2.0, 2.0),
       st.floats(-2.0, 2.0))
@example(("sphere 1", 0, 0.3, 0.0, 1.0), 1, 0.0, 0.0, 0.5, 0.0)  # at the origin
@example(("sphere 1", 0, 0.3, 0.0, 1.0), 1, 1e-7, 0.0, 0.5, 0.0)  # near the origin
@example(("sphere 1", 0, 0.3, 0.0, 1.0), 1, 2e-6, 0.0, 0.5, 0.0)  # maps past R_MAX
@example(("sphere 1", 1, 0.3, 0.0, 1.0), 0, 3.0, 0.5, 0.5, 0.0)  # off the anchor chart
@example(("torus", 0, 0.1, 0.2, 1.0), 0, 0.5, 0.2, 0.5, 0.0)  # outside the 0.35 window
@example(("torus", 0, 0.1, 0.2, 1.0), 0, 0.455, 0.2, 0.5, 0.0)  # just outside it
@example(("torus", 0, 0.1, 0.2, 1.0), 0, 1.05, 1.1, 0.5, 0.0)  # a lattice image
def test_offset_at_matches_phase_point_path(sec_args, chart, x, y, vx, vy):
    name, anchor_chart, ax, ay, angle = sec_args
    surface, field = _OFFSET_SURFACES[name]
    anchor_chart %= len(surface.charts)
    chart %= len(surface.charts)
    anchor = PhasePoint(anchor_chart, ax, ay, math.cos(angle), math.sin(angle))
    sec = Section(surface, field, anchor, ORBITS["half_width"])
    state = PhasePoint(chart, x, y, vx, vy)
    want = _ref_offset(sec, state)
    assert sec.offset_at(chart, x, y) == want


# -- the Brent root finder against scipy's brentq ------------------------------------


def _horner(coeffs):
    def p(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc
    return p


@given(st.integers(3, 4).flatmap(
    lambda deg: st.lists(st.floats(-10.0, 10.0), min_size=deg + 1, max_size=deg + 1)),
    st.floats(-5.0, 5.0), st.floats(1e-3, 10.0))
@example([1.0, 0.0, -2.0, 1.0], -2.0, 4.0)
@example([1.0, -0.5, -3.0, 1.0, 0.2], -1.0, 3.0)
@example([1.0, 0.0, 0.0, 0.0], -0.25, 1.0)  # x^3: 100 iterations do not reach xtol
@example([0.0, 5.4e-143, 5.4e-143, 0.0], -1.5, 1.0)  # underflow: a zero divisor
# only about one draw in five brackets a root; the assume() below keeps those,
# and on some seeds that trips the generation-speed health check
@settings(suppress_health_check=[HealthCheck.filter_too_much])
def test_brent_matches_brentq(coeffs, a, width):
    """Same root, bit for bit, at the crossing monitor's tolerances, and the
    same RuntimeError where brentq runs out of iterations."""
    f = _horner(coeffs)
    b = a + width
    assume(f(a) * f(b) < 0.0)
    try:
        want = brentq(f, a, b, xtol=1e-13, rtol=8.9e-16)
    except RuntimeError:
        with pytest.raises(RuntimeError):
            _brent(f, a, b, xtol=1e-13, rtol=8.9e-16)
        return
    assert _brent(f, a, b, xtol=1e-13, rtol=8.9e-16) == want


# -- the crossing monitor's skip against sampling every step ---------------------


class _SampledMonitor(_CrossingMonitor):
    """The crossing monitor with every step sampled at k = 0..n and pairs
    formed within the step: the reference for the skip.

    It keeps collecting hits (no `want`), so that whole flows compare.
    """

    def __call__(self, chart, step):
        t0, h = step.t0, step.h
        speed = math.hypot(step.y1[2], step.y1[3])
        n = max(3, min(256, int(h * speed / 0.08) + 1))
        prev = None  # no pair spans two steps
        for k in range(n + 1):
            tau = t0 + k / n * h
            l = self.section.offset_at(chart, *step.eval_position(tau))
            if l is None:
                self.armed = False
            elif not self.armed:
                self.armed = abs(l) > 1e-9
            elif prev is not None and (l == 0.0 or (prev[1] < 0.0) != (l < 0.0)):
                hit = self._refine(chart, step, prev[0], tau)
                if hit is not None and hit[0] > _T_SKIP:
                    self.hits.append(hit)
            prev = None if l is None else (tau, l)
        return True


class _CountingMonitor(_CrossingMonitor):
    """The crossing monitor, counting the steps it skips."""

    skipped = 0

    def _skip(self, chart, step):
        skipped = super()._skip(chart, step)
        self.skipped += skipped
        return skipped


def _edge_start(anchor, r, phi, psi):
    """A unit-speed torus state at distance r from the anchor."""
    return PhasePoint(anchor.chart, anchor.x + r * math.cos(phi),
                      anchor.y + r * math.sin(phi), math.cos(psi), math.sin(psi))


@st.composite
def _monitored_flows(draw):
    """(section, legs, options): flows to monitor one after the other, each
    leg a (start state, signed duration).

    The first leg starts on the section (a forward or a backward return)
    or, on the torus, near the edge of the 0.35 offset window around the
    anchor.  A second leg, when drawn, starts off the section, so that the
    monitor sees a jump in the offset between two steps.
    """
    name = draw(st.sampled_from(sorted(_OFFSET_SURFACES)))
    surface, field = _OFFSET_SURFACES[name]
    chart = draw(st.integers(0, len(surface.charts) - 1))
    ax, ay = draw(st.floats(-0.7, 0.7)), draw(st.floats(-0.7, 0.7))
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    anchor = PhasePoint(chart, ax, ay, math.cos(angle), math.sin(angle))
    sec = Section(surface, field, anchor, ORBITS["half_width"])

    def on_section():
        return sec.embed(draw(st.floats(-0.1, 0.1)),
                         draw(st.floats(-0.5, 0.5)) * math.sqrt(2.0 * sec.c))

    def duration():
        return draw(st.floats(1.0, 6.0)) * draw(st.sampled_from([1, -1]))

    if surface.kind == "torus" and draw(st.booleans()):
        first = _edge_start(anchor, draw(st.floats(0.3, 0.4)),
                            draw(st.floats(0.0, 2.0 * math.pi)),
                            draw(st.floats(0.0, 2.0 * math.pi)))
    else:
        first = on_section()
    legs = [(first, duration())]
    if draw(st.booleans()):
        if surface.kind == "torus" and draw(st.booleans()):
            second = _edge_start(anchor, draw(st.floats(0.3, 0.5)),
                                 draw(st.floats(0.0, 2.0 * math.pi)),
                                 draw(st.floats(0.0, 2.0 * math.pi)))
        else:
            p, d = on_section(), draw(st.floats(-0.2, 0.2))
            n0, n1 = sec.normal_e
            second = PhasePoint(p.chart, p.x + d * n0, p.y + d * n1, p.vx, p.vy)
        legs.append((second, duration()))
    # steps of at most 0.1 at unit speed, so that a flow has steps the skip
    # rule can skip: a longer torus step can neither lie inside the 0.35
    # window clear of the section nor wholly outside it
    options = IntegratorOptions(rel_tol=draw(st.sampled_from([1e-6, 1e-10])),
                                abs_tol=1e-12, max_step=draw(st.sampled_from([0.05, 0.1])))
    return sec, legs, options


_TORUS_ANCHOR = PhasePoint(0, 0.0, 0.0, 1.0, 0.0)
_DISK_ANCHOR = PhasePoint(0, 0.0, 0.0, 1.0, 0.0)


@given(_monitored_flows())
# a flow along the window's edge, tangent to it at the start
@example((Section(*_OFFSET_SURFACES["torus"], _TORUS_ANCHOR, ORBITS["half_width"]),
          [(_edge_start(_TORUS_ANCHOR, 0.35, 0.5 * math.pi, 0.0), 4.0)],
          IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)))
# a jump from inside the torus window to a short leg wholly outside it
@example((Section(*_OFFSET_SURFACES["torus"], _TORUS_ANCHOR, ORBITS["half_width"]),
          [(_TORUS_ANCHOR, 0.1),
           (_edge_start(_TORUS_ANCHOR, 0.45, 0.5 * math.pi, 0.5 * math.pi), 0.05)],
          IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)))
# a jump across the section between two legs, at offsets -0.05 and 0.05:
# no pair spans two steps, so neither monitor finds a crossing there
@example((Section(*_OFFSET_SURFACES["planar"], _DISK_ANCHOR, ORBITS["half_width"]),
          [(PhasePoint(0, -0.15, 0.0, 1.0, 0.0), 0.1),
           (PhasePoint(0, 0.05, 0.0, 1.0, 0.0), 0.5)],
          IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12, max_step=0.01)))
def test_monitor_skip_matches_sampling(flow_args):
    """The monitor finds the crossings of sampling every step, `==` in time
    and state, and ends in the same state; and it skips some steps."""
    sec, legs, options = flow_args
    mon, ref = _CountingMonitor(sec), _SampledMonitor(sec)
    mon.want = math.inf

    def both(chart, step):
        assert mon(chart, step)
        ref(chart, step)

    for start, duration in legs:
        flow(sec.surface, sec.field, start, duration, options, observer=both)
    assert mon.hits == ref.hits
    assert mon.armed == ref.armed
    assert mon.skipped > 0


@given(_monitored_flows(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
       st.booleans())
def test_skip_bounds_hold_on_every_step(flow_args, thetas, unbounded):
    """On every step in the anchor chart, at the drawn theta and both ends,
    the interpolated position is within `move` of the step's start and its
    chart-normal offset within `reach` of the start's, up to the rounding
    slack the skip rule adds: in the degree-7 interpolant's nested form every
    factor theta or 1 - theta lies in [0, 1].  Steps run up to max_step or,
    when `unbounded`, as long as the integrator takes them."""
    sec, legs, options = flow_args
    if unbounded:
        options = dataclasses.replace(options, max_step=math.inf)
    mon = _CrossingMonitor(sec)
    anchor = sec.anchor
    n0, n1 = sec.normal_e
    checked = []

    def check(chart, step):
        if chart != anchor.chart:
            return True
        move, reach = mon._bounds(step)
        x0, y0 = step.y0[0], step.y0[1]
        slack = 1e-12 * (abs(x0) + abs(y0) + abs(anchor.x) + abs(anchor.y) + move)
        l0 = (x0 - anchor.x) * n0 + (y0 - anchor.y) * n1
        for th in thetas + [0.0, 1.0]:
            x, y = step.eval_position(step.t0 + th * step.h)
            assert math.hypot(x - x0, y - y0) <= move + slack
            assert abs((x - anchor.x) * n0 + (y - anchor.y) * n1 - l0) <= reach + slack
        checked.append(step)
        return True

    for start, duration in legs:
        flow(sec.surface, sec.field, start, duration, options, observer=check)
    assert checked


@pytest.mark.parametrize("case", ["sphere", "torus"])
def test_skipped_steps_read_no_point(case, unit_sphere, torus, sin_field,
                                     tight_options, monkeypatch):
    """A step the monitor skips costs no interpolant evaluation: the skip
    reads only the step's start and its rows."""
    import maglab.integrate as integrate
    import maglab.orbits as orbits

    read, skipped = set(), []
    real_position = integrate.DenseStep.eval_position

    def counted_position(self, t):
        read.add(id(self))
        return real_position(self, t)

    class Monitor(_CrossingMonitor):
        def _skip(self, chart, step, *rest):
            skip = super()._skip(chart, step, *rest)
            if skip:
                skipped.append(step)
            return skip

    monkeypatch.setattr(integrate.DenseStep, "eval_position", counted_position)
    monkeypatch.setattr(orbits, "_CrossingMonitor", Monitor)
    if case == "sphere":
        # sphere_twist's field and seed
        surface, field = unit_sphere, MagneticField(ZonalSphereField(1.6))
        anchor = PhasePoint(0, 0.35, 0.0, 0.0, 0.5)
    else:
        surface, field = torus, sin_field
        anchor = PhasePoint(0, 0.02, 0.3, 0.0, -1.0)
    first_return(Section(surface, field, anchor, ORBITS["half_width"]), (0.0, 0.0), 30.0,
                 options=tight_options)
    assert skipped
    assert not read & {id(step) for step in skipped}


@pytest.mark.parametrize("x, angle, rel_tol", [
    (1.9, 0.0, 1e-6), (1.9, 0.3, 1e-10), (1.95, 1.2, 1e-10), (1.99, 0.0, 1e-6),
    (1.99, 0.0, 1e-10), (1.99, 1.2, 1e-10), (0.51, 2.0, 1e-6), (0.51, 2.0, 1e-10),
    (0.52, 2.0, 1e-6),
    # a far crossing near the edge of the anchor chart's disk |z| < 8
    (0.52, 0.3, 1e-6)])
def test_sphere_return_near_the_chart_switch(x, angle, rel_tol, unit_sphere,
                                             zero_field):
    """A great circle through an anchor near the chart switch radius (|z| = 2
    in chart 0, 1/2 in chart 1) returns to the anchor after one turn.  The
    crossing may lie in the step that leaves a chart, which the monitor sees
    like any other."""
    sec = Section(unit_sphere, zero_field,
                  PhasePoint(0, x, 0.0, math.cos(angle), math.sin(angle)),
                  ORBITS["half_width"])
    options = IntegratorOptions(rel_tol=rel_tol, abs_tol=1e-12)
    zc, transit, _ = first_return(sec, (0.0, 0.0), 20.0, options=options)
    assert transit == pytest.approx(2.0 * math.pi / sec.lam0, abs=1e-4)
    assert max(abs(zc[0]), abs(zc[1])) <= 1e-4
