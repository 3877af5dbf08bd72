"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from maglab.geometry import PhasePoint, flat_torus, planar_chart, sphere
from maglab.field import (
    MagneticField,
    ConstantField,
    SinusoidalTorusField,
    ZonalSphereField,
)
from maglab.dynamics import (
    IntegratorOptions,
    flow,
    flow_with_variation,
)
from maglab.orbits import SectionReturnMap, find_closed_orbit, phase_distance
from maglab.normalform import birkhoff_beta, jet3, twist_by_rotation_number
from maglab.franks import (
    build_franks_kit,
    compute_constants,
    segment_split,
    verify_ball_surjectivity,
    verify_cota,
)
from maglab.chaos import (
    Rectangle,
    certify_horseshoe,
    crossing_boxes,
    detect_homoclinic,
    dominated_splitting_check,
    grow_manifold,
)
from maglab.maps import HorseshoeMap, StandardMap
from maglab.mane import (
    _fourier_tables,
    ConstantForm,
    LagrangianSpec,
    estimate_critical_value,
    verify_witness,
)
from maglab.scenarios import load_scenario, run_scenario

from oracles import TwistMap, fd_monodromy


def _ok(num, name, detail):
    print(f"[acceptance] C{num:02d} {name}: PASS ({detail})")


def scenario_path(name):
    import maglab

    return os.path.join(os.path.dirname(maglab.__file__), "scenarios", name)


TIGHT = IntegratorOptions(rel_tol=1e-12, abs_tol=1e-13)


@pytest.fixture(scope="module")
def franks_bundle():
    torus = flat_torus()
    fld = MagneticField(SinusoidalTorusField(1.0))
    orb = find_closed_orbit(torus, fld, 0.5, PhasePoint(0, 0.0, 0.0, 0.0, -1.0))
    split = segment_split(orb, torus, fld, 0.5, 0.02, TIGHT)
    kits = []
    for i in range(2):
        kit = build_franks_kit(split, i)
        kits.append((kit, compute_constants(kit, 0.1)))
    return torus, fld, orb, split, kits


def test_c01_disk_example():
    t0 = time.perf_counter()
    disk = planar_chart()
    fld = MagneticField(ConstantField(-1.0))
    orb = find_closed_orbit(disk, fld, 0.5, PhasePoint(0, -1.0, 0.0, 1.0, 0.0),
                            tol=1e-10)
    elapsed = time.perf_counter() - t0
    t_err = abs(orb.period - 2.0 * math.pi)
    m_err = float(np.abs(orb.monodromy - np.eye(2)).max())
    assert t_err <= 1e-8
    assert m_err <= 1e-6
    assert orb.floquet_class == "parabolic"
    assert elapsed < 1.0
    _ok(1, "disk example", f"T err {t_err:.2e}, |M-I| {m_err:.2e}, "
        f"parabolic, {elapsed:.2f}s")


def test_c02_energy_conservation():
    t0 = time.perf_counter()
    torus = flat_torus()
    fld = MagneticField(SinusoidalTorusField(1.0))
    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    traj = flow(torus, fld, PhasePoint(0, 0.1, 0.2, 0.6, 0.8), 1000.0, opts)
    elapsed = time.perf_counter() - t0
    assert traj.max_energy_drift <= 1e-9
    assert elapsed < 10.0
    _ok(2, "energy conservation", f"drift {traj.max_energy_drift:.2e} over "
        f"t=1000, {elapsed:.1f}s")


def test_c03_symplecticity_bundled():
    worst = 0.0
    names = ["disk_example.json", "torus_geodesic.json", "sphere_oracle.json",
             "torus_hyperbolic.json", "franks_verify.json", "sphere_twist.json"]
    for name in names:
        sc = load_scenario(scenario_path(name))
        for seed in sc.seeds:
            from maglab.orbits import rescale_to_energy

            st = rescale_to_energy(sc.surface, seed, sc.c)
            _, vp = flow_with_variation(sc.surface, sc.field, st, 2.0, TIGHT)
            worst = max(worst, vp.det_defect(128))
    assert worst <= 1e-8
    _ok(3, "symplecticity", f"max |det X - 1| = {worst:.2e} over "
        f"{len(names)} bundled scenarios")


def test_c04_variational_vs_fd():
    torus = flat_torus()
    disk = planar_chart()
    sp = sphere(1.0)
    cases = [
        (torus, MagneticField(SinusoidalTorusField(1.0)),
         PhasePoint(0, 0.0, 0.0, 0.0, -1.0), 1.0),
        (disk, MagneticField(ConstantField(-1.0)),
         PhasePoint(0, -1.0, 0.0, 1.0, 0.0), 2.0),
        (sp, MagneticField(ZonalSphereField(1.6)),
         PhasePoint(0, 0.35, 0.0, 0.0, 1.0 / sp.metric_at(0, 0.35, 0.0).lam), 1.5),
        (torus, MagneticField(ConstantField(0.0)),
         PhasePoint(0, 0.0, 0.0, 1.0, 0.0), 1.0),
    ]
    worst = 0.0
    for surf, fld, seed, T in cases:
        _, vp = flow_with_variation(surf, fld, seed, T, TIGHT)
        F = fd_monodromy(surf, fld, seed, T, h=1e-5)
        worst = max(worst, float(np.abs(F - vp.matrix(T)).max()))
    assert worst <= 1e-4
    _ok(4, "variational vs FD", f"max deviation {worst:.2e} over "
        f"{len(cases)} scenarios (step 1e-5)")


def test_c05_sphere_period_oracle():
    sp = sphere(1.0)
    fld = MagneticField(ConstantField(1.0))
    lam = sp.metric_at(0, 0.4, 0.0).lam
    seed = PhasePoint(0, 0.4, 0.0, 0.0, 1.0 / lam)
    orb = find_closed_orbit(sp, fld, 0.5, seed, max_time=20.0, options=TIGHT)
    analytic = 2.0 * math.pi / math.sqrt(2.0)
    # independent fine-tolerance oracle: bisection on the recurrence time
    oracle_opts = IntegratorOptions(rel_tol=1e-13, abs_tol=1e-14)
    start = orb.initial_state

    def dist_at(T):
        return phase_distance(sp, start,
                              flow(sp, fld, start, T, oracle_opts).end_state())

    lo, hi = analytic - 1e-3, analytic + 1e-3
    for _ in range(60):
        m1 = lo + (hi - lo) * 0.382
        m2 = lo + (hi - lo) * 0.618
        if dist_at(m1) < dist_at(m2):
            hi = m2
        else:
            lo = m1
    t_oracle = 0.5 * (lo + hi)
    assert abs(orb.period - t_oracle) <= 1e-6
    assert abs(orb.period - analytic) <= 1e-6
    _ok(5, "sphere oracle", f"period {orb.period:.12f}, oracle gap "
        f"{abs(orb.period - t_oracle):.2e}, analytic gap "
        f"{abs(orb.period - analytic):.2e}")


def test_c06_flat_geodesic_monodromy():
    torus = flat_torus()
    fld = MagneticField(ConstantField(0.0))
    _, vp = flow_with_variation(torus, fld, PhasePoint(0, 0, 0, 1, 0), 1.0, TIGHT)
    err = float(np.abs(vp.matrix(1.0) - np.array([[1.0, 1.0], [0.0, 1.0]])).max())
    assert err <= 1e-9
    _ok(6, "flat-geodesic monodromy", f"|X(1) - shear| = {err:.2e}")


def test_c07_constants_ledger(franks_bundle):
    _, _, _, _, kits = franks_bundle
    for i, (kit, consts) in enumerate(kits):
        assert consts.all_inequalities_hold(), consts.checks
        assert min(consts.checks.values()) >= 0.0
    slacks = [min(c.checks.values()) for _, c in kits]
    _ok(7, "constants ledger", f"two segments, min slack {min(slacks):.3e}")


def test_c08_cota(franks_bundle):
    _, _, _, _, kits = franks_bundle
    kit, consts = kits[0]
    t0 = time.perf_counter()
    rep = verify_cota(kit, consts, sample_count=20, seed=0)
    elapsed = time.perf_counter() - t0
    assert rep.min_margin >= 1.0
    assert rep.linearity_defect <= 1e-6
    assert elapsed < 60.0
    _ok(8, "first-variation bound", f"20 samples, min margin "
        f"{rep.min_margin:.2f}, linearity {rep.linearity_defect:.1e}, "
        f"{elapsed:.1f}s")


def test_c09_ball_surjectivity(franks_bundle):
    _, _, _, _, kits = franks_bundle
    kit, consts = kits[0]
    rep = verify_ball_surjectivity(kit, consts, n_targets=8, mode="sphere",
                                   seed=0)
    assert rep.solved == 8
    assert rep.max_residual <= 1e-6
    assert rep.max_A_norm <= consts.delta1
    fwd = verify_ball_surjectivity(kit, consts, n_targets=4, mode="forward",
                                   seed=0)
    assert fwd.solved == 4
    assert fwd.max_residual <= 1e-6
    assert fwd.max_A_norm <= consts.delta1
    _ok(9, "ball surjectivity", f"8 sphere targets max residual "
        f"{rep.max_residual:.1e}; 4 forward inversions max |A| "
        f"{fwd.max_A_norm:.2e} <= delta1 {consts.delta1:.2e}")


def test_c08_c09_franks_verify_scenario(tmp_path):
    """The bundled franks_verify scenario meets C08 and C09 on its own kit,
    flown at the scenario's integrator options: the gates of C08/C09 (and
    of the benchmark's franks_ledger check) applied to its franks.json."""
    code, _ = run_scenario(load_scenario(scenario_path("franks_verify.json")),
                           out_dir=str(tmp_path))
    assert code == 0
    with open(tmp_path / "franks.json") as fh:
        fr = json.load(fh)
    cota = fr["cota"]
    assert cota["min_margin"] >= 1.0
    assert cota["linearity_defect"] <= 1e-6
    delta1 = fr["constants"]["delta1"]
    for key in ("surjectivity", "surjectivity_forward"):
        rep = fr[key]
        assert rep["solved"] == rep["targets"]
        assert rep["max_residual"] <= 1e-6
        assert rep["max_A_norm"] <= delta1
    _ok(9, "franks_verify scenario", f"{cota['samples']} cota samples, min margin "
        f"{cota['min_margin']:.2f}; {fr['surjectivity']['solved']} sphere and "
        f"{fr['surjectivity_forward']['solved']} forward targets solved")


def test_c10_twist_cross_validation():
    # injected twist map: recover (0.3, 2) within 1%
    tm = TwistMap(0.3, 2.0)
    td = birkhoff_beta(jet3(tm, fd_scale=5e-3))
    fit = twist_by_rotation_number(tm, [0.01, 0.02, 0.03, 0.04, 0.05],
                                   n_iter=400)
    assert abs(td.alpha - 0.3) <= 0.01 * 0.3
    assert abs(td.beta - 2.0) <= 0.01 * 2.0
    assert abs(fit.alpha - 0.3) <= 0.01 * 0.3
    assert abs(fit.beta - 2.0) <= 0.01 * 2.0
    # elliptic orbit on the sphere with a tuned zonal field
    sp = sphere(1.0)
    fld = MagneticField(ZonalSphereField(1.6))
    lam = sp.metric_at(0, 0.35, 0.0).lam
    orb = find_closed_orbit(sp, fld, 0.5, PhasePoint(0, 0.35, 0.0, 0.0, 1.0 / lam),
                            max_time=30.0, options=TIGHT)
    assert orb.floquet_class == "elliptic"
    rmap = SectionReturnMap(orb.section, options=TIGHT)
    jet = jet3(rmap, (0.0, 0.0), fd_scale=2e-3)
    td_orbit = birkhoff_beta(jet)
    fit_orbit = twist_by_rotation_number(rmap, [0.005, 0.01, 0.015, 0.02],
                                         n_iter=250)
    rel = abs(td_orbit.beta - fit_orbit.beta) / abs(fit_orbit.beta)
    assert rel <= 0.05
    _ok(10, "twist cross-validation", f"injected (0.3, 2) errors "
        f"{abs(td.beta-2)/2:.1e}/{abs(fit.beta-2)/2:.1e}; sphere orbit "
        f"beta_jet {td_orbit.beta:.4f} vs beta_fit {fit_orbit.beta:.4f} "
        f"({100*rel:.1f}%)")


def test_c11_chaos_harness():
    sm = StandardMap(1.5)
    wu = grow_manifold(sm, (0.0, 0.0), "unstable", 1, 2.5, tol=1e-4)
    ws = grow_manifold(sm, (1.0, 0.0), "stable", 1, 2.5, tol=1e-4)
    hits = [h for h in detect_homoclinic(ws, wu)
            if h.transversal(1e-3)]
    assert len(hits) >= 1
    best = max(hits, key=lambda h: h.angle)
    assert best.angle > 1e-3
    rep = certify_horseshoe(sm, crossing_boxes(sm, best.point, (0.0, 0.0)),
                            range(1, 21), 1.0)
    assert rep.h_top_lower > 0.0
    hs = HorseshoeMap()
    frame = np.array([[0.0, 1.0], [1.0, 0.0]])
    rects = [Rectangle(np.array([0.5, 1.0 / 6.0]), 1.0 / 6.0, 0.5, frame),
             Rectangle(np.array([0.5, 5.0 / 6.0]), 1.0 / 6.0, 0.5, frame)]
    rep2 = certify_horseshoe(hs, [rects], (1,), 1.0)
    assert abs(rep2.h_top_lower - math.log(2.0)) <= 1e-12
    _ok(11, "chaos harness", f"standard map: {len(hits)} transversal "
        f"crossings, best angle {best.angle:.3f}, bound "
        f"{rep.h_top_lower:.4f}; horseshoe bound = log 2 exactly")


def test_c12_dominated_splitting():
    entries = [{"monodromy": [[mu, 0.0], [0.0, 1.0 / mu]], "period": 1.0}
               for mu in (2.0, 3.0, 5.0)]
    rep = dominated_splitting_check(entries, T=1.0, lambda_target=0.5)
    for prod, mu in zip(rep.products, (2.0, 3.0, 5.0)):
        assert prod == pytest.approx(1.0 / mu**2, rel=1e-12)
    worst = 0.0
    for n in (2, 3):
        for got, want in rep.power_checks[n]:
            worst = max(worst, abs(got - want))
    assert worst <= 1e-5
    _ok(12, "dominated splitting", f"products (1/4, 1/9, 1/25), power-law "
        f"defect {worst:.1e}")


def test_c13_critical_value():
    torus = flat_torus()
    lag = LagrangianSpec(torus, ConstantForm(0.7, 0.0))
    br = estimate_critical_value(lag, k_range=(-0.25, 1.0), bisection_tol=1e-4,
                                 restarts=8, maxiter=200)
    assert br.c_lo <= 0.0 <= br.c_hi
    assert br.c_hi - br.c_lo <= 2e-4
    re_eval = verify_witness(lag, br)
    assert re_eval < 0.0
    assert re_eval == pytest.approx(br.witness_action, abs=1e-8)
    _ok(13, "critical value", f"bracket [{br.c_lo:.2e}, {br.c_hi:.2e}], "
        f"witness re-evaluates to {re_eval:.2e} < 0")


def test_c14_determinism(tmp_path):
    names = ["torus_geodesic.json", "critical_value.json",
             "horseshoe_entropy.json", "standard_map_entropy.json"]
    total = 0
    for name in names:
        a = tmp_path / (name + ".a")
        b = tmp_path / (name + ".b")
        # a cold run, then a warm one in the same process
        _fourier_tables.cache_clear()
        run_scenario(load_scenario(scenario_path(name)), out_dir=str(a))
        run_scenario(load_scenario(scenario_path(name)), out_dir=str(b))
        for fn in sorted(os.listdir(a)):
            assert (a / fn).read_bytes() == (b / fn).read_bytes(), (name, fn)
            total += 1
    _ok(14, "determinism", f"{total} report files byte-identical on re-run "
        f"across {len(names)} scenarios")
