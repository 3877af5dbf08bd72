import logging
import math

import numpy as np
import pytest

from maglab.chaos import (
    Rectangle,
    _default_rectangles,
    _fiber_crossings,
    _FiberStore,
    certify_horseshoe,
    detect_homoclinic,
    dominated_splitting_check,
    grow_manifold,
)
from maglab.maps import HorseshoeMap, LinearMap, StandardMap, TwistMap


@pytest.fixture(scope="module")
def standard_branches():
    sm = StandardMap(1.5)
    wu = grow_manifold(sm, (0.0, 0.0), "unstable", 1, 2.5, tol=1e-4)
    ws = grow_manifold(sm, (1.0, 0.0), "stable", 1, 2.5, tol=1e-4)
    return sm, wu, ws


def test_linear_map_branches():
    lin = LinearMap([[2.0, 0.0], [0.0, 0.5]])
    bu = grow_manifold(lin, (0, 0), "unstable", 1, 1.5, tol=1e-6)
    bs = grow_manifold(lin, (0, 0), "stable", 1, 1.5, tol=1e-6)
    assert np.abs(bu.points[:, 1]).max() <= 1e-10   # horizontal axis
    assert np.abs(bs.points[:, 0]).max() <= 1e-10   # vertical axis
    assert bu.arclength >= 1.5
    # first segment aligned with the eigenvector
    d = bu.points[1] - bu.points[0]
    assert abs(math.atan2(d[1], d[0])) <= 1e-6
    # axes meet only at the excluded fixed point
    assert detect_homoclinic(bs, bu) == []
    assert bu.invariance_defect(lin) <= 1e-12


def test_negative_eigenvalue_branch():
    lin = LinearMap([[-2.0, 0.0], [0.0, -0.5]])
    bu = grow_manifold(lin, (0, 0), "unstable", 1, 1.0, tol=1e-6)
    # double-stepping keeps the branch on one side
    assert bu.points[:, 0].min() >= 0.0


def test_grow_manifold_requires_hyperbolic():
    rot = TwistMap(0.3, 0.0)
    with pytest.raises(ValueError):
        grow_manifold(rot, (0, 0), "unstable", 1, 1.0)


def test_standard_map_homoclinic(standard_branches):
    sm, wu, ws = standard_branches
    assert wu.arclength >= 1.0 and not wu.truncated
    assert wu.invariance_defect(sm) <= 1e-3
    hits = detect_homoclinic(ws, wu)
    trans = [h for h in hits if h.transversal(1e-3)]
    assert len(trans) >= 1
    assert max(h.angle for h in trans) > 1e-3


def test_refinement_convergence():
    """Halving tol at least halves the worst chord sagitta."""
    sm = StandardMap(1.5)

    def max_sagitta(branch):
        pts = branch.points
        a, b, m = pts[:-2], pts[2:], pts[1:-1]
        ab = b - a
        denom = np.einsum("ij,ij->i", ab, ab)
        denom[denom == 0] = 1.0
        t = np.clip(np.einsum("ij,ij->i", m - a, ab) / denom, 0, 1)
        proj = a + t[:, None] * ab
        return float(np.linalg.norm(proj - m, axis=1).max())

    s1 = max_sagitta(grow_manifold(sm, (0.0, 0.0), "unstable", 1, 2.0,
                                   tol=4e-3, spacing_max=0.08))
    s2 = max_sagitta(grow_manifold(sm, (0.0, 0.0), "unstable", 1, 2.0,
                                   tol=2e-3, spacing_max=0.04))
    assert s2 <= 0.75 * s1


def test_crossing_angles_frame_honest(standard_branches):
    """Rotating both polylines leaves crossing angles unchanged."""
    sm, wu, ws = standard_branches
    hits = detect_homoclinic(ws, wu)
    th = 0.37
    R = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    wu2 = grow_manifold(sm, (0.0, 0.0), "unstable", 1, 2.5, tol=1e-4)
    ws2 = grow_manifold(sm, (1.0, 0.0), "stable", 1, 2.5, tol=1e-4)
    wu2.points = wu2.points @ R.T
    ws2.points = ws2.points @ R.T
    hits2 = detect_homoclinic(ws2, wu2)
    assert len(hits) == len(hits2)
    for h1, h2 in zip(hits, hits2):
        assert abs(h1.angle - h2.angle) <= 1e-6


def test_horseshoe_exact_log2():
    hs = HorseshoeMap()
    frame = np.array([[0.0, 1.0], [1.0, 0.0]])  # unstable along y
    rects = [Rectangle(np.array([0.5, 1.0 / 6.0]), 1.0 / 6.0, 0.5, frame),
             Rectangle(np.array([0.5, 5.0 / 6.0]), 1.0 / 6.0, 0.5, frame)]
    rep = certify_horseshoe(hs, rectangles=rects, k_range=(1,))
    assert rep.status == "certified"
    assert rep.horseshoe["N"] == 2 and rep.horseshoe["k"] == 1
    assert abs(rep.h_top_lower - math.log(2.0)) <= 1e-12


def test_standard_map_horseshoe(standard_branches):
    sm, wu, ws = standard_branches
    hits = detect_homoclinic(ws, wu)
    best = max(hits, key=lambda h: h.angle)
    rep = certify_horseshoe(sm, best, k_range=range(1, 21), fixed_point=(0.0, 0.0))
    assert rep.status == "certified"
    assert rep.h_top_lower > 0.0
    assert rep.horseshoe["k"] <= 20


def test_entropy_monotone_in_search(standard_branches):
    sm, wu, ws = standard_branches
    hits = detect_homoclinic(ws, wu)
    best = max(hits, key=lambda h: h.angle)
    small = certify_horseshoe(sm, best, k_range=range(1, 12), fixed_point=(0.0, 0.0))
    large = certify_horseshoe(sm, best, k_range=range(1, 21), fixed_point=(0.0, 0.0))
    assert large.h_top_lower >= small.h_top_lower


class _CountingMap:
    """StandardMap(1.5) that counts its calls and raises where |x| > x_max."""

    def __init__(self, x_max=math.inf):
        self.sm = StandardMap(1.5)
        self.x_max = x_max
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        if abs(z[0]) > self.x_max:
            raise ValueError("left the strip")
        return self.sm(z)

    def jacobian(self, z):
        return self.sm.jacobian(z)


def _reference_image(oracle, z, k):
    """k-th image iterated from the fiber point itself, None if a call raises."""
    w = np.asarray(z, dtype=float)
    try:
        for _ in range(k):
            w = np.asarray(oracle(w), dtype=float)
    except ValueError:
        return None
    return w


def _reference_crossings(oracle, rect, k, s, n_samples=160):
    """Full traversals of rect by the k-image of fiber s, point by point.

    Each point is iterated k times from the fiber and its box coordinates
    are solved alone, as the certifier did before it kept fiber orbits.
    """
    tol = 1e-9 * max(rect.half_u, rect.half_s)
    runs = 0
    run_min = math.inf
    run_max = -math.inf
    inside = False
    for z in rect.fiber(s, n_samples):
        w = _reference_image(oracle, z, k)
        ok = False
        if w is not None:
            u, sc = np.linalg.solve(rect.frame, (w - rect.center)[:, None])[:, 0]
            ok = abs(sc) <= rect.half_s + tol
        if ok:
            if not inside:
                inside = True
                run_min, run_max = u, u
            else:
                run_min = min(run_min, u)
                run_max = max(run_max, u)
        else:
            if inside and run_min <= -rect.half_u + tol and run_max >= rect.half_u - tol:
                runs += 1
            inside = False
    if inside and run_min <= -rect.half_u + tol and run_max >= rect.half_u - tol:
        runs += 1
    return runs


def test_rectangle_coords_independent_of_batch():
    """Coordinates of many points equal, bit for bit, those solved one by one."""
    rng = np.random.default_rng(11)
    for _ in range(50):
        rect = Rectangle(rng.standard_normal(2), 0.1, 0.2, rng.standard_normal((2, 2)))
        pts = rng.standard_normal((160, 2))
        u, s = rect.coords(pts)
        for i, p in enumerate(pts):
            ui, si = rect.coords(p[None, :])
            want = np.linalg.solve(rect.frame, (p - rect.center)[:, None])[:, 0]
            assert (u[i], s[i]) == (ui[0], si[0]) == tuple(want)


@pytest.fixture(scope="module")
def standard_boxes(standard_branches):
    sm, wu, ws = standard_branches
    best = max(detect_homoclinic(ws, wu), key=lambda h: h.angle)
    return best, _default_rectangles(sm, best, (0.0, 0.0))


def test_certifier_one_oracle_call_per_point_and_iterate(standard_boxes):
    """k = 1..20 costs 20 calls per sample point, not 1 + 2 + ... + 20."""
    best, boxes = standard_boxes
    oracle = _CountingMap()
    rep = certify_horseshoe(oracle, best, k_range=range(1, 21), fixed_point=(0.0, 0.0))
    assert oracle.calls == 3 * 9 * 160 * 20
    assert rep.status == "certified"


def test_certifier_counts_match_per_k_recompute(standard_boxes):
    """Every (k, box, fiber) count equals iterating each point k times afresh."""
    best, boxes = standard_boxes
    sm = StandardMap(1.5)
    store = _FiberStore(sm)
    for k in range(1, 21):
        for c, (box,) in enumerate(boxes):
            got = [_fiber_crossings(imgs, alive, box)
                   for imgs, alive in store.fibers(c, 0, box, k)]
            want = [_reference_crossings(sm, box, k, s)
                    for s in np.linspace(-box.half_s, box.half_s, 9)]
            assert got == want, (k, c)


def test_certifier_failed_points_stay_failed(standard_boxes):
    """A point whose oracle call raised is absent at every later k, uncalled."""
    best, boxes = standard_boxes
    oracle = _CountingMap(x_max=1.5)
    ref = _CountingMap(x_max=1.5)
    k_max = 12
    store = _FiberStore(oracle)
    failures = set()
    best_ref = None
    for k in range(1, k_max + 1):
        for c, (box,) in enumerate(boxes):
            fibers = np.linspace(-box.half_s, box.half_s, 9)
            counts = []
            for (imgs, alive), s in zip(store.fibers(c, 0, box, k), fibers):
                for i, z in enumerate(box.fiber(s, 160)):
                    w = _reference_image(ref, z, k)
                    assert alive[i] == (w is not None), (k, c, s, i)
                    if w is None:
                        failures.add(k)
                    else:
                        assert np.array_equal(imgs[i], w)
                counts.append(_fiber_crossings(imgs, alive, box))
                assert counts[-1] == _reference_crossings(ref, box, k, s)
            if min(counts) >= 2:
                bound = math.log(min(counts)) / k
                if best_ref is None or bound > best_ref[0]:
                    best_ref = (bound, min(counts), k)
    assert len(failures) >= 5       # points fail at many different iterates
    # one call per point and iterate up to its first failure, none after it
    probe = _CountingMap(x_max=1.5)
    for (box,) in boxes:
        for s in np.linspace(-box.half_s, box.half_s, 9):
            for z in box.fiber(s, 160):
                _reference_image(probe, z, k_max)
    expected_calls = probe.calls
    assert oracle.calls == expected_calls
    oracle.calls = 0
    rep = certify_horseshoe(oracle, best, k_range=range(1, k_max + 1),
                            fixed_point=(0.0, 0.0))
    assert oracle.calls == expected_calls
    if best_ref is None:
        assert rep.status == "not certified"
    else:
        assert (rep.h_top_lower, rep.horseshoe["N"], rep.horseshoe["k"]) == best_ref


def test_chaos_logs(caplog):
    hs = HorseshoeMap()
    frame = np.array([[0.0, 1.0], [1.0, 0.0]])
    rects = [Rectangle(np.array([0.5, 1.0 / 6.0]), 1.0 / 6.0, 0.5, frame),
             Rectangle(np.array([0.5, 5.0 / 6.0]), 1.0 / 6.0, 0.5, frame)]
    lin = LinearMap([[2.0, 0.0], [0.0, 0.5]])
    with caplog.at_level(logging.INFO, logger="maglab.chaos"):
        bu = grow_manifold(lin, (0, 0), "unstable", 1, 1.5, tol=1e-6)
        certify_horseshoe(hs, rectangles=rects, k_range=(1,))
    assert [r.getMessage() for r in caplog.records] == [
        f"unstable branch (sign +1) at (0, 0): {len(bu.points)} points, "
        f"arclength {bu.arclength:.6g}",
        # each of the 2 x 9 fibers maps its 160 points once
        f"horseshoe certified: N = 2, k = 1, bound {math.log(2.0):.12g} "
        f"(2880 oracle calls)",
    ]


def test_integrable_map_no_crossing():
    """An integrable twist map certifies nothing: zero bound, "not certified"."""
    tm = TwistMap(0.3, 2.0)

    class FakeHit:
        point = (0.25, 0.0)
        angle = 0.5

    rep = certify_horseshoe(tm, FakeHit(), k_range=range(1, 8))
    assert rep.h_top_lower == 0.0
    assert rep.status == "not certified"


def test_dominated_splitting_synthetic():
    entries = [{"monodromy": [[mu, 0.0], [0.0, 1.0 / mu]], "period": 1.0}
               for mu in (2.0, 3.0, 5.0)]
    rep = dominated_splitting_check(entries, T=1.0, lambda_target=0.5)
    assert rep.products == pytest.approx([0.25, 1.0 / 9.0, 0.04])
    assert rep.certified
    for n in (2, 3):
        for got, want in rep.power_checks[n]:
            assert got == pytest.approx(want, abs=1e-12)


def test_dominated_splitting_rejects_elliptic():
    entries = [{"monodromy": [[0.5, -0.8], [0.8, 0.5]], "period": 1.0}]
    with pytest.raises(ValueError):
        dominated_splitting_check(entries, T=1.0, lambda_target=0.5)


def test_dominated_splitting_multiple_periods():
    M = np.array([[2.0, 1.0], [1.0, 1.0]])  # trace 3, det 1
    entries = [{"monodromy": M, "period": 0.5}]
    rep = dominated_splitting_check(entries, T=1.0, lambda_target=0.9)
    lam_u = (3.0 + math.sqrt(5.0)) / 2.0
    assert rep.products[0] == pytest.approx(1.0 / lam_u**4, rel=1e-10)
    with pytest.raises(ValueError):
        dominated_splitting_check(entries, T=0.7, lambda_target=0.9)


def test_dominated_splitting_flow_cocycle(torus, sin_field, tight_options):
    """Products over n periods equal n-th powers along a real orbit."""
    from maglab.geometry import PhasePoint
    from maglab.orbits import find_closed_orbit
    from maglab.dynamics import flow_with_variation

    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            options=tight_options)

    def propagate(entry, t):
        _, vp = flow_with_variation(torus, sin_field, orb.initial_state, t,
                                    tight_options)
        return vp.matrix(t)

    entries = [{"monodromy": orb.monodromy, "period": orb.period}]
    rep = dominated_splitting_check(entries, T=orb.period, lambda_target=0.5,
                                    propagate=propagate)
    for n in (2, 3):
        got, want = rep.power_checks[n][0]
        assert got == pytest.approx(want, abs=1e-5)


def test_flow_return_map_as_oracle(torus, sin_field):
    """First-return maps drive the same branch grower as injected maps."""
    from maglab.geometry import PhasePoint
    from maglab.orbits import SectionReturnMap, find_closed_orbit
    from maglab.dynamics import IntegratorOptions

    opts = IntegratorOptions(rel_tol=1e-10, abs_tol=1e-12)
    orb = find_closed_orbit(torus, sin_field, 0.5,
                            PhasePoint(0, 0.0, 0.0, 0.0, -1.0), options=opts)
    rmap = SectionReturnMap(orb.section, options=opts)
    wu = grow_manifold(rmap, (0.0, 0.0), "unstable", 1, 0.02, tol=5e-3,
                       seed_eps=1e-3, spacing_max=0.02)
    assert wu.arclength >= 0.02
    assert not wu.truncated
    assert wu.invariance_defect(rmap, n_check=5) <= 5e-3
