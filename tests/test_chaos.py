import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from maglab.chaos import (
    Rectangle,
    _fiber_crossings,
    _FiberStore,
    certify_horseshoe,
    crossing_boxes,
    detect_homoclinic,
    dominated_splitting_check,
    grow_manifold,
)
from maglab.maps import HorseshoeMap, StandardMap

from oracles import LinearMap, TwistMap, invariance_defect, loop_fiber_crossings
from stage_defaults import ORBITS, orbit_search


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
    assert invariance_defect(bu, lin) <= 1e-12


def test_negative_eigenvalue_branch():
    lin = LinearMap([[-2.0, 0.0], [0.0, -0.5]])
    bu = grow_manifold(lin, (0, 0), "unstable", 1, 1.0, tol=1e-6)
    # double-stepping keeps the branch on one side
    assert bu.points[:, 0].min() >= 0.0


def test_grow_manifold_requires_hyperbolic():
    rot = TwistMap(0.3, 0.0)
    with pytest.raises(ValueError):
        grow_manifold(rot, (0, 0), "unstable", 1, 1.0, tol=1e-4)


def test_standard_map_homoclinic(standard_branches):
    sm, wu, ws = standard_branches
    assert wu.arclength >= 1.0 and not wu.truncated
    assert invariance_defect(wu, sm) <= 1e-3
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
    hs = HorseshoeMap(3.0)
    frame = np.array([[0.0, 1.0], [1.0, 0.0]])  # unstable along y
    rects = [Rectangle(np.array([0.5, 1.0 / 6.0]), 1.0 / 6.0, 0.5, frame),
             Rectangle(np.array([0.5, 5.0 / 6.0]), 1.0 / 6.0, 0.5, frame)]
    rep = certify_horseshoe(hs, [rects], (1,), 1.0)
    assert rep.status == "certified"
    assert rep.horseshoe["N"] == 2 and rep.horseshoe["k"] == 1
    assert abs(rep.h_top_lower - math.log(2.0)) <= 1e-12


def test_standard_map_horseshoe(standard_branches):
    sm, wu, ws = standard_branches
    hits = detect_homoclinic(ws, wu)
    best = max(hits, key=lambda h: h.angle)
    rep = certify_horseshoe(sm, crossing_boxes(sm, best.point, (0.0, 0.0)),
                            range(1, 21), 1.0)
    assert rep.status == "certified"
    assert rep.h_top_lower > 0.0
    assert rep.horseshoe["k"] <= 20


def test_entropy_monotone_in_search(standard_branches):
    sm, wu, ws = standard_branches
    hits = detect_homoclinic(ws, wu)
    best = max(hits, key=lambda h: h.angle)
    boxes = crossing_boxes(sm, best.point, (0.0, 0.0))
    small = certify_horseshoe(sm, boxes, range(1, 12), 1.0)
    large = certify_horseshoe(sm, boxes, range(1, 21), 1.0)
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


# (state, u / half_u) of one sample point: inside the box in s, outside it,
# or dead (the oracle failed on it); inside twice as likely as the others
_FIBER_POINT = st.tuples(st.sampled_from(["in", "in", "out", "dead"]),
                         st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0]))


@st.composite
def _fiber_images(draw):
    """F fibers of n points each, as (F, n, [(state, u / half_u)])."""
    F, n = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    return F, n, draw(st.lists(_FIBER_POINT, min_size=F * n, max_size=F * n))


_L, _R, _M = ("in", -1.0), ("in", 1.0), ("in", 0.0)
_O, _D = ("out", 0.0), ("dead", 0.0)


@given(_fiber_images())
@example((2, 4, [_D] * 4 + [_L, _M, _R, _M]))           # an all-dead fiber
@example((1, 6, [_L, _R, _O, _R, _M, _L]))              # runs at both ends
@example((2, 5, [_L, _O, _R, _O, _L] + [_R, _D, _L, _R, _D]))  # one-point runs
@example((3, 3, [_O] * 6 + [_O, _L, _R]))               # a full run in fiber 3
def test_fiber_crossings_match_the_point_loop(fibers):
    """The array count of every fiber is == to the point-by-point loop's, on
    random alive masks with runs of any length anywhere."""
    F, n, pts = fibers
    rect = Rectangle(np.array([0.3, -0.2]), 0.4, 0.1,
                     np.array([[1.0, 0.3], [0.2, 1.0]]))
    alive = np.array([state != "dead" for state, _ in pts]).reshape(F, n)
    coords = np.array([[f * rect.half_u, (0.5 if state == "in" else 2.0) * rect.half_s]
                       for state, f in pts])
    imgs = (rect.center + coords @ rect.frame.T).reshape(F, n, 2)
    imgs[~alive] = np.nan           # as a fiber orbit leaves a failed point
    got = _fiber_crossings(imgs, alive, rect)
    assert got.shape == (F,)
    assert got.tolist() == [loop_fiber_crossings(imgs[i], alive[i], rect)
                            for i in range(F)]


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
    return best, crossing_boxes(sm, best.point, (0.0, 0.0))


def test_certifier_one_oracle_call_per_point_and_iterate(standard_boxes):
    """k = 1..20 costs 20 calls per sample point, not 1 + 2 + ... + 20."""
    best, boxes = standard_boxes
    oracle = _CountingMap()
    rep = certify_horseshoe(oracle, boxes, range(1, 21), 1.0)
    assert oracle.calls == 3 * 9 * 160 * 20
    assert rep.status == "certified"


def test_certifier_counts_match_per_k_recompute(standard_boxes):
    """Every (k, box, fiber) count equals iterating each point k times afresh."""
    best, boxes = standard_boxes
    sm = StandardMap(1.5)
    store = _FiberStore(sm)
    for k in range(1, 21):
        for c, (box,) in enumerate(boxes):
            imgs, alive = map(np.stack, zip(*store.fibers(c, 0, box, k)))
            got = _fiber_crossings(imgs, alive, box).tolist()
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
                counts.append(_fiber_crossings(imgs[None], alive[None], box)[0])
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
    rep = certify_horseshoe(oracle, boxes, range(1, k_max + 1), 1.0)
    assert oracle.calls == expected_calls
    if best_ref is None:
        assert rep.status == "not certified"
    else:
        assert (rep.h_top_lower, rep.horseshoe["N"], rep.horseshoe["k"]) == best_ref


class _CountingArrayMap:
    """StandardMap(1.5) with its array form, counting calls of each form."""

    def __init__(self):
        self.sm = StandardMap(1.5)
        self.calls = 0
        self.points_calls = 0

    def __call__(self, z):
        self.calls += 1
        return self.sm(z)

    def points(self, zs):
        self.points_calls += 1
        return self.sm.points(zs)


def test_certifier_one_points_call_per_fiber_and_iterate(standard_boxes):
    """With an array form, k = 1..20 costs one call per fiber and iterate,
    and certifies what the one-point path certifies."""
    best, boxes = standard_boxes
    oracle = _CountingArrayMap()
    rep = certify_horseshoe(oracle, boxes, range(1, 21), 1.0)
    assert (oracle.points_calls, oracle.calls) == (3 * 9 * 20, 0)
    assert rep == certify_horseshoe(_CountingMap(), boxes, range(1, 21), 1.0)


def test_fiber_store_points_images_match_reference(standard_boxes):
    """The array path's images equal _reference_image's, bit for bit."""
    best, boxes = standard_boxes
    sm = StandardMap(1.5)
    store = _FiberStore(sm)
    # _reference_image(sm, z, k) for every k, one iterate after another
    ref = {}
    for k in range(1, 21):
        for c, (box,) in enumerate(boxes):
            fibers = np.linspace(-box.half_s, box.half_s, 9)
            for f, ((imgs, alive), s) in enumerate(zip(store.fibers(c, 0, box, k), fibers)):
                assert alive.all()
                for i, z in enumerate(box.fiber(s, 160)):
                    w = sm(ref.get((c, f, i), z))
                    ref[c, f, i] = w
                    assert imgs[i].tobytes() == w.tobytes(), (k, c, f, i)
    assert store.work == (3 * 9 * 160 * 20, 3 * 9 * 20)


def test_chaos_logs(caplog):
    hs = HorseshoeMap(3.0)
    frame = np.array([[0.0, 1.0], [1.0, 0.0]])
    rects = [Rectangle(np.array([0.5, 1.0 / 6.0]), 1.0 / 6.0, 0.5, frame),
             Rectangle(np.array([0.5, 5.0 / 6.0]), 1.0 / 6.0, 0.5, frame)]
    lin = LinearMap([[2.0, 0.0], [0.0, 0.5]])
    with caplog.at_level(logging.INFO, logger="maglab.chaos"):
        bu = grow_manifold(lin, (0, 0), "unstable", 1, 1.5, tol=1e-6)
        certify_horseshoe(hs, [rects], (1,), 1.0)
    assert [r.getMessage() for r in caplog.records] == [
        f"unstable branch (sign +1) at (0, 0): {len(bu.points)} points, "
        f"arclength {bu.arclength:.6g}",
        # each of the 2 x 9 fibers maps its 160 points in one points call
        f"horseshoe certified: N = 2, k = 1, bound {math.log(2.0):.12g} "
        f"(2880 point images, 18 oracle calls)",
    ]


def test_integrable_map_no_crossing():
    """An integrable twist map certifies nothing: zero bound, "not certified"."""
    tm = TwistMap(0.3, 2.0)
    rep = certify_horseshoe(tm, crossing_boxes(tm, (0.25, 0.0), (0.0, 0.0)),
                            range(1, 8), 1.0)
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
                            **orbit_search(options=tight_options))

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
    orb = find_closed_orbit(torus, sin_field, 0.5, PhasePoint(0, 0.0, 0.0, 0.0, -1.0),
                            **orbit_search(options=opts))
    rmap = SectionReturnMap(orb.return_map.section, ORBITS["max_time"], opts)
    wu = grow_manifold(rmap, (0.0, 0.0), "unstable", 1, 0.02, tol=5e-3,
                       seed_eps=1e-3, spacing_max=0.02)
    assert wu.arclength >= 0.02
    assert not wu.truncated
    assert invariance_defect(wu, rmap, n_check=5) <= 5e-3
