"""Invariant manifolds, homoclinic tangles and entropy lower bounds.

Everything here operates on an abstract planar-map oracle (callable with
optional `inverse` and `jacobian`), so first-return maps of flows and
injected test maps (standard map, piecewise-linear horseshoe) share all the
code paths.  A verified transversal homoclinic crossing plus a sampled
Conley-Moser crossing pattern yields a symbolic factor with N symbols under
k iterates, hence the topological-entropy lower bound log(N) / (k * T_ret)
per unit time (T_ret = 1 for plain maps).

`certify_horseshoe` follows one orbit per sampled fiber: within a call each
(rectangle, fiber) keeps the images of its points, extended one oracle call
per point and iterate as larger k are read, so the k-th image costs one call
on the stored (k-1)-th image rather than k calls from the fiber.  A point
whose oracle call raises stays failed for every larger k.  For a flow's
`SectionReturnMap` each saved call is a saved section return.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoReturnError
from .maps import fd_jacobian

log = logging.getLogger("maglab.chaos")

_CLASS_TOL = 1e-6               # hyperbolic: |trace| > 2 + _CLASS_TOL
_MAX_POINTS = 60000             # a branch stops growing at this many points
_MIN_SEPARATION = 1e-9          # closer crossings (unstable arclength) are one
_N_FIBERS, _N_SAMPLES = 9, 160  # fibers per box, sample points per fiber
_BOX_SCALES = (0.05, 0.1, 0.2)  # half sides of the boxes at a crossing
_POWERS = (2, 3)                # N of the N-fold dominated-splitting checks

__all__ = [
    "ManifoldBranch",
    "grow_manifold",
    "HomoclinicIntersection",
    "detect_homoclinic",
    "EntropyReport",
    "certify_horseshoe",
    "SplittingReport",
    "dominated_splitting_check",
]


def _oracle_jacobian(oracle, z):
    jac = getattr(oracle, "jacobian", None)
    if jac is not None:
        return np.asarray(jac(z), dtype=float)
    return fd_jacobian(oracle, z)


def _hyperbolic_eigen(J):
    tr = float(np.trace(J))
    if abs(tr) <= 2.0 + _CLASS_TOL:
        raise ValueError(f"fixed point is not hyperbolic (trace {tr:.6f})")
    w, V = np.linalg.eig(J)
    w = w.real
    V = V.real
    iu = int(np.argmax(np.abs(w)))
    i_s = 1 - iu
    vu = V[:, iu] / np.linalg.norm(V[:, iu])
    vs = V[:, i_s] / np.linalg.norm(V[:, i_s])
    return (w[iu], vu), (w[i_s], vs)


@dataclass
class ManifoldBranch:
    fixed_point: np.ndarray
    side: str                   # "stable" | "unstable"
    sign: int
    points: np.ndarray          # polyline, shape (n, 2)
    arclength: float
    eigenvalue: float
    eigenvector: np.ndarray
    truncated: bool = False
    tol: float = 0.0

    def segments(self):
        return np.stack([self.points[:-1], self.points[1:]], axis=1)

    def invariance_defect(self, oracle, n_check=200):
        """Max distance of vertex images from the polyline (its own invariance).

        Only vertices whose images stay inside the grown arclength are
        mapped (the expansion rate bounds how far along they can land).
        """
        step = self._step_fn(oracle)
        lens = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(self.points, axis=0), axis=1))])
        # self.eigenvalue is the expansion rate of `step` along the branch
        cutoff = self.arclength / (1.5 * abs(self.eigenvalue))
        usable = np.nonzero(lens <= cutoff)[0]
        if len(usable) == 0:
            return 0.0
        idx = np.linspace(0, len(usable) - 1, min(n_check, len(usable))).astype(int)
        worst = 0.0
        for i in usable[idx]:
            try:
                img = np.asarray(step(self.points[i]), dtype=float)
            except (ValueError, NoReturnError):
                continue
            worst = max(worst, _point_polyline_distance(img, self.points))
        return worst

    def _step_fn(self, oracle):
        if self.side == "unstable":
            return oracle
        return oracle.inverse


def _point_polyline_distance(p, pts):
    a = pts[:-1]
    b = pts[1:]
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    denom[denom == 0.0] = 1.0
    t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.linalg.norm(proj - p, axis=1)
    return float(d.min())


def grow_manifold(oracle, fixed_point, side, sign, max_arclength, tol=1e-3,
                  seed_eps=1e-7, spacing_max=0.05):
    """Adaptive polyline for one branch of W^s or W^u of a hyperbolic point.

    Fundamental-domain iteration: the seed chord [p + eps v, F(p + eps v)] is
    pushed forward ring by ring (stable side uses the inverse map).  Between
    adjacent parameters the chord sagitta is kept below tol and the spacing
    below spacing_max.  Oracle failures truncate the branch with a flag.
    """
    if side not in ("stable", "unstable"):
        raise ValueError("side must be 'stable' or 'unstable'")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p = np.asarray(fixed_point, dtype=float)
    J = _oracle_jacobian(oracle, p)
    (lam_u, vu), (lam_s, vs) = _hyperbolic_eigen(J)
    if side == "unstable":
        lam, v = lam_u, vu
        step = lambda z: np.asarray(oracle(z), dtype=float)
    else:
        lam, v = 1.0 / lam_s, vs
        inv = getattr(oracle, "inverse", None)
        if inv is None:
            raise ValueError("stable side needs oracle.inverse")
        step = lambda z: np.asarray(inv(z), dtype=float)
    double = lam < 0
    if double:
        base = step
        step = lambda z: base(base(z))
        lam = lam * lam

    x0 = p + sign * seed_eps * v
    x1 = step(x0)
    chord = x1 - x0

    orbits = {}

    def point_at(t, ring):
        key = t
        orb = orbits.get(key)
        if orb is None:
            orb = [x0 + t * chord]
            orbits[key] = orb
        while len(orb) <= ring:
            orb.append(step(orb[-1]))
        return orb[ring]

    params = [i / 8.0 for i in range(9)]
    pts = []
    total = 0.0
    truncated = False
    ring = 0
    try:
        while total < max_arclength and len(pts) < _MAX_POINTS:
            # refine this ring
            guard = 0
            start = 0  # segments left of the last insertion passed and stay put
            while guard < 4000:
                guard += 1
                worst = None
                for i in range(start, len(params) - 1):
                    a = point_at(params[i], ring)
                    b = point_at(params[i + 1], ring)
                    gap = float(np.linalg.norm(b - a))
                    if gap > spacing_max:
                        worst = i
                        break
                    tm = 0.5 * (params[i] + params[i + 1])
                    m = point_at(tm, ring)
                    sag = _point_polyline_distance(m, np.array([a, b]))
                    if sag > tol and gap > 1e-9:
                        worst = i
                        break
                if worst is None:
                    break
                params.insert(worst + 1, 0.5 * (params[worst] + params[worst + 1]))
                start = worst
                if len(params) > 4000:
                    break
            ring_pts = [point_at(t, ring) for t in params[:-1]]
            for q in ring_pts:
                if pts:
                    total += float(np.linalg.norm(q - pts[-1]))
                pts.append(q)
                if total >= max_arclength:
                    break
            ring += 1
    except (ValueError, NoReturnError):
        truncated = True

    points = np.array(pts) if pts else np.zeros((0, 2))
    log.info("%s branch (sign %+d) at (%.6g, %.6g): %d points, arclength %.6g%s",
             side, sign, p[0], p[1], len(points), total,
             ", truncated by an oracle failure" if truncated else "")
    return ManifoldBranch(p, side, sign, points, total, lam, v,
                          truncated=truncated, tol=tol)


# -- homoclinic detection --------------------------------------------------------


@dataclass
class HomoclinicIntersection:
    point: tuple
    angle: float
    arclength_stable: float
    arclength_unstable: float

    def transversal(self, angle_tol):
        return self.angle >= angle_tol


def _segment_intersections(A, B):
    """All proper intersections between segment arrays (n,2,2) and (m,2,2)."""
    out = []
    if len(A) == 0 or len(B) == 0:
        return out
    alo = np.minimum(A[:, 0], A[:, 1])
    ahi = np.maximum(A[:, 0], A[:, 1])
    blo = np.minimum(B[:, 0], B[:, 1])
    bhi = np.maximum(B[:, 0], B[:, 1])
    cand = (
        (alo[:, None, 0] <= bhi[None, :, 0]) & (blo[None, :, 0] <= ahi[:, None, 0])
        & (alo[:, None, 1] <= bhi[None, :, 1]) & (blo[None, :, 1] <= ahi[:, None, 1])
    )
    ii, jj = np.nonzero(cand)
    for i, j in zip(ii, jj):
        p, r = A[i, 0], A[i, 1] - A[i, 0]
        q, s = B[j, 0], B[j, 1] - B[j, 0]
        denom = r[0] * s[1] - r[1] * s[0]
        if denom == 0.0:
            continue
        d = q - p
        t = (d[0] * s[1] - d[1] * s[0]) / denom
        u = (d[0] * r[1] - d[1] * r[0]) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            x = p + t * r
            cosang = abs(np.dot(r, s)) / (np.linalg.norm(r) * np.linalg.norm(s))
            ang = math.acos(min(1.0, max(-1.0, cosang)))
            out.append((i, t, j, u, x, ang))
    return out


def detect_homoclinic(branch_s: ManifoldBranch, branch_u: ManifoldBranch):
    """Crossings of a stable with an unstable polyline, with crossing angles.

    Returns all intersections sorted by unstable arclength; `transversal`
    tells whether one counts as transversal at an angle tolerance.  An
    empty list is a valid outcome.
    """
    segs_s = branch_s.segments()
    segs_u = branch_u.segments()
    len_s = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(branch_s.points, axis=0), axis=1))])
    len_u = np.concatenate([[0.0], np.cumsum(np.linalg.norm(np.diff(branch_u.points, axis=0), axis=1))])
    raw = _segment_intersections(segs_s, segs_u)
    hits = []
    for i, t, j, u, x, ang in raw:
        ls = len_s[i] + t * (len_s[i + 1] - len_s[i])
        lu = len_u[j] + u * (len_u[j + 1] - len_u[j])
        hits.append(HomoclinicIntersection((float(x[0]), float(x[1])), float(ang),
                                           float(ls), float(lu)))
    hits.sort(key=lambda h: (h.arclength_unstable, h.arclength_stable))
    # drop near-duplicates from adjacent segment pairs
    dedup = []
    for h in hits:
        if dedup and abs(h.arclength_unstable - dedup[-1].arclength_unstable) < _MIN_SEPARATION:
            continue
        dedup.append(h)
    return dedup


# -- horseshoe certification ------------------------------------------------------


@dataclass
class Rectangle:
    """Axis-aligned box in a (u, s) frame: z = center + u e_u + s e_s."""

    center: np.ndarray
    half_u: float
    half_s: float
    frame: np.ndarray  # columns e_u, e_s

    def fiber(self, s, n):
        us = np.linspace(-self.half_u, self.half_u, n)
        return self.center[None, :] + us[:, None] * self.frame[:, 0][None, :] \
            + s * self.frame[:, 1][None, :]

    def coords(self, pts):
        """Frame coordinates (u, s) of the rows of pts.

        One 2x2 solve per row, broadcast over the rows: the same LAPACK call
        per point as solving each row alone, so the coordinates do not depend
        on how many points are solved together (a single multi-column solve
        can differ in the last bit).
        """
        d = pts - self.center[None, :]
        sol = np.linalg.solve(self.frame, d[:, :, None])
        return sol[:, 0, 0], sol[:, 1, 0]


@dataclass
class EntropyReport:
    intersections: list
    horseshoe: dict
    h_top_lower: float
    status: str

    def as_dict(self):
        return {
            "intersections": [
                {"point": list(h.point), "angle": h.angle} for h in self.intersections
            ],
            "horseshoe": self.horseshoe,
            "h_top_lower": self.h_top_lower,
            "status": self.status,
        }


class _FiberOrbit:
    """Images of one fiber's sample points under successive oracle calls.

    images[j] holds the j-th images (row i for point i) and failed_at[i] is
    the first iterate at which the oracle raised on point i, so point i is
    alive at iterate k exactly when k < failed_at[i].  A failed point is
    never passed to the oracle again.
    """

    def __init__(self, pts):
        self.images = [np.asarray(pts, dtype=float)]
        self.failed_at = np.full(len(pts), np.iinfo(np.int64).max)
        self.calls = 0

    def at(self, oracle, k):
        """(images, alive mask) at iterate k, extending the orbit as needed."""
        while len(self.images) <= k:
            j = len(self.images)
            prev = self.images[-1]
            nxt = np.full_like(prev, np.nan)
            for i in np.flatnonzero(self.failed_at >= j):
                self.calls += 1
                try:
                    nxt[i] = np.asarray(oracle(prev[i]), dtype=float)
                except (ValueError, NoReturnError):
                    self.failed_at[i] = j
            self.images.append(nxt)
        return self.images[k], self.failed_at > k


def _fiber_crossings(imgs, alive, rect_to):
    """Number of connected full traversals of rect_to by one fiber image.

    imgs are the image points in fiber order and alive marks the points the
    oracle could map; a failed point breaks a run like a point outside.
    """
    tol = 1e-9 * max(rect_to.half_u, rect_to.half_s)
    us = np.zeros(len(imgs))
    ok = np.zeros(len(imgs), dtype=bool)
    u, s = rect_to.coords(imgs[alive])
    us[alive] = u
    ok[alive] = np.abs(s) <= rect_to.half_s + tol
    runs = 0
    run_min = math.inf
    run_max = -math.inf
    inside = False
    for u, hit in zip(us.tolist(), ok.tolist()):
        if hit:
            if not inside:
                inside = True
                run_min, run_max = u, u
            else:
                run_min = min(run_min, u)
                run_max = max(run_max, u)
        else:
            if inside and run_min <= -rect_to.half_u + tol and run_max >= rect_to.half_u - tol:
                runs += 1
            inside = False
    if inside and run_min <= -rect_to.half_u + tol and run_max >= rect_to.half_u - tol:
        runs += 1
    return runs


class _FiberStore:
    """The fiber orbits of one certify_horseshoe call, keyed by position.

    A key is (candidate index, rectangle index, fiber index).
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.orbits = {}

    def fibers(self, c, r, rect, k):
        """(images, alive) at iterate k for each fiber of rectangle r, lazily."""
        for i, s in enumerate(np.linspace(-rect.half_s, rect.half_s, _N_FIBERS)):
            orb = self.orbits.get((c, r, i))
            if orb is None:
                orb = self.orbits[(c, r, i)] = _FiberOrbit(rect.fiber(s, _N_SAMPLES))
            yield orb.at(self.oracle, k)

    @property
    def calls(self):
        return sum(orb.calls for orb in self.orbits.values())


def certify_horseshoe(oracle, intersection=None, rectangles=None, k_range=(1,),
                      T_ret=1.0, fixed_point=None):
    """Sampled Conley-Moser crossing check yielding an entropy lower bound.

    With a list of rectangles: certifies that every k-iterate image of each
    rectangle fully crosses every rectangle (N = number of rectangles).
    With a single rectangle (default: built at the homoclinic intersection,
    axes along the local invariant directions): counts connected full
    traversals of the box by its own image, N = minimum over fibers.
    The bound is log(N) / (k * T_ret); when no k gives N >= 2 the report
    has a zero bound and status "not certified".
    Each fiber's orbit is computed once per call and read at every k.
    """
    if rectangles is None:
        if intersection is None:
            raise ValueError("need an intersection or explicit rectangles")
        rectangles = _default_rectangles(oracle, intersection, fixed_point)
    candidates = rectangles if isinstance(rectangles[0], list) else [rectangles]
    store = _FiberStore(oracle)
    best = None
    for k in k_range:
        for c, rects in enumerate(candidates):
            n = _certify_with(store, c, rects, k)
            if n >= 2:
                bound = math.log(n) / (k * T_ret)
                cand = {"N": n, "k": k, "T_ret": T_ret}
                if best is None or bound > best[0]:
                    best = (bound, cand)
    if best is None:
        log.info("no horseshoe certified over k in %s (%d oracle calls)",
                 list(k_range), store.calls)
        return EntropyReport([] if intersection is None else [intersection],
                             {"N": 0, "k": 0, "T_ret": T_ret}, 0.0, "not certified")
    log.info("horseshoe certified: N = %d, k = %d, bound %.12g (%d oracle calls)",
             best[1]["N"], best[1]["k"], best[0], store.calls)
    return EntropyReport([] if intersection is None else [intersection],
                         best[1], best[0], "certified")


def _certify_with(store, c, rects, k):
    if len(rects) == 1:
        r = rects[0]
        counts = [_fiber_crossings(imgs, alive, r)
                  for imgs, alive in store.fibers(c, 0, r, k)]
        n = min(counts) if counts else 0
        log.debug("k = %d, box %d (half %.6g x %.6g): minimum fiber count %d",
                  k, c, r.half_u, r.half_s, n)
        return n
    # multiple rectangles: require full crossing for every ordered pair
    for a, ri in enumerate(rects):
        low = math.inf
        for imgs, alive in store.fibers(c, a, ri, k):
            for rj in rects:
                low = min(low, _fiber_crossings(imgs, alive, rj))
                if low < 1:
                    log.debug("k = %d, rectangle %d: a fiber misses a rectangle", k, a)
                    return 0
        log.debug("k = %d, rectangle %d: minimum fiber count %s", k, a, low)
    return len(rects)


def _default_rectangles(oracle, intersection, fixed_point):
    """Candidate single boxes at the crossing, axes along the local tangents."""
    q = np.asarray(intersection.point, dtype=float)
    # local tangents from the jacobian at the fixed point if available,
    # otherwise an orthogonal default frame
    if fixed_point is not None:
        J = _oracle_jacobian(oracle, np.asarray(fixed_point, dtype=float))
        try:
            (lu, vu), (ls, vs) = _hyperbolic_eigen(J)
            frame = np.column_stack([vu, vs])
        except ValueError:
            frame = np.eye(2)
    else:
        frame = np.eye(2)
    return [[Rectangle(q, sc, sc, frame)] for sc in _BOX_SCALES]


# -- dominated splitting -----------------------------------------------------------


@dataclass
class SplittingReport:
    products: list
    certified: bool
    lambda_value: float
    power_checks: dict

    def as_dict(self):
        return {
            "products": self.products,
            "certified": self.certified,
            "lambda": self.lambda_value,
            "power_checks": {str(k): v for k, v in self.power_checks.items()},
        }


def _restricted_product(XT, e_s, e_u):
    a = np.linalg.norm(XT @ e_s) / np.linalg.norm(e_s)
    b = np.linalg.norm(e_u) / np.linalg.norm(XT @ e_u)
    return float(a * b)


def dominated_splitting_check(orbit_entries, T, lambda_target, propagate=None):
    """Contraction products |dP_T|E^s| * |dP_-T|E^u| over a family of orbits.

    Entries are dicts with keys `monodromy` (2x2 over one period) and
    `period`; T must be an integer multiple of each period unless a
    `propagate(entry, t) -> 2x2` callback supplies X(t) along the orbit.
    Also checks the N-fold power decay (products over N*T against the N-th
    powers of the T-products).
    """
    products = []
    checks = {n: [] for n in _POWERS}
    for entry in orbit_entries:
        M = np.asarray(entry["monodromy"], dtype=float)
        period = float(entry["period"])
        tr = float(np.trace(M))
        if abs(tr) <= 2.0:
            raise ValueError(f"non-hyperbolic orbit in input (trace {tr:.6f})")
        (lam_u, e_u), (lam_s, e_s) = _hyperbolic_eigen(M)
        if propagate is not None:
            XT = np.asarray(propagate(entry, T), dtype=float)
        else:
            n = T / period
            n_int = round(n)
            if abs(n - n_int) > 1e-9 or n_int < 1:
                raise ValueError(
                    f"T={T} is not a multiple of the orbit period {period}")
            XT = np.linalg.matrix_power(M, n_int)
        prod = _restricted_product(XT, e_s, e_u)
        products.append(prod)
        for n in _POWERS:
            if propagate is not None:
                XNT = np.asarray(propagate(entry, n * T), dtype=float)
            else:
                XNT = np.linalg.matrix_power(XT, n)
            checks[n].append((_restricted_product(XNT, e_s, e_u), prod**n))
    worst = max(products) if products else math.inf
    certified = worst <= lambda_target and worst < 1.0
    return SplittingReport(products, certified, worst if worst < 1.0 else math.nan,
                           checks)
