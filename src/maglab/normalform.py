"""Third-order jets of area-preserving planar maps and the twist coefficient.

For an elliptic fixed point with eigenvalues e^{+-i phi}, phi nonresonant
through order 4, the map is formally conjugate to

    zeta -> lambda zeta (1 + lambda-bar c21 |zeta|^2) + O(4),

and in symplectic polar coordinates reads (r, theta) -> (r, theta + phi +
tau r^2) with tau = Im(lambda-bar c21).  Rotation numbers are reported in
turns: alpha = phi / 2 pi in (0, 1) and beta = tau / 2 pi, so orbits at
normalized radius r advance by alpha + beta r^2 turns per iterate.  The
normalization is computed degree by degree by numerically composing jets
(no closed-form coefficient formula is trusted); an independent check fits
alpha + beta r^2 to measured rotation numbers of iterates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ResonantJetError
from .maps import fd_jacobian

__all__ = [
    "Jet3",
    "jet3",
    "TwistData",
    "birkhoff_beta",
    "TwistFit",
    "twist_by_rotation_number",
    "elliptic_frame",
]

# monomial order for real jets: exponents (i, j) of u^i v^j, total degree <= 3
_MONOMIALS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
              (3, 0), (2, 1), (1, 2), (0, 3)]
_MONO_INDEX = {m: i for i, m in enumerate(_MONOMIALS)}

_ESCAPE = 10.0   # normalized radius past which a fit iterate has escaped


@dataclass
class Jet3:
    """Cubic Taylor data of a planar map at a fixed point."""

    coeffs: np.ndarray        # shape (2, 10), components x monomials
    errors: np.ndarray        # same shape, scale-to-scale differences
    fd_scale: float
    fixed_point_residual: float
    coarse_coeffs: np.ndarray  # the fit at the coarse scale

    def linear(self):
        c = self.coeffs
        return np.array([[c[0, 1], c[0, 2]], [c[1, 1], c[1, 2]]])

    def constant(self):
        return self.coeffs[:, 0].copy()

    def det_defect(self):
        return abs(float(np.linalg.det(self.linear())) - 1.0)

    def coefficient(self, component, i, j):
        return self.coeffs[component, _MONO_INDEX[(i, j)]]


def _fit_cubic(map_fn, center, h):
    """Least-squares cubic fit of the map on a 5x5 stencil of radius 2h."""
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    pts = []
    vals = []
    center = np.asarray(center, dtype=float)
    for du in offs:
        for dv in offs:
            pts.append((du, dv))
            w = np.asarray(map_fn(center + np.array([du, dv])), dtype=float)
            vals.append(w - center)
    A = np.array([[u**i * v**j for (i, j) in _MONOMIALS] for (u, v) in pts])
    V = np.array(vals)
    sol, *_ = np.linalg.lstsq(A, V, rcond=None)
    return sol.T  # (2, 10)


def jet3(map_fn, center=(0.0, 0.0), fd_scale=1e-3):
    """Cubic jet of a planar map at a (numerical) fixed point.

    Coefficients come from cubic least squares on 5x5 central stencils at
    radii fd_scale and fd_scale/2; the scale-to-scale difference is the
    error estimate.  The center must be a fixed point to well below the
    stencil scale.  The map is called once per distinct point: the two
    stencils share the 9 points center + {-fd_scale, 0, fd_scale}^2 (the
    center among them, which the residual check also uses), so a jet costs
    41 map calls, not 51.
    """
    center = np.asarray(center, dtype=float)
    values = {}

    def once(z):
        key = z.tobytes()
        if key not in values:
            values[key] = map_fn(z)
        return values[key]

    resid = float(np.linalg.norm(np.asarray(once(center)) - center))
    if resid > 1e-3 * fd_scale:
        raise ValueError(
            f"fixed-point residual {resid:.3e} too large for stencil scale {fd_scale:.3e}")
    fine = _fit_cubic(once, center, fd_scale / 2.0)
    coarse = _fit_cubic(once, center, fd_scale)
    return Jet3(fine, np.abs(fine - coarse), fd_scale, resid, coarse)


# -- complex jet algebra -------------------------------------------------------

# complex jets: dict (j, k) -> coefficient of zeta^j zetabar^k, j + k <= 3


def _cpoly_mul(p, q):
    out = {}
    for (j1, k1), a in p.items():
        if a == 0:
            continue
        for (j2, k2), b in q.items():
            j, k = j1 + j2, k1 + k2
            if j + k > 3:
                continue
            out[(j, k)] = out.get((j, k), 0.0) + a * b
    return out


def _cpoly_pow(p, n):
    out = {(0, 0): 1.0 + 0.0j}
    for _ in range(n):
        out = _cpoly_mul(out, p)
    return out


def _conj_jet(p):
    return {(k, j): a.conjugate() for (j, k), a in p.items()}


def _compose(f, g):
    """f(g, conj g) truncated at total degree 3; f, g complex jets."""
    gbar = _conj_jet(g)
    out = {}
    for (j, k), c in f.items():
        if c == 0:
            continue
        term = _cpoly_mul(_cpoly_pow(g, j), _cpoly_pow(gbar, k))
        for m, a in term.items():
            out[m] = out.get(m, 0.0) + c * a
    return {m: a for m, a in out.items() if a != 0.0}


def _invert_jet(g):
    """Inverse of g = zeta + O(2) as a jet, by fixed-point iteration."""
    ident = {(1, 0): 1.0 + 0.0j}
    higher = {m: a for m, a in g.items() if sum(m) >= 2}
    inv = dict(ident)
    for _ in range(4):
        corr = _compose(higher, inv)
        inv = {(1, 0): 1.0 + 0.0j}
        for m, a in corr.items():
            inv[m] = inv.get(m, 0.0) - a
    return inv


def _real_jet_to_complex(coeffs):
    """Complex jet of w = F1 + i F2 in zeta = u + i v, zetabar."""
    out = {}
    half = 0.5
    for idx, (a, b) in enumerate(_MONOMIALS):
        c = coeffs[0, idx] + 1j * coeffs[1, idx]
        if c == 0:
            continue
        # u^a v^b = ((z+zb)/2)^a ((z-zb)/2i)^b
        for p in range(a + 1):
            for q in range(b + 1):
                coef = (
                    math.comb(a, p) * math.comb(b, q)
                    * half**a * (1.0 / 2j) ** b * (-1.0) ** (b - q)
                )
                j = p + q
                k = a + b - p - q
                if j + k > 3:
                    continue
                out[(j, k)] = out.get((j, k), 0.0) + c * coef
    return out


def _conjugate_real_jet(coeffs, B):
    """Jet of B^{-1} o F o B for a linear change of coordinates B."""
    Binv = np.linalg.inv(B)
    # substitute (u, v) = B (s, t) into each monomial, then apply Binv
    new = np.zeros_like(coeffs)
    for idx, (a, b) in enumerate(_MONOMIALS):
        # expand (B00 s + B01 t)^a (B10 s + B11 t)^b
        poly = {(0, 0): 1.0}
        for _ in range(a):
            poly = _rpoly_mul_lin(poly, B[0, 0], B[0, 1])
        for _ in range(b):
            poly = _rpoly_mul_lin(poly, B[1, 0], B[1, 1])
        for comp in range(2):
            c = coeffs[comp, idx]
            if c == 0.0:
                continue
            for (i, j), w in poly.items():
                if i + j > 3:
                    continue
                new[comp, _MONO_INDEX[(i, j)]] += c * w
    return np.tensordot(Binv, new, axes=(1, 0))


def _rpoly_mul_lin(poly, c0, c1):
    out = {}
    for (i, j), w in poly.items():
        if i + j >= 4:
            continue
        out[(i + 1, j)] = out.get((i + 1, j), 0.0) + w * c0
        out[(i, j + 1)] = out.get((i, j + 1), 0.0) + w * c1
    return out


def elliptic_frame(M):
    """(B, phi): det-1 matrix with B^{-1} M B = rotation by phi (radians).

    Raises ValueError when M is not elliptic (|trace| >= 2).
    """
    M = np.asarray(M, dtype=float)
    tr = float(np.trace(M))
    if abs(tr) >= 2.0:
        raise ValueError(f"linear part is not elliptic (trace {tr:.6f})")
    w, V = np.linalg.eig(M)
    i = 0 if w[0].imag > 0 else 1
    v = V[:, i]
    u, s = v.real, v.imag
    B = np.column_stack([u, s])
    if np.linalg.det(B) < 0:
        B = np.column_stack([u, -s])
    B = B / math.sqrt(np.linalg.det(B))
    N = np.linalg.inv(B) @ M @ B
    phi = math.atan2(N[1, 0], N[0, 0])
    return B, phi


@dataclass
class TwistData:
    """Birkhoff data at an elliptic fixed point, angles in turns."""

    alpha: float
    beta: float
    beta_error: float
    nonresonant: dict
    area_defect: float
    verdict: str

    def as_dict(self):
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "beta_error": self.beta_error,
            "nonresonant": {str(k): bool(v) for k, v in self.nonresonant.items()},
            "area_defect": self.area_defect,
            "verdict": self.verdict,
        }


def _beta_from_coeffs(coeffs):
    M = np.array([[coeffs[0, 1], coeffs[0, 2]], [coeffs[1, 1], coeffs[1, 2]]])
    B, phi = elliptic_frame(M)
    normalized = _conjugate_real_jet(coeffs, B)
    f = _real_jet_to_complex(normalized)
    lam = cmath.exp(1j * phi)
    # degree 2 removal
    h2 = {(1, 0): 1.0 + 0.0j}
    for (j, k) in ((2, 0), (1, 1), (0, 2)):
        c = f.get((j, k), 0.0)
        if c != 0.0:
            h2[(j, k)] = c / (lam**j * lam.conjugate() ** k - lam)
    f2 = _compose(_compose(_invert_jet(h2), f), h2)
    # degree 3 removal away from the resonant (2,1) term
    h3 = {(1, 0): 1.0 + 0.0j}
    for (j, k) in ((3, 0), (1, 2), (0, 3)):
        c = f2.get((j, k), 0.0)
        if c != 0.0:
            h3[(j, k)] = c / (lam**j * lam.conjugate() ** k - lam)
    f3 = _compose(_compose(_invert_jet(h3), f2), h3)
    c21 = f3.get((2, 1), 0.0)
    w = lam.conjugate() * c21
    alpha = (phi / (2.0 * math.pi)) % 1.0
    return alpha, w.imag / (2.0 * math.pi), abs(w.real)


def birkhoff_beta(jet: Jet3):
    """Twist data from a cubic jet; raises ResonantJetError through order 4."""
    M = jet.linear()
    tr = float(np.trace(M))
    if abs(tr) >= 2.0:
        raise ResonantJetError(f"linear part not elliptic (trace {tr:.6f})")
    _, phi = elliptic_frame(M)
    lam = cmath.exp(1j * phi)
    flags = {n: abs(lam**n - 1.0) >= 1e-8 for n in (1, 2, 3, 4)}
    if not all(flags.values()):
        bad = [n for n, ok in flags.items() if not ok]
        raise ResonantJetError(f"resonant eigenvalue: lambda^n = 1 for n in {bad}")
    alpha, beta, defect = _beta_from_coeffs(jet.coeffs)
    # error estimate: redo the normalization with the coarse-scale fit
    try:
        _, beta_coarse, _ = _beta_from_coeffs(jet.coarse_coeffs)
        beta_err = abs(beta - beta_coarse)
    except (ValueError, ZeroDivisionError):
        beta_err = float("nan")
    verdict = "twist" if (all(flags.values()) and abs(beta) > 3.0 * beta_err) else "no-twist"
    return TwistData(alpha, beta, beta_err, flags, defect, verdict)


# -- independent verification: rotation-number fit ------------------------------


@dataclass
class TwistFit:
    alpha: float
    beta: float
    residual: float
    radii: list
    rotation_numbers: list

    def as_dict(self):
        return {"alpha": self.alpha, "beta": self.beta, "residual": self.residual,
                "radii": list(self.radii), "rotation_numbers": list(self.rotation_numbers)}


def twist_by_rotation_number(map_fn, radii, n_iter=500):
    """Fit alpha + beta r^2 (turns) to measured rotation numbers of iterates
    about the fixed point at the origin.

    Points start on the normalized real axis at each radius; angles are
    tracked in the det-1 frame where the linear part (`fd_jacobian`) is a
    rotation, so the fit shares coordinates with the jet normalization.
    """
    center = np.zeros(2)
    B, phi = elliptic_frame(fd_jacobian(map_fn, center))
    Binv = np.linalg.inv(B)
    rot = cmath.exp(1j * phi)
    rhos = []
    r_eff = []
    for r in radii:
        z = center + B @ np.array([r, 0.0])
        p = complex(r, 0.0)
        total = 0.0
        radii_seen = [abs(p)]
        for _ in range(n_iter):
            z = np.asarray(map_fn(z), dtype=float)
            q = Binv @ (z - center)
            pq = complex(q[0], q[1])
            if abs(pq) > _ESCAPE:
                raise ValueError(f"iterates escaped (radius {abs(pq):.3g})")
            delta = cmath.phase(pq / (p * rot))
            total += phi + delta
            radii_seen.append(abs(pq))
            p = pq
        rhos.append(total / n_iter / (2.0 * math.pi))
        r_eff.append(float(np.mean(radii_seen)))
    A = np.column_stack([np.ones(len(r_eff)), np.square(r_eff)])
    sol, res, *_ = np.linalg.lstsq(A, np.array(rhos), rcond=None)
    resid = math.sqrt(res[0] / len(rhos)) if len(res) else 0.0
    alpha = sol[0] % 1.0
    return TwistFit(alpha, float(sol[1]), float(resid), list(r_eff), rhos)
