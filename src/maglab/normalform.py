"""Third-order jets of area-preserving planar maps and the twist coefficient.

For an elliptic fixed point with eigenvalues e^{+-i phi}, phi nonresonant
through order 4, the map is formally conjugate to

    zeta -> lambda zeta (1 + lambda-bar c21 |zeta|^2) + O(4),

and in symplectic polar coordinates reads (r, theta) -> (r, theta + phi +
tau r^2) with tau = Im(lambda-bar c21).  Rotation numbers are reported in
turns: alpha = phi / 2 pi in (0, 1) and beta = tau / 2 pi, so orbits at
normalized radius r advance by alpha + beta r^2 turns per iterate.

c21 is the Neimark-Sacker coefficient (Yu. A. Kuznetsov, *Elements of
Applied Bifurcation Theory*, section 4.7): with x = zeta q + conj(zeta q)
and the map zeta -> lambda zeta + sum g_kl zeta^k zeta-bar^l / (k! l!),

    c21 = g20 g11 (lambda-bar - 3 + 2 lambda) / (2 (lambda^2 - lambda)
          (lambda-bar - 1)) + |g11|^2 / (1 - lambda-bar)
          + |g02|^2 / (2 (lambda^2 - lambda-bar)) + g21 / 2.

tests/test_normalform.py checks it on jets of the twist map conjugated by
maps with quadratic terms, expanded by sympy.  An independent check fits
alpha + beta r^2 to measured rotation numbers of iterates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EscapeError, FixedPointError, ResonantJetError
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


def _each(map_fn, fn, tasks):
    """[fn(t) for t in tasks], by the oracle's `fan_out` where it has one."""
    fan_out = getattr(map_fn, "fan_out", None)
    return fan_out(fn, tasks) if fan_out is not None else [fn(t) for t in tasks]


def _stencil(center, h):
    """(offset, point) pairs of the 5x5 stencil of radius 2h about center."""
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
    return [((du, dv), center + np.array([du, dv])) for du in offs for dv in offs]


def _fit_cubic(map_fn, center, h):
    """Least-squares cubic fit of the map on a 5x5 stencil of radius 2h."""
    center = np.asarray(center, dtype=float)
    stencil = _stencil(center, h)
    A = np.array([[u**i * v**j for (i, j) in _MONOMIALS] for (u, v), _ in stencil])
    V = np.array([np.asarray(map_fn(z), dtype=float) - center for _, z in stencil])
    sol, *_ = np.linalg.lstsq(A, V, rcond=None)
    return sol.T  # (2, 10)


def jet3(map_fn, center=(0.0, 0.0), *, fd_scale):
    """Cubic jet of a planar map at a (numerical) fixed point.

    Coefficients come from cubic least squares on 5x5 central stencils at
    radii fd_scale and fd_scale/2; the scale-to-scale difference is the
    error estimate.  The center must be a fixed point to well below the
    stencil scale.  The map is called once per distinct point: the two
    stencils share the 9 points center + {-fd_scale, 0, fd_scale}^2 (the
    center among them, which the residual check also uses), so a jet costs
    41 map calls, not 51.  The 40 after the center's go through `_each`.
    """
    center = np.asarray(center, dtype=float)
    values = {center.tobytes(): map_fn(center)}
    resid = float(np.linalg.norm(np.asarray(values[center.tobytes()]) - center))
    if resid > 1e-3 * fd_scale:
        raise FixedPointError(
            f"fixed-point residual {resid:.3e} too large for stencil scale {fd_scale:.3e}")
    rest = {z.tobytes(): z for h in (fd_scale / 2.0, fd_scale)
            for _, z in _stencil(center, h) if z.tobytes() not in values}
    values.update(zip(rest, _each(map_fn, map_fn, list(rest.values()))))
    fine, coarse = (_fit_cubic(lambda z: values[z.tobytes()], center, h)
                    for h in (fd_scale / 2.0, fd_scale))
    return Jet3(fine, np.abs(fine - coarse), fd_scale, resid, coarse)


def elliptic_frame(M):
    """(B, phi): det-1 matrix with B^{-1} M B = rotation by phi (radians).

    Raises FixedPointError when M is not elliptic (|trace| >= 2).
    """
    M = np.asarray(M, dtype=float)
    tr = float(np.trace(M))
    if abs(tr) >= 2.0:
        raise FixedPointError(f"linear part is not elliptic (trace {tr:.6f})")
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


def _beta_from_coeffs(coeffs):
    """(alpha, beta, |Re(lambda-bar c21)|) of a cubic jet, c21 by the formula
    in the module docstring.  The g_kl are polarizations of the jet's
    degree-2 and degree-3 parts; the arithmetic after them is in Python
    complex, so a zero denominator raises ZeroDivisionError."""
    B, phi = elliptic_frame(coeffs[:, 1:3])
    # x = zeta q + conj(zeta q) and zeta = p . x in the det-1 frame
    q = B @ np.array([0.5, -0.5j])
    p = np.array([1.0, 1j]) @ np.linalg.inv(B)
    qb = q.conjugate()

    def g(d, x):  # p . (the jet's degree-d part at the complex point x)
        return complex(p @ sum(coeffs[:, k] * x[0] ** i * x[1] ** j
                               for k, (i, j) in enumerate(_MONOMIALS) if i + j == d))

    g20 = 2.0 * g(2, q)
    g02 = 2.0 * g(2, qb)
    g11 = g(2, q + qb) - g(2, q) - g(2, qb)
    g21 = g(3, q + qb) - g(3, q - qb) - 2.0 * g(3, qb)
    lam = cmath.exp(1j * phi)
    lamb = lam.conjugate()
    c21 = (g20 * g11 * (lamb - 3.0 + 2.0 * lam) / (2.0 * (lam * lam - lam) * (lamb - 1.0))
           + abs(g11) ** 2 / (1.0 - lamb) + abs(g02) ** 2 / (2.0 * (lam * lam - lamb))
           + g21 / 2.0)
    w = lamb * c21
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
    flags = {str(n): abs(lam**n - 1.0) >= 1e-8 for n in (1, 2, 3, 4)}
    if not all(flags.values()):
        bad = [int(n) for n, ok in flags.items() if not ok]
        raise ResonantJetError(f"resonant eigenvalue: lambda^n = 1 for n in {bad}")
    alpha, beta, defect = _beta_from_coeffs(jet.coeffs)
    # error estimate: redo the normalization with the coarse-scale fit
    try:
        _, beta_coarse, _ = _beta_from_coeffs(jet.coarse_coeffs)
        beta_err = abs(beta - beta_coarse)
    except (ValueError, ZeroDivisionError):
        beta_err = float("nan")
    verdict = "twist" if abs(beta) > 3.0 * beta_err else "no-twist"
    return TwistData(alpha, beta, beta_err, flags, defect, verdict)


# -- independent verification: rotation-number fit ------------------------------


@dataclass
class TwistFit:
    alpha: float
    beta: float
    residual: float
    radii: list
    rotation_numbers: list


def _birkhoff_weights(n):
    """The n weights of a weighted Birkhoff average: w(t) = exp(-1/(t(1-t)))
    at t = (k + 1)/(n + 1), k = 0..n-1, divided by their sum.

    On a quasi-periodic orbit the weighted average of a smooth observable
    converges faster than any power of 1/n, where the equal-weight mean
    converges like 1/n (S. Das, Y. Saiki, E. Sander and J. A. Yorke,
    *Nonlinearity* 30 (2017) 4111; S. Das and J. A. Yorke, *Nonlinearity*
    31 (2018) 491).
    """
    w = [math.exp(-1.0 / (t * (1.0 - t))) for t in ((k + 1) / (n + 1) for k in range(n))]
    total = math.fsum(w)
    return [x / total for x in w]


def twist_by_rotation_number(map_fn, radii, n_iter):
    """Fit alpha + beta r^2 (turns) to measured rotation numbers of iterates
    about the fixed point at the origin.

    Points start on the normalized real axis at each radius; angles are
    tracked in the det-1 frame where the linear part (`fd_jacobian`) is a
    rotation, so the fit shares coordinates with the jet normalization.  The
    rotation number at a radius is the weighted Birkhoff average
    (`_birkhoff_weights`) of the n_iter angle increments.  Each radius is one
    task of `_each`; an iterate past normalized radius _ESCAPE raises.
    """
    center = np.zeros(2)
    B, phi = elliptic_frame(fd_jacobian(map_fn, center))
    Binv = np.linalg.inv(B)
    rot = cmath.exp(1j * phi)
    weights = _birkhoff_weights(n_iter)

    def chain(r):  # (rotation number, mean normalized radius) from radius r
        z = center + B @ np.array([r, 0.0])
        p = complex(r, 0.0)
        total = 0.0
        radii_seen = [abs(p)]
        for w in weights:
            z = np.asarray(map_fn(z), dtype=float)
            q = Binv @ (z - center)
            pq = complex(q[0], q[1])
            if abs(pq) > _ESCAPE:
                raise EscapeError(f"iterates escaped (radius {abs(pq):.3g})")
            delta = cmath.phase(pq / (p * rot))
            total += w * (phi + delta)
            radii_seen.append(abs(pq))
            p = pq
        return total / (2.0 * math.pi), float(np.mean(radii_seen))

    chains = _each(map_fn, chain, list(radii))
    rhos, r_eff = map(list, zip(*chains))
    A = np.column_stack([np.ones(len(r_eff)), np.square(r_eff)])
    sol, res, *_ = np.linalg.lstsq(A, np.array(rhos), rcond=None)
    resid = math.sqrt(res[0] / len(rhos)) if len(res) else 0.0
    alpha = sol[0] % 1.0
    return TwistFit(alpha, float(sol[1]), float(resid), r_eff, rhos)
