"""Planar map oracles with known dynamics.

All maps implement the oracle protocol used by the chaos and normal-form
machinery: `map(z) -> z'`, plus `inverse(z)` and `jacobian(z)` where an
analytic form exists.  Flows enter through the same protocol via
SectionReturnMap, so synthetic maps and first-return maps share all code.
An oracle without `jacobian` is differenced by `fd_jacobian`, the one
finite-difference Jacobian of the package.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TwistMap",
    "LinearMap",
    "StandardMap",
    "HorseshoeMap",
    "PolynomialMap",
    "fd_jacobian",
]


def fd_jacobian(map_fn, z, h=1e-6):
    """Central-difference Jacobian of map_fn at z: column j is
    (map_fn(z + h e_j) - map_fn(z - h e_j)) / 2h, flattened, for each entry
    of z."""
    z = np.asarray(z, dtype=float)
    cols = []
    for j in range(z.size):
        e = np.zeros(z.size)
        e[j] = h
        cols.append((np.asarray(map_fn(z + e)) - np.asarray(map_fn(z - e))).ravel() / (2 * h))
    return np.column_stack(cols)


class TwistMap:
    """(r, theta) -> (r, theta + 2 pi (alpha + beta r^2)), in Cartesian form."""

    def __init__(self, alpha, beta):
        self.alpha = alpha
        self.beta = beta

    def _angle(self, r2):
        return 2.0 * math.pi * (self.alpha + self.beta * r2)

    def __call__(self, z):
        x, y = float(z[0]), float(z[1])
        phi = self._angle(x * x + y * y)
        c, s = math.cos(phi), math.sin(phi)
        return np.array([c * x - s * y, s * x + c * y])

    def inverse(self, z):
        x, y = float(z[0]), float(z[1])
        phi = self._angle(x * x + y * y)
        c, s = math.cos(phi), math.sin(phi)
        return np.array([c * x + s * y, -s * x + c * y])

    def jacobian(self, z):
        x, y = float(z[0]), float(z[1])
        r2 = x * x + y * y
        phi = self._angle(r2)
        c, s = math.cos(phi), math.sin(phi)
        dphi = 4.0 * math.pi * self.beta
        R = np.array([[c, -s], [s, c]])
        outer = np.array([[-s * x - c * y], [c * x - s * y]]) @ np.array([[x, y]])
        return R + dphi * outer


class LinearMap:
    """z -> M z for a constant 2x2 matrix."""

    def __init__(self, M):
        self.M = np.asarray(M, dtype=float)
        self.Minv = np.linalg.inv(self.M)

    def __call__(self, z):
        return self.M @ np.asarray(z, dtype=float)

    def inverse(self, z):
        return self.Minv @ np.asarray(z, dtype=float)

    def jacobian(self, z):
        return self.M.copy()


class StandardMap:
    """Chirikov standard map on the cylinder, x taken in the universal cover.

        p' = p + (K / 2 pi) sin(2 pi x),    x' = x + p'.

    Hyperbolic fixed points at integer (x, 0) with trace 2 + K; area
    preserving with analytic inverse.
    """

    def __init__(self, K):
        self.K = float(K)

    def __call__(self, z):
        x, p = float(z[0]), float(z[1])
        p1 = p + self.K / (2.0 * math.pi) * math.sin(2.0 * math.pi * x)
        return np.array([x + p1, p1])

    def inverse(self, z):
        x1, p1 = float(z[0]), float(z[1])
        x = x1 - p1
        p = p1 - self.K / (2.0 * math.pi) * math.sin(2.0 * math.pi * x)
        return np.array([x, p])

    def jacobian(self, z):
        x = float(z[0])
        kc = self.K * math.cos(2.0 * math.pi * x)
        return np.array([[1.0 + kc, 1.0], [kc, 1.0]])


class HorseshoeMap:
    """Piecewise-linear Smale horseshoe on the unit square, stretch factor 3.

    The bottom strip y < 1/3 maps to the left vertical strip, the top strip
    y > 2/3 folds onto the right vertical strip; the middle third leaves the
    square (evaluation there raises, which branch growers treat as a
    truncation).  Invariant set: full shift on two symbols, entropy log 2.
    """

    def __init__(self, stretch=3.0):
        self.s = float(stretch)

    def __call__(self, z):
        x, y = float(z[0]), float(z[1])
        s = self.s
        if y <= 1.0 / 3.0 + 1e-15:
            return np.array([x / s, s * y])
        if y >= 2.0 / 3.0 - 1e-15:
            return np.array([1.0 - x / s, s - s * y])
        raise ValueError("middle third leaves the square")

    def inverse(self, z):
        x1, y1 = float(z[0]), float(z[1])
        s = self.s
        if x1 <= 0.5:
            return np.array([s * x1, y1 / s])
        return np.array([s * (1.0 - x1), 1.0 - y1 / s])

    def jacobian(self, z):
        x, y = float(z[0]), float(z[1])
        s = self.s
        if y <= 1.0 / 3.0 + 1e-15:
            return np.array([[1.0 / s, 0.0], [0.0, s]])
        return np.array([[-1.0 / s, 0.0], [0.0, -s]])


class PolynomialMap:
    """Map with prescribed cubic Taylor coefficients (jet-extraction oracle)."""

    def __init__(self, coeffs):
        # coeffs: dict (component, i, j) -> value of the u^i v^j coefficient
        self.coeffs = dict(coeffs)

    def __call__(self, z):
        u, v = float(z[0]), float(z[1])
        out = [0.0, 0.0]
        for (comp, i, j), c in self.coeffs.items():
            out[comp] += c * u**i * v**j
        return np.array(out)
