"""Planar map oracles with known dynamics.

All maps implement the oracle protocol used by the chaos and normal-form
machinery: `map(z) -> z'`, plus `inverse(z)` and `jacobian(z)` where an
analytic form exists.  Flows enter through the same protocol via
SectionReturnMap, so synthetic maps and first-return maps share all code.
An oracle without `jacobian` is differenced by `fd_jacobian`, the one
finite-difference Jacobian of the package.

An oracle may also have an array form `points(zs) -> (images, ok)`: the
images of the rows of an (n, 2) array and a mask of the rows the map is
defined on (NaN images elsewhere), each row `==` to the one-point call.
`map_points` reads a whole array through either form, so a caller needs
no second code path; the closed-form maps here have `points`, and
SectionReturnMap and other one-point oracles are called row by row.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NoReturnError

__all__ = [
    "StandardMap",
    "HorseshoeMap",
    "fd_jacobian",
    "map_points",
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


def map_points(oracle, zs):
    """(images, ok) of the rows of the (n, 2) array zs under the oracle.

    `oracle.points(zs)` where the oracle has it; otherwise one oracle call
    per row, a row whose call raises ValueError or NoReturnError not ok
    with a NaN image.
    """
    points = getattr(oracle, "points", None)
    if points is not None:
        return points(zs)
    images = np.full_like(zs, np.nan)
    ok = np.ones(len(zs), dtype=bool)
    for i, z in enumerate(zs):
        try:
            images[i] = np.asarray(oracle(z), dtype=float)
        except (ValueError, NoReturnError):
            ok[i] = False
    return images, ok


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

    def points(self, zs):
        """Array form of __call__: the same operations in the same order
        (np.sin equals math.sin bit for bit).  ok is False where 2 pi x is
        infinite, the one place math.sin raises; those images are NaN."""
        zs = np.asarray(zs, dtype=float)
        x, p = zs[:, 0], zs[:, 1]
        with np.errstate(over="ignore", invalid="ignore"):
            a = 2.0 * math.pi * x
            p1 = p + self.K / (2.0 * math.pi) * np.sin(a)
        return np.column_stack([x + p1, p1]), ~np.isinf(a)

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
    """Piecewise-linear Smale horseshoe on the unit square, stretch factor s.

    The bottom strip y < 1/3 maps to the left vertical strip, the top strip
    y > 2/3 folds onto the right vertical strip; the middle third leaves the
    square (evaluation there raises, which branch growers treat as a
    truncation).  Invariant set: full shift on two symbols, entropy log 2.
    """

    def __init__(self, stretch):
        self.s = float(stretch)

    def __call__(self, z):
        x, y = float(z[0]), float(z[1])
        s = self.s
        if y <= 1.0 / 3.0 + 1e-15:
            return np.array([x / s, s * y])
        if y >= 2.0 / 3.0 - 1e-15:
            return np.array([1.0 - x / s, s - s * y])
        raise ValueError("middle third leaves the square")

    def points(self, zs):
        """Array form of __call__: ok is False exactly where __call__ raises,
        with a NaN image."""
        zs = np.asarray(zs, dtype=float)
        x, y = zs[:, 0], zs[:, 1]
        s = self.s
        low = y <= 1.0 / 3.0 + 1e-15
        ok = low | (y >= 2.0 / 3.0 - 1e-15)
        images = np.where(low[:, None], np.column_stack([x / s, s * y]),
                          np.column_stack([1.0 - x / s, s - s * y]))
        images[~ok] = np.nan
        return images, ok

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
