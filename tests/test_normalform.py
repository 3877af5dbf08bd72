import math

import numpy as np
import pytest

from maglab.errors import ResonantJetError
from maglab.maps import fd_jacobian
from maglab.normalform import (
    _MONOMIALS,
    _beta_from_coeffs,
    _birkhoff_weights,
    _fit_cubic,
    birkhoff_beta,
    elliptic_frame,
    jet3,
    twist_by_rotation_number,
)

from oracles import LinearMap, PolynomialMap, TwistMap


def rotation(alpha):
    phi = 2.0 * math.pi * alpha
    return np.array([[math.cos(phi), -math.sin(phi)],
                     [math.sin(phi), math.cos(phi)]])


def test_jet_identity_map():
    """P = id: linear part identity-like, higher coefficients negligible."""
    ident = LinearMap(np.eye(2))
    J = jet3(ident, (0.0, 0.0), fd_scale=1e-3)
    assert np.abs(J.linear() - np.eye(2)).max() <= 1e-10
    assert np.abs(J.coeffs[:, 3:]).max() <= 1e-6


def test_jet_polynomial_coefficients():
    coeffs = {(0, 1, 0): 0.3, (0, 0, 1): 1.0, (0, 2, 0): 0.5, (0, 1, 1): -0.25,
              (1, 1, 0): -1.0, (1, 0, 1): 0.1, (1, 0, 2): 2.0, (1, 3, 0): 0.75,
              (0, 2, 1): 1.5}
    pm = PolynomialMap(coeffs)
    J = jet3(pm, (0.0, 0.0), fd_scale=1e-2)
    assert J.coeffs[0, _MONOMIALS.index((2, 0))] == pytest.approx(0.5, abs=1e-5)
    assert J.coeffs[0, _MONOMIALS.index((2, 1))] == pytest.approx(1.5, abs=1e-5)
    assert J.coeffs[1, _MONOMIALS.index((0, 2))] == pytest.approx(2.0, abs=1e-5)
    assert J.coeffs[1, _MONOMIALS.index((3, 0))] == pytest.approx(0.75, abs=1e-5)
    assert J.errors.max() <= 1e-6


def test_jet_twist_map_linear_part():
    tm = TwistMap(0.3, 2.0)
    J = jet3(tm, (0.0, 0.0), fd_scale=5e-3)
    assert np.abs(J.linear() - rotation(0.3)).max() <= 1e-6
    assert J.det_defect() <= 1e-6
    assert J.fixed_point_residual <= 1e-12
    assert abs(J.constant()).max() <= 1e-10


def test_birkhoff_beta_injected():
    td = birkhoff_beta(jet3(TwistMap(0.3, 2.0), fd_scale=5e-3))
    assert td.alpha == pytest.approx(0.3, abs=1e-8)
    assert td.beta == pytest.approx(2.0, rel=1e-2)
    assert td.verdict == "twist"
    assert all(td.nonresonant.values())


def test_birkhoff_beta_negative_rotation():
    """alpha = 0.7 rotates the other way; signed alpha lands in (1/2, 1)."""
    td = birkhoff_beta(jet3(TwistMap(0.7, 2.0), fd_scale=5e-3))
    assert td.alpha == pytest.approx(0.7, abs=1e-8)
    assert td.beta == pytest.approx(2.0, rel=1e-2)


def test_birkhoff_beta_pure_rotation():
    td = birkhoff_beta(jet3(LinearMap(rotation(0.3)), fd_scale=1e-2))
    assert abs(td.beta) <= 1e-6
    assert td.verdict == "no-twist"


def test_resonant_jet_rejected():
    for alpha in (0.25, 0.5, 1.0 / 3.0):
        with pytest.raises(ResonantJetError):
            birkhoff_beta(jet3(TwistMap(alpha, 2.0), fd_scale=5e-3))


def test_resonance_flags_match_eigenvalue_powers():
    td = birkhoff_beta(jet3(TwistMap(0.21, 1.0), fd_scale=5e-3))
    lam = np.exp(2j * math.pi * 0.21)
    for n in (1, 2, 3, 4):
        assert td.nonresonant[n] == (abs(lam**n - 1.0) >= 1e-8)


def test_beta_invariant_under_rotated_frame():
    """Conjugating by a rotation changes the jet but not beta."""
    tm = TwistMap(0.3, 2.0)
    R = rotation(0.11)
    Rinv = np.linalg.inv(R)

    def conjugated(z):
        return R @ tm(Rinv @ np.asarray(z, dtype=float))

    td0 = birkhoff_beta(jet3(tm, fd_scale=5e-3))
    td1 = birkhoff_beta(jet3(conjugated, fd_scale=5e-3))
    tol = 2.0 * max(td0.beta_error, td1.beta_error, 1e-9)
    assert abs(td0.beta - td1.beta) <= max(tol, 1e-4)


def _conjugated_twist_jet(S, a, b):
    """Cubic jet of F = Phi^-1 o T o Phi, T = TwistMap(0.21, 0.3), expanded
    by sympy with every product truncated at degree 3.  Phi = S o H with S
    det 1 and H(u, v) = (u + b w^2, w), w = v + a u^2, whose inverse is
    explicit.  T's angle is phi + tau r^2, its cos and sin their series in
    r^2; cos phi, sin phi and tau stay symbols until the coefficients are
    evaluated."""
    import sympy as sp

    u, v, r2, phi, tau, C, Sn = sp.symbols("u v r2 phi tau C Sn")
    S, a, b = sp.Matrix(sp.sympify(S)), sp.Rational(a), sp.Rational(b)
    ring = sp.QQ[tau, C, Sn]

    def cubic(e):
        if not isinstance(e, sp.Poly):
            e = sp.Poly(e, u, v, domain=ring)
        return sp.Poly.from_dict({m: c for m, c in e.as_dict().items() if sum(m) <= 3},
                                 u, v, domain=ring)

    def apply(A, p, q):
        return [cubic(A[r, 0] * p + A[r, 1] * q) for r in range(2)]

    w = cubic(v + a * u**2)
    x, y = apply(S, cubic(u + b * w**2), w)
    r = cubic(x**2 + y**2).as_expr()
    c, s = (cubic(sp.series(f(phi + tau * r2), r2, 0, 2).removeO()
                  .subs({sp.cos(phi): C, sp.sin(phi): Sn, r2: r}))
            for f in (sp.cos, sp.sin))
    X, Y = apply(S.inv(), cubic(c * x - s * y), cubic(s * x + c * y))
    W = cubic(X - b * Y**2)
    phi0 = 2 * sp.pi * sp.Rational(21, 100)
    values = {tau: 2 * sp.pi * sp.Rational(3, 10), C: sp.cos(phi0), Sn: sp.sin(phi0)}
    coeffs = np.zeros((2, len(_MONOMIALS)))
    for comp, f in enumerate((W, cubic(Y - a * W**2))):
        for k, (i, j) in enumerate(_MONOMIALS):
            coeffs[comp, k] = float(f.coeff_monomial(u**i * v**j).subs(values).evalf(30))
    return coeffs


@pytest.mark.parametrize("S, a, b", [
    ("[[1, 0], [0, 1]]", "7/10", "-2/5"),
    ("[[2, 1], [1, 1]]", "3/10", "1/2"),
    ("[[1/2, 0], [3/4, 2]]", "-11/10", "1/5"),
])
def test_beta_invariant_under_quadratic_conjugacy(S, a, b):
    """A conjugacy with quadratic terms gives the jet nonzero g20, g11 and
    g02, and leaves beta at the twist map's 0.3."""
    coeffs = _conjugated_twist_jet(S, a, b)
    assert np.abs(coeffs[:, 3:6]).max() > 0.1
    alpha, beta, _ = _beta_from_coeffs(coeffs)
    assert alpha == pytest.approx(0.21, abs=1e-14)
    assert beta == pytest.approx(0.3, rel=1e-12)


def test_rotation_fit_injected():
    tm = TwistMap(0.3, 2.0)
    fit = twist_by_rotation_number(tm, [0.01, 0.02, 0.03, 0.04, 0.05], n_iter=500)
    assert fit.alpha == pytest.approx(0.3, abs=1e-10)
    assert fit.beta == pytest.approx(2.0, rel=1e-2)
    assert fit.residual <= 1e-10


def test_rotation_fit_pure_rotation():
    rot = LinearMap(rotation(0.3))
    fit = twist_by_rotation_number(rot, [0.05, 0.1, 0.15], n_iter=200)
    assert abs(fit.beta) <= 1e-9


def test_birkhoff_weights_average_fast():
    """The weights are positive, symmetric and sum to 1; along an
    irrational rotation, 100 weighted terms of cos 2 pi x average to within
    1e-9 of its mean 0, where the equal-weight mean is 1e-3 off."""
    w = _birkhoff_weights(100)
    assert min(w) > 0.0 and w == pytest.approx(w[::-1], rel=1e-12)
    assert math.fsum(w) == pytest.approx(1.0, abs=1e-15)
    omega = (math.sqrt(5.0) - 1.0) / 2.0
    terms = [math.cos(2.0 * math.pi * (0.1 + k * omega)) for k in range(100)]
    assert abs(sum(a * b for a, b in zip(w, terms))) <= 1e-9
    assert abs(sum(terms) / 100) >= 1e-3


def test_jet_vs_fit_cross_validation():
    """The two independent twist paths agree on an injected map."""
    tm = TwistMap(0.37, -1.4)
    td = birkhoff_beta(jet3(tm, fd_scale=5e-3))
    fit = twist_by_rotation_number(tm, [0.01, 0.02, 0.03], n_iter=300)
    assert abs(td.beta - fit.beta) <= 0.05 * abs(fit.beta)


def test_elliptic_frame_normalizes():
    M = rotation(0.23)
    S = np.array([[1.4, 0.3], [0.1, (1.0 + 0.3 * 0.1) / 1.4]])  # det 1
    B, phi = elliptic_frame(S @ M @ np.linalg.inv(S))
    N = np.linalg.inv(B) @ (S @ M @ np.linalg.inv(S)) @ B
    assert np.abs(N - rotation(phi / (2 * math.pi))).max() <= 1e-12
    assert np.linalg.det(B) == pytest.approx(1.0, abs=1e-12)


def test_jet_rejects_moving_center():
    tm = TwistMap(0.3, 2.0)
    with pytest.raises(ValueError):
        jet3(tm, (0.2, 0.1), fd_scale=1e-3)


def _jet3_every_call(map_fn, center, fd_scale):
    """jet3's coefficients, errors, residual and coarse fit with a map call
    for every stencil entry: 1 + 25 + 25 calls."""
    center = np.asarray(center, dtype=float)
    resid = float(np.linalg.norm(np.asarray(map_fn(center)) - center))
    fine = _fit_cubic(map_fn, center, fd_scale / 2.0)
    coarse = _fit_cubic(map_fn, center, fd_scale)
    return fine, np.abs(fine - coarse), resid, coarse


@pytest.mark.parametrize("center", [(0.0, 0.0), (0.2, -0.1)])
def test_jet3_calls_each_stencil_point_once(center):
    """The two stencils share 9 points, the center among them: 41 calls at
    41 distinct points, with the jet of making all 51 calls."""
    tm = TwistMap(0.3, 2.0)
    c = np.asarray(center)

    def shifted(z):  # the twist map moved to a fixed point at `center`
        return c + tm(np.asarray(z) - c)

    seen, every = [], []

    def recorded(z):
        seen.append(np.asarray(z).tobytes())
        return shifted(z)

    def counted(z):
        every.append(z)
        return shifted(z)

    J = jet3(recorded, center, fd_scale=5e-3)
    fine, errors, resid, coarse = _jet3_every_call(counted, center, 5e-3)
    assert len(seen) == len(set(seen)) == 41
    assert len(every) == 51
    assert np.array_equal(J.coeffs, fine)
    assert np.array_equal(J.errors, errors)
    assert J.fixed_point_residual == resid
    assert np.array_equal(J.coarse_coeffs, coarse)


def test_fd_jacobian_of_linear_map():
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert np.abs(fd_jacobian(LinearMap(M), (0.3, -0.2)) - M).max() <= 1e-9


def test_fd_jacobian_of_matrix_valued_map():
    """A map R^3 -> 2x2 gets one column per entry of z, each the flattened
    central difference: == to the column loop written out here."""
    def f(a):
        x, y, w = a
        return np.array([[math.exp(x) * y, x * w], [math.sin(y + w), x * x - w]])

    A, h = np.array([0.1, -0.4, 0.25]), 1e-4
    want = np.empty((4, 3))
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        want[:, j] = (f(A + e) - f(A - e)).ravel() / (2.0 * h)
    got = fd_jacobian(f, A, h)
    assert got.shape == (4, 3)
    assert np.array_equal(got, want)
