"""Array forms of the closed-form maps and `map_points`.

Every row of `points` must be the one-point call's result bit for bit, and
`ok` must be False exactly where the one-point call raises.
"""

import math

import numpy as np
from hypothesis import example, given, strategies as st

from maglab.errors import NoReturnError
from maglab.maps import HorseshoeMap, StandardMap, map_points


def _bits(a):
    """The IEEE bit patterns of a float array (so that 0.0 and -0.0 differ)."""
    return np.asarray(a, dtype=float).view(np.uint64).tolist()


def _scalar(oracle, zs):
    """The one-point image of each row, None where the call raises."""
    out = []
    for z in zs:
        try:
            out.append(oracle(z))
        except ValueError:
            out.append(None)
    return out


def _assert_rows_match(oracle, zs):
    zs = np.asarray(zs, dtype=float)
    images, ok = oracle.points(zs)
    assert images.shape == zs.shape and ok.shape == (len(zs),)
    for i, want in enumerate(_scalar(oracle, zs)):
        assert ok[i] == (want is not None), (i, zs[i])
        if want is None:
            assert np.isnan(images[i]).all()
        else:
            assert _bits(images[i]) == _bits(want), (i, zs[i])


_x = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 0.5]))
_p = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0]))


@given(st.floats(-20.0, 20.0), st.lists(st.tuples(_x, _p), min_size=1, max_size=200))
@example(1.5, [(0.0, 0.0), (-0.0, 0.0), (0.5, 0.0), (-0.0, -0.0), (0.5, -0.0)])
@example(-0.0, [(0.25, 0.0), (-0.5, 1.0)])
def test_standard_map_points_match_scalar(K, zs):
    _assert_rows_match(StandardMap(K), zs)


def test_standard_map_points_fail_where_sin_raises():
    """math.sin raises on an infinite 2 pi x (from inf or an overflowing
    x); a NaN x maps to NaN without raising, as it does one point at a time."""
    sm = StandardMap(1.5)
    zs = [(math.inf, 0.0), (-math.inf, 1.0), (1e308, 0.0), (math.nan, 0.0),
          (0.3, math.inf), (0.1, 0.2)]
    _assert_rows_match(sm, zs)
    assert sm.points(np.array(zs))[1].tolist() == [False, False, False, True, True, True]


def _strip_edges():
    """The y at which the horseshoe's strips end, with their float neighbours."""
    ys = []
    for edge in (1.0 / 3.0 + 1e-15, 2.0 / 3.0 - 1e-15):
        lo, hi = np.nextafter(edge, -1.0), np.nextafter(edge, 2.0)
        ys += [np.nextafter(lo, -1.0), lo, edge, hi, np.nextafter(hi, 2.0)]
    return ys


def test_horseshoe_points_at_the_strip_edges():
    hs = HorseshoeMap(3.0)
    ys = _strip_edges()
    zs = [(x, y) for y in ys for x in (0.0, -0.0, 0.25, 1.0)]
    _assert_rows_match(hs, zs)
    ok = hs.points(np.array(zs))[1].reshape(len(ys), 4)
    # mapped: up to and at 1/3 + 1e-15, and from 2/3 - 1e-15 on
    assert ok[:, 0].tolist() == [True, True, True, False, False,
                                 False, False, True, True, True]


@given(st.floats(1.5, 10.0),
       st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 2.0)),
                min_size=1, max_size=200))
def test_horseshoe_points_match_scalar(stretch, zs):
    _assert_rows_match(HorseshoeMap(stretch), zs)


def test_horseshoe_points_non_finite():
    _assert_rows_match(HorseshoeMap(3.0), [(math.inf, 0.0), (0.1, math.nan),
                                           (0.1, math.inf), (math.nan, -math.inf)])


class _OnePointMap:
    """StandardMap(1.5) without `points`; raises NoReturnError where x > 1."""

    def __init__(self):
        self.sm = StandardMap(1.5)
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        if z[0] > 1.0:
            raise NoReturnError("no return")
        return self.sm(z)


def test_map_points_per_row_without_points():
    oracle = _OnePointMap()
    zs = np.array([[0.1, 0.2], [1.5, 0.0], [-0.3, 0.1], [2.0, 1.0]])
    images, ok = map_points(oracle, zs)
    assert oracle.calls == 4
    assert ok.tolist() == [True, False, True, False]
    assert np.isnan(images[~ok]).all()
    for i in np.flatnonzero(ok):
        assert _bits(images[i]) == _bits(oracle.sm(zs[i]))

