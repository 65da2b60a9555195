"""Tests for convex hulls and bridge finding (Lemma 4.1 machinery)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.hull import (
    bridge_edge,
    line_through,
    lower_hull,
    supporting_line,
    upper_hull,
)

from . import reference_bounding

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
, allow_subnormal=False)
points_strategy = st.lists(st.tuples(finite, finite), min_size=1, max_size=40)


def test_upper_hull_simple():
    pts = [(0.0, 0.0), (1.0, 3.0), (2.0, 1.0), (3.0, 2.0)]
    hull = upper_hull(pts)
    assert hull[0] == (0.0, 0.0)
    assert hull[-1] == (3.0, 2.0)
    assert (1.0, 3.0) in hull
    assert (2.0, 1.0) not in hull


def test_lower_hull_simple():
    pts = [(0.0, 0.0), (1.0, -3.0), (2.0, 1.0), (3.0, -1.0)]
    hull = lower_hull(pts)
    assert (1.0, -3.0) in hull
    assert (2.0, 1.0) not in hull


def test_duplicate_t_keeps_extreme():
    pts = [(1.0, 0.0), (1.0, 5.0), (2.0, 1.0)]
    assert upper_hull(pts)[0] == (1.0, 5.0)
    assert lower_hull(pts)[0] == (1.0, 0.0)


def test_single_point_hull():
    assert upper_hull([(1.0, 2.0)]) == [(1.0, 2.0)]
    p, q = bridge_edge([(1.0, 2.0)], 5.0)
    assert p == q == (1.0, 2.0)


def test_empty_hull_raises():
    with pytest.raises(ValueError):
        upper_hull([])


def _tolerance(intercept, slope, t, x):
    """Absolute tolerance for evaluating ``intercept + slope * t``.

    The ``(intercept, slope)`` line form is ill-conditioned for
    near-vertical edges: both terms can reach ~1e16 and cancel, so the
    evaluation's error scales with their magnitudes (ulp-level relative
    error on each), not with ``x``.
    """
    return 1e-6 * max(1.0, abs(x)) + 1e-12 * (abs(intercept) + abs(slope * t))


@given(points_strategy)
@settings(deadline=None)
def test_upper_hull_bounds_all_points(pts):
    """Every line through a hull edge lies on or above all points."""
    hull = upper_hull(pts)
    for a, b in zip(hull, hull[1:]):
        intercept, slope = line_through(a, b)
        for t, x in pts:
            assert intercept + slope * t >= x - _tolerance(
                intercept, slope, t, x
            )


@given(points_strategy)
@settings(deadline=None)
def test_lower_hull_bounds_all_points(pts):
    hull = lower_hull(pts)
    for a, b in zip(hull, hull[1:]):
        intercept, slope = line_through(a, b)
        for t, x in pts:
            assert intercept + slope * t <= x + _tolerance(
                intercept, slope, t, x
            )


@given(points_strategy, finite)
@settings(deadline=None)
def test_bridge_line_bounds_all_points(pts, median):
    intercept, slope = line_through(*bridge_edge(upper_hull(pts), median))
    for t, x in pts:
        assert intercept + slope * t >= x - _tolerance(intercept, slope, t, x)


def test_bridge_edge_straddles_median():
    pts = [(0.0, 0.0), (1.0, 2.0), (2.0, 3.0), (3.0, 3.5), (4.0, 3.0)]
    hull = upper_hull(pts)
    p, q = bridge_edge(hull, 2.5)
    assert p[0] <= 2.5 <= q[0]


def test_bridge_median_on_a_vertex_returns_the_left_edge():
    """Both adjacent edges are minimal; the first in scan order wins.

    The batched pair kernel reproduces this tie-break, so it is pinned.
    """
    hull = upper_hull([(0.0, 0.0), (1.0, 2.0), (3.0, 3.0)])
    assert len(hull) == 3
    assert bridge_edge(hull, 1.0) == ((0.0, 0.0), (1.0, 2.0))
    assert bridge_edge(hull, 1.0000001) == ((1.0, 2.0), (3.0, 3.0))


def test_bridge_median_clamped_to_range():
    hull = upper_hull([(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)])
    left = bridge_edge(hull, -10.0)
    right = bridge_edge(hull, 10.0)
    assert left[0] == (0.0, 0.0)
    assert right[1] == (2.0, 0.0)


def test_line_through_vertical_degenerates_horizontal():
    intercept, slope = line_through((1.0, 2.0), (1.0, 5.0))
    assert slope == 0.0
    assert intercept == 5.0


def test_supporting_line_with_fixed_slope():
    pts = [(0.0, 0.0), (1.0, 3.0), (2.0, 1.0)]
    intercept, slope = supporting_line(pts, 0.5, upper=True)
    assert slope == 0.5
    for t, x in pts:
        assert intercept + slope * t >= x - 1e-12
    # And it is tight: some point touches the line.
    assert any(
        abs(intercept + slope * t - x) < 1e-9 for t, x in pts
    )


def test_supporting_line_lower():
    pts = [(0.0, 0.0), (1.0, -3.0), (2.0, 1.0)]
    intercept, slope = supporting_line(pts, 0.0, upper=False)
    for t, x in pts:
        assert intercept <= x + 1e-12


# -- the fast hulls against the textbook scan, bit for bit -------------------

# Few distinct times, so duplicate-t columns (and 0.0 / -0.0 columns,
# which must merge) are the rule rather than the exception.
column_t = st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0])
column_x = st.one_of(st.sampled_from([-0.0, 0.0, 1.0, -1.0]), finite)
column_points = st.lists(
    st.tuples(column_t, column_x), min_size=1, max_size=30
)


def _point_bits(points):
    return [struct.pack("<2d", t, x) for t, x in points]


@given(st.one_of(points_strategy, column_points))
@settings(deadline=None)
def test_hulls_equal_reference_graham_scan(pts):
    assert _point_bits(upper_hull(pts)) == _point_bits(
        reference_bounding.hull(pts, upper=True)
    )
    assert _point_bits(lower_hull(pts)) == _point_bits(
        reference_bounding.hull(pts, upper=False)
    )
