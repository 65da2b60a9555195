"""Tests for query/TPBR/trajectory intersection (Section 4.1.5)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.intersection import (
    EPS,
    feasible_window,
    region_intersects_tpbr,
    region_matches_point,
)
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import (
    MovingQuery,
    QueryRegion,
    TimesliceQuery,
    WindowQuery,
)
from repro.geometry.rect import Rect
from repro.geometry.tpbr import TPBR


def sample_region_match(
    region: QueryRegion, point: MovingPoint, samples: int = 256
) -> bool:
    """Brute-force oracle: sample the time window densely.

    Sampling can miss grazing intersections, so the tests treat this as
    a one-sided check (if sampling finds a hit, the analytic test must
    agree).
    """
    t_end = min(region.t2, point.t_exp)
    if t_end < region.t1:
        return False
    if math.isinf(t_end):
        t_end = region.t1 + 1.0
    span = t_end - region.t1
    for i in range(samples + 1):
        t = region.t1 + span * i / samples if samples else region.t1
        x = point.position_at(t)
        inside = all(
            region.lower_at(d, t) - EPS <= x[d] <= region.upper_at(d, t) + EPS
            for d in range(region.dims)
        )
        if inside:
            return True
    return False


# -- feasible_window ---------------------------------------------------------


def test_feasible_window_unconstrained():
    assert feasible_window([], 1.0, 5.0) == (1.0, 5.0)


def test_feasible_window_constant_constraints():
    assert feasible_window([(1.0, 0.0)], 0.0, 1.0) == (0.0, 1.0)
    assert feasible_window([(-1.0, 0.0)], 0.0, 1.0) is None


def test_feasible_window_clips_by_slopes():
    # t - 2 >= 0 and 8 - t >= 0 on [0, 10] -> [2, 8]
    window = feasible_window([(-2.0, 1.0), (8.0, -1.0)], 0.0, 10.0)
    assert window == pytest.approx((2.0, 8.0))


def test_feasible_window_empty_interval():
    assert feasible_window([(0.0, 0.0)], 5.0, 4.0) is None


def test_feasible_window_infeasible_crossing():
    # t >= 8 and t <= 2 cannot hold together.
    assert feasible_window([(-8.0, 1.0), (2.0, -1.0)], 0.0, 10.0) is None


# -- point matching ------------------------------------------------------------


def test_timeslice_matches_moving_point():
    p = MovingPoint((0.0, 0.0), (1.0, 1.0), 0.0, 10.0)
    q = TimesliceQuery(Rect((4.5, 4.5), (5.5, 5.5)), 5.0)
    assert region_matches_point(q.region(), p)
    q_miss = TimesliceQuery(Rect((4.5, 4.5), (5.5, 5.5)), 7.0)
    assert not region_matches_point(q_miss.region(), p)


def test_expired_point_never_matches():
    """The Figure 1 semantics: o1 updated/expired no longer answers Q1."""
    p = MovingPoint((0.0, 0.0), (1.0, 1.0), 0.0, 3.0)
    q = TimesliceQuery(Rect((4.5, 4.5), (5.5, 5.5)), 5.0)
    assert not region_matches_point(q.region(), p)


def test_point_expiring_inside_window_still_matches_before_expiry():
    p = MovingPoint((5.0, 5.0), (0.0, 0.0), 0.0, 4.0)
    q = WindowQuery(Rect((4.0, 4.0), (6.0, 6.0)), 2.0, 10.0)
    assert region_matches_point(q.region(), p)


def test_window_query_catches_pass_through():
    """A point crossing the rectangle inside the window matches."""
    p = MovingPoint((0.0, 5.0), (2.0, 0.0), 0.0, 100.0)
    q = WindowQuery(Rect((9.0, 4.0), (11.0, 6.0)), 0.0, 10.0)
    assert region_matches_point(q.region(), p)
    q_late = WindowQuery(Rect((9.0, 4.0), (11.0, 6.0)), 6.0, 10.0)
    assert not region_matches_point(q_late.region(), p)


def test_moving_query_follows_target():
    target = MovingPoint((0.0, 0.0), (1.0, 0.0), 0.0, 100.0)
    r1 = Rect((-1.0, -1.0), (1.0, 1.0))
    r2 = Rect((9.0, -1.0), (11.0, 1.0))
    q = MovingQuery(r1, r2, 0.0, 10.0)
    assert region_matches_point(q.region(), target)
    runaway = MovingPoint((0.0, 5.0), (-1.0, 0.0), 0.0, 100.0)
    assert not region_matches_point(q.region(), runaway)


@st.composite
def match_cases(draw):
    coord = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_subnormal=False)
    vel = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_subnormal=False)
    p = MovingPoint(
        (draw(coord), draw(coord)),
        (draw(vel), draw(vel)),
        0.0,
        draw(st.floats(min_value=0, max_value=30, allow_nan=False, allow_subnormal=False)),
    )
    x = draw(coord)
    y = draw(coord)
    rect = Rect((x, y), (x + draw(st.floats(0.5, 20, allow_subnormal=False)), y + draw(st.floats(0.5, 20, allow_subnormal=False))))
    t1 = draw(st.floats(min_value=0, max_value=20, allow_nan=False, allow_subnormal=False))
    t2 = t1 + draw(st.floats(min_value=0, max_value=10, allow_nan=False, allow_subnormal=False))
    return p, WindowQuery(rect, t1, t2)


@given(match_cases())
@settings(deadline=None)
def test_analytic_match_agrees_with_sampling(case):
    """If dense sampling finds the point inside, the analytic test must."""
    p, q = case
    region = q.region()
    if sample_region_match(region, p, samples=400):
        assert region_matches_point(region, p)


# -- TPBR intersection -----------------------------------------------------------


def test_query_clipped_at_rectangle_expiration():
    """Section 4.1.5: intersection is checked until min(t2, t_exp)."""
    br = TPBR((0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 0.0, t_exp=2.0)
    # The rectangle would reach the query region at t=5, but expires at 2.
    q = WindowQuery(Rect((5.0, 5.0), (6.0, 6.0)), 0.0, 10.0)
    assert not region_intersects_tpbr(q.region(), br)
    br_live = TPBR((0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0), 0.0, 10.0)
    assert region_intersects_tpbr(q.region(), br_live)


def test_query_entirely_after_expiration():
    br = TPBR((0.0, 0.0), (1.0, 1.0), (0.0, 0.0), (0.0, 0.0), 0.0, t_exp=2.0)
    q = TimesliceQuery(Rect((0.0, 0.0), (1.0, 1.0)), 3.0)
    assert not region_intersects_tpbr(q.region(), br)


def test_intersection_is_conservative_for_contained_points():
    """If a live point matches a query, any TPBR bounding it intersects."""
    rng = random.Random(4)
    for _ in range(50):
        p = MovingPoint(
            (rng.uniform(0, 20), rng.uniform(0, 20)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            0.0,
            rng.uniform(0, 20),
        )
        br = TPBR.from_moving_point(p, 0.0)
        x, y = rng.uniform(0, 20), rng.uniform(0, 20)
        q = WindowQuery(
            Rect((x, y), (x + 5, y + 5)),
            rng.uniform(0, 10),
            rng.uniform(10, 20),
        )
        if region_matches_point(q.region(), p):
            assert region_intersects_tpbr(q.region(), br)


def test_feasible_window_grazing_slope_is_constant():
    """Regression: near-zero slopes must act as constant constraints.

    Dividing by a slope below EPS produced astronomically large (or
    overflowing) roots for grazing intersections; such constraints are
    now judged by their offset alone.
    """
    # Satisfied constant (offset within EPS tolerance): full window.
    assert feasible_window([(-5e-10, 1e-12)], 0.0, 10.0) == (0.0, 10.0)
    assert feasible_window([(1.0, -1e-12)], 0.0, 10.0) == (0.0, 10.0)
    # Violated constant: infeasible regardless of the tiny slope's sign.
    assert feasible_window([(-1.0, 1e-12)], 0.0, 10.0) is None
    assert feasible_window([(-1.0, -1e-12)], 0.0, 10.0) is None
    # A genuine slope just above EPS still clips the window.
    window = feasible_window([(-1.0, 0.5)], 0.0, 10.0)
    assert window is not None and window[0] == pytest.approx(2.0, abs=1e-6)
