"""Tests for the five TPBR construction algorithms (Section 4.1).

The load-bearing invariant for every kind: the computed rectangle bounds
every member from the computation time until the member expires.
Property-based tests drive that across random mixes of finite- and
infinite-expiration points and child rectangles.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import bounding
from repro.geometry.bounding import (
    BoundingKind,
    _volume_integral,
    compute_tpbr,
    lemma42_median,
    near_optimal_tpbr,
    optimal_tpbr,
    static_tpbr,
    update_minimum_tpbr,
)
from repro.geometry.integrals import area_integral
from repro.geometry.kinematics import MovingPoint
from repro.geometry.tpbr import TPBR

from . import reference_bounding
from .reference_bounding import tpbr_bits

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_subnormal=False)
speed = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False)
life = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_subnormal=False)


@st.composite
def moving_points(draw, dims=2, allow_infinite=True):
    pos = tuple(draw(coord) for _ in range(dims))
    vel = tuple(draw(speed) for _ in range(dims))
    if allow_infinite and draw(st.booleans()) and draw(st.booleans()):
        t_exp = math.inf
    else:
        t_exp = draw(life)
    return MovingPoint(pos, vel, 0.0, t_exp)


finite_point_lists = st.lists(
    moving_points(allow_infinite=False), min_size=1, max_size=12
)
mixed_point_lists = st.lists(
    moving_points(allow_infinite=True), min_size=1, max_size=12
)

ALL_KINDS = list(BoundingKind)
FINITE_ONLY_KINDS = [BoundingKind.STATIC]


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(points=finite_point_lists)
@settings(deadline=None)
def test_bounds_finite_members(kind, points):
    br = compute_tpbr(
        points, 0.0, kind, horizon=20.0, rng=random.Random(7)
    )
    for p in points:
        assert br.contains_point(p, 0.0, tol=1e-6)


@pytest.mark.parametrize(
    "kind", [k for k in ALL_KINDS if k not in FINITE_ONLY_KINDS]
)
@given(points=mixed_point_lists)
@settings(deadline=None)
def test_bounds_mixed_members(kind, points):
    br = compute_tpbr(
        points, 0.0, kind, horizon=20.0, rng=random.Random(7)
    )
    for p in points:
        assert br.contains_point(p, 0.0, tol=1e-6)


@given(points=finite_point_lists)
@settings(deadline=None)
def test_bounds_child_rectangles(points):
    """Parent rectangles must bound child TPBRs, not just points."""
    children = [TPBR.from_moving_point(p, 0.0) for p in points]
    br = compute_tpbr(
        children, 1.0, BoundingKind.NEAR_OPTIMAL,
        horizon=10.0, rng=random.Random(1),
    )
    for child in children:
        assert br.contains_tpbr(child, 1.0, tol=1e-6)


def test_empty_items_rejected():
    with pytest.raises(ValueError):
        compute_tpbr([], 0.0, BoundingKind.CONSERVATIVE)


def test_dimension_mismatch_rejected():
    a = MovingPoint((0.0,), (0.0,), 0.0, 1.0)
    b = MovingPoint((0.0, 0.0), (0.0, 0.0), 0.0, 1.0)
    with pytest.raises(ValueError):
        compute_tpbr([a, b], 0.0, BoundingKind.CONSERVATIVE)


def test_static_rejects_infinite_members():
    p = MovingPoint((0.0,), (1.0,))
    with pytest.raises(ValueError):
        static_tpbr([p], 0.0)


def test_static_allows_infinite_member_moving_away_from_bound():
    """An infinite member with zero velocity is statically boundable."""
    p = MovingPoint((1.0,), (0.0,))
    br = static_tpbr([p], 0.0)
    assert br.contains_point(p, 0.0)


def test_conservative_is_tight_at_reference_time():
    pts = [
        MovingPoint((0.0, 0.0), (1.0, 0.0), 0.0, 10.0),
        MovingPoint((4.0, 2.0), (-1.0, 1.0), 0.0, 5.0),
    ]
    br = compute_tpbr(pts, 0.0, BoundingKind.CONSERVATIVE)
    assert br.rect_at(0.0).lo == (0.0, 0.0)
    assert br.rect_at(0.0).hi == (4.0, 2.0)
    assert br.vhi == (1.0, 1.0)
    assert br.vlo == (-1.0, 0.0)


def test_update_minimum_slower_than_conservative():
    """Figure 4: expiration times let the bound edges move slower."""
    pts = [
        MovingPoint((5.0,), (0.0,), 0.0, 20.0),  # slow, defines the top
        MovingPoint((0.0,), (3.0,), 0.0, 1.0),   # fast but expires soon
    ]
    cons = compute_tpbr(pts, 0.0, BoundingKind.CONSERVATIVE)
    upd = update_minimum_tpbr(pts, 0.0)
    # Conservative must move at the fast object's speed; update-minimum
    # knows the fast object only reaches x=3 before expiring below the
    # slow object's position, so the upper bound need not move at all.
    assert cons.vhi[0] == 3.0
    assert upd.vhi[0] == pytest.approx(0.0)
    assert upd.contains_point(pts[1], 0.0)
    # Both are minimal at the computation time.
    assert upd.rect_at(0.0) == cons.rect_at(0.0)


def test_near_optimal_no_worse_than_conservative_integral():
    rng = random.Random(3)
    pts = [
        MovingPoint(
            (rng.uniform(0, 10), rng.uniform(0, 10)),
            (rng.uniform(-2, 2), rng.uniform(-2, 2)),
            0.0,
            rng.uniform(1, 15),
        )
        for _ in range(20)
    ]
    horizon = 10.0
    cons = compute_tpbr(pts, 0.0, BoundingKind.CONSERVATIVE)
    near = near_optimal_tpbr(pts, 0.0, horizon=horizon, rng=rng)
    assert area_integral(near, 0.0, horizon) <= area_integral(
        cons, 0.0, horizon
    ) * (1.0 + 1e-9)


@given(points=finite_point_lists)
@example(
    points=[
        MovingPoint((0.0, 0.0), (1.0, -2.0), 0.0, 3e-200),
        MovingPoint((5.0, -3.0), (-1.0, 0.5), 0.0, 1e-200),
        MovingPoint((-2.0, 4.0), (2.0, 1.0), 0.0, 2e-200),
    ]
)
@settings(deadline=None)
def test_optimal_minimizes_volume_integral(points):
    """The optimal TPBR's integral is <= the near-optimal one's.

    Integrals are compared without extent clamping (the objective both
    algorithms minimize).  The example's lifetimes of ~1e-200 give edge
    speeds of ~1e200, whose powers overflowed the integral in raw time.
    """
    horizon = 12.0
    t_exp = max(p.t_exp for p in points)
    delta = min(horizon, t_exp)
    near = near_optimal_tpbr(points, 0.0, horizon=horizon, rng=random.Random(5))
    best = optimal_tpbr(points, 0.0, horizon=horizon)

    def raw_integral(br):
        spans = [
            (br.hi[d] - br.lo[d], br.vhi[d] - br.vlo[d])
            for d in range(br.dims)
        ]
        return _volume_integral(spans, delta)

    assert raw_integral(best) <= raw_integral(near) + 1e-6 * max(
        1.0, abs(raw_integral(near))
    )


def test_optimal_one_dimension_matches_near_optimal():
    pts = [
        MovingPoint((float(i),), (float(i % 3 - 1),), 0.0, 2.0 + i)
        for i in range(6)
    ]
    near = near_optimal_tpbr(pts, 0.0, horizon=8.0)
    best = optimal_tpbr(pts, 0.0, horizon=8.0)
    assert near.lo == pytest.approx(best.lo)
    assert near.vhi == pytest.approx(best.vhi)


def test_infinite_horizon_falls_back_to_conservative():
    pts = [MovingPoint((0.0,), (1.0,)), MovingPoint((2.0,), (-1.0,))]
    near = near_optimal_tpbr(pts, 0.0, horizon=None)
    cons = compute_tpbr(pts, 0.0, BoundingKind.CONSERVATIVE)
    assert near == cons


def test_lemma42_median_matches_paper_example():
    """k=1: m = Delta(3h + 2w*Delta) / (6h + 3w*Delta)."""
    h, w, delta = 2.0, 0.5, 4.0
    expected = delta * (3 * h + 2 * w * delta) / (6 * h + 3 * w * delta)
    assert lemma42_median([(h, w)], delta) == pytest.approx(expected)


def test_lemma42_median_with_no_computed_dims_is_midpoint():
    assert lemma42_median([], 10.0) == pytest.approx(5.0)


def test_lemma42_median_degenerate_extent():
    assert lemma42_median([(0.0, 0.0)], 10.0) == pytest.approx(5.0)


def test_expiration_time_is_max_of_members():
    pts = [
        MovingPoint((0.0,), (0.0,), 0.0, 3.0),
        MovingPoint((1.0,), (0.0,), 0.0, 7.0),
    ]
    br = compute_tpbr(pts, 0.0, BoundingKind.CONSERVATIVE)
    assert br.t_exp == 7.0


def test_expiration_infinite_if_any_member_infinite():
    pts = [
        MovingPoint((0.0,), (0.0,), 0.0, 3.0),
        MovingPoint((1.0,), (0.0,)),
    ]
    br = compute_tpbr(pts, 0.0, BoundingKind.CONSERVATIVE)
    assert math.isinf(br.t_exp)


def test_optimal_degenerate_expiration_falls_back():
    """Regression: denormal expiration times must not break optimal bounds.

    A near-zero ``t_exp`` makes the hull bridge slopes overflow, turning
    every candidate volume into NaN; ``optimal_tpbr`` then has no finite
    best and must fall back to the near-optimal construction instead of
    crashing (or returning None).
    """
    points = [
        MovingPoint((0.0, 0.0), (1.0, 0.0), 0.0, 5.7e-178),
        MovingPoint((10.0, 10.0), (-1.0, 0.5), 0.0, 60.0),
        MovingPoint((-5.0, 3.0), (2.0, -1.0), 0.0, 5e-324),
    ]
    br = compute_tpbr(points, 0.0, BoundingKind.OPTIMAL, horizon=20.0)
    for p in points:
        assert br.contains_point(p, 0.0, tol=1e-6)


# -- the fast bounds against the textbook collection, scan and bound ---------


@st.composite
def boundables(draw, dims):
    """A moving point or a child rectangle: stale, expired, or immortal.

    Expiration times come from a small pool so duplicate-t endpoint
    columns are common; coordinates include both zeros.
    """
    zeroish = st.sampled_from([0.0, -0.0])
    pos = tuple(draw(st.one_of(zeroish, coord)) for _ in range(dims))
    vel = tuple(draw(st.one_of(zeroish, speed)) for _ in range(dims))
    t_ref = draw(st.sampled_from([0.0, -0.0, 0.5, 1.0]))
    t_exp = t_ref + draw(
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 4.0, math.inf]), life)
    )
    if draw(st.booleans()):
        return MovingPoint(pos, vel, t_ref, t_exp)
    size = tuple(abs(draw(coord)) for _ in range(dims))
    spread = tuple(draw(speed) for _ in range(dims))
    if draw(st.booleans()):
        t_exp = t_ref - 1.0  # a rectangle may already be expired
    return TPBR(
        pos,
        tuple(p + s for p, s in zip(pos, size)),
        vel,
        tuple(v + w for v, w in zip(vel, spread)),
        t_ref,
        t_exp,
    )


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(data=st.data())
@settings(deadline=None)
def test_compute_tpbr_equals_textbook_collect_and_hulls(kind, data):
    dims = data.draw(st.integers(min_value=1, max_value=3))
    items = data.draw(st.lists(boundables(dims), min_size=1, max_size=9))
    if kind is BoundingKind.STATIC:
        items = [i for i in items if not math.isinf(i.t_exp)] or [
            MovingPoint((0.0,) * dims, (0.0,) * dims, 0.0, 1.0)
        ]
    t_ref = data.draw(st.sampled_from([1.0, 1.5, 0.0]))

    def run():
        return compute_tpbr(
            items, t_ref, kind, horizon=6.0, rng=random.Random(9)
        )

    got = run()
    if kind is BoundingKind.NEAR_OPTIMAL:
        want = reference_bounding.near_optimal_tpbr(
            items, t_ref, horizon=6.0, rng=random.Random(9)
        )
        assert tpbr_bits(got) == tpbr_bits(want)
        return
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounding, "_collect", reference_bounding.collect)
        patch.setattr(
            bounding, "upper_hull",
            lambda pts: reference_bounding.hull(pts, upper=True),
        )
        patch.setattr(
            bounding, "lower_hull",
            lambda pts: reference_bounding.hull(pts, upper=False),
        )
        want = run()
    assert tpbr_bits(got) == tpbr_bits(want)


# -- the gift-wrapped bridges against the scan, shape by shape ---------------


def assert_near_optimal_is_the_scans(items, t_ref, horizon, seed=3):
    got = near_optimal_tpbr(items, t_ref, horizon, random.Random(seed))
    want = reference_bounding.near_optimal_tpbr(
        items, t_ref, horizon, random.Random(seed)
    )
    assert tpbr_bits(got) == tpbr_bits(want)


@given(
    n=st.integers(min_value=1, max_value=170),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    horizon=st.sampled_from([90.0, 30.0, 5.0]),
    dims=st.integers(min_value=1, max_value=3),
)
@settings(deadline=None)
def test_near_optimal_large_groups(n, seed, horizon, dims):
    """Up to a full 4 KB leaf: stale, expired, immortal and equal-time members."""
    rnd = random.Random(seed)
    pool = [rnd.uniform(1.0, 120.0) for _ in range(4)]
    items = []
    for _ in range(n):
        roll = rnd.random()
        if roll < 0.05:
            t_exp = math.inf
        elif roll < 0.1:
            t_exp = rnd.uniform(-60.0, 0.0)
        elif roll < 0.3:
            t_exp = rnd.choice(pool)
        else:
            t_exp = rnd.uniform(0.0, 120.0)
        t_ref = rnd.uniform(-60.0, 0.0)
        items.append(MovingPoint(
            tuple(rnd.uniform(0.0, 1000.0) for _ in range(dims)),
            tuple(rnd.uniform(-3.0, 3.0) for _ in range(dims)),
            t_ref,
            max(t_exp, t_ref),
        ))
    assert_near_optimal_is_the_scans(items, 0.0, horizon, seed)


@given(
    data=st.data(),
    slope=st.sampled_from([0.0, -0.0, 1.0, -0.5, 2.0]),
    level=st.sampled_from([0.0, -0.0, 3.0, -2.0]),
)
@settings(deadline=None)
def test_near_optimal_collinear_runs(data, slope, level):
    """Members whose endpoints lie exactly on one line, horizontal or not.

    Small integers keep every product exact, so the scan's turn tests
    read exactly zero along the run; a member off the line may sit on
    either side of it, and the times repeat.
    """
    times = st.sampled_from([1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    items = [
        MovingPoint((level, 0.0), (slope, 0.0), 0.0, data.draw(times))
        for _ in range(data.draw(st.integers(min_value=1, max_value=8)))
    ]
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        items.append(MovingPoint(
            (data.draw(st.integers(-4, 4).map(float)), 1.0),
            (data.draw(st.sampled_from([0.0, 1.0, -1.0])), -1.0),
            data.draw(st.sampled_from([0.0, -1.0])),
            data.draw(times),
        ))
    horizon = data.draw(st.sampled_from([2.0, 4.0, 6.0, 8.0, 16.0]))
    assert_near_optimal_is_the_scans(items, 0.0, horizon)


def test_near_optimal_equal_times_and_p0_tie():
    """Equal expiration times merge into one column; members expiring at
    ``t_ref`` itself tie with P0's column and leave no endpoint."""
    items = [
        MovingPoint((1.0, 5.0), (1.0, 0.0), 0.0, 4.0),
        MovingPoint((2.0, 5.0), (0.5, 0.0), 0.0, 4.0),
        MovingPoint((9.0, -0.0), (-1.0, 0.0), 0.0, 4.0),
        MovingPoint((3.0, 0.0), (0.0, 0.0), -2.0, 0.0),
        MovingPoint((-4.0, 2.0), (2.0, -1.0), 0.0, 0.0),
        MovingPoint((0.0, 1.0), (-1.0, 1.0), 0.0, 8.0),
    ]
    assert_near_optimal_is_the_scans(items, 0.0, 16.0)


def test_near_optimal_median_on_a_vertex():
    """Upper hull P0, (4, 3), (8, 4): the median t = 4 sits on a vertex."""
    items = [
        MovingPoint((0.0,), (0.5,), 0.0, 2.0),
        MovingPoint((0.0,), (0.75,), 0.0, 4.0),
        MovingPoint((0.0,), (0.5,), 0.0, 8.0),
    ]
    assert_near_optimal_is_the_scans(items, 0.0, 8.0)
    br = near_optimal_tpbr(items, 0.0, 8.0)
    assert br.vhi == (0.75,)  # the edge left of the median's vertex


@pytest.mark.parametrize("expired", [0, 1, 3])
def test_near_optimal_mixed_immortal_and_expired(expired):
    """Never-expiring members bound the slopes through the supporting line."""
    items = [
        MovingPoint((0.0, 0.0), (3.0, -2.0), 0.0, math.inf),
        MovingPoint((5.0, 1.0), (-1.0, 0.5), 0.0, 10.0),
        MovingPoint((2.0, -3.0), (0.0, 0.0), 0.0, math.inf),
        MovingPoint((1.0, 2.0), (1.0, 1.0), -3.0, 6.0),
    ] + [
        MovingPoint((4.0, 4.0), (2.0, 2.0), -5.0, -1.0)
        for _ in range(expired)
    ]
    assert_near_optimal_is_the_scans(items, 0.0, 12.0)


@pytest.mark.parametrize("immortal", [True, False])
def test_near_optimal_single_column(immortal):
    """No member expires after ``t_ref``: P0 is the only column."""
    t_exp = math.inf if immortal else -1.0
    items = [
        MovingPoint((1.0, 2.0), (0.5, -0.5), -2.0, t_exp),
        MovingPoint((3.0, 0.0), (-1.0, 1.0), -3.0, t_exp),
    ]
    assert_near_optimal_is_the_scans(items, 0.0, 10.0)


def test_near_optimal_underflowing_turns():
    """A turn that underflows to zero leaves the scan popping a vertex the
    slopes would keep: the edge into it fails its certificate, and the
    scan answers."""
    items = [
        MovingPoint((0.0,), (1.0,), 0.0, 5e-324),
        MovingPoint((0.0,), (-1.0,), 0.0, 1e-300),
        MovingPoint((0.0,), (0.0,), 0.0, 1.0),
    ]
    assert_near_optimal_is_the_scans(items, 0.0, 12.0)
    assert near_optimal_tpbr(items, 0.0, 12.0).vhi == (0.0,)
