"""Tests for the kNN distance kernels: admissibility and bit-identity.

Best-first kNN is only exact if the TPBR lower bound never exceeds the
true distance of any member point (admissibility), and only
deterministic across the single-tree / sharded paths if the batched
kernels reproduce the scalar IEEE-754 results bit for bit.  Both
properties are asserted here, the latter via raw bit-pattern
comparison so ``-0.0`` cannot hide behind ``==``.
"""

import math
import struct

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.geometry.block import as_block
from repro.geometry.bounding import BoundingKind, compute_tpbr
from repro.geometry.kernels import pack_points
from repro.geometry.kinematics import MovingPoint
from repro.geometry.knn import (
    batch_point_distances_sq,
    brute_force_knn,
    point_distance_sq,
    tpbr_min_distance_sq,
    tpbr_min_distances_sq_rows,
    validate_knn_args,
)

DIMS = 2

coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_subnormal=False
)
speed = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False
)
times = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_subnormal=False
)


@st.composite
def points(draw):
    pos = tuple(draw(coord) for _ in range(DIMS))
    vel = tuple(draw(speed) for _ in range(DIMS))
    t_ref = draw(times)
    life = draw(st.one_of(st.just(math.inf), times))
    return MovingPoint(pos, vel, t_ref, t_ref + life)


def bits(values):
    return [struct.pack("<d", v) for v in values]


# -- scalar semantics --------------------------------------------------------


def test_point_distance_is_squared_euclidean_at_predicted_position():
    p = MovingPoint((1.0, 2.0), (1.0, -1.0), 0.0, math.inf)
    # At t=3 the point sits at (4, -1); query from (0, 3).
    assert point_distance_sq((0.0, 3.0), p, 3.0) == 4.0**2 + 4.0**2


def test_point_distance_honours_reference_time_offset():
    # Same trajectory expressed with t_ref=10 must give the same value.
    a = MovingPoint((0.0, 0.0), (2.0, 0.0), 0.0, math.inf)
    b = MovingPoint((20.0, 0.0), (2.0, 0.0), 10.0, math.inf)
    x = (7.0, 3.0)
    assert point_distance_sq(x, a, 15.0) == point_distance_sq(x, b, 15.0)


def test_tpbr_distance_zero_inside_and_positive_outside():
    p = MovingPoint((10.0, 10.0), (1.0, 0.0), 0.0, math.inf)
    br = compute_tpbr([p], 0.0, BoundingKind.CONSERVATIVE)
    assert tpbr_min_distance_sq((11.0, 10.0), br, 1.0) == 0.0
    assert tpbr_min_distance_sq((50.0, 10.0), br, 1.0) > 0.0


@given(
    st.lists(points(), min_size=1, max_size=8),
    times,
    st.tuples(*[coord] * DIMS),
)
@example(
    # Found by hypothesis: the second member expired at t_ref, so the
    # update-minimum kind ignores its velocity and stops covering it.
    members=[
        MovingPoint((0.0, 0.0), (0.0, 0.0), 0.0, math.inf),
        MovingPoint((0.0, 0.0), (1.0, 0.0), 0.0, 0.0),
    ],
    t=1.0,
    x=(1.0, 0.0),
)
def test_tpbr_lower_bound_is_admissible(members, t, x):
    """rect-at-t distance never exceeds a bounded member's true distance.

    The conservative kind bounds every member forever.  The
    update-minimum kind bounds a member only until it expires (it
    relaxes its edge speeds by exactly that), and kNN never reports an
    expired point, so there the claim is about live members.
    """
    t_ref = min(p.t_ref for p in members)
    for kind in (BoundingKind.CONSERVATIVE, BoundingKind.UPDATE_MINIMUM):
        br = compute_tpbr(members, t_ref, kind)
        when = max(t, t_ref)
        bound = tpbr_min_distance_sq(x, br, when)
        for p in members:
            if kind is BoundingKind.CONSERVATIVE or not p.is_expired(when):
                assert bound <= point_distance_sq(x, p, when)


# -- batched kernels: bit-identical to scalar --------------------------------


@given(st.lists(points(), min_size=1, max_size=16), times, st.data())
def test_batch_point_distances_match_scalar_bits(members, t, data):
    x = tuple(data.draw(coord, label=f"x[{d}]") for d in range(DIMS))
    scalar = [point_distance_sq(x, p, t) for p in members]
    batched = batch_point_distances_sq(x, members, t, pack_points(members))
    assert bits(batched) == bits(scalar)


@given(
    st.lists(st.lists(points(), min_size=1, max_size=5), min_size=1,
             max_size=6),
    times,
    st.data(),
)
def test_batch_tpbr_distances_match_scalar_bits(groups, t, data):
    x = tuple(data.draw(coord, label=f"x[{d}]") for d in range(DIMS))
    brs = [compute_tpbr(g, 0.0, BoundingKind.CONSERVATIVE) for g in groups]
    scalar = [tpbr_min_distance_sq(x, br, t) for br in brs]
    batched = tpbr_min_distances_sq_rows(x, as_block(brs), t).tolist()
    assert bits(batched) == bits(scalar)


def test_batch_falls_back_to_scalar_without_numpy(rng):
    """Without a pack — once: without numpy — the scalar routine is looped."""
    members = [
        MovingPoint((rng.uniform(0, 50), rng.uniform(0, 50)),
                    (rng.uniform(-2, 2), rng.uniform(-2, 2)), 0.0, 40.0)
        for _ in range(10)
    ]
    x = (25.0, 25.0)
    unpacked = batch_point_distances_sq(x, members, 3.0, None)
    assert unpacked == [point_distance_sq(x, p, 3.0) for p in members]


# -- brute-force oracle ------------------------------------------------------


def test_brute_force_filters_expired_and_orders_by_distance_then_oid():
    entries = [
        (MovingPoint((1.0, 0.0), (0.0, 0.0), 0.0, math.inf), 3),
        (MovingPoint((-1.0, 0.0), (0.0, 0.0), 0.0, math.inf), 1),
        (MovingPoint((0.5, 0.0), (0.0, 0.0), 0.0, 2.0), 7),  # expired at t=5
        (MovingPoint((2.0, 0.0), (0.0, 0.0), 0.0, math.inf), 2),
    ]
    got = brute_force_knn(entries, (0.0, 0.0), 5.0, 4)
    assert got == [(1.0, 1), (1.0, 3), (4.0, 2)]


def test_brute_force_point_expiring_exactly_now_is_still_live():
    entries = [(MovingPoint((0.0, 0.0), (0.0, 0.0), 0.0, 5.0), 1)]
    assert brute_force_knn(entries, (0.0, 0.0), 5.0, 1) == [(0.0, 1)]
    assert brute_force_knn(entries, (0.0, 0.0), 5.000001, 1) == []


# -- argument validation -----------------------------------------------------


def test_validate_rejects_bad_arguments():
    with pytest.raises(ValueError):
        validate_knn_args((0.0,), 1.0, 1, 2)  # wrong dimensionality
    with pytest.raises(ValueError):
        validate_knn_args((0.0, 0.0), 1.0, -1, 2)  # negative k
    with pytest.raises(ValueError):
        validate_knn_args((0.0, math.nan), 1.0, 1, 2)  # non-finite coord
    with pytest.raises(ValueError):
        validate_knn_args((0.0, 0.0), math.nan, 1, 2)  # non-finite time
    validate_knn_args((0.0, 0.0), 1.0, 0, 2)  # k == 0 is fine
