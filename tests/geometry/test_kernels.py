"""Bit-for-bit equivalence of the batched kernels with the scalar code.

Every property here asserts *exact* equality (``==``, not approx): the
kernels in :mod:`repro.geometry.kernels` promise the same IEEE-754
results as the scalar routines they batch, and each test loops the
scalar routine itself to get the expected value.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import kernels
from repro.geometry.block import as_block
from repro.geometry.bounding import (
    BoundingKind,
    compute_tpbr,
    lemma42_median,
)
from repro.geometry.integrals import (
    area_integral,
    center_distance_sq_integral,
    margin_integral,
    overlap_integral,
)
from repro.geometry.intersection import region_matches_point
from repro.geometry.kernels import (
    batch_area_integral,
    batch_center_distance_sq_integral,
    batch_compute_tpbr,
    batch_extended_area_integral,
    batch_margin_integral,
    batch_overlap_integral,
    batch_region_matches,
)
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.geometry.tpbr import TPBR
from repro.rstar.heuristics import Metrics
from repro.rstar.metrics import KineticMetrics

from .reference_bounding import tpbr_bits
from .test_intersection import region_intersects_tpbr


coord = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_subnormal=False
)
speed = st.floats(
    min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False
)
life = st.floats(
    min_value=0.0, max_value=50.0, allow_nan=False, allow_subnormal=False
)


@st.composite
def moving_points(draw, dims=2, allow_infinite=True):
    pos = tuple(draw(coord) for _ in range(dims))
    vel = tuple(draw(speed) for _ in range(dims))
    if allow_infinite and draw(st.booleans()) and draw(st.booleans()):
        t_exp = math.inf
    else:
        t_exp = draw(life)
    return MovingPoint(pos, vel, 0.0, t_exp)


@st.composite
def tpbrs(draw, dims=2):
    """A valid TPBR: the conservative bound of a few random points."""
    members = draw(st.lists(moving_points(dims=dims), min_size=1, max_size=4))
    return compute_tpbr(members, 0.0, BoundingKind.CONSERVATIVE)


@st.composite
def queries(draw):
    lo = tuple(draw(coord) for _ in range(2))
    hi = tuple(c + draw(st.floats(min_value=0.0, max_value=50.0)) for c in lo)
    rect = Rect(lo, hi)
    t1 = draw(life)
    t2 = t1 + draw(st.floats(min_value=0.0, max_value=30.0))
    which = draw(st.integers(min_value=0, max_value=2))
    if which == 0:
        return TimesliceQuery(rect, t1)
    if which == 1:
        return WindowQuery(rect, t1, t2)
    shift = tuple(draw(speed) for _ in range(2))
    rect2 = Rect(
        tuple(c + s for c, s in zip(rect.lo, shift)),
        tuple(c + s for c, s in zip(rect.hi, shift)),
    )
    return MovingQuery(rect, rect2, t1, t2 + 0.5)


point_lists = st.lists(moving_points(), min_size=0, max_size=12)
tpbr_lists = st.lists(tpbrs(), min_size=0, max_size=12)
windows = st.tuples(
    life, st.floats(min_value=-5.0, max_value=60.0, allow_nan=False)
).map(lambda w: (w[0], w[0] + w[1]))


# -- intersection kernels ----------------------------------------------------


@given(query=queries(), points=point_lists)
@settings(deadline=None)
def test_batch_region_matches_equals_scalar(query, points):
    region = query.region()
    expected = [region_matches_point(region, p) for p in points]
    assert batch_region_matches(region, points) == expected


@given(query=queries(), brs=tpbr_lists)
@settings(deadline=None)
def test_batch_region_intersects_equals_scalar(query, brs):
    region = query.region()
    expected = [region_intersects_tpbr(region, br) for br in brs]
    if brs:
        hits = kernels.multi_query_hits(
            kernels.pack_queries((region,)), as_block(brs)
        )
        assert hits[0].tolist() == expected


# -- bounding kernel ---------------------------------------------------------


group_lists = st.lists(
    st.lists(moving_points(), min_size=1, max_size=6), min_size=1, max_size=5
)


@pytest.mark.parametrize("kind", list(BoundingKind))
@given(groups=group_lists)
@settings(deadline=None)
def test_batch_compute_tpbr_equals_scalar(kind, groups):
    if kind is BoundingKind.STATIC and any(
        math.isinf(p.t_exp) for g in groups for p in g
    ):
        return  # static bounds require finite expirations
    # Fresh rng per side: scalar and batched must consume the stream in
    # the same order to produce the same rectangles.
    result = batch_compute_tpbr(
        groups, 1.0, kind, horizon=20.0, rng=random.Random(42)
    )
    rng = random.Random(42)
    expected = [
        compute_tpbr(list(g), 1.0, kind, horizon=20.0, rng=rng)
        for g in groups
    ]
    assert result == expected


@given(groups=group_lists)
@settings(deadline=None)
def test_batch_compute_tpbr_conservative_on_child_tpbrs(groups):
    child_groups = [
        [TPBR.from_moving_point(p, 0.0) for p in g] for g in groups
    ]
    result = batch_compute_tpbr(child_groups, 1.0, BoundingKind.CONSERVATIVE)
    expected = [
        compute_tpbr(g, 1.0, BoundingKind.CONSERVATIVE) for g in child_groups
    ]
    assert result == expected


# -- conservative kernel: first-wins reductions, bit for bit -------------------
#
# Python's running ``if x < best`` keeps the *first* of equal values, an
# earlier ``0.0`` over a later ``-0.0`` included; ``np.minimum.reduceat``
# promises nothing of the sort.  ``==`` cannot see the difference, the
# page codec can: ``Metrics.bound`` and ``Metrics.bound_many`` must store
# the same bits for the same group.

signed_zero = st.sampled_from([0.0, -0.0])


@st.composite
def zeroish_members(draw, dims=2):
    """A moving point or child rectangle whose fields are often ±0.0."""
    pos = tuple(draw(st.one_of(signed_zero, coord)) for _ in range(dims))
    vel = tuple(draw(st.one_of(signed_zero, speed)) for _ in range(dims))
    t_ref = draw(st.sampled_from([0.0, -0.0, 1.0]))
    t_exp = draw(
        st.one_of(
            st.sampled_from([0.0, -0.0, -math.inf, math.inf]),
            life.map(lambda dt: t_ref + dt),
        )
    )
    if draw(st.booleans()):
        return MovingPoint(pos, vel, t_ref, max(t_exp, t_ref))
    size = tuple(abs(draw(st.one_of(signed_zero, coord))) for _ in range(dims))
    spread = tuple(draw(st.one_of(signed_zero, speed)) for _ in range(dims))
    return TPBR(
        pos,
        tuple(p + s for p, s in zip(pos, size)),
        vel,
        tuple(v + w for v, w in zip(vel, spread)),
        t_ref,
        t_exp,
    )


def _still(x, v, t_exp=5.0):
    return MovingPoint((x,), (v,), 0.0, t_exp)


@given(
    groups=st.lists(
        st.lists(zeroish_members(), min_size=1, max_size=6),
        min_size=1, max_size=5,
    ),
    t_ref=st.sampled_from([0.0, -0.0, 1.0, 2.5]),
)
@example(
    groups=[
        [_still(1.0, 0.0), _still(1.0, -0.0)],
        [_still(1.0, -0.0), _still(1.0, 0.0)],
        [_still(0.0, 1.0, 0.0), _still(-0.0, 1.0, -0.0)],
    ],
    t_ref=1.0,
)
@settings(deadline=None)
def test_batch_compute_tpbr_conservative_equals_scalar_bits(groups, t_ref):
    result = batch_compute_tpbr(groups, t_ref, BoundingKind.CONSERVATIVE)
    expected = [
        compute_tpbr(g, t_ref, BoundingKind.CONSERVATIVE) for g in groups
    ]
    assert [tpbr_bits(br) for br in result] == \
        [tpbr_bits(br) for br in expected]


# -- pair kernel: the shape ChooseSubtree produces, bit for bit ---------------
#
# ``==`` cannot tell 0.0 from -0.0, so these compare ``struct.pack`` of
# every field, and the rng state after the call.

# Times share a small pool: equal expirations (the merge branch), members
# expired before the computation time, and — with the horizons below —
# medians that land exactly on a hull vertex.
pair_times = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 3.0, 5.0])
zeroish = st.sampled_from([0.0, -0.0, 1.0, -1.0])
pair_coord = st.one_of(zeroish, coord)
pair_speed = st.one_of(zeroish, speed)


@st.composite
def pair_members(draw, dims):
    """A moving point or a child TPBR, possibly stale, expired or immortal."""
    t_ref = draw(pair_times)
    pos = tuple(draw(pair_coord) for _ in range(dims))
    vel = tuple(draw(pair_speed) for _ in range(dims))
    t_exp = draw(st.one_of(st.just(math.inf), pair_times, life))
    if draw(st.booleans()):
        return MovingPoint(pos, vel, t_ref, max(t_exp, t_ref))
    size = tuple(abs(draw(pair_coord)) for _ in range(dims))
    spread = tuple(draw(pair_speed) for _ in range(dims))
    if draw(st.integers(0, 9)) == 0:
        t_exp = -math.inf  # _max_expiration treats it by position
    return TPBR(
        pos,
        tuple(p + s for p, s in zip(pos, size)),
        vel,
        tuple(v + w for v, w in zip(vel, spread)),
        t_ref,
        t_exp,  # may precede t_ref, or the computation time
    )


@st.composite
def pair_cases(draw):
    """(members a, members b, t_ref, horizon, rng seed or None)."""
    dims = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=kernels._MIN_BATCH, max_value=9))
    firsts = [draw(pair_members(dims)) for _ in range(n)]
    if draw(st.booleans()):
        seconds = [draw(pair_members(dims))] * n  # the tree: one newcomer
    else:
        seconds = [draw(pair_members(dims)) for _ in range(n)]
    t_ref = draw(st.sampled_from([1.0, 0.0, -0.0, 2.5]))
    horizon = draw(st.sampled_from([2.0, 4.0, 8.0, 0.0, 1e-12, 37.5]))
    seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    return firsts, seconds, t_ref, horizon, seed


def float_bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def seeded(seed):
    return None if seed is None else random.Random(seed)


def rng_state(rng):
    return None if rng is None else rng.getstate()


@given(case=pair_cases())
@settings(deadline=None)
def test_batch_compute_tpbr_pairs_equal_scalar_bits(case):
    firsts, seconds, t_ref, horizon, seed = case
    groups = [[a, b] for a, b in zip(firsts, seconds)]

    def run():
        rng = seeded(seed)
        out = batch_compute_tpbr(
            groups, t_ref, BoundingKind.NEAR_OPTIMAL, horizon=horizon, rng=rng
        )
        return [tpbr_bits(br) for br in out], rng_state(rng)

    rng = seeded(seed)
    expected = [
        tpbr_bits(
            compute_tpbr(
                g, t_ref, BoundingKind.NEAR_OPTIMAL, horizon=horizon, rng=rng
            )
        )
        for g in groups
    ]
    assert run() == (expected, rng_state(rng))


@pytest.mark.parametrize("ignore_expiration", [False, True])
@given(case=pair_cases())
@settings(deadline=None)
def test_extended_area_many_equals_default_composition(
    ignore_expiration, case
):
    regions, seconds, t_ref, horizon, seed = case
    addition = seconds[0]

    def metrics(rng):
        return KineticMetrics(
            BoundingKind.NEAR_OPTIMAL,
            now=lambda: t_ref,
            horizon=lambda: horizon,
            rng=rng,
            ignore_expiration=ignore_expiration,
        )

    def run():
        rng = seeded(seed)
        areas = metrics(rng).extended_area_many(regions, addition)
        return float_bits(areas), rng_state(rng)

    rng = seeded(seed)
    expected = Metrics.extended_area_many(metrics(rng), regions, addition)
    assert run() == (float_bits(expected), rng_state(rng))


def _on_vertex_groups():
    """Four pairs whose first median (t_ref + 2) sits on a hull vertex.

    Upper endpoints in dimension 0: P0 = (1, 0), A = (3, 10), B = (7, 12)
    — a concave chain, so all three stay on the hull and the bridge at
    the median t = 3 must be the left edge P0-A.
    """
    a = MovingPoint((0.0, 0.0), (5.0, 1.0), 1.0, 3.0)
    b = MovingPoint((0.0, 0.0), (2.0, -1.0), 1.0, 7.0)
    return [[a, b]] * kernels._MIN_BATCH


def test_pair_kernel_median_on_a_vertex_takes_the_left_edge():
    groups = _on_vertex_groups()
    result = [
        tpbr_bits(br)
        for br in batch_compute_tpbr(
            groups, 1.0, BoundingKind.NEAR_OPTIMAL, horizon=4.0
        )
    ]
    want = compute_tpbr(groups[0], 1.0, BoundingKind.NEAR_OPTIMAL, horizon=4.0)
    assert result == [tpbr_bits(want)] * len(groups)
    assert want.vhi[0] == 5.0  # the slope of P0-A, not of A-B (0.5)


@given(
    rows=st.lists(
        st.tuples(
            st.lists(
                st.tuples(st.floats(0.0, 200.0), st.floats(-10.0, 10.0)),
                min_size=3, max_size=3,
            ),
            st.floats(1e-9, 60.0),
        ),
        min_size=1, max_size=6,
    ),
    fixed=st.integers(min_value=1, max_value=3),
)
def test_lemma42_rows_equal_scalar_median_bits(rows, fixed):
    """Same summation order as the scalar, up to a 4-D bound's last step.

    One ulp in the median flips ``m <= t1`` too rarely for the pair
    property test to notice, so the medians are compared directly.
    """
    delta = np.array([d for _, d in rows])
    coeffs = [1.0]
    for j in range(fixed):
        h = np.array([spans[j][0] for spans, _ in rows])
        w = np.array([spans[j][1] for spans, _ in rows])
        coeffs = kernels._poly_mul_linear_rows(coeffs, h, w)
    powers = kernels._libm_powers(delta, fixed + 2)
    with np.errstate(all="ignore"):  # as the kernel does: 0/0 is replaced
        got = kernels._lemma42_rows(coeffs, delta, powers).tolist()
    want = [lemma42_median(spans[:fixed], d) for spans, d in rows]
    assert float_bits(got) == float_bits(want)


def test_pair_kernel_is_taken_only_for_all_pair_groups(monkeypatch):
    """Group lengths, kind and horizon decide — nothing else does."""
    calls = []
    real = kernels._near_optimal_pairs
    monkeypatch.setattr(
        kernels, "_near_optimal_pairs",
        lambda *args: calls.append(1) or real(*args),
    )
    pairs = _on_vertex_groups()
    near = BoundingKind.NEAR_OPTIMAL
    batch_compute_tpbr(pairs, 1.0, near, horizon=4.0)
    assert len(calls) == 1
    batch_compute_tpbr(pairs[:-1], 1.0, near, horizon=4.0)  # < _MIN_BATCH
    batch_compute_tpbr(pairs + [pairs[0][:1]], 1.0, near, horizon=4.0)
    batch_compute_tpbr(pairs, 1.0, near, horizon=None)
    batch_compute_tpbr(pairs, 1.0, near, horizon=math.inf)
    batch_compute_tpbr(pairs, 1.0, BoundingKind.OPTIMAL, horizon=4.0)
    assert len(calls) == 1
    assert batch_extended_area_integral(
        [g[0] for g in pairs[:-1]], pairs[0][1], 1.0, near, 4.0
    ) is None


def test_batch_compute_tpbr_dimension_mismatch():
    groups = [[
        MovingPoint((0.0,), (0.0,), 0.0, 1.0),
        MovingPoint((0.0, 0.0), (0.0, 0.0), 0.0, 1.0),
    ]] * 3
    with pytest.raises(ValueError):
        batch_compute_tpbr(groups, 0.0, BoundingKind.CONSERVATIVE)


def test_batch_compute_tpbr_empty_group_raises():
    with pytest.raises(ValueError):
        batch_compute_tpbr([[]], 0.0, BoundingKind.CONSERVATIVE)


# -- integral kernels --------------------------------------------------------


@given(
    brs=tpbr_lists,
    window_list=st.lists(windows, min_size=12, max_size=12),
)
@settings(deadline=None)
def test_batch_area_integral_equals_scalar(brs, window_list):
    window_list = window_list[: len(brs)]
    expected = [
        area_integral(br, a, b) for br, (a, b) in zip(brs, window_list)
    ]
    assert batch_area_integral(brs, window_list) == expected


@given(
    brs=tpbr_lists,
    window_list=st.lists(windows, min_size=12, max_size=12),
)
@settings(deadline=None)
def test_batch_margin_integral_equals_scalar(brs, window_list):
    window_list = window_list[: len(brs)]
    expected = [
        margin_integral(br, a, b) for br, (a, b) in zip(brs, window_list)
    ]
    assert batch_margin_integral(brs, window_list) == expected


@given(
    anchor=tpbrs(),
    brs=tpbr_lists,
    window_list=st.lists(windows, min_size=12, max_size=12),
)
@settings(deadline=None)
def test_batch_center_distance_equals_scalar(anchor, brs, window_list):
    window_list = window_list[: len(brs)]
    expected = [
        center_distance_sq_integral(br, anchor, a, b)
        for br, (a, b) in zip(brs, window_list)
    ]
    assert batch_center_distance_sq_integral(
        brs, anchor, window_list
    ) == expected


@given(
    anchor=tpbrs(),
    brs=tpbr_lists,
    window_list=st.lists(windows, min_size=12, max_size=12),
)
@settings(deadline=None)
def test_batch_overlap_integral_equals_scalar(anchor, brs, window_list):
    window_list = window_list[: len(brs)]
    expected = [
        overlap_integral(anchor, br, a, b)
        for br, (a, b) in zip(brs, window_list)
    ]
    assert batch_overlap_integral(anchor, brs, window_list) == expected


# -- plumbing ----------------------------------------------------------------


def _sample_points(n=12, seed=3):
    rng = random.Random(seed)
    return [
        MovingPoint(
            (rng.uniform(-50.0, 50.0), rng.uniform(-50.0, 50.0)),
            (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)),
            0.0,
            rng.uniform(1.0, 40.0),
        )
        for _ in range(n)
    ]


def test_packed_argument_matches_unpacked():
    points = _sample_points()
    brs = [compute_tpbr([p], 0.0, BoundingKind.CONSERVATIVE) for p in points]
    region = TimesliceQuery(Rect((-20.0, -20.0), (20.0, 20.0)), 10.0).region()
    p_pts = kernels.pack_points(points)
    p_brs = kernels.pack_points(brs)
    assert p_pts is not None and p_brs is not None
    assert batch_region_matches(region, points, p_pts) == \
        batch_region_matches(region, points)
    assert batch_region_matches(region, points, p_pts) == \
        [region_matches_point(region, p) for p in points]
    assert kernels.multi_query_hits(
        kernels.pack_queries((region,)), p_brs
    )[0].tolist() == [region_intersects_tpbr(region, br) for br in brs]


def test_pack_points_below_batch_threshold_is_none():
    assert kernels.pack_points(_sample_points(n=2)) is None
