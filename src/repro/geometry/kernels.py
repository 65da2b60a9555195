"""Batched geometry kernels over region blocks.

The scalar routines in :mod:`repro.geometry.bounding`,
:mod:`repro.geometry.intersection` and :mod:`repro.geometry.integrals`
answer one question about one region.  The tree's hot paths (query
filtering, ChooseSubtree, split/reinsert scoring) ask the same question
about a whole node, whose regions already *are* one float64 array
(:class:`repro.geometry.block.RegionBlock`); the kernels here evaluate
it with elementwise arithmetic over that array.  Every kernel takes its
regions through :func:`~repro.geometry.block.as_block`, so a node's
block is read in place and a plain list of region objects is packed
once.

The batched results are **identical** to looping the scalar routine.
This is not an accident of "close enough" floating point: the
vectorized code replicates the exact operation order of the scalar
code, restricted to IEEE-754 operations that numpy evaluates
identically to CPython (+, -, *, /, comparisons, and selections written
as ``where`` so ties resolve as Python's ``min``/``max`` do).  Notably,
powers are never computed with ``**`` — SIMD ``pow`` is not
bit-compatible with libm's — which is why the scalar integrals build
powers by repeated multiplication.  Property tests in
``tests/geometry/test_kernels.py`` enforce the equivalence bit for bit
against the scalar routines, which stay in ``src/`` as that oracle and
for single calls.

Hull-based bounds are array work too: ``near_optimal_tpbr`` gift-wraps
one group's bridges in a few array steps.  For *two-member* groups the
scan and the bridge search collapse to a closed form across groups
(:func:`_near_optimal_pairs`; ChooseSubtree asks for one such bound per
child).  What is not batched across groups (larger near-optimal groups,
the other expiration-aware kinds, overlap integrals with data-dependent
breakpoints) loops the per-group routine behind the same batch API.
"""

from __future__ import annotations

import math
import random
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .block import RegionBlock, as_block
from .bounding import _MIN_DELTA, BoundingKind, _segment_firsts, compute_tpbr
from .integrals import overlap_integral
from .intersection import EPS, region_matches_point
from .kinematics import MovingPoint
from .queries import QueryRegion
from .tpbr import TPBR, Boundable

#: Below this many items a scalar loop beats packing a plain list, and
#: below this many pairs it beats the closed-form pair kernel.
_MIN_BATCH = 4

#: Per-item integration window (lower, upper bound).
Window = Tuple[float, float]


# ---------------------------------------------------------------------------
# Intersection kernels
# ---------------------------------------------------------------------------


def pack_points(points: Sequence[Boundable]) -> Optional[RegionBlock]:
    """The block form of a plain list, for callers that query it repeatedly.

    Returns ``None`` when the scalar loop would run anyway.  The block
    is query-independent, so a caller evaluating many queries against
    the same regions pays the packing once instead of per query (a tree
    node never packs: its regions are a block already).
    """
    if len(points) < _MIN_BATCH:
        return None
    return as_block(points)



def _region_hits(region, items, packed, scalar) -> List[bool]:
    """One region against one node's items: the kernel on a one-row pack."""
    if packed is None:
        packed = pack_points(items)
    if packed is None:
        return [scalar(region, item) for item in items]
    return multi_query_hits(pack_queries((region,)), packed)[0].tolist()


def batch_region_matches(
    region: QueryRegion, points: Sequence[MovingPoint], packed=None
) -> List[bool]:
    """``[region_matches_point(region, p) for p in points]``, batched.

    ``packed`` — a :func:`pack_points` result for the same ``points``
    — skips re-packing.
    """
    return _region_hits(region, points, packed, region_matches_point)


# ---------------------------------------------------------------------------
# Multi-query intersection kernel
# ---------------------------------------------------------------------------


def pack_queries(regions: Sequence[QueryRegion]):
    """Precompute the struct-of-arrays form of K query regions.

    Row ``k`` holds query ``k``'s bound lines as offset/slope pairs
    (``offset + slope * t``), evaluated with plain Python-float
    expressions so the row does not depend on what else is in the
    pack.  The bound arrays have shape (K, dims, 1), ready to broadcast
    against a block's (dims, N) rows.  Returns ``None`` for no regions.
    """
    if not regions:
        return None
    dims = regions[0].dims
    q_lo = np.array(
        [[r.lo[d] - r.vlo[d] * r.t1 for d in range(dims)] for r in regions]
    )
    q_hi = np.array(
        [[r.hi[d] - r.vhi[d] * r.t1 for d in range(dims)] for r in regions]
    )
    q_vlo = np.array([r.vlo for r in regions], dtype=np.float64)
    q_vhi = np.array([r.vhi for r in regions], dtype=np.float64)
    t1 = np.array([r.t1 for r in regions], dtype=np.float64)
    t2 = np.array([r.t2 for r in regions], dtype=np.float64)
    return (
        q_lo[:, :, None], q_hi[:, :, None],
        q_vlo[:, :, None], q_vhi[:, :, None],
        t1[:, None], t2[:, None],
    )


def select_queries(packed, rows):
    """Row-select a :func:`pack_queries` result (one row per query)."""
    return tuple(column[rows] for column in packed)


def multi_query_hits(queries, block: RegionBlock):
    """(K, N) boolean hit matrix of K packed queries against one node.

    ``queries`` is a (possibly row-selected) :func:`pack_queries`
    result; ``block`` is the node's regions (or a :func:`pack_points`
    result).  This is the only feasibility kernel: a
    vectorized :func:`repro.geometry.intersection.feasible_window` over
    the block's query-form rows.  Constraints with |slope| < EPS act as
    constants, the window start is the max of positive-slope roots and
    ``t1``, the end the min of negative-slope roots and the
    expiration-clipped ``t2``.  Max/min are exact and order-independent
    for non-NaN inputs (no NaN can arise — slack is finite and
    const-masked divisors are at least EPS), so the scalar routine's
    sequential clipping, one global reduction, and broadcasting K
    queries against N entries all agree bitwise: row ``k`` is
    **bit-identical** whether query ``k`` is evaluated alone or in any
    batch.
    """
    q_lo, q_hi, q_vlo, q_vhi, t1, t2 = queries
    (s_hi, s_lo), (v_hi, v_lo) = block.s, block.v
    # 1-d overlap per dimension: s_hi >= q_lo and q_hi >= s_lo.
    offsets = np.concatenate([s_hi - q_lo, q_hi - s_lo], axis=1)
    slopes = np.concatenate([v_hi - q_vlo, q_vhi - v_lo], axis=1)
    slack = offsets + EPS
    const = np.abs(slopes) < EPS
    violated = (const & (slack < 0.0)).any(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = -slack / np.where(const, 1.0, slopes)
    starts = np.where(~const & (slopes > 0.0), roots, -np.inf)
    ends = np.where(~const & (slopes < 0.0), roots, np.inf)
    t_end = np.minimum(t2, block.t_exp)
    a = np.maximum(t1, starts.max(axis=1))
    b = np.minimum(t_end, ends.min(axis=1))
    return (t_end >= t1) & ~violated & (b >= a)


# ---------------------------------------------------------------------------
# Bounding kernel
# ---------------------------------------------------------------------------


def batch_compute_tpbr(
    groups: Sequence[Sequence[Boundable]],
    t_ref: float,
    kind: BoundingKind = BoundingKind.NEAR_OPTIMAL,
    horizon: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> List[TPBR]:
    """One TPBR per group, as if by :func:`compute_tpbr` on each.

    Two shapes vectorize.  The conservative kind's bounds are pure
    min/max reductions over member endpoints, whatever the group sizes.
    The near-optimal kind has a closed form when *every* group has two
    members and the horizon is finite (:func:`_near_optimal_pairs`);
    the rng is consumed exactly as by per-group scalar calls.  All else
    loops :func:`compute_tpbr` per group, whose near-optimal bound is
    itself a handful of array steps over the group's block.
    """
    if _pairs_vectorize(len(groups), kind, horizon) and all(
        len(g) == 2 for g in groups
    ):
        firsts = as_block([g[0] for g in groups])
        seconds = as_block([g[1] for g in groups])
        if firsts.dims != seconds.dims:
            raise ValueError("items differ in dimensionality")
        return _tpbrs_from_rows(
            *_near_optimal_pairs(
                _members(firsts),
                _members(seconds),
                t_ref,
                horizon,
                _visiting_orders(rng, len(groups), firsts.dims),
            ),
            t_ref,
        )
    sizes = [len(g) for g in groups]
    if (
        kind is not BoundingKind.CONSERVATIVE
        or not all(sizes)
        or sum(sizes) < _MIN_BATCH
    ):
        return [
            compute_tpbr(g, t_ref, kind, horizon=horizon, rng=rng)
            for g in groups
        ]
    try:
        members = RegionBlock(
            np.concatenate([as_block(g).data for g in groups], axis=1), False
        )
    except ValueError:
        raise ValueError("items differ in dimensionality") from None
    starts = np.cumsum([0] + sizes[:-1])
    at_ref = members.x + members.v * (t_ref - members.t_ref)
    x_max, v_max = _segment_firsts(
        np.concatenate([at_ref[0], members.v[0]]), starts, sizes, np.fmax
    ).reshape(2, members.dims, -1)
    x_min, v_min = _segment_firsts(
        np.concatenate([at_ref[1], members.v[1]]), starts, sizes, np.fmin
    ).reshape(2, members.dims, -1)
    # _max_expiration: an infinite expiration decides, and so does a
    # first member the running maximum cannot start from.
    g_exp = _segment_firsts(members.t_exp, starts, sizes, np.fmax)
    never = np.isinf(g_exp) | ~(members.t_exp[starts] > -math.inf)
    g_exp = np.where(never, math.inf, g_exp)
    # Same round trip as the scalar line assembly, so the results agree
    # bitwise even though the terms "should" cancel.
    low = (x_min - v_min * t_ref) + v_min * t_ref
    high = (x_max - v_max * t_ref) + v_max * t_ref
    crossed = high < low
    if crossed.any():
        mid = (low + high) / 2.0
        low = np.where(crossed, mid, low)
        high = np.where(crossed, mid, high)
    return _tpbrs_from_rows(low, high, v_min, v_max, g_exp, t_ref)


def _members(block: RegionBlock, immortal: bool = False):
    """A block as :func:`_near_optimal_pairs` reads it, members last.

    ``(x, v, t_ref, t_exp)`` with ``x`` and ``v`` of shape
    (2, dims, n): the (upper, lower) bound of every dimension at the
    member's own reference time, and its velocity — views, nothing is
    re-evaluated.  ``immortal`` replaces every expiration by infinity.
    """
    t_exp = np.full(len(block), math.inf) if immortal else block.t_exp
    return block.x, block.v, block.t_ref, t_exp


def _tpbrs_from_rows(lo, hi, vlo, vhi, t_exp, t_ref: float) -> List[TPBR]:
    """TPBRs at ``t_ref`` from (dims, n) bound arrays and (n,) expirations."""
    return [
        TPBR(*map(tuple, bounds), t_ref, exp)
        for *bounds, exp in zip(
            lo.T.tolist(), hi.T.tolist(), vlo.T.tolist(), vhi.T.tolist(),
            t_exp.tolist(),
        )
    ]


def _pairs_vectorize(
    n: int, kind: BoundingKind, horizon: Optional[float]
) -> bool:
    """Whether ``n`` two-member groups go through :func:`_near_optimal_pairs`."""
    return (
        kind is BoundingKind.NEAR_OPTIMAL
        and n >= _MIN_BATCH
        and horizon is not None
        and math.isfinite(horizon)
    )


def _visiting_orders(rng: Optional[random.Random], n: int, dims: int):
    """Per-group dimension orders, drawn as ``n`` scalar calls would.

    One ``rng.shuffle`` per group, in group order, before any arithmetic
    — ``None`` (the natural order) without an rng.
    """
    if rng is None:
        return None
    orders = []
    for _ in range(n):
        order = list(range(dims))
        rng.shuffle(order)
        orders.append(order)
    return np.array(orders, dtype=np.intp)


def _near_optimal_pairs(a, b, t_ref: float, horizon: float, orders):
    """Near-optimal bounds of the two-member groups ``[a[i], b[i]]``.

    ``a`` and ``b`` are :func:`_members` tuples (``b`` may hold a
    single member, paired with every member of ``a``); ``orders`` comes
    from :func:`_visiting_orders`.  Returns ``(lo, hi, vlo, vhi)`` of
    shape (dims, n) and ``t_exp`` of shape (n,) holding, bit for bit,
    what ``near_optimal_tpbr`` computes per group: every step below
    names the scalar code it stands for and keeps its operand order and
    its tie-breaks (Python's ``min``/``max`` keep their *first* argument
    on ties, hence ``where(second beats first, second, first)``).

    Per dimension the endpoint set of a pair is ``{P0, A, B}``: P0 at
    ``t_ref`` (always the leftmost), plus each member's bound at its
    expiration time if that is finite and later than ``t_ref``; a member
    that never expires bounds the slope instead.  Upper and lower bounds
    ride in one array (axis 0: upper, lower); ``beats`` is ``>`` on the
    upper row and ``<`` on the lower.
    """
    xa, va, ref_a, exp_a = a
    xb, vb, ref_b, exp_b = b
    _, dims, n = xa.shape
    upper = np.array([True, False]).reshape(2, 1, 1)

    def beats(x, y):
        return np.where(upper, x > y, x < y)

    with np.errstate(all="ignore"):
        # _collect: bounds at t_ref and at each usable expiration time
        # (garbage where ``has_*`` is false, masked out below).
        never_a = np.isinf(exp_a)
        never_b = np.isinf(exp_b)
        has_a = (exp_a > t_ref) & ~never_a
        has_b = (exp_b > t_ref) & ~never_b
        at_a = xa + va * (t_ref - ref_a)
        at_b = xb + vb * (t_ref - ref_b)
        end_a = xa + va * (exp_a - ref_a)
        end_b = xb + vb * (exp_b - ref_b)
        x0 = np.where(beats(at_b, at_a), at_b, at_a)
        limited = never_a | never_b
        limit = np.where(never_b & (~never_a | beats(vb, va)), vb, va)

        # _max_expiration (an infinite first member decides alone) and
        # _horizon_delta (the final clamp is positive, so plain min/max
        # cannot differ from Python's even in the sign of a zero).
        g_exp = np.where(
            never_a, math.inf, np.where(exp_b > exp_a, exp_b, exp_a)
        )
        delta = np.maximum(np.minimum(g_exp - t_ref, horizon), _MIN_DELTA)

        # _dedupe_columns: the endpoints right of P0 in hull order.  Equal
        # times merge into one column that keeps A's time and the better x.
        both = has_a & has_b
        merged = both & (exp_a == exp_b)
        two = both & ~merged
        some = has_a | has_b
        a_first = has_a & (~has_b | (exp_a <= exp_b))
        t1 = np.where(a_first, exp_a, exp_b)
        t2 = np.where(a_first, exp_b, exp_a)
        x1 = np.where(a_first, end_a, end_b)
        x2 = np.where(a_first, end_b, end_a)
        x1 = np.where(merged & beats(end_b, end_a), end_b, x1)

        # upper_hull/lower_hull: the one Graham-scan turn test there is.
        cross = (t1 - t_ref) * (x2 - x0) - (x1 - x0) * (t2 - t_ref)
        popped = two & np.where(upper, cross >= 0.0, cross <= 0.0)
        bent = two & ~popped  # the hull keeps all three vertices

        # line_through for both candidate bridge edges: P0 to the next
        # hull vertex (horizontal when P0 is alone), and P1 to P2.
        slope_a = (np.where(popped, x2, x1) - x0) / (
            np.where(popped, t2, t1) - t_ref
        )
        icpt_a = np.where(some, x0 - slope_a * t_ref, x0)
        slope_a = np.where(some, slope_a, 0.0)
        slope_b = (x2 - x1) / (t2 - t1)
        icpt_b = x1 - slope_b * t1

        # _constrain_upper/_lower: a never-expiring member leaves at most
        # one endpoint, so only the first edge can need the supporting
        # line, over the points in _collect's order [endpoint, P0].
        tilt = limited & np.where(upper, slope_a < limit, slope_a > limit)
        at_p0 = x0 - limit * t_ref
        at_p1 = x1 - limit * t1
        support = np.where(some & ~beats(at_p0, at_p1), at_p1, at_p0)
        slope_a = np.where(tilt, limit, slope_a)
        icpt_a = np.where(tilt, support, icpt_a)

        if orders is not None:
            # Axis 1 becomes the visiting step: step j of group g reads
            # dimension orders[g, j].
            visit = (orders.T * n + np.arange(n)).ravel()
            bent, slope_a, icpt_a, slope_b, icpt_b = (
                arr.reshape(2, -1).take(visit, axis=1).reshape(2, dims, n)
                for arr in (bent, slope_a, icpt_a, slope_b, icpt_b)
            )

        # near_optimal_tpbr's loop, one visiting step at a time: median,
        # bridge_edge (the left edge when the median sits on a vertex),
        # then the extent (h, w) the next median is computed from.
        powers = _libm_powers(delta, dims + 1) if dims > 1 else None
        coeffs = [1.0]
        out = np.empty((4, dims, n))  # hi, lo, vhi, vlo
        for j in range(dims):
            if j:
                median = _lemma42_rows(coeffs, delta, powers)
            else:
                median = delta / 2.0
            m = t_ref + median
            m = np.where(t_ref > m, t_ref, m)
            m = np.where(t2 < m, t2, m)
            right = bent[:, j] & ~(m <= t1)
            slope = np.where(right, slope_b[:, j], slope_a[:, j])
            edge = np.where(right, icpt_b[:, j], icpt_a[:, j]) + slope * t_ref
            out[:2, j] = edge
            out[2:, j] = slope
            if j + 1 < dims:
                h = edge[0] - edge[1]
                coeffs = _poly_mul_linear_rows(
                    coeffs, np.where(0.0 > h, 0.0, h), slope[0] - slope[1]
                )

        # _assemble, back in dimension order.
        hi, lo = out[:2]
        crossed = hi < lo
        if crossed.any():
            mid = (lo + hi) / 2.0
            out[0] = np.where(crossed, mid, hi)
            out[1] = np.where(crossed, mid, lo)
        if orders is not None:
            placed = np.empty((4, dims * n))
            placed[:, visit] = out.reshape(4, dims * n)
            out = placed.reshape(4, dims, n)
    return out[1], out[0], out[3], out[2], g_exp


def _libm_powers(delta, top: int):
    """``delta ** k`` for k = 1..top (row k - 1), by libm ``pow``.

    The scalar Lemma 4.2 takes ``delta ** k`` on Python floats; numpy's
    ``**`` is not bit-compatible with that, so the powers are the one
    thing taken per group in Python.
    """
    values = delta.tolist()
    return np.array([[d ** k for d in values] for k in range(1, top + 1)])


def _lemma42_rows(coeffs, delta, powers):
    """``lemma42_median`` per row, given the product polynomial so far."""
    numerator = 0.0
    denominator = 0.0
    for k, c in enumerate(coeffs):
        numerator = numerator + c * powers[k + 1] / (k + 2)
        denominator = denominator + c * powers[k] / (k + 1)
    median = numerator / denominator
    median = np.where(0.0 > median, 0.0, median)
    median = np.where(delta < median, delta, median)
    return np.where(denominator <= 0.0, delta / 2.0, median)


# ---------------------------------------------------------------------------
# Integral kernels
# ---------------------------------------------------------------------------
#
# Each takes per-item windows as ``n`` (start, end) pairs — a list of
# tuples or an (n, 2) array — and works on (dims, n) rows.


def _window_columns(windows):
    """``(starts, ends)`` arrays of per-item windows."""
    return np.asarray(windows, dtype=np.float64).reshape(-1, 2).T


def batch_area_integral(
    brs: Sequence[Boundable], windows: Sequence[Window]
) -> List[float]:
    """``[area_integral(br, a, b) ...]`` for per-item windows, batched."""
    block = as_block(brs)
    a, b = _window_columns(windows)
    (hi, lo), (vhi, vlo) = block.x, block.v
    return _area_integral_rows(lo, hi, vlo, vhi, block.t_ref, a, b)


def _area_integral_rows(lo, hi, vlo, vhi, t_ref, a, b) -> List[float]:
    """``area_integral`` of each column of (dims, n) bounds over ``[a, b]``."""
    with np.errstate(all="ignore"):
        c1 = vhi - vlo
        c0 = (hi - lo) - c1 * t_ref
        # _clip_nonnegative: largest end <= b with all extents >= 0.
        at_a = c0 + c1 * a
        invalid = np.any(at_a < -1e-12, axis=0)
        neg = c1 < 0.0
        roots = -c0 / np.where(neg, c1, 1.0)
        end = np.minimum(
            b, np.min(np.where(neg, roots, np.inf), axis=0, initial=np.inf)
        )
        end = np.maximum(end, a)
        zero = invalid | (b <= a) | (end <= a)
        total = _poly_product_integral(c0, c1, a, end)
        result = np.where(zero, 0.0, total)
    return result.tolist()


def batch_extended_area_integral(
    regions: Sequence[Boundable],
    addition: Boundable,
    t_ref: float,
    kind: BoundingKind,
    horizon: Optional[float],
    rng: Optional[random.Random] = None,
    ignore_expiration: bool = False,
) -> Optional[List[float]]:
    """Area objective of every region grown to cover ``addition``.

    ChooseSubtree's what-if question, fused: the value at ``i`` is the
    area integral, over ``[t_ref, t_ref + max(min(H, t_exp - t_ref), 0)]``,
    of ``compute_tpbr([regions[i], addition], t_ref, ...)`` — bit for
    bit, rng consumption included — without materializing that TPBR.
    ``ignore_expiration`` treats every member as never expiring.

    Returns ``None`` when the pair kernel does not apply (see
    :func:`batch_compute_tpbr`); the caller composes
    :func:`batch_compute_tpbr` and :func:`batch_area_integral` instead.
    """
    if not _pairs_vectorize(len(regions), kind, horizon):
        return None
    block = as_block(regions)
    newcomer = as_block(addition)
    if block.dims != newcomer.dims:
        return None
    n = len(block)
    lo, hi, vlo, vhi, t_exp = _near_optimal_pairs(
        _members(block, ignore_expiration),
        _members(newcomer, ignore_expiration),
        t_ref,
        horizon,
        _visiting_orders(rng, n, block.dims),
    )
    # window_end, per column.
    life = t_exp - t_ref
    delta = np.where(~np.isinf(t_exp) & (life < horizon), life, horizon)
    end = t_ref + np.where(0.0 > delta, 0.0, delta)
    start = np.full(n, t_ref, dtype=np.float64)
    return _area_integral_rows(lo, hi, vlo, vhi, t_ref, start, end)


def _poly_mul_linear_rows(coeffs, c0, c1):
    """``_poly_mul_linear`` per row: multiply by ``c0 + c1 * t``."""
    nxt = [0.0] * (len(coeffs) + 1)
    for k, c in enumerate(coeffs):
        nxt[k] = nxt[k] + c * c0
        nxt[k + 1] = nxt[k + 1] + c * c1
    return nxt


def _poly_product_integral(c0, c1, a, b):
    """Integral over [a, b] of prod_d (c0[d] + c1[d] * t), per column.

    Replicates ``_poly_mul_linear`` + ``_poly_definite_integral``
    operation for operation (powers by repeated multiplication).
    """
    n = c0.shape[1]
    coeffs = [np.ones(n)]
    for h, w in zip(c0, c1):
        coeffs = _poly_mul_linear_rows(coeffs, h, w)
    total = np.zeros(n)
    pa = a.copy()
    pb = b.copy()
    for k, c in enumerate(coeffs):
        total = total + c * (pb - pa) / (k + 1)
        pa = pa * a
        pb = pb * b
    return total


def batch_margin_integral(
    brs: Sequence[Boundable], windows: Sequence[Window]
) -> List[float]:
    """``[margin_integral(br, a, b) ...]`` for per-item windows, batched."""
    block = as_block(brs)
    a, b = _window_columns(windows)
    (hi, lo), (vhi, vlo) = block.x, block.v
    with np.errstate(all="ignore"):
        slope = vhi - vlo
        value0 = (hi - lo) - slope * block.t_ref
        total = np.zeros(len(block))
        for c0, c1 in zip(value0, slope):
            sloped = c1 != 0.0
            root = -c0 / np.where(sloped, c1, 1.0)
            end = np.where(c1 < 0.0, np.minimum(b, root), b)
            shrinks_in = (c1 > 0.0) & (c0 + c1 * a < 0.0)
            start = np.where(shrinks_in, np.maximum(a, root), a)
            seg = 0.0 + c0 * (end - start) / 1
            seg = seg + c1 * (end * end - start * start) / 2
            total = total + np.where(end > start, seg, 0.0)
        result = np.where(b <= a, 0.0, total)
    return result.tolist()


def batch_center_distance_sq_integral(
    brs: Sequence[Boundable], anchor: TPBR, windows: Sequence[Window]
) -> List[float]:
    """``[center_distance_sq_integral(br, anchor, a, b) ...]``, batched."""
    block = as_block(brs)
    a, b = _window_columns(windows)
    s_hi, s_lo = block.s
    vhi, vlo = block.v
    center0 = (s_lo + s_hi) / 2.0
    center1 = (vlo + vhi) / 2.0
    q0 = np.zeros(len(block))
    q1 = np.zeros(len(block))
    q2 = np.zeros(len(block))
    for d in range(block.dims):
        y_lo0 = anchor.lo[d] - anchor.vlo[d] * anchor.t_ref
        y_hi0 = anchor.hi[d] - anchor.vhi[d] * anchor.t_ref
        c0 = center0[d] - (y_lo0 + y_hi0) / 2.0
        c1 = center1[d] - (anchor.vlo[d] + anchor.vhi[d]) / 2.0
        q0 = q0 + c0 * c0
        q1 = q1 + 2.0 * c0 * c1
        q2 = q2 + c1 * c1
    total = np.zeros(len(block))
    pa = a.copy()
    pb = b.copy()
    for k, q in enumerate((q0, q1, q2)):
        total = total + q * (pb - pa) / (k + 1)
        pa = pa * a
        pb = pb * b
    return np.where(b <= a, 0.0, total).tolist()


def batch_overlap_integral(
    anchor: TPBR, brs: Sequence[TPBR], windows: Sequence[Window]
) -> List[float]:
    """``[overlap_integral(anchor, br, a, b) ...]`` for per-item windows.

    Always loops the scalar routine: the breakpoint set (bound-crossing
    instants) differs per pair, so there is no fixed-shape vectorization
    to hand to numpy.  Provided so callers can stay on the batch API.
    """
    return [
        overlap_integral(anchor, br, a, b)
        for br, (a, b) in zip(brs, windows)
    ]
