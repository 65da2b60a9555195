"""Textbook endpoint collection, Graham scan and near-optimal bound: the oracle.

``repro.geometry.bounding._collect`` and ``repro.geometry.hull``'s two
hulls are written for speed (one pass, hoisted differences, an inlined
turn test), and ``bounding.near_optimal_tpbr`` finds its bridges by
gift-wrapping the members' block.  These are the versions one would
write from Section 4.1.3 without thinking about speed; the property
tests require the fast ones to agree with them bit for bit.
"""

import math
import struct

from repro.geometry import bounding
from repro.geometry.block import as_block
from repro.geometry.bounding import _DimensionData
from repro.geometry.hull import bridge_edge, line_through
from repro.geometry.kinematics import MovingPoint


def bounds_at(item, dim, t):
    """(lower, upper) coordinate of an item in one dimension at time t."""
    if isinstance(item, MovingPoint):
        x = item.coordinate_at(dim, t)
        return x, x
    return item.lower_at(dim, t), item.upper_at(dim, t)


def collect(items, dims, t_ref):
    """Per-dimension endpoint sets P, extremes and velocity constraints."""
    data = [_DimensionData() for _ in range(dims)]
    for item in items:
        finite = not math.isinf(item.t_exp)
        t_end = max(item.t_exp, t_ref) if finite else t_ref
        for d, dd in enumerate(data):
            point = isinstance(item, MovingPoint)
            v_lo = item.vel[d] if point else item.vlo[d]
            v_hi = item.vel[d] if point else item.vhi[d]
            lo_ref, hi_ref = bounds_at(item, d, t_ref)
            dd.x_ref_min = min(dd.x_ref_min, lo_ref)
            dd.x_ref_max = max(dd.x_ref_max, hi_ref)
            dd.vel_min = min(dd.vel_min, v_lo)
            dd.vel_max = max(dd.vel_max, v_hi)
            if finite and t_end > t_ref:
                lo_end, hi_end = bounds_at(item, d, t_end)
                dd.upper_points.append((t_end, hi_end))
                dd.lower_points.append((t_end, lo_end))
            elif not finite:
                if dd.inf_vel_max is None or v_hi > dd.inf_vel_max:
                    dd.inf_vel_max = v_hi
                if dd.inf_vel_min is None or v_lo < dd.inf_vel_min:
                    dd.inf_vel_min = v_lo
    for dd in data:
        dd.upper_points.append((t_ref, dd.x_ref_max))
        dd.lower_points.append((t_ref, dd.x_ref_min))
    return data


def cross(o, a, b):
    """Cross product of OA and OB; positive for a counter-clockwise turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull(points, upper):
    """Graham scan over one point per t (dict de-duplication)."""
    best = {}
    for t, x in points:
        if t not in best:
            best[t] = x
        else:
            best[t] = max(best[t], x) if upper else min(best[t], x)
    chain = []
    for p in sorted(best.items()):
        while len(chain) >= 2 and (
            cross(chain[-2], chain[-1], p) >= 0.0
            if upper
            else cross(chain[-2], chain[-1], p) <= 0.0
        ):
            chain.pop()
        chain.append(p)
    return chain


def near_optimal_tpbr(items, t_ref, horizon=None, rng=None):
    """The near-optimal bound from point lists and the Graham scan.

    Per dimension in random order: the hull bridge at the (Lemma 4.2)
    median, the line through it, the velocity floor or ceiling of the
    never-expiring members — each step the scalar routine.
    """
    block = as_block(items)
    t_exp = bounding._max_expiration(block)
    delta = bounding._horizon_delta(t_ref, horizon, t_exp)
    if math.isinf(delta):
        return bounding.conservative_tpbr(block, t_ref)
    data = collect(list(block), block.dims, t_ref)
    order = list(range(block.dims))
    if rng is not None:
        rng.shuffle(order)
    lines = [None] * block.dims
    computed = []
    for d in order:
        if computed:
            median = bounding.lemma42_median(computed, delta)
        else:
            median = delta / 2.0
        dd = data[d]
        upper = line_through(
            *bridge_edge(hull(dd.upper_points, upper=True), t_ref + median)
        )
        lower = line_through(
            *bridge_edge(hull(dd.lower_points, upper=False), t_ref + median)
        )
        lower = bounding._constrain_lower(lower, dd)
        upper = bounding._constrain_upper(upper, dd)
        lines[d] = (lower, upper)
        h = (upper[0] + upper[1] * t_ref) - (lower[0] + lower[1] * t_ref)
        computed.append((max(h, 0.0), upper[1] - lower[1]))
    return bounding._assemble(lines, t_ref, t_exp)


def tpbr_bits(br):
    """Every field of a TPBR as raw bytes (``==`` cannot see ``-0.0``)."""
    return struct.pack(
        f"<{4 * br.dims + 2}d",
        *br.lo, *br.hi, *br.vlo, *br.vhi, br.t_ref, br.t_exp,
    )
