"""Construction of time-parameterized bounding rectangles (Section 4.1).

Five candidate bounding-region types are studied by the paper:

* ``CONSERVATIVE`` — tight at computation time, edges move with the
  extreme member velocities (the TPR-tree's rectangles; the only sound
  choice when members never expire).
* ``STATIC`` — zero edge velocities; bounds each member over its whole
  remaining lifetime.  Velocities need not be stored, nearly doubling
  internal fan-out.
* ``UPDATE_MINIMUM`` — tight at computation time like conservative ones,
  but the edge speeds are relaxed as far as the members' expiration
  times allow (Figure 4).
* ``NEAR_OPTIMAL`` — per dimension, the minimal-integral bound is the
  line through the convex-hull *bridge* edge at a median line
  (Lemma 4.1); later dimensions shift their median using the already
  computed ones (Lemma 4.2); dimensions are visited in random order.
* ``OPTIMAL`` — exact minimal volume-integral TPBR found by sweeping the
  median over hull-edge combinations in the first d-1 dimensions and
  placing the last dimension by Lemma 4.2.

All algorithms handle members with infinite expiration times by imposing
velocity floors/ceilings on the computed bounds (the generalization the
paper mentions at the end of Section 4.1.4).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .block import RegionBlock, as_block
from .hull import (
    Line,
    Point2,
    bridge_edge,
    line_through,
    lower_hull,
    supporting_line,
    upper_hull,
)
from .kinematics import NEVER
from .tpbr import TPBR, Boundable

#: Smallest horizon used when every member has already expired.
_MIN_DELTA = 1e-9


class BoundingKind(str, Enum):
    """The bounding-region types compared in Section 5."""

    CONSERVATIVE = "conservative"
    STATIC = "static"
    UPDATE_MINIMUM = "update_minimum"
    NEAR_OPTIMAL = "near_optimal"
    OPTIMAL = "optimal"


@dataclass
class _DimensionData:
    """Endpoint sets and velocity constraints for one dimension."""

    upper_points: List[Point2] = field(default_factory=list)
    lower_points: List[Point2] = field(default_factory=list)
    x_ref_min: float = math.inf
    x_ref_max: float = -math.inf
    vel_min: float = math.inf
    vel_max: float = -math.inf
    inf_vel_min: Optional[float] = None  # ceiling for the lower bound slope
    inf_vel_max: Optional[float] = None  # floor for the upper bound slope


def _collect(
    items: Sequence[Boundable], dims: int, t_ref: float
) -> List[_DimensionData]:
    """Build per-dimension endpoint sets P (Section 4.1.3).

    P contains, per dimension, the extreme coordinates at the computation
    time plus each member's bound evaluated at its expiration time.
    Members that never expire contribute velocity constraints instead of
    endpoints.

    The arithmetic runs on the members' block: ``x + v * (t - t_ref)``
    is the scalar evaluation elementwise, and every extreme is read at
    its *first* occurrence (``argmax`` / ``argmin``), which is what a
    running ``if x > best`` keeps — an earlier ``0.0`` over a later
    ``-0.0`` included.  The endpoints stay in member order, the point at
    ``t_ref`` last.  Coordinates and velocities must not be NaN.
    """
    block = as_block(items)
    x, v, exp = block.x, block.v, block.t_exp
    n = len(block)
    with np.errstate(all="ignore"):
        # Every member at t_ref and at its own expiration time (garbage
        # for the members without an endpoint, dropped below).
        span = np.empty((2, n))
        np.subtract(t_ref, block.t_ref, out=span[0])
        np.subtract(exp, block.t_ref, out=span[1])
        at = x[:, :, None] + v[:, :, None] * span
    never = np.isinf(exp)
    ends = ~never & (exp > t_ref)
    at_end = at[:, :, 1]
    if np.count_nonzero(ends) < n:
        exp, at_end = exp[ends], at_end[:, :, ends]
    times = exp.tolist()
    hi_end, lo_end = at_end.tolist()
    # Rows: upper and lower bounds at t_ref, upper and lower velocities.
    rows = np.concatenate((at[:, :, 0], v)).reshape(4 * dims, n)
    top, bottom = _first_extremes(rows)
    x_max, x_min = top[:dims], bottom[dims:2 * dims]
    v_max, v_min = top[2 * dims:3 * dims], bottom[3 * dims:]
    if np.count_nonzero(never):
        top, bottom = _first_extremes(v[:, :, never].reshape(2 * dims, -1))
        inf_v_max, inf_v_min = top[:dims], bottom[dims:]
    else:
        inf_v_max = inf_v_min = [None] * dims
    return [
        _DimensionData(
            list(zip(times, hi_end[d])) + [(t_ref, x_max[d])],
            list(zip(times, lo_end[d])) + [(t_ref, x_min[d])],
            x_min[d], x_max[d], v_min[d], v_max[d], inf_v_min[d], inf_v_max[d],
        )
        for d in range(dims)
    ]


def _first_extremes(rows: np.ndarray) -> Tuple[List[float], List[float]]:
    """Each row's (maximum, minimum), read at its first occurrence."""
    each = np.arange(len(rows))
    return (
        rows[each, rows.argmax(axis=1)].tolist(),
        rows[each, rows.argmin(axis=1)].tolist(),
    )


def _segment_firsts(values, starts, sizes, extreme):
    """The extreme of each segment of the last axis, first occurrence.

    Python's running ``if x < best: best = x`` keeps the *first* of
    equal values — an earlier ``0.0`` over a later ``-0.0`` — which
    ``reduceat`` does not promise, so the reduction only locates the
    extreme and the value is read from its first position.  ``extreme``
    is ``np.fmin`` or ``np.fmax`` (a NaN never wins a comparison).
    """
    best = np.repeat(extreme.reduceat(values, starts, axis=-1), sizes, axis=-1)
    width = values.shape[-1]
    first = np.minimum.reduceat(
        np.where(values == best, np.arange(width), width - 1), starts, axis=-1
    )
    return np.take_along_axis(values, first, axis=-1)


def _constrain_upper(line: Line, dd: _DimensionData) -> Line:
    """Raise the upper bound's slope to cover never-expiring members."""
    if dd.inf_vel_max is not None and line[1] < dd.inf_vel_max:
        return supporting_line(dd.upper_points, dd.inf_vel_max, upper=True)
    return line

def _constrain_lower(line: Line, dd: _DimensionData) -> Line:
    """Lower the lower bound's slope to cover never-expiring members."""
    if dd.inf_vel_min is not None and line[1] > dd.inf_vel_min:
        return supporting_line(dd.lower_points, dd.inf_vel_min, upper=False)
    return line


def _assemble(
    lines: Sequence[Tuple[Line, Line]], t_ref: float, t_exp: float
) -> TPBR:
    """Turn per-dimension (lower, upper) lines into a TPBR at ``t_ref``."""
    lo, hi, vlo, vhi = [], [], [], []
    for lower, upper in lines:
        low = lower[0] + lower[1] * t_ref
        high = upper[0] + upper[1] * t_ref
        if high < low:  # numerical noise on degenerate inputs
            low = high = (low + high) / 2.0
        lo.append(low)
        hi.append(high)
        vlo.append(lower[1])
        vhi.append(upper[1])
    return TPBR(tuple(lo), tuple(hi), tuple(vlo), tuple(vhi), t_ref, t_exp)


def _horizon_delta(t_ref: float, horizon: Optional[float], t_exp: float) -> float:
    """Integration length: min(H, t_exp - t_ref), per Section 4.1.1."""
    delta = math.inf if horizon is None else horizon
    if not math.isinf(t_exp):
        delta = min(delta, t_exp - t_ref)
    return max(delta, _MIN_DELTA)


def lemma42_median(
    computed: Sequence[Tuple[float, float]], delta: float
) -> float:
    """Median-line offset for the next dimension (Lemma 4.2).

    Args:
        computed: (extent, extent-velocity) of each already-fixed dimension.
        delta: integration length.

    Returns:
        The offset ``m`` from the computation time, in ``[0, delta]``.
    """
    # Coefficients of the product polynomial prod_i (h_i + w_i * tau).
    coeffs = [1.0]
    for h, w in computed:
        nxt = [0.0] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k] += c * h
            nxt[k + 1] += c * w
        coeffs = nxt
    # Plain left-to-right accumulation, not ``sum()``: the built-in is
    # Neumaier-compensated from Python 3.12 on, and the pair kernel
    # (:mod:`repro.geometry.kernels`) must add in this exact order.
    numerator = 0.0
    denominator = 0.0
    for k, c in enumerate(coeffs):
        numerator += c * delta ** (k + 2) / (k + 2)
        denominator += c * delta ** (k + 1) / (k + 1)
    if denominator <= 0.0:
        return delta / 2.0
    return min(max(numerator / denominator, 0.0), delta)


def _volume_integral(
    spans: Sequence[Tuple[float, float]], delta: float
) -> float:
    """Integral over [0, delta] of prod_i (h_i + w_i * tau), in u = tau / delta:
    lifetimes of ~1e-150 give speeds of ~1e300, whose powers in tau overflow."""
    coeffs = [1.0]
    for h, w in spans:
        ch, cw = [c * h for c in coeffs], [c * (w * delta) for c in coeffs]
        coeffs = [a + b for a, b in zip(ch + [0.0], [0.0] + cw)]
    return delta * sum(c / (k + 1) for k, c in enumerate(coeffs))


def _bridge_pair(
    dd: _DimensionData, median_t: float
) -> Tuple[Line, Line]:
    """(lower, upper) bridge lines at a median, with infinity constraints."""
    upper = line_through(*bridge_edge(upper_hull(dd.upper_points), median_t))
    lower = line_through(*bridge_edge(lower_hull(dd.lower_points), median_t))
    return _constrain_lower(lower, dd), _constrain_upper(upper, dd)


# ---------------------------------------------------------------------------
# The five algorithms
# ---------------------------------------------------------------------------


def conservative_tpbr(
    items: Sequence[Boundable], t_ref: float
) -> TPBR:
    """Tight at ``t_ref``; edges move with the extreme member velocities."""
    items = _block_of(items)
    data = _collect(items, items.dims, t_ref)
    lines = []
    for dd in data:
        lower = (dd.x_ref_min - dd.vel_min * t_ref, dd.vel_min)
        upper = (dd.x_ref_max - dd.vel_max * t_ref, dd.vel_max)
        lines.append((lower, upper))
    return _assemble(lines, t_ref, _max_expiration(items))


def static_tpbr(items: Sequence[Boundable], t_ref: float) -> TPBR:
    """Zero-velocity bound over every member's remaining lifetime.

    Raises:
        ValueError: if some member never expires — a static rectangle
            cannot bound an unbounded trajectory.
    """
    items = _block_of(items)
    data = _collect(items, items.dims, t_ref)
    lines = []
    for dd in data:
        if (dd.inf_vel_max is not None and dd.inf_vel_max > 0.0) or (
            dd.inf_vel_min is not None and dd.inf_vel_min < 0.0
        ):
            raise ValueError(
                "static bounding rectangles require finite expiration times"
            )
        lower = (min(x for _, x in dd.lower_points), 0.0)
        upper = (max(x for _, x in dd.upper_points), 0.0)
        lines.append((lower, upper))
    return _assemble(lines, t_ref, _max_expiration(items))


def update_minimum_tpbr(items: Sequence[Boundable], t_ref: float) -> TPBR:
    """Tight at ``t_ref`` with edge speeds relaxed by expiration times.

    The upper bound passes through the maximum coordinate at ``t_ref``
    with the smallest slope that still covers every member until it
    expires (Figure 4); symmetrically for the lower bound.
    """
    items = _block_of(items)
    data = _collect(items, items.dims, t_ref)
    lines = []
    for dd in data:
        up_slope = 0.0
        lo_slope = 0.0
        for t, x in dd.upper_points:
            if t > t_ref:
                up_slope = max(up_slope, (x - dd.x_ref_max) / (t - t_ref))
        for t, x in dd.lower_points:
            if t > t_ref:
                lo_slope = min(lo_slope, (x - dd.x_ref_min) / (t - t_ref))
        if dd.inf_vel_max is not None:
            up_slope = max(up_slope, dd.inf_vel_max)
        if dd.inf_vel_min is not None:
            lo_slope = min(lo_slope, dd.inf_vel_min)
        upper = (dd.x_ref_max - up_slope * t_ref, up_slope)
        lower = (dd.x_ref_min - lo_slope * t_ref, lo_slope)
        lines.append((lower, upper))
    return _assemble(lines, t_ref, _max_expiration(items))


def near_optimal_tpbr(
    items: Sequence[Boundable],
    t_ref: float,
    horizon: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> TPBR:
    """Bridge-based bound with Lemma 4.2 medians, dimensions in random order.

    The bridges are gift-wrapped on the members' block and certified by
    the Graham scan's own turn test (:class:`_Chains`); should an edge
    fail, the scan of :mod:`repro.geometry.hull` answers every chain.
    """
    items = _block_of(items)
    dims = items.dims
    t_exp = _max_expiration(items)
    delta = _horizon_delta(t_ref, horizon, t_exp)
    if math.isinf(delta):
        # An unbounded horizon admits no finite-integral trapezoid other
        # than the conservative one.
        return conservative_tpbr(items, t_ref)
    order = list(range(dims))
    if rng is not None:
        rng.shuffle(order)
    with np.errstate(all="ignore"):
        chains = _Chains(items, t_ref)
        for bridge in (chains.wrapped, chains.scanned):
            lines: List[Optional[Tuple[Line, Line]]] = [None] * dims
            computed: List[Tuple[float, float]] = []
            for d in order:
                median = lemma42_median(computed, delta) if computed else delta / 2.0
                lower = bridge(dims + d, t_ref + median)
                upper = bridge(d, t_ref + median)
                if chains.never:
                    lower, upper = chains.constrain(d, lower, upper)
                lines[d] = (lower, upper)
                h = (upper[0] + upper[1] * t_ref) - (lower[0] + lower[1] * t_ref)
                computed.append((max(h, 0.0), upper[1] - lower[1]))
            if chains.certain:
                break
    return _assemble(lines, t_ref, t_exp)


#: Per dimensionality: :class:`_Chains`' row signs and row index.
_ROW_SIGNS = {}


class _Chains:
    """The 2 * dims endpoint chains of one bound as one array (Section 4.1.3).

    Row ``d`` is dimension ``d``'s upper chain, row ``dims + d`` its lower
    chain negated.  Column 0 is P0; then come the members expiring after
    ``t_ref`` by time, equal times merged as the scan merges them.  A row
    is gift-wrapped from P0 as far as its median asks (steepest slope,
    farthest on ties), and each edge ``(i, j)`` walked must pass the
    scan's turn test ``(tj - ti) * (x - xi) - (xj - xi) * (t - ti)``:
    negative at every other column, or nowhere positive on a horizontal
    edge off zero.  ``certain`` is whether every edge did (DESIGN.md §5).
    """

    def __init__(self, items: RegionBlock, t_ref: float):
        dims = items.dims
        if dims not in _ROW_SIGNS:
            signs = np.repeat([1.0, -1.0], dims)
            _ROW_SIGNS[dims] = (
                signs[:, None, None], np.arange(2 * dims), signs.tolist()
            )
        sign, each, self.sign = _ROW_SIGNS[dims]
        self.items, self.t_ref, self.dims, self.certain = items, t_ref, dims, True
        data = items.data
        exp = data[4 * dims + 1]
        by_exp = exp.argsort(kind="stable")
        t = exp[by_exp].tolist()
        # NaN sorts last, past every infinity: search below the first.
        stop = bisect_left(t, math.inf)
        first = bisect_right(t, t_ref, 0, stop)
        never = t[0] == -math.inf or (stop < len(t) and t[stop] == math.inf)
        t = [t_ref] + t[first:stop]
        # Every member at t_ref and at its own expiration time, as in
        # _collect, then signed.
        span = data[4 * dims : 4 * dims + 2] - data[4 * dims]
        np.subtract(t_ref, data[4 * dims], out=span[0])
        at = (data[: 2 * dims, None] + data[2 * dims : 4 * dims, None] * span) * sign
        now = at[:, 0]
        rows = np.concatenate(
            (now[each, now.argmax(axis=1), None], at[:, 1, by_exp[first:stop]]), axis=1
        )
        times = np.array(t)
        if len(set(t)) < len(t):
            runs = np.flatnonzero(np.r_[True, times[1:] != times[:-1]])
            rows = _segment_firsts(rows, runs, np.diff(np.r_[runs, len(t)]), np.fmax)
            times = times[runs]
            t = times.tolist()
        self.never, self.data = never, None
        self.rows, self.times, self.t, self.z = rows, times, t, rows.tolist()
        # Step one, from P0 on every row: nothing lies left of it, and
        # reversed, the first steepest slope is the farthest.  Per row:
        # the vertex reached and its edge's (turn peak, rise).
        if len(t) == 1:
            self.first, self.proofs = [0] * len(each), [(-math.inf, 0.0)] * len(each)
            return
        rise = (rows[:, 1:] - rows[:, :1])[:, ::-1]
        run = (times[1:] - t_ref)[::-1]
        back = (rise / run).argmax(axis=1)
        flat = rise[each, back, None]
        turn = run[back, None] * rise - flat * run
        turn[each, back] = -np.inf
        self.first = (len(t) - 1 - back).tolist()
        peaks = np.maximum.reduce(turn, axis=1).tolist()
        self.proofs = list(zip(peaks, flat[:, 0].tolist()))

    def _advance(self, row: int, at: int) -> Tuple[int, Tuple[float, float]]:
        """The vertex after ``at`` on ``row``, and its edge's certificate."""
        t, z = self.t, self.z[row]
        rise = self.rows[row] - z[at]
        run = self.times - t[at]
        j = len(t) - 1 - int((rise[at + 1 :] / run[at + 1 :])[::-1].argmax())
        turn = (t[j] - t[at]) * rise - (z[j] - z[at]) * run
        turn[at] = turn[j] = -np.inf
        return j, (float(turn.max()), z[j] - z[at])

    def wrapped(self, row: int, median_t: float) -> Line:
        """The line through ``row``'s wrapped edge at the clamped median:
        the first edge ending at or past it (``bridge_edge``'s rule)."""
        t, z = self.t, self.z[row]
        m = min(max(median_t, t[0]), t[-1])
        i, j, (peak, flat) = 0, self.first[row], self.proofs[row]
        certain = m == m  # at a NaN median the scan takes the last edge
        while True:
            certain = certain and (
                peak < 0.0 or (peak <= 0.0 and flat == 0.0 and z[i] != 0.0)
            )
            if t[j] >= m or not certain:
                break
            i, (j, (peak, flat)) = j, self._advance(row, j)
        self.certain = self.certain and certain
        s = self.sign[row]
        return line_through((t[i], z[i] * s), (t[j], z[j] * s))

    def scanned(self, row: int, median_t: float) -> Line:
        """``row``'s bridge line at the median by the Graham scan itself."""
        s = self.sign[row]
        points = list(zip(self.t, [x * s for x in self.z[row]]))
        hull = upper_hull(points) if s > 0 else lower_hull(points)
        return line_through(*bridge_edge(hull, median_t))

    def constrain(self, d: int, lower: Line, upper: Line) -> Tuple[Line, Line]:
        """The never-expiring members' velocity floor and ceiling on ``d``."""
        if self.data is None:
            self.data = _collect(self.items, self.dims, self.t_ref)
        dd = self.data[d]
        return _constrain_lower(lower, dd), _constrain_upper(upper, dd)


def optimal_tpbr(
    items: Sequence[Boundable],
    t_ref: float,
    horizon: Optional[float] = None,
) -> TPBR:
    """Exact minimal volume-integral TPBR (Section 4.1.4).

    Sweeps the median line over hull-edge combinations in the first d-1
    dimensions; the last dimension's median follows from Lemma 4.2.
    Worst-case O(|P|^(d-1) log |P|).
    """
    items = _block_of(items)
    t_exp = _max_expiration(items)
    delta = _horizon_delta(t_ref, horizon, t_exp)
    if math.isinf(delta):
        return conservative_tpbr(items, t_ref)
    data = _collect(items, items.dims, t_ref)

    def candidates(dd: _DimensionData) -> List[Tuple[Line, Line]]:
        """Distinct (lower, upper) bridge pairs as the median sweeps (0, delta)."""
        breakpoints = {0.0, delta}
        for chain in (upper_hull(dd.upper_points), lower_hull(dd.lower_points)):
            for t, _ in chain:
                offset = t - t_ref
                if 0.0 < offset < delta:
                    breakpoints.add(offset)
        cuts = sorted(breakpoints)
        pairs = []
        seen = set()
        for a, b in zip(cuts, cuts[1:]):
            median = t_ref + (a + b) / 2.0
            pair = _bridge_pair(dd, median)
            key = (pair[0], pair[1])
            if key not in seen:
                seen.add(key)
                pairs.append(pair)
        return pairs

    head_candidates = [candidates(dd) for dd in data[:-1]]
    best: Optional[List[Tuple[Line, Line]]] = None
    best_value = math.inf
    for combo in itertools.product(*head_candidates) if head_candidates else [()]:
        spans = []
        for lower, upper in combo:
            h = (upper[0] + upper[1] * t_ref) - (lower[0] + lower[1] * t_ref)
            spans.append((max(h, 0.0), upper[1] - lower[1]))
        median = lemma42_median(spans, delta) if spans else delta / 2.0
        last = _bridge_pair(data[-1], t_ref + median)
        h_last = (last[1][0] + last[1][1] * t_ref) - (last[0][0] + last[0][1] * t_ref)
        value = _volume_integral(
            spans + [(max(h_last, 0.0), last[1][1] - last[0][1])], delta
        )
        if value < best_value:
            best_value = value
            best = list(combo) + [last]
    if best is None:
        # Degenerate (near-zero) expiration times can make every
        # candidate's volume integral non-finite — the bridge slopes
        # blow up and the coefficient products overflow to NaN, so no
        # candidate ever compares below ``best_value``.  The
        # near-optimal bound is well defined on the same input.
        return near_optimal_tpbr(items, t_ref, horizon)
    return _assemble(best, t_ref, t_exp)


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def compute_tpbr(
    items: Sequence[Boundable],
    t_ref: float,
    kind: BoundingKind = BoundingKind.NEAR_OPTIMAL,
    horizon: Optional[float] = None,
    rng: Optional[random.Random] = None,
) -> TPBR:
    """Compute a bounding rectangle of the requested kind.

    Args:
        items: moving points and/or child TPBRs to enclose.
        t_ref: computation time (the rectangle is valid from here on).
        kind: which of the five algorithms to use.
        horizon: the time horizon H — how far into the future queries are
            expected to look at this rectangle (used by the near-optimal
            and optimal kinds).
        rng: randomness source for the near-optimal dimension order.

    Returns:
        A TPBR bounding every item from ``t_ref`` until the item expires.
    """
    if not items:
        raise ValueError("cannot bound an empty set of items")
    if kind is BoundingKind.CONSERVATIVE:
        return conservative_tpbr(items, t_ref)
    if kind is BoundingKind.STATIC:
        return static_tpbr(items, t_ref)
    if kind is BoundingKind.UPDATE_MINIMUM:
        return update_minimum_tpbr(items, t_ref)
    if kind is BoundingKind.NEAR_OPTIMAL:
        return near_optimal_tpbr(items, t_ref, horizon, rng)
    if kind is BoundingKind.OPTIMAL:
        return optimal_tpbr(items, t_ref, horizon)
    raise ValueError(f"unknown bounding kind: {kind!r}")


def _block_of(items: Sequence[Boundable]) -> RegionBlock:
    """The members as a block (packed once per bound, if not one already)."""
    if not len(items):
        raise ValueError("cannot bound an empty set of items")
    return as_block(items)


def _max_expiration(items: RegionBlock) -> float:
    """The running ``t = max(t, t_exp)`` from ``-inf``, NEVER once infinite.

    The first member decides alone when the running maximum cannot start
    from it (``-inf`` or NaN leave ``t`` infinite); otherwise ``max``
    is that loop: it keeps the first of equal values and a NaN never
    compares greater.
    """
    times = items.t_exp.tolist()
    if not times[0] > -math.inf:
        return NEVER
    t = max(times)
    return NEVER if math.isinf(t) else t
