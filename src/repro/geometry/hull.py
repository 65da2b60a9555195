"""Convex hulls and bridge edges in the (t, x)-plane.

The optimal one-dimensional time-parameterized bound is the line through
the convex-hull edge that crosses the median line ``t = t_upd + delta/2``
(Lemma 4.1).  The paper finds such "bridges" with a Graham-scan based
algorithm, which is what this module implements.
"""

from __future__ import annotations

from operator import itemgetter
from typing import List, Sequence, Tuple

Point2 = Tuple[float, float]
#: A line x(t) = intercept + slope * t.
Line = Tuple[float, float]

_BY_T = itemgetter(0)


def _dedupe_columns(points: Sequence[Point2], keep_max: bool) -> List[Point2]:
    """Sort by t and keep one point per t (max or min x).

    The sort is stable on ``t`` alone, so each equal-``t`` run arrives in
    input order: the column keeps the run's first ``t`` and, among equal
    extremes, its first ``x`` — the batched pair kernel in
    :mod:`repro.geometry.kernels` reproduces exactly this choice.
    """
    ordered = sorted(points, key=_BY_T)
    columns = [ordered[0]]
    for p in ordered:
        last = columns[-1]
        if p[0] != last[0]:
            columns.append(p)
        elif (p[1] > last[1]) if keep_max else (p[1] < last[1]):
            columns[-1] = (last[0], p[1])
    return columns


def upper_hull(points: Sequence[Point2]) -> List[Point2]:
    """Upper convex hull, left to right.

    The returned chain bounds all points from above: every point lies on
    or below every line through a chain edge.
    """
    if not points:
        raise ValueError("hull of no points")
    hull: List[Point2] = []
    for p in _dedupe_columns(points, keep_max=True):
        t, x = p
        while len(hull) >= 2:
            (ot, ox), (at, ax) = hull[-2], hull[-1]
            # Cross product of (hull[-2] -> hull[-1]) and (hull[-2] -> p):
            # non-negative means hull[-1] is not strictly above the chord.
            if (at - ot) * (x - ox) - (ax - ox) * (t - ot) >= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def lower_hull(points: Sequence[Point2]) -> List[Point2]:
    """Lower convex hull, left to right (bounds all points from below)."""
    if not points:
        raise ValueError("hull of no points")
    hull: List[Point2] = []
    for p in _dedupe_columns(points, keep_max=False):
        t, x = p
        while len(hull) >= 2:
            (ot, ox), (at, ax) = hull[-2], hull[-1]
            if (at - ot) * (x - ox) - (ax - ox) * (t - ot) <= 0.0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def bridge_edge(hull: Sequence[Point2], median_t: float) -> Tuple[Point2, Point2]:
    """The hull edge crossed by the vertical line ``t = median_t``.

    The median is clamped into the hull's t-range.  When the median
    coincides with a vertex, either adjacent edge yields a minimum-area
    trapezoid (the paper notes both interpretations are equivalent); the
    edge to the *left* is returned — the first one whose t-range holds
    the median — and the batched pair kernel reproduces that tie-break.
    A single-vertex hull yields a degenerate horizontal "edge".
    """
    if not hull:
        raise ValueError("bridge of empty hull")
    if len(hull) == 1:
        return hull[0], hull[0]
    m = min(max(median_t, hull[0][0]), hull[-1][0])
    for left, right in zip(hull, hull[1:]):
        if left[0] <= m <= right[0]:
            return left, right
    return hull[-2], hull[-1]


def line_through(p: Point2, q: Point2) -> Line:
    """The line through two hull points as (intercept, slope).

    A degenerate (single-point) edge yields a horizontal line.
    """
    if q[0] == p[0]:
        return (max(p[1], q[1]), 0.0)
    slope = (q[1] - p[1]) / (q[0] - p[0])
    return (p[1] - slope * p[0], slope)


def supporting_line(points: Sequence[Point2], slope: float, upper: bool) -> Line:
    """The minimal line of fixed slope bounding all points.

    Used when infinite-expiration members impose a velocity floor (upper
    bound) or ceiling (lower bound) on the computed bound — the paper's
    generalization to entries that never expire.
    """
    if not points:
        raise ValueError("supporting line of no points")
    if upper:
        intercept = max(x - slope * t for t, x in points)
    else:
        intercept = min(x - slope * t for t, x in points)
    return (intercept, slope)
