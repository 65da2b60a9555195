"""Intersection tests between queries, trajectories and TPBRs.

Everything in this index is linear in time, so "does the query trapezoid
intersect this bounding rectangle / trajectory?" reduces to the
feasibility of a system of linear inequalities in the single variable
``t``, clipped to the query's time interval and the participants'
expiration times (Section 4.1.5: intersection is checked between
``t1`` and ``min(t2, t_exp)``).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from .kinematics import MovingPoint
from .queries import QueryRegion

#: Numerical slack for touching intersections.
EPS = 1e-9

#: A linear function of absolute time: value(t) = offset + slope * t.
Linear = Tuple[float, float]


def make_linear(value_at_ref: float, slope: float, t_ref: float) -> Linear:
    """Express ``value_at_ref + slope*(t - t_ref)`` as offset + slope*t."""
    return (value_at_ref - slope * t_ref, slope)


def feasible_window(
    constraints: Iterable[Linear], t_start: float, t_end: float
) -> Optional[Tuple[float, float]]:
    """Sub-interval of [t_start, t_end] where every constraint is >= 0.

    Args:
        constraints: linear functions required to be non-negative.
        t_start: interval start.
        t_end: interval end (may be ``inf``).

    Returns:
        The feasible (possibly degenerate) time window, or None if empty.
    """
    a, b = t_start, t_end
    if b < a:
        return None
    for offset, slope in constraints:
        # Constraints are enforced with EPS slack so that touching
        # configurations count as intersecting.  Slopes below EPS are
        # treated as constant: dividing by a near-zero slope produces
        # huge, numerically meaningless roots that can clip the window
        # in either direction depending on rounding.
        slack = offset + EPS
        if abs(slope) < EPS:
            if slack < 0.0:
                return None
            continue
        root = -slack / slope
        if slope > 0.0:
            a = max(a, root)
        else:
            b = min(b, root)
        if b < a:
            return None
    return (a, b)


def _pair_constraints(
    q_lo: Linear, q_hi: Linear, s_lo: Linear, s_hi: Linear
) -> Tuple[Linear, Linear]:
    """Constraints for 1-d overlap: s_hi >= q_lo and q_hi >= s_lo."""
    lower = (s_hi[0] - q_lo[0], s_hi[1] - q_lo[1])
    upper = (q_hi[0] - s_lo[0], q_hi[1] - s_lo[1])
    return lower, upper


def region_matches_point(region: QueryRegion, point: MovingPoint) -> bool:
    """Does the trajectory pass through the query region before expiring?"""
    t_end = min(region.t2, point.t_exp)
    if t_end < region.t1:
        return False
    constraints = []
    for d in range(region.dims):
        q_lo = make_linear(region.lo[d], region.vlo[d], region.t1)
        q_hi = make_linear(region.hi[d], region.vhi[d], region.t1)
        p = make_linear(point.pos[d], point.vel[d], point.t_ref)
        constraints.extend(_pair_constraints(q_lo, q_hi, p, p))
    return feasible_window(constraints, region.t1, t_end) is not None
