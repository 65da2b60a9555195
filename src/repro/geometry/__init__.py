"""Geometry of moving objects: trajectories, TPBRs, queries, integrals."""

from .bounding import (
    BoundingKind,
    compute_tpbr,
    conservative_tpbr,
    lemma42_median,
    near_optimal_tpbr,
    optimal_tpbr,
    static_tpbr,
    update_minimum_tpbr,
)
from .hull import bridge_edge, line_through, lower_hull, upper_hull
from .integrals import (
    area_integral,
    center_distance_sq_integral,
    integration_end,
    margin_integral,
    overlap_integral,
)
from .intersection import (
    feasible_window,
    region_matches_point,
)
from .kinematics import NEVER, MovingPoint
from .knn import (
    brute_force_knn,
    point_distance_sq,
    tpbr_min_distance_sq,
)
from .queries import (
    MovingQuery,
    QueryRegion,
    SpatioTemporalQuery,
    TimesliceQuery,
    WindowQuery,
)
from .rect import Rect
from .tpbr import TPBR, Boundable

__all__ = [
    "Boundable",
    "BoundingKind",
    "MovingPoint",
    "MovingQuery",
    "NEVER",
    "QueryRegion",
    "Rect",
    "SpatioTemporalQuery",
    "TPBR",
    "TimesliceQuery",
    "WindowQuery",
    "area_integral",
    "bridge_edge",
    "brute_force_knn",
    "center_distance_sq_integral",
    "compute_tpbr",
    "conservative_tpbr",
    "feasible_window",
    "integration_end",
    "lemma42_median",
    "line_through",
    "lower_hull",
    "margin_integral",
    "near_optimal_tpbr",
    "optimal_tpbr",
    "overlap_integral",
    "point_distance_sq",
    "region_matches_point",
    "static_tpbr",
    "tpbr_min_distance_sq",
    "update_minimum_tpbr",
    "upper_hull",
]
