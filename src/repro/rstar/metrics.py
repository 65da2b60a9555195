"""Metric providers instantiating the generic R* heuristics.

``RectMetrics`` gives the classic R*-tree (plain geometry).
``KineticMetrics`` gives the TPR/R^exp behaviour: every objective is the
time integral of its R*-tree counterpart over the time horizon H
(Equation 1), and bounds are computed by the configured TPBR algorithm.
"""

from __future__ import annotations

import math
import random
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..geometry.block import as_block
from ..geometry.bounding import BoundingKind, compute_tpbr
from ..geometry.integrals import (
    area_integral,
    center_distance_sq_integral,
    integration_end,
    margin_integral,
    overlap_integral,
    window_end,
)
from ..geometry.kernels import (
    batch_area_integral,
    batch_center_distance_sq_integral,
    batch_compute_tpbr,
    batch_extended_area_integral,
    batch_margin_integral,
    batch_overlap_integral,
)
from ..geometry.kinematics import NEVER, MovingPoint
from ..geometry.rect import Rect
from ..geometry.tpbr import TPBR, Boundable
from .heuristics import Metrics


def as_tpbr(region: Boundable) -> TPBR:
    """View any boundable item (moving point or TPBR) as a TPBR."""
    if isinstance(region, TPBR):
        return region
    return TPBR.from_moving_point(region, region.t_ref)


def strip_expiration(region: Boundable) -> Boundable:
    """A copy of the item that never expires (decision-making only)."""
    if isinstance(region, TPBR):
        return region.without_expiration()
    if math.isinf(region.t_exp):
        return region
    return MovingPoint(region.pos, region.vel, region.t_ref, NEVER)


class RectMetrics(Metrics[Rect]):
    """Plain rectangle geometry — the classic R*-tree objectives."""

    def bound(self, regions: Sequence[Rect]) -> Rect:
        return Rect.union_of(regions)

    def area(self, region: Rect) -> float:
        return region.area

    def margin(self, region: Rect) -> float:
        return region.margin

    def overlap(self, a: Rect, b: Rect) -> float:
        return a.overlap_area(b)

    def center_distance(self, a: Rect, b: Rect) -> float:
        return a.center_distance(b)

    def split_sort_keys(self, region: Rect) -> List[float]:
        return list(region.lo) + list(region.hi)


class KineticMetrics(Metrics[Boundable]):
    """Time-integral objectives over TPBRs (TPR-tree / R^exp-tree).

    Args:
        kind: the bounding-rectangle algorithm used for what-if bounds.
        now: callable returning the current simulation time (the lower
            integration bound).
        horizon: callable returning the time horizon H (Section 4.2.1).
        rng: randomness source for near-optimal dimension ordering.
        ignore_expiration: when set, decision-making treats every region
            as never-expiring (the "algs w/o exp.t." flavour of
            Section 4.2.2) — bounds become conservative and integration
            windows depend only on H.
    """

    def __init__(
        self,
        kind: BoundingKind,
        now: Callable[[], float],
        horizon: Callable[[], float],
        rng: Optional[random.Random] = None,
        ignore_expiration: bool = False,
    ):
        self.kind = kind
        self.now = now
        self.horizon = horizon
        self.rng = rng
        self.ignore_expiration = ignore_expiration

    def _prepared(self, regions: Sequence[Boundable]) -> Sequence[Boundable]:
        if not self.ignore_expiration:
            return regions
        return [strip_expiration(r) for r in regions]

    def _effective_kind(self) -> BoundingKind:
        if self.ignore_expiration and self.kind in (
            BoundingKind.STATIC,
            BoundingKind.UPDATE_MINIMUM,
        ):
            # Without expiration times these degenerate to conservative.
            return BoundingKind.CONSERVATIVE
        return self.kind

    def bound(self, regions: Sequence[Boundable]) -> TPBR:
        regions = self._prepared(regions)
        return compute_tpbr(
            regions,
            self.now(),
            self._effective_kind(),
            horizon=self.horizon(),
            rng=self.rng,
        )

    def _window(self, *regions: Boundable) -> tuple:
        t0 = self.now()
        if self.ignore_expiration:
            t1 = t0 + self.horizon()
        else:
            t1 = integration_end(
                t0, self.horizon(), [r.t_exp for r in regions]
            )
        return t0, t1

    def _windows(
        self, regions: Sequence[Boundable], anchor: Optional[Boundable] = None
    ):
        """Per-region integration windows (``_window``, batched): (n, 2)."""
        t0 = self.now()
        horizon = self.horizon()
        windows = np.empty((len(regions), 2))
        windows[:, 0] = t0
        if self.ignore_expiration:
            windows[:, 1] = t0 + horizon
            return windows
        t_exp = as_block(regions).t_exp
        if anchor is not None:
            # max(t_exp, anchor.t_exp), keeping the region's on a tie.
            t_exp = np.where(anchor.t_exp > t_exp, anchor.t_exp, t_exp)
        # window_end, operation for operation.
        life = t_exp - t0
        delta = np.where(~np.isinf(t_exp) & (life < horizon), life, horizon)
        if np.isinf(delta).any():
            raise ValueError(
                "unbounded integration window: supply a finite horizon for "
                "never-expiring rectangles"
            )
        windows[:, 1] = t0 + np.where(0.0 > delta, 0.0, delta)
        return windows

    def area(self, region: Boundable) -> float:
        t0, t1 = self._window(region)
        return area_integral(as_tpbr(region), t0, t1)

    def margin(self, region: Boundable) -> float:
        t0, t1 = self._window(region)
        return margin_integral(as_tpbr(region), t0, t1)

    def overlap(self, a: Boundable, b: Boundable) -> float:
        t0, t1 = self._window(a, b)
        return overlap_integral(as_tpbr(a), as_tpbr(b), t0, t1)

    def center_distance(self, a: Boundable, b: Boundable) -> float:
        t0, t1 = self._window(a, b)
        return center_distance_sq_integral(as_tpbr(a), as_tpbr(b), t0, t1)

    # -- batched overrides (vectorized in repro.geometry.kernels) ------------

    def bound_many(
        self, groups: Sequence[Sequence[Boundable]]
    ) -> List[TPBR]:
        prepared = [self._prepared(g) for g in groups]
        return batch_compute_tpbr(
            prepared,
            self.now(),
            self._effective_kind(),
            horizon=self.horizon(),
            rng=self.rng,
        )

    def area_many(self, regions: Sequence[Boundable]) -> List[float]:
        return batch_area_integral(regions, self._windows(regions))

    def extended_area_many(
        self, regions: Sequence[Boundable], addition: Boundable
    ) -> List[float]:
        areas = batch_extended_area_integral(
            regions,
            addition,
            self.now(),
            self._effective_kind(),
            self.horizon(),
            self.rng,
            self.ignore_expiration,
        )
        if areas is None:
            return super().extended_area_many(regions, addition)
        return areas

    def margin_many(self, regions: Sequence[Boundable]) -> List[float]:
        return batch_margin_integral(regions, self._windows(regions))

    def overlap_many(
        self, anchor: Boundable, regions: Sequence[Boundable]
    ) -> List[float]:
        # The integral loops the scalar routine, so the windows do too.
        t0 = self.now()
        horizon = self.horizon()
        if self.ignore_expiration:
            windows = [(t0, t0 + horizon)] * len(regions)
        else:
            anchor_exp = anchor.t_exp
            windows = [
                (t0, window_end(t0, horizon, max(r.t_exp, anchor_exp)))
                for r in regions
            ]
        return batch_overlap_integral(
            as_tpbr(anchor), [as_tpbr(r) for r in regions], windows
        )

    def center_distance_many(
        self, regions: Sequence[Boundable], anchor: Boundable
    ) -> List[float]:
        return batch_center_distance_sq_integral(
            regions, as_tpbr(anchor), self._windows(regions, anchor)
        )

    def subset(
        self, regions: Sequence[Boundable], indices: Sequence[int]
    ) -> Sequence[Boundable]:
        return as_block(regions).take(indices)

    def split_sort_keys(self, region: Boundable) -> List[float]:
        # Positions are compared at the current time, not the (possibly
        # stale) per-rectangle reference times.
        br = as_tpbr(region)
        t = self.now()
        keys: List[float] = []
        for d in range(br.dims):
            keys.append(br.lower_at(d, t))
            keys.append(br.upper_at(d, t))
        for d in range(br.dims):
            keys.append(br.vlo[d])
            keys.append(br.vhi[d])
        return keys
