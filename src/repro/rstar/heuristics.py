"""Generic R*-tree insertion heuristics (Beckmann et al., adapted).

The paper states that the ChooseSubtree, Split and RemoveTop algorithms
of the R^exp-tree are *the same* as the TPR-tree's, which in turn are the
R*-tree's with the area/margin/overlap objectives replaced by their time
integrals (Equation 1).  This module therefore implements the heuristics
once, parameterized over a :class:`Metrics` provider:

* plain rectangle geometry  -> the classic R*-tree substrate;
* time-integral geometry    -> the TPR-tree and the R^exp-tree.

One deviation, taken from the paper: the R^exp-tree's ChooseSubtree does
*not* use overlap enlargement ("This simplifies the algorithm, making it
linear instead of quadratic"), so overlap use is a provider/caller flag.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Generic, List, Sequence, Tuple, TypeVar

Region = TypeVar("Region")


class Metrics(ABC, Generic[Region]):
    """Geometry oracle the generic heuristics are written against."""

    @abstractmethod
    def bound(self, regions: Sequence[Region]) -> Region:
        """Bounding region of the given regions."""

    @abstractmethod
    def area(self, region: Region) -> float:
        """Area objective (plain area, or its time integral)."""

    @abstractmethod
    def margin(self, region: Region) -> float:
        """Margin objective (perimeter, or its time integral)."""

    @abstractmethod
    def overlap(self, a: Region, b: Region) -> float:
        """Overlap objective (shared area, or its time integral)."""

    @abstractmethod
    def center_distance(self, a: Region, b: Region) -> float:
        """Distance objective used by forced reinsertion."""

    @abstractmethod
    def split_sort_keys(self, region: Region) -> Sequence[float]:
        """Per-region sort keys, one per candidate split ordering.

        For rectangles: lower and upper value per axis.  For TPBRs the
        TPR-tree additionally sorts by the bound velocities.
        """

    def enlargement(self, region: Region, addition: Region) -> float:
        """Area growth of ``region`` when extended to cover ``addition``."""
        return self.area(self.bound([region, addition])) - self.area(region)

    # -- batch variants ------------------------------------------------------
    #
    # The heuristics below score many candidate groups per call; providers
    # may override these with vectorized kernels.  The defaults loop the
    # scalar methods, so overriding is purely an optimization — results
    # must be identical either way.

    def bound_many(
        self, groups: Sequence[Sequence[Region]]
    ) -> List[Region]:
        """One bounding region per group."""
        return [self.bound(g) for g in groups]

    def area_many(self, regions: Sequence[Region]) -> List[float]:
        """Area objective of each region."""
        return [self.area(r) for r in regions]

    def extended_area_many(
        self, regions: Sequence[Region], addition: Region
    ) -> List[float]:
        """Area objective of each region extended to cover ``addition``."""
        return self.area_many(
            self.bound_many([[r, addition] for r in regions])
        )

    def margin_many(self, regions: Sequence[Region]) -> List[float]:
        """Margin objective of each region."""
        return [self.margin(r) for r in regions]

    def overlap_many(
        self, anchor: Region, regions: Sequence[Region]
    ) -> List[float]:
        """Overlap objective of ``anchor`` with each region."""
        return [self.overlap(anchor, r) for r in regions]

    def center_distance_many(
        self, regions: Sequence[Region], anchor: Region
    ) -> List[float]:
        """Distance objective of each region against ``anchor``."""
        return [self.center_distance(r, anchor) for r in regions]

    def subset(
        self, regions: Sequence[Region], indices: Sequence[int]
    ) -> Sequence[Region]:
        """The regions at ``indices``, in that order, for ``bound_many``."""
        return [regions[i] for i in indices]


def choose_child(
    metrics: Metrics[Region],
    child_regions: Sequence[Region],
    new_region: Region,
    use_overlap: bool,
) -> int:
    """Pick the child to descend into (R*-tree ChooseSubtree).

    With ``use_overlap`` (children are leaves, R*/TPR behaviour), the
    child whose extension least increases the summed overlap with its
    siblings wins; ties by area enlargement, then area.  Without it (the
    R^exp-tree's linear variant) area enlargement decides directly.
    """
    if not child_regions:
        raise ValueError("choose_child on empty node")
    if use_overlap:
        child_regions = list(child_regions)
        extended = metrics.bound_many(
            [[region, new_region] for region in child_regions]
        )
        extended_areas = metrics.area_many(extended)
    else:
        extended_areas = metrics.extended_area_many(child_regions, new_region)
    areas = metrics.area_many(child_regions)
    best = 0
    best_key: Tuple[float, ...] = ()
    for i in range(len(areas)):
        enlargement = extended_areas[i] - areas[i]
        if use_overlap:
            overlaps_ext = metrics.overlap_many(extended[i], child_regions)
            overlaps_cur = metrics.overlap_many(
                child_regions[i], child_regions
            )
            overlap_delta = 0.0
            for j in range(len(child_regions)):
                if j == i:
                    continue
                overlap_delta += overlaps_ext[j]
                overlap_delta -= overlaps_cur[j]
            key = (overlap_delta, enlargement, areas[i])
        else:
            key = (enlargement, areas[i])
        if i == 0 or key < best_key:
            best = i
            best_key = key
    return best


@dataclass(frozen=True)
class SplitResult:
    """Index sets of the two groups produced by a node split."""

    group_a: Tuple[int, ...]
    group_b: Tuple[int, ...]


def choose_split(
    metrics: Metrics[Region],
    regions: Sequence[Region],
    min_entries: int,
) -> SplitResult:
    """R*-tree topological split over all candidate sort orderings.

    The ordering (axis/bound/velocity) with the smallest summed margin of
    its candidate distributions is chosen; within it, the distribution
    with the least overlap between the two groups wins, ties broken by
    total area.
    """
    n = len(regions)
    if n < 2 * min_entries:
        raise ValueError(
            f"cannot split {n} entries with min fill {min_entries}"
        )
    all_keys = [metrics.split_sort_keys(r) for r in regions]
    key_count = len(all_keys[0])
    split_points = range(min_entries, n - min_entries + 1)

    def distributions(order: Sequence[int]) -> List[Sequence[Region]]:
        groups: List[Sequence[Region]] = []
        for split_at in split_points:
            groups.append(metrics.subset(regions, order[:split_at]))
            groups.append(metrics.subset(regions, order[split_at:]))
        return groups

    best_ordering: List[int] = []
    best_margin = float("inf")
    for k in range(key_count):
        order = sorted(range(n), key=lambda i: all_keys[i][k])
        margins = metrics.margin_many(metrics.bound_many(distributions(order)))
        margin_sum = 0.0
        for s in range(len(split_points)):
            margin_sum += margins[2 * s] + margins[2 * s + 1]
        if margin_sum < best_margin:
            best_margin = margin_sum
            best_ordering = order

    bounds = metrics.bound_many(distributions(best_ordering))
    areas = metrics.area_many(bounds)
    best_split = min_entries
    best_key = (float("inf"), float("inf"))
    for s, split_at in enumerate(split_points):
        left, right = bounds[2 * s], bounds[2 * s + 1]
        key = (
            metrics.overlap(left, right),
            areas[2 * s] + areas[2 * s + 1],
        )
        if key < best_key:
            best_key = key
            best_split = split_at
    return SplitResult(
        tuple(best_ordering[:best_split]), tuple(best_ordering[best_split:])
    )


def reinsert_candidates(
    metrics: Metrics[Region],
    regions: Sequence[Region],
    count: int,
) -> List[int]:
    """Indices to evict for forced reinsertion (R*-tree RemoveTop).

    The ``count`` entries whose centers lie farthest from the node
    bound's center are evicted; they are returned farthest-last, i.e. in
    the "close reinsert" order the R*-tree authors found superior.
    """
    if count <= 0:
        return []
    bound = metrics.bound(regions)
    distances = metrics.center_distance_many(regions, bound)
    order = sorted(
        range(len(regions)),
        key=lambda i: distances[i],
        reverse=True,
    )
    evicted = order[:count]
    evicted.reverse()
    return evicted
