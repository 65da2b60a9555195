"""Velocity partitioning of a moving-object population.

The R^exp-tree's TPBRs grow with the *extreme* member velocities
(Section 4.1): the bounding speeds of a rectangle are the minimum and
maximum member speeds per dimension, so a single fast object inflates
the sweep of its whole subtree for the entire horizon.  Speed
partitioning ("Speed Partitioning for Indexing Moving Objects", Xu et
al.) and velocity partitioning ("Boosting Moving Object Indexing
through Velocity Partitioning", Nguyen et al.) both observe that
splitting the population into velocity classes — each indexed in its
own tree — shrinks the dead space dramatically, because each tree's
rectangles then sweep at the (much smaller) velocity spread *within*
a class.

This module provides the pluggable partition functions consumed by
:class:`repro.core.forest.PartitionedMovingObjectForest`:

* :class:`SpeedPartitioner` — buckets by speed magnitude, with either
  equal-width boundaries anchored at a maximum speed or data-driven
  boundaries fitted to the observed speed distribution (quantiles), so
  every bucket receives a comparable share of the population;
* :class:`DirectionPartitioner` — buckets by velocity direction
  (equal angular sectors in the first two dimensions), with a dedicated
  bucket for near-stationary objects whose direction is noise;
* :class:`GridPartitioner` — buckets by the *reference position* on a
  uniform spatial grid, the MOIST-style sharding function: unlike the
  velocity partitioners it localizes each bucket in space, so a query
  need only be scattered to the buckets whose cell it can reach
  (:meth:`Partitioner.query_partitions`).

A partitioner is *pure*: the bucket of a report depends only on the
report itself, never on mutable state.  Deletions therefore route to
the same member tree the original insertion chose, with no auxiliary
object-to-partition table.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Dict, Iterable, List, Sequence, Tuple

from ..geometry.kinematics import MovingPoint

LeafEntry = Tuple[MovingPoint, int]

#: The direction partitioner's near-stationary threshold: reports no
#: faster than this share one bucket, their direction being noise.
SLOW_SPEED = 0.25


class Partitioner(ABC):
    """Maps each report to the member tree that should index it."""

    @property
    @abstractmethod
    def partitions(self) -> int:
        """Number of buckets (member trees)."""

    @abstractmethod
    def partition_of(self, point: MovingPoint) -> int:
        """Bucket index of a report, in ``range(self.partitions)``."""

    @abstractmethod
    def label(self, index: int) -> str:
        """Human-readable description of one bucket."""

    def split(self, entries: Iterable[LeafEntry]) -> List[List[LeafEntry]]:
        """Bucket leaf entries for bulk loading, preserving order."""
        groups: List[List[LeafEntry]] = [[] for _ in range(self.partitions)]
        for point, oid in entries:
            groups[self.partition_of(point)].append((point, oid))
        return groups

    def query_partitions(self, region) -> Tuple[int, ...]:
        """Buckets a query must be scattered to (sound over-approximation).

        The default is every bucket: velocity partitions say nothing
        about where their members are, so no member tree can be ruled
        out.  Spatially localized partitioners override this (see
        :meth:`GridPartitioner.query_partitions`).
        """
        return tuple(range(self.partitions))

    def scatter(self, queries: Sequence) -> List[Tuple[int, ...]]:
        """The scatter plan of a query batch: each query's targets.

        ``plan[position]`` is that query's :meth:`query_partitions`, in
        the partitioner's own enumeration order (a grid with a finite
        reach does not enumerate cells in ascending order).
        """
        return [self.query_partitions(query.region()) for query in queries]


def gather(
    targets: Sequence[Sequence[int]], parts: Dict[int, Dict[int, List[int]]]
) -> List[List[int]]:
    """Merge per-member answers, each query in its *own* target order.

    ``parts[position][index]`` is member ``index``'s answer to the
    query at ``position`` of a :meth:`Partitioner.scatter` plan
    (``targets``).  Each object lives in exactly one member, so
    concatenation preserves the single tree's answer multiset, and
    following the query's own ``targets`` order makes a batched answer
    bit-identical to the one-query scatter's.
    """
    return [
        [oid for index in members for oid in parts[position][index]]
        for position, members in enumerate(targets)
    ]


class SpeedPartitioner(Partitioner):
    """Speed-magnitude buckets separated by ascending boundary speeds.

    ``boundaries`` holds the k-1 inner boundaries of k buckets; a report
    with speed s lands in the first bucket whose boundary exceeds s
    (boundaries themselves belong to the faster bucket's left edge, i.e.
    bucket i covers ``[boundaries[i-1], boundaries[i])``).
    """

    def __init__(self, boundaries: Sequence[float]):
        bounds = tuple(float(b) for b in boundaries)
        for i, b in enumerate(bounds):
            if b < 0.0:
                raise ValueError(f"negative speed boundary {b}")
            if i and b < bounds[i - 1]:
                raise ValueError(
                    f"speed boundaries must be ascending, got {bounds}"
                )
        self.boundaries = bounds

    @classmethod
    def uniform(cls, partitions: int, max_speed: float) -> "SpeedPartitioner":
        """Equal-width buckets over ``[0, max_speed]``.

        The last bucket is open-ended, so speeds above ``max_speed``
        still route (to the fastest class).
        """
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        if max_speed <= 0.0:
            raise ValueError(f"max_speed must be positive, got {max_speed}")
        width = max_speed / partitions
        return cls([width * i for i in range(1, partitions)])

    @classmethod
    def fitted(
        cls, speeds: Sequence[float], partitions: int
    ) -> "SpeedPartitioner":
        """Data-driven boundaries: speed quantiles of an observed sample.

        Splitting at the i/k quantiles balances the population across
        buckets regardless of the speed distribution's shape — the Xu et
        al. recipe.  Duplicate quantiles (heavily repeated speeds) are
        kept, which simply leaves the corresponding bucket empty.
        """
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        if not speeds:
            raise ValueError("cannot fit speed boundaries to an empty sample")
        ordered = sorted(speeds)
        n = len(ordered)
        return cls(
            [
                ordered[min(n - 1, (i * n) // partitions)]
                for i in range(1, partitions)
            ]
        )

    @property
    def partitions(self) -> int:
        return len(self.boundaries) + 1

    def partition_of(self, point: MovingPoint) -> int:
        return bisect_right(self.boundaries, point.speed())

    def label(self, index: int) -> str:
        lo = 0.0 if index == 0 else self.boundaries[index - 1]
        if index == len(self.boundaries):
            return f"speed >= {lo:g}"
        return f"speed [{lo:g}, {self.boundaries[index]:g})"


class DirectionPartitioner(Partitioner):
    """Velocity-direction buckets: equal angular sectors plus a slow bucket.

    Bucket 0 collects reports whose speed does not exceed ``slow_speed``
    (near-stationary objects have no meaningful direction; with the
    default threshold 0 only exactly-stationary objects land there).
    The remaining ``sectors`` buckets divide the full angle of the
    velocity's first two components into equal sectors starting at the
    positive x-axis.
    """

    def __init__(self, sectors: int, slow_speed: float = 0.0):
        if sectors < 1:
            raise ValueError(f"need at least one sector, got {sectors}")
        if slow_speed < 0.0:
            raise ValueError(f"slow_speed must be >= 0, got {slow_speed}")
        self.sectors = sectors
        self.slow_speed = slow_speed

    @property
    def partitions(self) -> int:
        return self.sectors + 1

    def partition_of(self, point: MovingPoint) -> int:
        if point.speed() <= self.slow_speed:
            return 0
        vx = point.vel[0]
        vy = point.vel[1] if point.dims > 1 else 0.0
        angle = math.atan2(vy, vx) % (2.0 * math.pi)
        sector = int(self.sectors * angle / (2.0 * math.pi))
        return 1 + min(sector, self.sectors - 1)

    def label(self, index: int) -> str:
        if index == 0:
            return f"speed <= {self.slow_speed:g}"
        width = 360.0 / self.sectors
        lo = (index - 1) * width
        return f"direction [{lo:g}\N{DEGREE SIGN}, {lo + width:g}\N{DEGREE SIGN})"


class GridPartitioner(Partitioner):
    """Spatial buckets: a ``cells_x`` x ``cells_y`` grid over the space.

    A report routes by its *reference position* (``point.pos``, the
    position at ``t_ref``), clamped into the grid so out-of-space
    positions still map to the nearest edge cell — the partition
    function stays total.  Only the first two dimensions participate;
    higher-dimensional points route by their (x, y) projection.

    ``reach`` bounds how far a live entry's current position can drift
    from its reference position: with maximum speed ``vmax`` and
    expiration horizon ``ExpT`` every live report satisfies
    ``|x(t) - pos| <= vmax * ExpT``, so ``reach = vmax * ExpT`` is
    sound.  With a finite reach, :meth:`query_partitions` scatters a
    query only to the cells whose rectangle, expanded by the reach,
    intersects the query's bounding rectangle.  ``reach=None`` (the
    default) disables pruning — every query scatters everywhere.

    Cell boundaries are uniform by default; :meth:`fitted` builds
    data-driven boundaries instead (x-quantile columns, conditional
    y-quantile rows per column) so skewed spatial distributions still
    shard into equal-mass cells.
    """

    def __init__(
        self,
        cells_x: int,
        cells_y: int,
        space: float = 1000.0,
        reach: "float | None" = None,
        x_cuts: "Sequence[float] | None" = None,
        y_cuts: "Sequence[Sequence[float]] | None" = None,
    ):
        if cells_x < 1 or cells_y < 1:
            raise ValueError(
                f"grid needs at least one cell per axis, got "
                f"{cells_x}x{cells_y}"
            )
        if space <= 0.0:
            raise ValueError(f"space extent must be positive, got {space}")
        if reach is not None and reach < 0.0:
            raise ValueError(f"reach must be >= 0, got {reach}")
        if (x_cuts is None) != (y_cuts is None):
            raise ValueError("x_cuts and y_cuts must be given together")
        if x_cuts is not None:
            x_cuts = tuple(float(c) for c in x_cuts)
            if len(x_cuts) != cells_x - 1:
                raise ValueError(
                    f"need {cells_x - 1} column cuts, got {len(x_cuts)}"
                )
            if list(x_cuts) != sorted(x_cuts):
                raise ValueError(f"column cuts must be sorted: {x_cuts}")
            y_cuts = tuple(
                tuple(float(c) for c in column) for column in y_cuts
            )
            if len(y_cuts) != cells_x:
                raise ValueError(
                    f"need row cuts for {cells_x} columns, got {len(y_cuts)}"
                )
            for column in y_cuts:
                if len(column) != cells_y - 1:
                    raise ValueError(
                        f"need {cells_y - 1} row cuts per column, "
                        f"got {len(column)}"
                    )
                if list(column) != sorted(column):
                    raise ValueError(f"row cuts must be sorted: {column}")
        self.cells_x = cells_x
        self.cells_y = cells_y
        self.space = float(space)
        self.reach = None if reach is None else float(reach)
        self.x_cuts = x_cuts
        self.y_cuts = y_cuts

    @classmethod
    def for_partitions(
        cls,
        partitions: int,
        space: float = 1000.0,
        reach: "float | None" = None,
    ) -> "GridPartitioner":
        """A near-square grid with exactly ``partitions`` cells.

        Uses the factorization ``a * b = partitions`` with ``a`` the
        largest divisor not exceeding ``sqrt(partitions)``, so 8 becomes
        a 4x2 grid and a prime count degenerates to a 1D strip.
        """
        if partitions < 1:
            raise ValueError(f"need at least one partition, got {partitions}")
        a = int(math.isqrt(partitions))
        while partitions % a:
            a -= 1
        return cls(partitions // a, a, space=space, reach=reach)

    @classmethod
    def fitted(
        cls,
        sample: Sequence[Sequence[float]],
        cells_x: int,
        cells_y: int,
        space: float = 1000.0,
        reach: "float | None" = None,
    ) -> "GridPartitioner":
        """A grid whose cells hold equal shares of a position sample.

        Column cuts are x-quantiles of the sample; each column's row
        cuts are conditional y-quantiles of the positions landing in
        that column, so the cells partition the sample into (nearly)
        equal-mass buckets even when the spatial distribution is
        skewed or x/y-correlated — the analogue of
        :meth:`SpeedPartitioner.fitted` for spatial sharding.
        """
        if not sample:
            raise ValueError("fitted grid needs a non-empty sample")

        def quantiles(values: List[float], parts: int) -> "tuple[float, ...]":
            ordered = sorted(values)
            return tuple(
                ordered[(i * len(ordered)) // parts]
                for i in range(1, parts)
            )

        x_cuts = quantiles([pos[0] for pos in sample], cells_x)
        columns: List[List[float]] = [[] for _ in range(cells_x)]
        all_y = []
        for pos in sample:
            y = pos[1] if len(pos) > 1 else 0.0
            columns[bisect_right(x_cuts, pos[0])].append(y)
            all_y.append(y)
        y_cuts = tuple(
            quantiles(column or all_y, cells_y) for column in columns
        )
        return cls(
            cells_x, cells_y, space=space, reach=reach,
            x_cuts=x_cuts, y_cuts=y_cuts,
        )

    @property
    def partitions(self) -> int:
        return self.cells_x * self.cells_y

    def _cell(self, coordinate: float, cells: int) -> int:
        if not coordinate > 0.0:  # <= 0, and NaN routes to cell 0
            return 0
        if coordinate >= self.space:  # out of space (and +inf): edge cell
            return cells - 1
        return min(int(coordinate * cells / self.space), cells - 1)

    def _column_of(self, x: float) -> int:
        if self.x_cuts is None:
            return self._cell(x, self.cells_x)
        # NaN compares False everywhere, so bisect sends it to the last
        # column — still total, still deterministic.
        return bisect_right(self.x_cuts, x)

    def _row_of(self, column: int, y: float) -> int:
        if self.y_cuts is None:
            return self._cell(y, self.cells_y)
        return bisect_right(self.y_cuts[column], y)

    def partition_of(self, point: MovingPoint) -> int:
        cx = self._column_of(point.pos[0])
        cy = (
            self._row_of(cx, point.pos[1])
            if point.dims > 1
            else 0
        )
        return cy * self.cells_x + cx

    def label(self, index: int) -> str:
        cy, cx = divmod(index, self.cells_x)
        if self.x_cuts is not None:
            x_lo = self.x_cuts[cx - 1] if cx > 0 else -math.inf
            x_hi = self.x_cuts[cx] if cx < self.cells_x - 1 else math.inf
            y_lo = self.y_cuts[cx][cy - 1] if cy > 0 else -math.inf
            y_hi = (
                self.y_cuts[cx][cy] if cy < self.cells_y - 1 else math.inf
            )
            return (
                f"cell ({cx},{cy}) [{x_lo:g}, {x_hi:g})x"
                f"[{y_lo:g}, {y_hi:g}) (fitted)"
            )
        wx = self.space / self.cells_x
        wy = self.space / self.cells_y
        return (
            f"cell ({cx},{cy}) [{cx * wx:g}, {(cx + 1) * wx:g})x"
            f"[{cy * wy:g}, {(cy + 1) * wy:g})"
        )

    def query_partitions(self, region) -> Tuple[int, ...]:
        """Cells whose reach-expanded rectangle meets the query's bounds.

        The query's bounding rectangle per dimension is the min/max of
        its linear-in-time bounds at the interval endpoints.  Soundness
        requires every live entry to satisfy the ``reach`` drift bound;
        see the class docstring.
        """
        if self.reach is None:
            return tuple(range(self.partitions))
        bounds = []
        for dim in range(min(2, region.dims)):
            lo = min(region.lower_at(dim, region.t1),
                     region.lower_at(dim, region.t2))
            hi = max(region.upper_at(dim, region.t1),
                     region.upper_at(dim, region.t2))
            bounds.append((lo - self.reach, hi + self.reach))
        (x_lo, x_hi) = bounds[0]
        (y_lo, y_hi) = bounds[1] if len(bounds) > 1 else (0.0, 0.0)
        cx_lo = self._column_of(x_lo)
        cx_hi = self._column_of(x_hi)
        cells = []
        for cx in range(cx_lo, cx_hi + 1):
            # Fitted grids cut rows per column, so the row range is
            # column-specific; bisect monotonicity keeps it sound.
            if region.dims > 1:
                cy_lo = self._row_of(cx, y_lo)
                cy_hi = self._row_of(cx, y_hi)
            else:
                cy_lo, cy_hi = 0, self.cells_y - 1
            cells.extend(
                cy * self.cells_x + cx for cy in range(cy_lo, cy_hi + 1)
            )
        return tuple(cells)


def make_partitioner(
    kind: str,
    partitions: int,
    max_speed: float = 3.0,
    sample: Sequence[float] = (),
    space: float = 1000.0,
    reach: "float | None" = None,
) -> Partitioner:
    """Construct a partitioner by name: ``"speed"``, ``"direction"`` or ``"grid"``.

    A speed partitioner fits data-driven boundaries when a ``sample`` of
    observed speeds is given, and falls back to equal-width buckets over
    ``[0, max_speed]`` otherwise.  A direction partitioner spends one of
    its ``partitions`` buckets on near-stationary objects (speed at most
    :data:`SLOW_SPEED`).  A grid partitioner tiles ``[0, space]^2`` with
    a near-square grid of ``partitions`` cells and prunes query scatter
    when ``reach`` is given (see :class:`GridPartitioner`).
    """
    if kind == "speed":
        if sample:
            return SpeedPartitioner.fitted(sample, partitions)
        return SpeedPartitioner.uniform(partitions, max_speed)
    if kind == "direction":
        if partitions < 2:
            raise ValueError(
                "a direction partitioner needs >= 2 partitions "
                "(one is reserved for near-stationary objects)"
            )
        return DirectionPartitioner(partitions - 1, SLOW_SPEED)
    if kind == "grid":
        return GridPartitioner.for_partitions(
            partitions, space=space, reach=reach
        )
    raise ValueError(f"unknown partitioner kind {kind!r}")
