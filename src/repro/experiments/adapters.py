"""Index adapters: a uniform, I/O-accounted interface for the runner.

The paper compares four architectures (Section 5.4): the R^exp-tree,
the TPR-tree, and each of them paired with a scheduled-deletion B-tree.
An adapter wraps one index, attributes its page I/O to search or update
operations, and reports auxiliary I/O — the deletion queue's B-tree, a
durable backend's write-ahead log — separately (the paper's figures
exclude it; we report both).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..core.clock import SimulationClock
from ..core.config import TreeConfig
from ..core.forest import ForestConfig, PartitionedMovingObjectForest
from ..core.index import MovingObjectIndex
from ..core.partition import Partitioner
from ..core.scheduled import ScheduledDeletionIndex
from ..core.tree import MovingObjectTree
from ..geometry.kinematics import MovingPoint
from ..geometry.queries import SpatioTemporalQuery
from ..storage.stats import OperationStats


class IndexAdapter(MovingObjectIndex):
    """What the experiment runner drives: an index whose I/O is accounted.

    An accounted index is an index: ``insert`` / ``delete`` / ``query``
    / ``query_batch`` / ``knn_entries`` / ``bulk_load`` charge the
    wrapped index's I/O to ``op_stats`` (an ``update`` is its two
    halves, charged as two update operations; ``query_knn`` derives
    from ``knn_entries``), and everything the wrapper does not charge —
    ``page_count``, ``audit``, ``enable_observability``, ``close``, the
    rest of the read surface — is forwarded to the wrapped index
    unaccounted.

    Accounting needs two numbers from the index: ``stats`` (primary
    page I/O, with ``snapshot()`` / ``since()``) and ``aux_io`` (one
    cumulative count of everything else it wrote).
    """

    def __init__(self, name: str, index, exact_semantics: bool):
        self.name = name
        self.op_stats = OperationStats()
        self.index = index
        self.clock = index.clock
        # A tree that discards expiration times answers with false drops
        # that a downstream filter would remove (Section 3) — with or
        # without scheduled deletions.
        self.exact_semantics = exact_semantics

    def __getattr__(self, name: str):
        """Forward what the adapter does not account to the wrapped index."""
        return getattr(self.index, name)

    def _create_durable(self, directory: str, fsync: bool):
        """A fresh durable index configured like the wrapped one."""
        raise NotImplementedError(
            f"{type(self).__name__} has no durable backend"
        )

    def enable_durability(self, directory: str, fsync: bool = False) -> None:
        """Re-home the index onto a durable page store in ``directory``.

        Must be called before any operation.  Index I/O keeps entering
        the search/update tallies unchanged; write-ahead-log I/O is
        charged as auxiliary I/O, like the deletion queue's B-tree.
        Adapters without a durable backend raise ``NotImplementedError``.
        """
        if self.index.leaf_entry_count:
            raise ValueError(
                "enable_durability requires an adapter that has not "
                "indexed anything yet"
            )
        self.index = self._create_durable(directory, fsync)

    def advance_time(self, t: float) -> None:
        """Move simulation time forward (may trigger scheduled work)."""
        self.clock.advance_to(t)

    def _accounted(self, record, operation, *args):
        """Run one index operation — the only place I/O is charged.

        The operation's primary page I/O goes through ``record`` and
        whatever ``aux_io`` grew by is charged as auxiliary.
        """
        before = self.index.stats.snapshot()
        aux_before = self.index.aux_io
        result = operation(*args)
        record(self.index.stats.since(before).total)
        self.op_stats.record_auxiliary(self.index.aux_io - aux_before)
        return result

    def insert(self, oid: int, point: MovingPoint) -> None:
        """Index a first report, charged as one update operation."""
        self._accounted(
            self.op_stats.record_update, self.index.insert, oid, point
        )

    def delete(self, oid: int, point: MovingPoint) -> bool:
        """Remove a report; False if it already expired or was purged."""
        return self._accounted(
            self.op_stats.record_update, self.index.delete, oid, point
        )

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Answer a query, charging its I/O to search."""
        return self._accounted(
            self.op_stats.record_search, self.index.query, query
        )

    def query_batch(
        self, queries: Sequence[SpatioTemporalQuery]
    ) -> List[List[int]]:
        """Answer K queries in one shared traversal, charging it to search.

        No page read of a shared traversal belongs to any one query, so
        the batch's I/O is split evenly: each query is charged
        ``io // K`` and the first ``io % K`` one page more — ``search_io``
        grows by exactly the batch's I/O and ``search_ops`` by ``K``.
        """
        def record(io: int) -> None:
            share, extra = divmod(io, len(queries))
            for position in range(len(queries)):
                self.op_stats.record_search(share + (position < extra))

        if not queries:
            return []
        return self._accounted(record, self.index.query_batch, queries)

    def knn_entries(self, x, t: float, k: int, bound_sq: float = math.inf):
        """Scored kNN (and so ``query_knn``), charged as one search."""
        return self._accounted(
            self.op_stats.record_search,
            self.index.knn_entries, x, t, k, bound_sq,
        )

    def bulk_load(self, items: Sequence[Tuple[int, MovingPoint]]) -> None:
        """STR-pack an initial population, charging its I/O as setup."""
        self._accounted(
            self.op_stats.record_setup,
            self.index.bulk_load,
            [(point, oid) for oid, point in items],
        )

    @property
    def aux_page_count(self) -> int:
        """Pages held by side structures (the deletion queue)."""
        return 0

    @property
    def buffer_counters(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` summed over the index's pools."""
        pools = [tree.buffer for tree in self._members()]
        return (
            sum(pool.hits for pool in pools),
            sum(pool.misses for pool in pools),
            sum(pool.evictions for pool in pools),
        )

    def _members(self) -> List[MovingObjectTree]:
        """The trees whose buffer pools the counters sum over."""
        return [self.tree]


class TreeAdapter(IndexAdapter):
    """A bare moving-object tree (R^exp-tree or TPR-tree)."""

    def __init__(
        self,
        name: str,
        config: TreeConfig,
        clock: Optional[SimulationClock] = None,
    ):
        super().__init__(
            name, MovingObjectTree(config, clock), config.store_leaf_expiration
        )

    @property
    def tree(self) -> MovingObjectTree:
        return self.index

    def _create_durable(self, directory: str, fsync: bool):
        return MovingObjectTree.create_durable(
            directory, self.index.config, self.clock, fsync=fsync
        )


class ForestAdapter(IndexAdapter):
    """A velocity-partitioned forest of moving-object trees.

    Accounts exactly like :class:`TreeAdapter` — the forest's aggregated
    I/O enters the search/update tallies — and additionally exposes the
    per-partition breakdown the forest experiments report.
    """

    def __init__(
        self,
        name: str,
        config: ForestConfig,
        clock: Optional[SimulationClock] = None,
        partitioner: Optional[Partitioner] = None,
    ):
        super().__init__(
            name,
            PartitionedMovingObjectForest(config, clock, partitioner),
            config.tree.store_leaf_expiration,
        )

    @property
    def forest(self) -> PartitionedMovingObjectForest:
        return self.index

    def _members(self) -> List[MovingObjectTree]:
        return self.index.trees

    def _create_durable(self, directory: str, fsync: bool):
        return PartitionedMovingObjectForest.create(
            directory,
            self.index.config.with_(fsync=fsync),
            self.index.partitioner,
            self.clock,
        )

    @property
    def partition_page_counts(self) -> List[int]:
        return self.forest.partition_page_counts()


class ScheduledAdapter(IndexAdapter):
    """A moving-object tree plus the scheduled-deletion B-tree.

    Scheduled deletions are charged as update operations against the
    primary index (matching the paper's amortized cost model); all
    B-tree traffic is accounted as auxiliary I/O.
    """

    def __init__(
        self,
        name: str,
        config: TreeConfig,
        clock: Optional[SimulationClock] = None,
        queue_buffer_pages: int = 50,
    ):
        index = ScheduledDeletionIndex(
            MovingObjectTree(config, clock),
            queue_buffer_pages=queue_buffer_pages,
        )
        super().__init__(name, index, config.store_leaf_expiration)
        index.on_scheduled_deletion(
            lambda delta: self.op_stats.record_update(delta.total)
        )

    @property
    def tree(self) -> MovingObjectTree:
        return self.index.tree

    def advance_time(self, t: float) -> None:
        """Fire due deletions; the hook above charges each one's tree I/O."""
        self._accounted(lambda io: None, self.index.advance_time, t)

    @property
    def aux_page_count(self) -> int:
        return self.index.queue_page_count
