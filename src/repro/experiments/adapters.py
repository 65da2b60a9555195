"""Index adapters: a uniform, I/O-accounted interface for the runner.

The paper compares four architectures (Section 5.4): the R^exp-tree,
the TPR-tree, and each of them paired with a scheduled-deletion B-tree.
Adapters wrap the index implementations, attribute page I/O to search or
update operations, and report B-tree I/O separately (the paper's figures
exclude it; we report both).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Sequence, Tuple

from ..core.clock import SimulationClock
from ..core.config import TreeConfig
from ..core.forest import ForestConfig, PartitionedMovingObjectForest
from ..core.partition import Partitioner
from ..core.scheduled import ScheduledDeletionIndex
from ..core.tree import MovingObjectTree, TreeAudit
from ..geometry.kinematics import MovingPoint
from ..geometry.queries import SpatioTemporalQuery
from ..storage.stats import OperationStats


class IndexAdapter(ABC):
    """What the experiment runner drives."""

    def __init__(self, name: str):
        self.name = name
        self.op_stats = OperationStats()

    def enable_durability(self, directory: str, fsync: bool = False) -> None:
        """Re-home the index onto a durable page store in ``directory``.

        Must be called before any operation.  Index I/O keeps entering
        the search/update tallies unchanged; write-ahead-log I/O is
        charged as auxiliary I/O, like the deletion queue's B-tree.
        Adapters without a durable backend raise ``NotImplementedError``.
        """
        raise NotImplementedError(
            f"{type(self).__name__} has no durable backend"
        )

    def close(self) -> None:
        """Checkpoint and close a durable backend (no-op otherwise)."""

    @abstractmethod
    def advance_time(self, t: float) -> None:
        """Move simulation time forward (may trigger scheduled work)."""

    @abstractmethod
    def insert(self, oid: int, point: MovingPoint) -> None:
        """Index a first report."""

    @abstractmethod
    def delete(self, oid: int, point: MovingPoint) -> bool:
        """Remove a report; False if it already expired or was purged."""

    @abstractmethod
    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Answer a query, charging its I/O to search."""

    def update(self, oid: int, old: MovingPoint, new: MovingPoint) -> bool:
        """An update is a deletion followed by an insertion (Section 5.1)."""
        existed = self.delete(oid, old)
        self.insert(oid, new)
        return existed

    def bulk_load(self, items: Sequence[Tuple[int, MovingPoint]]) -> None:
        """Load an initial population, charging its I/O as setup.

        The default falls back to repeated insertion (still charged as
        setup, not updates); tree-backed adapters override it with STR
        packing.
        """
        stats = self.op_stats
        update_io, update_ops = stats.update_io, stats.update_ops
        for oid, point in items:
            self.insert(oid, point)
        stats.record_setup(stats.update_io - update_io)
        stats.update_io, stats.update_ops = update_io, update_ops

    @property
    @abstractmethod
    def page_count(self) -> int:
        """Primary index size in pages (Figure 15)."""

    @property
    def aux_page_count(self) -> int:
        """Pages held by side structures (the deletion queue)."""
        return 0

    def audit(self) -> Optional[TreeAudit]:
        """Structural census, if the underlying index supports one."""
        return None

    def enable_observability(self, registry=None, tracer=None) -> None:
        """Attach a metrics registry and/or tracer to the wrapped index.

        The base adapter has nothing to instrument; index-backed
        adapters delegate to their tree or forest.
        """

    @property
    def buffer_counters(self) -> Tuple[int, int, int]:
        """``(hits, misses, evictions)`` of the primary index's pool."""
        return (0, 0, 0)


class _MemberTreeAdapter(IndexAdapter):
    """The I/O accounting shared by :class:`TreeAdapter` and :class:`ForestAdapter`.

    A tree and a forest offer the same operations and the same
    ``stats.snapshot()`` / ``since()`` protocol, so one wrapper serves
    both: ``index`` is the wrapped tree or forest, and the subclasses
    say only how to list its member trees (whose buffer pools and
    write-ahead logs the counters below sum over) and how to re-create
    it on a durable store.
    """

    def __init__(
        self, name: str, index, clock: SimulationClock, exact_semantics: bool
    ):
        super().__init__(name)
        self.clock = clock
        self.index = index
        # A tree that discards expiration times answers with false drops
        # that a downstream filter would remove (Section 3).
        self.exact_semantics = exact_semantics
        self._durable = False

    @abstractmethod
    def _members(self) -> List[MovingObjectTree]:
        """The member trees of the wrapped index."""

    @abstractmethod
    def _create_durable(self, directory: str, fsync: bool):
        """A fresh durable index configured like the wrapped one."""

    def enable_durability(self, directory: str, fsync: bool = False) -> None:
        """Replace the fresh simulated index with a durable one."""
        if self.index.leaf_entry_count:
            raise ValueError(
                "enable_durability requires an adapter that has not "
                "indexed anything yet"
            )
        self.index = self._create_durable(directory, fsync)
        self._durable = True

    def close(self) -> None:
        self.index.close()

    def advance_time(self, t: float) -> None:
        self.clock.advance_to(t)

    def _wal_writes(self) -> int:
        """Cumulative WAL writes of a durable backend (0 when simulated)."""
        if not self._durable:
            return 0
        return sum(tree.disk.wal.stats.writes for tree in self._members())

    def _accounted(self, record, operation, *args):
        """Run one index operation, charging its page I/O through ``record``.

        Write-ahead-log writes are charged as auxiliary I/O, like the
        deletion queue's B-tree.
        """
        before = self.index.stats.snapshot()
        wal_before = self._wal_writes()
        result = operation(*args)
        record(self.index.stats.since(before).total)
        self.op_stats.record_auxiliary(self._wal_writes() - wal_before)
        return result

    def insert(self, oid: int, point: MovingPoint) -> None:
        self._accounted(
            self.op_stats.record_update, self.index.insert, oid, point
        )

    def delete(self, oid: int, point: MovingPoint) -> bool:
        return self._accounted(
            self.op_stats.record_update, self.index.delete, oid, point
        )

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        return self._accounted(
            self.op_stats.record_search, self.index.query, query
        )

    def bulk_load(self, items) -> None:
        self._accounted(
            self.op_stats.record_setup,
            self.index.bulk_load,
            [(point, oid) for oid, point in items],
        )

    @property
    def page_count(self) -> int:
        return self.index.page_count

    def audit(self) -> TreeAudit:
        return self.index.audit()

    def enable_observability(self, registry=None, tracer=None) -> None:
        self.index.enable_observability(registry, tracer)

    @property
    def buffer_counters(self) -> Tuple[int, int, int]:
        pools = [tree.buffer for tree in self._members()]
        return (
            sum(pool.hits for pool in pools),
            sum(pool.misses for pool in pools),
            sum(pool.evictions for pool in pools),
        )


class TreeAdapter(_MemberTreeAdapter):
    """A bare moving-object tree (R^exp-tree or TPR-tree)."""

    def __init__(
        self,
        name: str,
        config: TreeConfig,
        clock: Optional[SimulationClock] = None,
    ):
        clock = clock if clock is not None else SimulationClock()
        super().__init__(
            name,
            MovingObjectTree(config, clock),
            clock,
            config.store_leaf_expiration,
        )

    @property
    def tree(self) -> MovingObjectTree:
        return self.index

    def _members(self) -> List[MovingObjectTree]:
        return [self.index]

    def _create_durable(self, directory: str, fsync: bool):
        return MovingObjectTree.create_durable(
            directory, self.index.config, self.clock, fsync=fsync
        )


class ForestAdapter(_MemberTreeAdapter):
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
        clock = clock if clock is not None else SimulationClock()
        super().__init__(
            name,
            PartitionedMovingObjectForest(config, clock, partitioner),
            clock,
            config.tree.store_leaf_expiration,
        )

    @property
    def forest(self) -> PartitionedMovingObjectForest:
        return self.index

    def _members(self) -> List[MovingObjectTree]:
        return self.index.trees

    def _create_durable(self, directory: str, fsync: bool):
        return PartitionedMovingObjectForest.create_durable(
            directory,
            self.index.config,
            self.clock,
            self.index.partitioner,
            fsync=fsync,
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
        super().__init__(name)
        self.clock = clock if clock is not None else SimulationClock()
        tree = MovingObjectTree(config, self.clock)
        self.index = ScheduledDeletionIndex(
            tree, queue_buffer_pages=queue_buffer_pages
        )
        self.index.on_scheduled_deletion(
            lambda delta: self.op_stats.record_update(delta.total)
        )
        # Even with scheduled deletions, a tree without stored expiration
        # times reports objects that expire before the query time.
        self.exact_semantics = config.store_leaf_expiration

    @property
    def tree(self) -> MovingObjectTree:
        return self.index.tree

    def advance_time(self, t: float) -> None:
        before = self.index.queue.stats.snapshot()
        self.index.advance_time(t)
        self.op_stats.record_auxiliary(
            self.index.queue.stats.since(before).total
        )

    def insert(self, oid: int, point: MovingPoint) -> None:
        tree_before = self.tree.stats.snapshot()
        queue_before = self.index.queue.stats.snapshot()
        self.index.insert(oid, point)
        self.op_stats.record_update(self.tree.stats.since(tree_before).total)
        self.op_stats.record_auxiliary(
            self.index.queue.stats.since(queue_before).total
        )

    def delete(self, oid: int, point: MovingPoint) -> bool:
        tree_before = self.tree.stats.snapshot()
        queue_before = self.index.queue.stats.snapshot()
        removed = self.index.delete(oid, point)
        self.op_stats.record_update(self.tree.stats.since(tree_before).total)
        self.op_stats.record_auxiliary(
            self.index.queue.stats.since(queue_before).total
        )
        return removed

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        before = self.tree.stats.snapshot()
        result = self.index.query(query)
        self.op_stats.record_search(self.tree.stats.since(before).total)
        return result

    def bulk_load(self, items) -> None:
        tree_before = self.tree.stats.snapshot()
        queue_before = self.index.queue.stats.snapshot()
        self.index.bulk_load([(point, oid) for oid, point in items])
        self.op_stats.record_setup(self.tree.stats.since(tree_before).total)
        self.op_stats.record_auxiliary(
            self.index.queue.stats.since(queue_before).total
        )

    @property
    def page_count(self) -> int:
        return self.index.page_count

    @property
    def aux_page_count(self) -> int:
        return self.index.queue_page_count

    def audit(self) -> TreeAudit:
        return self.tree.audit()

    def enable_observability(self, registry=None, tracer=None) -> None:
        self.tree.enable_observability(registry, tracer)

    @property
    def buffer_counters(self) -> Tuple[int, int, int]:
        pool = self.tree.buffer
        return (pool.hits, pool.misses, pool.evictions)
