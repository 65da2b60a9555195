"""A velocity-partitioned forest of R^exp-trees.

One R^exp-tree bounds every subtree by its *extreme* member velocities,
so a population with widely mixed speeds pays for its fastest members
everywhere.  The forest splits the population into velocity classes
(see :mod:`repro.core.partition`), indexes each class in its own
:class:`~repro.core.tree.MovingObjectTree`, routes every insertion and
deletion to its class's tree, and fans queries out across all member
trees, merging the answers.  Because each member's velocity spread is a
fraction of the population's, its TPBRs sweep far less dead space and
queries touch fewer pages — the Xu et al. / Nguyen et al. result, here
layered on the paper's expiration-aware trees.

The forest implements the index contract (:mod:`repro.core.index`) plus
the tree's bulk_load / page_count / stats, so it drops into
:class:`repro.core.scheduled.ScheduledDeletionIndex`, the experiment
adapters and the benchmarks unchanged.  I/O is accounted per
member tree and aggregated on demand, so experiments can report both
the total cost and the per-partition breakdown.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..geometry.kinematics import MovingPoint
from ..geometry.knn import merge_knn
from ..geometry.queries import SpatioTemporalQuery
from ..obs.metrics import NULL_REGISTRY
from ..storage.pagefile import PersistReport
from ..storage.stats import IOSnapshot
from .clock import SimulationClock
from .config import TreeConfig
from .index import MovingObjectIndex
from .partition import (
    DirectionPartitioner,
    GridPartitioner,
    Partitioner,
    SpeedPartitioner,
    gather,
    make_partitioner,
)
from .tree import EntrySnapshot, LeafEntry, MovingObjectTree, TreeAudit

#: File name of the forest manifest inside a durable-forest directory.
MANIFEST_FILENAME = "forest.json"


def _partitioner_manifest(partitioner: Partitioner) -> dict:
    """Serialize a partitioner for the forest manifest."""
    if isinstance(partitioner, SpeedPartitioner):
        return {"kind": "speed", "boundaries": list(partitioner.boundaries)}
    if isinstance(partitioner, DirectionPartitioner):
        return {
            "kind": "direction",
            "sectors": partitioner.sectors,
            "slow_speed": partitioner.slow_speed,
        }
    if isinstance(partitioner, GridPartitioner):
        manifest = {
            "kind": "grid",
            "cells_x": partitioner.cells_x,
            "cells_y": partitioner.cells_y,
            "space": partitioner.space,
            "reach": partitioner.reach,
        }
        if partitioner.x_cuts is not None:
            manifest["x_cuts"] = list(partitioner.x_cuts)
            manifest["y_cuts"] = [list(col) for col in partitioner.y_cuts]
        return manifest
    raise ValueError(
        f"cannot persist partitioner of type {type(partitioner).__name__}"
    )


def _partitioner_from_manifest(payload: dict) -> Partitioner:
    """Rebuild a partitioner from its manifest form."""
    kind = payload.get("kind")
    if kind == "speed":
        return SpeedPartitioner(payload["boundaries"])
    if kind == "direction":
        return DirectionPartitioner(
            payload["sectors"], payload["slow_speed"]
        )
    if kind == "grid":
        return GridPartitioner(
            payload["cells_x"],
            payload["cells_y"],
            space=payload["space"],
            reach=payload["reach"],
            x_cuts=payload.get("x_cuts"),
            y_cuts=payload.get("y_cuts"),
        )
    raise ValueError(f"unknown partitioner kind {kind!r} in manifest")


def write_manifest(path: str, manifest: dict) -> None:
    """Write a JSON manifest atomically (a reader sees old or new, never half)."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


@dataclass(frozen=True)
class ForestConfig:
    """Tunable parameters of :class:`PartitionedMovingObjectForest`.

    Attributes:
        tree: configuration applied to every member tree.
        partitions: number of velocity classes (member trees).
        partitioner: partition function kind, ``"speed"``,
            ``"direction"`` or ``"grid"`` (ignored when an explicit
            partitioner instance is passed to the forest).
        max_speed: anchor of the equal-width speed buckets used before
            any data-driven fit.
        slow_speed: the direction variant's near-stationary threshold.
        split_buffer: divide ``tree.buffer_pages`` across the members so
            the forest's total buffer matches a single tree's — the fair
            comparison; when off, every member gets the full budget.
        refit_on_bulk_load: replace a speed partitioner's boundaries
            with quantiles of the loaded population's speeds (the
            data-driven boundaries) whenever an empty forest is bulk
            loaded.
    """

    tree: TreeConfig = field(default_factory=TreeConfig)
    partitions: int = 4
    partitioner: str = "speed"
    max_speed: float = 3.0
    slow_speed: float = 0.25
    split_buffer: bool = True
    refit_on_bulk_load: bool = True

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ValueError(
                f"need at least one partition, got {self.partitions}"
            )

    @property
    def page_size(self) -> int:
        """Member-tree page size (what index wrappers size queues by)."""
        return self.tree.page_size

    @property
    def dims(self) -> int:
        """Spatial dimensionality shared by every member tree."""
        return self.tree.dims

    def member_tree_config(self, index: int = 0) -> TreeConfig:
        """The configuration of member ``index`` (buffer budget applied).

        The buffer budget divides so the members' shares sum back to the
        single tree's ``buffer_pages``: every member gets the floor
        share and the first ``buffer_pages % partitions`` members absorb
        one remainder page each (a plain floor division would silently
        shrink the forest total, e.g. 10 pages over 4 members to 8).
        Every member still gets at least one page, so with more members
        than pages the total exceeds the budget — the minimum workable
        pool wins over exactness.
        """
        if not self.split_buffer:
            return self.tree
        share, remainder = divmod(self.tree.buffer_pages, self.partitions)
        if index < remainder:
            share += 1
        return self.tree.with_(buffer_pages=max(1, share))

    def with_(self, **changes) -> "ForestConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


class ForestStats:
    """Aggregated read-only view over the member trees' I/O counters.

    Supports the same ``snapshot()`` / ``since()`` protocol as
    :class:`repro.storage.stats.IOStats`, so adapters and the scheduled
    deletion wrapper can attribute forest I/O exactly as they do for a
    single tree, and reads like one: ``reads`` / ``writes`` /
    ``allocations`` / ``frees`` / ``total`` are the members' sums.
    """

    def __init__(self, forest: "PartitionedMovingObjectForest"):
        self._forest = forest

    def snapshot(self) -> IOSnapshot:
        """Capture the current aggregate counters as a snapshot."""
        return sum(
            (tree.stats.snapshot() for tree in self._forest.trees),
            IOSnapshot(),
        )

    def since(self, snap: IOSnapshot) -> IOSnapshot:
        """Aggregate I/O accrued since ``snap`` was captured."""
        return self.snapshot() - snap

    def __getattr__(self, name: str):
        """A counter summed over all members: a fresh snapshot's field."""
        return getattr(self.snapshot(), name)


class PartitionedMovingObjectForest(MovingObjectIndex):
    """Routes updates to velocity-class member trees; fans queries out.

    The forest is interface-compatible with a single
    :class:`~repro.core.tree.MovingObjectTree`: wrap it in a
    :class:`~repro.core.scheduled.ScheduledDeletionIndex`, drive it from
    the experiment runner, or use it directly.  All member trees share
    one simulation clock.
    """

    def __init__(
        self,
        config: Optional[ForestConfig] = None,
        clock: Optional[SimulationClock] = None,
        partitioner: Optional[Partitioner] = None,
        member_factory: Optional[
            Callable[[int, TreeConfig, SimulationClock], MovingObjectTree]
        ] = None,
    ):
        self.config = config if config is not None else ForestConfig()
        self.clock = clock if clock is not None else SimulationClock()
        if partitioner is None:
            partitioner = make_partitioner(
                self.config.partitioner,
                self.config.partitions,
                max_speed=self.config.max_speed,
                slow_speed=self.config.slow_speed,
            )
        elif partitioner.partitions != self.config.partitions:
            raise ValueError(
                f"partitioner has {partitioner.partitions} buckets but the "
                f"configuration asks for {self.config.partitions}"
            )
        self.partitioner = partitioner
        if member_factory is None:
            member_factory = lambda i, cfg, clk: MovingObjectTree(cfg, clk)  # noqa: E731
        self.trees = [
            member_factory(i, self.config.member_tree_config(i), self.clock)
            for i in range(self.config.partitions)
        ]
        self.stats = ForestStats(self)
        self._obs_routes = None  # per-partition routing counters when on
        self._durable_dir: Optional[str] = None

    # -- durability ---------------------------------------------------------

    @staticmethod
    def member_directory(directory: str, index: int) -> str:
        """Path of member ``index``'s page-store directory."""
        return os.path.join(directory, f"member{index}")

    def _write_manifest(self, directory: str) -> None:
        write_manifest(
            os.path.join(directory, MANIFEST_FILENAME),
            {
                "version": 1,
                "partitions": self.partitions,
                "partitioner": _partitioner_manifest(self.partitioner),
            },
        )

    @classmethod
    def create_durable(
        cls,
        directory: str,
        config: Optional[ForestConfig] = None,
        clock: Optional[SimulationClock] = None,
        partitioner: Optional[Partitioner] = None,
        fsync: bool = False,
    ) -> "PartitionedMovingObjectForest":
        """Create an empty forest whose members live in page files.

        Each member tree gets its own subdirectory ``member<i>`` under
        ``directory`` holding a page file and WAL, and a ``forest.json``
        manifest records the partition count and partitioner so
        :meth:`open_from` can rebuild the routing function.
        """
        os.makedirs(directory, exist_ok=True)

        def factory(i, cfg, clk):
            """Create member ``i``'s durable tree under the forest root."""
            return MovingObjectTree.create_durable(
                cls.member_directory(directory, i), cfg, clk, fsync=fsync
            )

        forest = cls(config, clock, partitioner, member_factory=factory)
        forest._durable_dir = directory
        forest._write_manifest(directory)
        return forest

    @classmethod
    def open_from(
        cls,
        directory: str,
        config: Optional[ForestConfig] = None,
        clock: Optional[SimulationClock] = None,
        fsync: bool = False,
        registry=None,
        tracer=None,
    ) -> "PartitionedMovingObjectForest":
        """Open (and if needed recover) a durable forest from disk.

        Reads the manifest, rebuilds the partitioner, then opens every
        member tree — each member runs its own WAL recovery.  The shared
        clock advances to the latest committed time of any member.
        """
        path = os.path.join(directory, MANIFEST_FILENAME)
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("version") != 1:
            raise ValueError(
                f"unsupported forest manifest version {manifest.get('version')!r}"
            )
        partitions = manifest["partitions"]
        if config is None:
            config = ForestConfig(partitions=partitions)
        elif config.partitions != partitions:
            raise ValueError(
                f"configuration asks for {config.partitions} partitions but "
                f"the manifest records {partitions}"
            )
        partitioner = _partitioner_from_manifest(manifest["partitioner"])

        def factory(i, cfg, clk):
            """Reopen member ``i``'s durable tree from disk."""
            return MovingObjectTree.open_from(
                cls.member_directory(directory, i),
                cfg,
                clk,
                fsync=fsync,
                registry=registry,
                tracer=tracer,
            )

        forest = cls(config, clock, partitioner, member_factory=factory)
        forest._durable_dir = directory
        return forest

    def persist_to(self, directory: str) -> List[PersistReport]:
        """Snapshot a simulated forest into a durable directory.

        Writes the manifest plus one page-store snapshot per member, and
        returns the members' :class:`~repro.storage.pagefile.PersistReport`
        records.  The forest itself keeps running on its simulated disks.
        """
        os.makedirs(directory, exist_ok=True)
        self._write_manifest(directory)
        return [
            tree.persist_to(self.member_directory(directory, i))
            for i, tree in enumerate(self.trees)
        ]

    def checkpoint(self) -> None:
        """Checkpoint every durable member (truncates their WALs)."""
        for tree in self.trees:
            tree.checkpoint()

    def close(self) -> None:
        """Checkpoint and close every durable member's page store.

        Idempotent: each member's close is a no-op once its store is
        closed, so the forest may be closed unconditionally (and twice).
        """
        for tree in self.trees:
            tree.close()

    def snapshot(self) -> EntrySnapshot:
        """Snapshot every member for degraded reads (no I/O charged).

        Member entry sets concatenate in member order, mirroring the
        live forest's fan-out (each object lives in exactly one member).
        """
        return EntrySnapshot(
            (
                entry
                for tree in self.trees
                for entry in tree.snapshot().leaf_entries()
            ),
            self.now,
        )

    # -- observability ------------------------------------------------------

    def enable_observability(self, registry=None, tracer=None) -> None:
        """Attach observability to every member and the routing layer.

        Each member tree gets a child scope of ``registry`` named
        ``partition<i>`` (so metric names read e.g.
        ``partition0.tree.splits``), all sharing the root registry's
        store; the forest itself counts how many inserts/deletes route
        to each partition.  The tracer is shared by all members.
        """
        binder = registry if registry is not None else NULL_REGISTRY
        self._obs_routes = []
        for i, tree in enumerate(self.trees):
            scope = binder.scope(f"partition{i}")
            tree.enable_observability(
                scope if registry is not None else None, tracer
            )
            self._obs_routes.append(scope.counter("forest.routed_ops"))
        if registry is not None:
            registry.gauge("forest.partitions", fn=lambda: self.partitions)
            registry.gauge("forest.pages", fn=lambda: self.page_count)

    def disable_observability(self) -> None:
        """Detach the metrics registry from the forest and members."""
        self._obs_routes = None
        for tree in self.trees:
            tree.disable_observability()

    # ------------------------------------------------------------------ API --

    @property
    def partitions(self) -> int:
        """Number of member trees in the forest."""
        return len(self.trees)

    def insert(self, oid: int, point: MovingPoint) -> None:
        """Index a report in its velocity class's tree."""
        idx = self.partitioner.partition_of(point)
        if self._obs_routes is not None:
            self._obs_routes[idx].inc()
        self.trees[idx].insert(oid, point)

    def delete(self, oid: int, point: MovingPoint) -> bool:
        """Remove a report from the tree its insertion chose.

        Partitioning is a pure function of the report, so the deletion
        routes to the same member the insertion did — no routing table.
        """
        idx = self.partitioner.partition_of(point)
        if self._obs_routes is not None:
            self._obs_routes[idx].inc()
        return self.trees[idx].delete(oid, point)

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Fan a query out across the reachable members and merge answers.

        Each object lives in exactly one member, so concatenation
        preserves the single tree's answer multiset.  The partitioner
        may prune the fan-out to the members its partitions can reach
        (spatial grids with a finite reach); velocity partitioners
        always fan out to every member.
        """
        results: List[int] = []
        for index in self.partitioner.query_partitions(query.region()):
            results.extend(self.trees[index].query(query))
        return results

    def query_batch(
        self, queries: Sequence[SpatioTemporalQuery]
    ) -> List[List[int]]:
        """Answer K queries with one shared traversal per reachable member.

        Queries are grouped by the members their regions reach, each
        member answers its group through
        :meth:`MovingObjectTree.query_batch`, and every query's partial
        answers are concatenated in *that query's own*
        ``query_partitions`` order — grid partitioners with a finite
        reach do not enumerate cells in ascending member order, so a
        global merge order would not match :meth:`query`.  The result
        is bit-identical (including order) to
        ``[self.query(q) for q in queries]``.
        """
        targets, per_member = self.partitioner.scatter(queries)
        parts: Dict[int, Dict[int, List[int]]] = {}
        for index, positions in per_member.items():
            answers = self.trees[index].query_batch(
                [queries[position] for position in positions]
            )
            for position, answer in zip(positions, answers):
                parts.setdefault(position, {})[index] = answer
        return gather(targets, parts)

    def knn_entries(
        self, x, t: float, k: int, bound_sq: float = math.inf
    ) -> List[Tuple[float, int]]:
        """Scored forest kNN (see :meth:`MovingObjectTree.knn_entries`).

        A kNN query has no region, so it fans out to *every* member
        (velocity partitioners are spatially uninformative anyway); the
        members are probed sequentially under a **shared global
        k-th-distance bound** — once ``k`` candidates are held, each
        later member's best-first descent prunes every subtree whose
        lower bound strictly exceeds the current k-th distance.
        Per-member candidates merge by the canonical
        ``(squared distance, oid)`` order, so the answer is
        bit-identical to a single tree's over the same population.
        Accepts and propagates an external ``bound_sq`` so the shard
        router can thread one tightening bound through a whole scatter.

        Parameters
        ----------
        x : tuple of float
            The query location.
        t : float
            The evaluation time.
        k : int
            Number of neighbors.
        bound_sq : float, optional
            Squared-distance cutoff from a caller already holding ``k``
            candidates.

        Returns
        -------
        list of (float, int)
            At most ``k`` pairs, ascending by ``(distance, oid)``.
        """
        if k == 0:
            return []
        best: List[Tuple[float, int]] = []
        for tree in self.trees:
            bound_sq = merge_knn(
                best, tree.knn_entries(x, t, k, bound_sq), k, bound_sq
            )
        return best

    def insert_batch(self, reports: Sequence[Tuple[int, MovingPoint]]) -> None:
        """Index a report batch grouped by routing target (group update).

        The batch is stably grouped by member *before* any page is
        touched, so each member tree works through one contiguous run
        of inserts instead of interleaving buffer traffic with the
        other members.  Within a member the insertion order is the
        batch order, so the resulting forest state is identical to
        inserting the reports one by one.
        """
        groups: Dict[int, List[Tuple[int, MovingPoint]]] = {}
        for oid, point in reports:
            index = self.partitioner.partition_of(point)
            groups.setdefault(index, []).append((oid, point))
        for index in sorted(groups):
            group = groups[index]
            if self._obs_routes is not None:
                self._obs_routes[index].inc(len(group))
            tree = self.trees[index]
            for oid, point in group:
                tree.insert(oid, point)

    def bulk_load(self, entries: Sequence[LeafEntry]) -> None:
        """Partition the population, then STR-pack each member tree.

        Requires an empty forest.  With a speed partitioner and
        ``refit_on_bulk_load`` set, the bucket boundaries are first
        refitted to the speed quantiles of the population — the
        data-driven boundaries — so every member receives a comparable
        share.
        """
        if any(tree.leaf_entry_count for tree in self.trees):
            raise ValueError("bulk_load requires an empty forest")
        if (
            self.config.refit_on_bulk_load
            and entries
            and isinstance(self.partitioner, SpeedPartitioner)
        ):
            self.partitioner = SpeedPartitioner.fitted(
                [point.speed() for point, _ in entries], self.partitions
            )
            if self._durable_dir is not None:
                # Routing is a pure function of the partitioner, so the
                # refitted boundaries must be durable before any report
                # they routed is — rewrite the manifest first.
                self._write_manifest(self._durable_dir)
        for tree, group in zip(self.trees, self.partitioner.split(entries)):
            tree.bulk_load(group)

    # -- introspection ----------------------------------------------------------

    def local_stores(self) -> list:
        """The members' page stores (see :mod:`repro.core.index`)."""
        return [tree.disk for tree in self.trees]

    @property
    def aux_io(self) -> int:
        """Cumulative WAL writes over all (durable) members."""
        return sum(tree.aux_io for tree in self.trees)

    @property
    def height(self) -> int:
        """Height of the tallest member tree."""
        return max(tree.height for tree in self.trees)

    @property
    def page_count(self) -> int:
        """Total index size in disk pages, across all members."""
        return sum(tree.page_count for tree in self.trees)

    @property
    def leaf_entry_count(self) -> int:
        """Live leaf entries summed over all members."""
        return sum(tree.leaf_entry_count for tree in self.trees)

    def partition_page_counts(self) -> List[int]:
        """Per-member index sizes in disk pages."""
        return [tree.page_count for tree in self.trees]

    def partition_snapshots(self) -> List[IOSnapshot]:
        """Per-member I/O counters (the per-partition breakdown)."""
        return [tree.stats.snapshot() for tree in self.trees]

    def partition_audits(self) -> List[TreeAudit]:
        """Per-member structural audits (invariant checks)."""
        return [tree.audit() for tree in self.trees]

    def partition_labels(self) -> List[str]:
        """Human-readable label for each partition slot."""
        return [self.partitioner.label(i) for i in range(self.partitions)]

    def level_occupancy(self) -> "dict[int, tuple]":
        """Per-level ``{level: (nodes, entries)}`` summed over members."""
        merged: "dict[int, List[int]]" = {}
        for tree in self.trees:
            for level, (nodes, entries) in tree.level_occupancy().items():
                slot = merged.setdefault(level, [0, 0])
                slot[0] += nodes
                slot[1] += entries
        return {
            level: (nodes, entries)
            for level, (nodes, entries) in merged.items()
        }

    def audit(self) -> TreeAudit:
        """Forest-wide structural census (entry counts summed over members)."""
        return TreeAudit.merged(self.partition_audits())

    def check_invariants(self) -> None:
        """Raise AssertionError on structural violations in any member."""
        for tree in self.trees:
            tree.check_invariants()
