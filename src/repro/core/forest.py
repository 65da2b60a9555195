"""The partitioned index: one forest of R^exp-trees, wherever its members run.

One R^exp-tree bounds every subtree by its *extreme* member velocities,
so a population with widely mixed speeds pays for its fastest members
everywhere.  Speed and velocity partitioning (Xu et al., Nguyen et al.)
split the population into classes (:mod:`repro.core.partition`), index
each in its own :class:`~repro.core.tree.MovingObjectTree`, route every
report to its class's tree and fan reads out, merging the answers; a
spatial grid partitioner makes the same idea MOIST-style sharding.

:class:`PartitionedMovingObjectForest` is that idea, written once.
*Where* member ``i``'s batches run is a members object:
:class:`LocalMembers` applies them to trees in this process,
:class:`repro.shard.router.WorkerMembers` ships them to one worker
process per member.  A directory written by either opens with either.
"""

from __future__ import annotations

import json
import math
import os
import time as _time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry.bounding import BoundingKind
from ..geometry.knn import merge_knn, validate_knn_args
from ..geometry.kinematics import MovingPoint
from ..geometry.queries import SpatioTemporalQuery
from ..obs.metrics import NULL_REGISTRY
from ..obs.trace import TraceContext
from ..storage.pagefile import PersistReport
from ..storage.stats import IOSnapshot, IOStats
from ..workloads.base import (
    DeleteOp,
    InsertOp,
    KnnOp,
    Operation,
    QueryOp,
    UpdateOp,
    apply_batch,
    op_atoms,
    route_op,
)
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

#: File name of the manifest inside a partitioned-index directory.
MANIFEST_FILENAME = "forest.json"
MANIFEST_VERSION = 2

#: Member batches in flight per member before the scatter blocks on
#: the oldest acknowledgement.
WINDOW = 2


def member_directory(directory: str, index: int) -> str:
    """Path of member ``index``'s page-store directory."""
    return os.path.join(directory, f"member{index}")


def _partitioner_manifest(partitioner: Partitioner) -> dict:
    """Serialize a partitioner for the manifest."""
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


def _write_manifest(
    directory: str, config: "ForestConfig", partitioner: Partitioner
) -> None:
    """Record what an open needs, atomically (readers see old or new)."""
    tree = asdict(config.tree)
    tree["bounding"] = config.tree.bounding.name
    manifest = {
        "version": MANIFEST_VERSION,
        "partitions": config.partitions,
        "partitioner": _partitioner_manifest(partitioner),
        "tree": tree,
        "fsync": config.fsync,
    }
    path = os.path.join(directory, MANIFEST_FILENAME)
    with open(path + ".tmp", "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(path + ".tmp", path)


@dataclass(frozen=True)
class ForestConfig:
    """Tunable parameters of :class:`PartitionedMovingObjectForest`.

    Attributes:
        tree: base configuration of every member tree.
        partitions: number of members (worker processes, for workers).
        partitioner: partition function kind, ``"speed"``,
            ``"direction"`` or ``"grid"`` (ignored when an explicit
            partitioner is passed); ``max_speed`` anchors the speed
            buckets before any data-driven fit, ``space`` and ``reach``
            are the grid's extent and drift bound (a finite ``reach``
            lets a query skip unreachable cells).
        split_buffer: divide ``tree.buffer_pages`` across the members so
            the forest's total buffer matches a single tree's (the fair
            comparison); when off, every member gets the full budget.
        refit_on_bulk_load: refit a speed partitioner's boundaries to
            the speed quantiles of the population an empty forest is
            bulk loaded with.
        fsync: durable members' write-ahead logs fsync on commit.
        observability / flush_every: worker members run a metrics
            registry and piggyback its export on every Nth
            acknowledgement (0 disables the piggyback).
        batch_ops: maximum operations per worker-member batch.
        join_timeout: wall seconds a close waits per worker before
            escalating to kill.
    """

    tree: TreeConfig = field(default_factory=TreeConfig)
    partitions: int = 4
    partitioner: str = "speed"
    max_speed: float = 3.0
    space: float = 1000.0
    reach: Optional[float] = None
    split_buffer: bool = True
    refit_on_bulk_load: bool = True
    fsync: bool = False
    observability: bool = True
    flush_every: int = 8
    batch_ops: int = 256
    join_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.partitions < 1:
            raise ValueError(
                f"need at least one partition, got {self.partitions}"
            )
        if self.batch_ops < 1:
            raise ValueError(f"batch_ops must be >= 1, got {self.batch_ops}")

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

        Every member gets the floor share and the first ``buffer_pages %
        partitions`` members one remainder page each, so the shares sum
        back to the single tree's budget — but never less than one page
        (the minimum workable pool wins over exactness).
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


@dataclass
class ShardRunResult:
    """What one :meth:`PartitionedMovingObjectForest.apply_ops` replay measured.

    ``answers`` maps each query's position in the stream to its oids
    (concatenated in ascending member order); ``batches`` counts member
    batches sent, ``scattered_queries`` per-member query executions.
    ``wall_seconds`` and ``blocked_seconds`` (waiting on replies) are
    wall time; ``router_cpu_seconds`` is the router process's CPU time
    and ``shard_busy_seconds`` each member's (decode plus apply), as
    its acknowledgements report — critical-path work however the host
    schedules the processes.
    """

    answers: Dict[int, List[int]] = field(default_factory=dict)
    ops: int = 0
    failed_deletes: int = 0
    batches: int = 0
    scattered_queries: int = 0
    wall_seconds: float = 0.0
    blocked_seconds: float = 0.0
    router_cpu_seconds: float = 0.0
    shard_busy_seconds: List[float] = field(default_factory=list)

    @property
    def model_makespan_seconds(self) -> float:
        """Modeled makespan with one core per worker.

        The router's CPU work plus the busiest member's: with a core
        per worker the members run concurrently, so the replay cannot
        end before either.  On one core the processes time-slice and
        ``wall_seconds`` stays near the *sum* of all terms instead.
        """
        busiest = max(self.shard_busy_seconds, default=0.0)
        return self.router_cpu_seconds + busiest


class LocalMembers:
    """Member trees in this process; a batch runs on its tree directly.

    The trees share the forest's clock, so the scatter cuts every
    member's pending batch whenever the clock moves (stream order is
    then execution order) and never by size.  Without a ``directory``
    the trees are simulated; with one, each member's page file and WAL
    live in ``member<i>`` — created, or reopened with WAL recovery
    (``recover``, observed by ``registry`` / ``tracer``), each member
    advancing the shared clock to its latest committed time.
    """

    shares_clock = True
    tracer = None  # no router-side spans: member trees trace themselves

    def __init__(self, directory, config, clock, recover=False,
                 registry=None, tracer=None):
        self.trees = []
        for i in range(config.partitions):
            tree_config = config.member_tree_config(i)
            if directory is None:
                tree = MovingObjectTree(tree_config, clock)
            elif recover:
                tree = MovingObjectTree.open_from(
                    member_directory(directory, i), tree_config, clock,
                    fsync=config.fsync, registry=registry, tracer=tracer,
                )
            else:
                tree = MovingObjectTree.create_durable(
                    member_directory(directory, i), tree_config, clock,
                    fsync=config.fsync,
                )
            self.trees.append(tree)

    def send(self, index, ops, trace=None, enc=None):
        """Apply a batch now; the handle is its outcome."""
        tree = self.trees[index]
        started = _time.process_time()
        answers, scored, failed = apply_batch(tree, tree.clock, ops)
        return answers, scored, _time.process_time() - started, failed

    def collect(self, index, handle, blocked=None):
        """``(answers, scored, busy seconds, failed deletes)`` of a batch."""
        return handle

    def bulk_load(self, groups, time: float) -> None:
        """STR-pack every member with its group."""
        for tree, group in zip(self.trees, groups):
            tree.bulk_load(group)

    def entries(self) -> List[LeafEntry]:
        """Every member's leaf entries, in member order."""
        return [entry for tree in self.trees
                for entry in tree.snapshot().leaf_entries()]

    def audits(self) -> List[TreeAudit]:
        """Per-member structural audits."""
        return [tree.audit() for tree in self.trees]

    def io(self) -> List[IOSnapshot]:
        """Per-member I/O counters."""
        return [tree.stats.snapshot() for tree in self.trees]

    def summaries(self) -> List[dict]:
        """Per-member ``pages`` / ``entries`` / ``height`` / ``clock``."""
        return [
            {"pages": tree.page_count, "entries": tree.leaf_entry_count,
             "height": tree.height, "clock": tree.now}
            for tree in self.trees
        ]

    def local_stores(self) -> list:
        """The members' page stores."""
        return [tree.disk for tree in self.trees]

    def checkpoint(self) -> None:
        """Checkpoint every durable member (truncates their WALs)."""
        for tree in self.trees:
            tree.checkpoint()

    def close(self) -> None:
        """Checkpoint and close every durable member's store."""
        for tree in self.trees:
            tree.close()


class PartitionedMovingObjectForest(MovingObjectIndex):
    """Routes reports to member trees; fans reads out and merges them.

    Interface-compatible with a single tree: wrap it in a
    :class:`~repro.core.scheduled.ScheduledDeletionIndex`, drive it from
    the experiment runner, or serve it behind a frontend.  Constructed
    directly it holds simulated in-process members; :meth:`create` and
    :meth:`open` put it on a directory, its members of the class's
    ``member_kind``.
    """

    #: Where the members of a :meth:`create` / :meth:`open` forest run.
    member_kind = LocalMembers
    #: The configuration :meth:`create` uses when given none.
    default_config = ForestConfig

    def __init__(
        self,
        config: Optional[ForestConfig] = None,
        clock: Optional[SimulationClock] = None,
        partitioner: Optional[Partitioner] = None,
        members=None,
    ):
        self.config = config if config is not None else ForestConfig()
        self.clock = clock if clock is not None else SimulationClock()
        self.partitioner = self._checked(self.config, partitioner)
        if members is None:
            members = LocalMembers(None, self.config, self.clock)
        self._members = members
        self._tracer = members.tracer
        self._trace_seq = 0
        self._obs_routes = None  # per-partition routing counters when on
        self._directory: Optional[str] = None

    @staticmethod
    def _checked(config: ForestConfig, partitioner) -> Partitioner:
        """``partitioner``, or the configured one; it must fit the count."""
        if partitioner is None:
            return make_partitioner(
                config.partitioner, config.partitions,
                max_speed=config.max_speed, space=config.space,
                reach=config.reach,
            )
        if partitioner.partitions != config.partitions:
            raise ValueError(
                f"partitioner has {partitioner.partitions} buckets but the "
                f"configuration asks for {config.partitions}"
            )
        return partitioner

    # -- durability ---------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        config: Optional[ForestConfig] = None,
        partitioner: Optional[Partitioner] = None,
        clock: Optional[SimulationClock] = None,
        registry=None,
        tracer=None,
    ) -> "PartitionedMovingObjectForest":
        """Create an empty forest whose members live under ``directory``.

        Each member gets its own page file and WAL in ``member<i>``; the
        ``forest.json`` manifest records the partition count, the
        partitioner and the tree configuration, and is written before
        any member exists.  ``registry`` / ``tracer`` go to the member
        kind (router-side observability for worker members).
        """
        config = config if config is not None else cls.default_config()
        partitioner = cls._checked(config, partitioner)
        os.makedirs(directory, exist_ok=True)
        _write_manifest(directory, config, partitioner)
        return cls._started(
            directory, config, partitioner, clock, False, registry, tracer
        )

    @classmethod
    def open(
        cls,
        directory: str,
        config: Optional[ForestConfig] = None,
        clock: Optional[SimulationClock] = None,
        registry=None,
        tracer=None,
    ) -> "PartitionedMovingObjectForest":
        """Open (and if needed recover) a forest directory.

        The manifest supplies the partitioner and the tree
        configuration; ``config`` (defaulting to the manifest's) must
        agree on the partition count.  Every member runs its own WAL
        recovery, and the clock resumes at the latest time any member
        committed.
        """
        path = os.path.join(directory, MANIFEST_FILENAME)
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("version") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported forest manifest version "
                f"{manifest.get('version')!r}"
            )
        partitions = manifest["partitions"]
        if config is None:
            config = ForestConfig(
                partitions=partitions,
                partitioner=manifest["partitioner"]["kind"],
                fsync=manifest["fsync"],
            )
        elif config.partitions != partitions:
            raise ValueError(
                f"configuration asks for {config.partitions} partitions "
                f"(workers) but the manifest records {partitions}"
            )
        tree = dict(manifest["tree"])
        tree["bounding"] = BoundingKind[tree["bounding"]]
        config = config.with_(tree=TreeConfig(**tree))
        partitioner = _partitioner_from_manifest(manifest["partitioner"])
        forest = cls._started(
            directory, config, partitioner, clock, True, registry, tracer
        )
        forest.clock.advance_to(
            max(summary["clock"] for summary in forest._members.summaries())
        )
        return forest

    @classmethod
    def _started(cls, directory, config, partitioner, clock, recover,
                 registry, tracer) -> "PartitionedMovingObjectForest":
        """A forest whose members start on ``directory`` (new or recovered)."""
        clock = clock if clock is not None else SimulationClock()
        members = cls.member_kind(
            directory, config, clock, recover, registry, tracer
        )
        forest = cls(config, clock, partitioner, members)
        forest._directory = directory
        return forest

    def persist_to(self, directory: str) -> List[PersistReport]:
        """Snapshot an in-process forest into a forest directory.

        Writes the manifest plus one page-store snapshot per member, and
        returns the members' :class:`~repro.storage.pagefile.PersistReport`
        records.  The forest itself keeps running on its own stores.
        """
        os.makedirs(directory, exist_ok=True)
        _write_manifest(directory, self.config, self.partitioner)
        return [
            tree.persist_to(member_directory(directory, i))
            for i, tree in enumerate(self.trees)
        ]

    def checkpoint(self) -> None:
        """Checkpoint every durable member (truncates their WALs)."""
        self._members.checkpoint()

    def close(self) -> None:
        """Checkpoint and close every member; bounded and idempotent."""
        self._members.close()

    def __enter__(self) -> "PartitionedMovingObjectForest":
        """Context-manager entry: the forest itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close every member."""
        self.close()

    # -- observability ------------------------------------------------------

    def enable_observability(self, registry=None, tracer=None) -> None:
        """Attach observability to every in-process member and the routing.

        Member ``i`` reports into a ``partition<i>`` scope of
        ``registry`` (e.g. ``partition0.tree.splits``) and counts the
        writes routed to it; the tracer is shared by all members.
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

    # -- routing and scatter --------------------------------------------------

    @property
    def partitions(self) -> int:
        """Number of members in the forest."""
        return self.config.partitions

    @property
    def trees(self) -> List[MovingObjectTree]:
        """The in-process member trees."""
        return self._members.trees

    def _route(self, op: Operation) -> List[tuple]:
        """:func:`route_op`, counting routed writes when observed."""
        targets = route_op(self.partitioner, op)
        if self._obs_routes is not None and not isinstance(op, QueryOp):
            for index, part in targets:
                self._obs_routes[index].inc(len(op_atoms(part)))
        return targets

    def _run(self, index: int, ops, trace=None, enc=None, blocked=None):
        """One member batch, sent and collected."""
        members = self._members
        return members.collect(index, members.send(index, ops, trace, enc),
                               blocked)

    def _apply_routed(self, op: Operation) -> bool:
        """Apply one write wherever :func:`route_op` sends it.

        Returns False when a deletion (an update's included) found no
        live entry.
        """
        failed = 0
        for index, part in self._route(op):
            failed += self._run(index, [part])[3]
        return failed == 0

    def insert(self, oid: int, point: MovingPoint) -> None:
        """Index a report in its partition's member."""
        self._apply_routed(InsertOp(self.clock.time, oid, point))

    def delete(self, oid: int, point: MovingPoint) -> bool:
        """Remove a report from the member its insertion chose."""
        return self._apply_routed(DeleteOp(self.clock.time, oid, point))

    def update(
        self, oid: int, old_point: MovingPoint, new_point: MovingPoint
    ) -> bool:
        """Delete the old report and insert the new one.

        One member-local update when both halves share a member, and a
        migration (delete there, insert here) otherwise.
        """
        return self._apply_routed(
            UpdateOp(self.clock.time, oid, old_point, new_point)
        )

    def _fan_out(self, name: str, impl, describe):
        """Run one scatter, ``impl(trace, enc, blocked)``, and return its result.

        ``blocked`` accumulates the seconds spent waiting on replies.
        With a router tracer (worker members) the scatter runs under a
        root span ``name`` whose trace id rides every batch (``trace``);
        it closes with the encode (``enc``) and wait stopwatches plus
        ``describe(result)``, and adopted worker spans hang under it.
        """
        blocked = [0.0]
        if self._tracer is None:
            return impl(None, None, blocked)
        with self._tracer.span(name) as root:
            self._trace_seq += 1
            root.set(trace_id=self._trace_seq)
            enc = [0.0]
            result = impl(
                TraceContext(self._trace_seq, root.span_id), enc, blocked
            )
            root.set(encode_s=enc[0], wait_s=blocked[0], **describe(result))
        return result

    def _limit(self, batch_ops: Optional[int] = None) -> float:
        """Operations per member batch before it is sent."""
        if batch_ops is not None:
            return batch_ops
        return math.inf if self._members.shares_clock else self.config.batch_ops

    def _scatter(
        self,
        ops: Sequence[Operation],
        limit: float,
        on_reply,
        trace: Optional[TraceContext],
        enc: Optional[List[float]],
        blocked: List[float],
    ) -> Dict[int, Dict[int, List[int]]]:
        """The pipelined scatter of an operation stream over the members.

        Each routed operation joins its member's pending batch in stream
        order; a batch is sent at ``limit`` operations — members sharing
        the clock also whenever it moves — and the rest at the end, with
        up to :data:`WINDOW` batches in flight per member.  Every
        acknowledgement goes to ``on_reply(member, busy, failed)``.
        Returns ``{position: {member: oids}}`` for every query in ``ops``.
        """
        members = self._members
        count = self.partitions
        buffers: List[List[Operation]] = [[] for _ in range(count)]
        metas: List[List[Optional[int]]] = [[] for _ in range(count)]
        parts: Dict[int, Dict[int, List[int]]] = {}
        # Per member, the FIFO of (handle, metas) sent and not yet
        # consumed.  It lives and dies with this scatter: if a crash
        # aborts it, the other workers' replies are discarded as stale.
        inflight: List[List[tuple]] = [[] for _ in range(count)]

        def consume(index: int) -> None:
            handle, batch_metas = inflight[index].pop(0)
            answers, _, busy, failed = members.collect(index, handle, blocked)
            on_reply(index, busy, failed)
            for offset, oids in answers:
                parts[batch_metas[offset]][index] = oids

        def flush(index: int) -> None:
            if not buffers[index]:
                return
            handle = members.send(index, buffers[index], trace, enc)
            inflight[index].append((handle, metas[index]))
            buffers[index] = []
            metas[index] = []
            while len(inflight[index]) > WINDOW:
                consume(index)

        clock = self.clock
        for position, op in enumerate(ops):
            if op.time > clock.time:
                if members.shares_clock:
                    for index in range(count):
                        flush(index)
                clock.advance_to(op.time)
            key = None
            if isinstance(op, QueryOp):
                key = position
                parts[key] = {}
            for index, part in self._route(op):
                buffers[index].append(part)
                metas[index].append(key)
                if len(buffers[index]) >= limit:
                    flush(index)
        for index in range(count):
            flush(index)
        for index in range(count):
            while inflight[index]:
                consume(index)
        return parts

    # -- reads ----------------------------------------------------------------

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Fan a query out across the reachable members and merge answers.

        A batch of one through :meth:`query_batch`'s scatter; traced, the
        fan-out's root span is ``shards.query``.
        """
        return self._fan_out(
            "shards.query",
            lambda *timing: self._scatter_queries((query,), *timing)[0],
            lambda results: {"results": len(results)},
        )

    def query_batch(
        self, queries: Sequence[SpatioTemporalQuery]
    ) -> List[List[int]]:
        """Answer K queries with one batch per reachable member.

        Each member answers its queries in one shared traversal (in
        ``config.batch_ops`` chunks for worker members).  Every answer
        concatenates its parts in *that query's own* ``query_partitions``
        order — a grid with a finite reach does not enumerate cells in
        ascending order — so the answers are bit-identical, order
        included, to ``[self.query(q) for q in queries]``.  Traced, one
        ``shards.query_batch`` span.
        """
        if not queries:
            return []
        return self._fan_out(
            "shards.query_batch",
            lambda *timing: self._scatter_queries(queries, *timing),
            lambda answers: {"queries": len(queries)},
        )

    def _scatter_queries(
        self, queries: Sequence[SpatioTemporalQuery], *timing
    ) -> List[List[int]]:
        targets = self.partitioner.scatter(queries)
        time = self.clock.time
        ops = [QueryOp(time, query) for query in queries]
        parts = self._scatter(ops, self._limit(), lambda *reply: None, *timing)
        return gather(targets, parts)

    def knn_entries(
        self, x, t: float, k: int, bound_sq: float = math.inf
    ) -> List[Tuple[float, int]]:
        """Scored forest kNN (see :meth:`MovingObjectTree.knn_entries`).

        A kNN query has no region, so it goes to *every* member,
        *sequentially*, under one **shared k-th-distance bound**: once
        ``k`` candidates are held, the running k-th distance (or the
        caller's tighter ``bound_sq``) rides the next member's request,
        so later members prune every subtree strictly beyond it.
        Candidates merge in the canonical ``(squared distance, oid)``
        order, so the answer is bit-identical to a single tree's over
        the same population.  Traced, one ``shards.query_knn`` span.
        """
        validate_knn_args(tuple(x), t, k, self.config.dims)
        x = tuple(float(c) for c in x)
        if k == 0:
            return []

        def scatter(trace, enc, blocked, bound_sq=bound_sq):
            best: List[Tuple[float, int]] = []
            for index in range(self.partitions):
                op = KnnOp(self.clock.time, x, t, k, bound_sq)
                _, scored, _, _ = self._run(index, [op], trace, enc, blocked)
                found = [pair for _, pairs in scored for pair in pairs]
                bound_sq = merge_knn(best, found, k, bound_sq)
            return best

        return self._fan_out("shards.query_knn", scatter,
                             lambda best: {"k": k, "results": len(best)})

    # -- writes in bulk -------------------------------------------------------

    def bulk_load(self, entries: Sequence[LeafEntry]) -> None:
        """Partition the population, then STR-pack each member tree.

        Requires an empty forest.  With a speed partitioner and
        ``refit_on_bulk_load``, the boundaries are first refitted to the
        population's speed quantiles, so members get comparable shares.
        """
        if self.leaf_entry_count:
            raise ValueError("bulk_load requires an empty forest")
        if (
            self.config.refit_on_bulk_load
            and entries
            and isinstance(self.partitioner, SpeedPartitioner)
        ):
            self.partitioner = SpeedPartitioner.fitted(
                [point.speed() for point, _ in entries], self.partitions
            )
            if self._directory is not None:
                # Routing is a pure function of the partitioner, so the
                # refitted boundaries must be durable before any report
                # they routed is — rewrite the manifest first.
                _write_manifest(
                    self._directory, self.config, self.partitioner
                )
        self._members.bulk_load(
            self.partitioner.split(entries), self.clock.time
        )

    def apply_ops(
        self,
        ops: Sequence[Operation],
        batch_ops: Optional[int] = None,
    ) -> ShardRunResult:
        """Replay an operation stream through per-member batches.

        The :meth:`_scatter` pipeline at ``batch_ops`` per batch
        (``config.batch_ops`` for worker members, a clock move for
        in-process ones), so workers apply while the router routes.  A
        query joins the batch of every member it reaches, so it sees
        exactly the writes before it in the stream; its answer
        concatenates the parts in ascending member order.  Traced, one
        ``shards.apply_ops`` span and trace id for the whole replay.
        """
        return self._fan_out(
            "shards.apply_ops",
            lambda *timing: self._replay(ops, batch_ops, *timing),
            lambda result: {"ops": result.ops, "batches": result.batches},
        )

    def _replay(self, ops, batch_ops, trace, enc, blocked) -> ShardRunResult:
        result = ShardRunResult(shard_busy_seconds=[0.0] * self.partitions)
        started = _time.perf_counter()
        cpu_started = _time.process_time()

        def tally(index: int, busy: float, failed: int) -> None:
            result.batches += 1
            result.shard_busy_seconds[index] += busy
            result.failed_deletes += failed

        parts = self._scatter(
            ops, self._limit(batch_ops), tally, trace, enc, blocked
        )
        result.ops = len(ops)
        result.scattered_queries = sum(len(part) for part in parts.values())
        result.answers = {
            position: [oid for index in sorted(part) for oid in part[index]]
            for position, part in parts.items()
        }
        result.wall_seconds = _time.perf_counter() - started
        result.blocked_seconds = blocked[0]
        result.router_cpu_seconds = _time.process_time() - cpu_started
        return result

    # -- aggregates -------------------------------------------------------------

    def snapshot(self) -> EntrySnapshot:
        """Every member's leaf entries, in member order (no I/O charged)."""
        return EntrySnapshot(self._members.entries(), self.now)

    def local_stores(self) -> list:
        """The page stores this process owns (see :mod:`repro.core.index`)."""
        return self._members.local_stores()

    def io_snapshot(self) -> IOSnapshot:
        """I/O counters summed over all members."""
        return sum(self._members.io(), IOSnapshot())

    @property
    def stats(self) -> IOStats:
        """The summed I/O counters, read fresh on every access.

        ``snapshot()`` / ``since()`` work as on a tree's own counters.
        """
        return IOStats(**vars(self.io_snapshot()))

    @property
    def aux_io(self) -> int:
        """Cumulative WAL writes over all (durable) members."""
        return sum(tree.aux_io for tree in self.trees)

    @property
    def height(self) -> int:
        """Height of the tallest member tree."""
        return max(summary["height"] for summary in self._members.summaries())

    @property
    def page_count(self) -> int:
        """Total index size in disk pages, across all members."""
        return sum(self.partition_page_counts())

    @property
    def leaf_entry_count(self) -> int:
        """Live leaf entries summed over all members."""
        return sum(
            summary["entries"] for summary in self._members.summaries()
        )

    def partition_page_counts(self) -> List[int]:
        """Per-member index sizes in disk pages."""
        return [summary["pages"] for summary in self._members.summaries()]

    def partition_snapshots(self) -> List[IOSnapshot]:
        """Per-member I/O counters (the per-partition breakdown)."""
        return self._members.io()

    def partition_audits(self) -> List[TreeAudit]:
        """Per-member structural audits (invariant checks)."""
        return self._members.audits()

    def partition_labels(self) -> List[str]:
        """Human-readable label for each partition slot."""
        return [self.partitioner.label(i) for i in range(self.partitions)]

    def level_occupancy(self) -> "dict[int, tuple]":
        """Per-level ``{level: (nodes, entries)}`` summed over members."""
        merged: "dict[int, tuple]" = {}
        for tree in self.trees:
            for level, (nodes, entries) in tree.level_occupancy().items():
                had_nodes, had_entries = merged.get(level, (0, 0))
                merged[level] = (had_nodes + nodes, had_entries + entries)
        return merged

    def audit(self) -> TreeAudit:
        """Forest-wide structural census (entry counts summed over members)."""
        return TreeAudit.merged(self.partition_audits())

    def check_invariants(self) -> None:
        """Raise AssertionError on structural violations in any member."""
        for tree in self.trees:
            tree.check_invariants()

