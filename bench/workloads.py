"""The four workloads: how each builds, opens, drives, crashes and recovers.

A scenario turns a seed into a :class:`Plan` (population, warm-up and
the steps of one rep) and owns its deployment's lifecycle; the harness
owns timing, checking and statistics.  All four share the repo's
``medium`` tree configuration and the Section 5.1 network generator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.partition import GridPartitioner
from repro.core.tree import MovingObjectTree
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.obs import MetricsRegistry
from repro.replication import (
    OnlineMaintainer,
    Replica,
    ReplicaLink,
    ShippingChannel,
    WalShipper,
)
from repro.serve.subscriptions import SubscriptionIndex
from repro.shard import ShardConfig, ShardedForest
from repro.storage.pagefile import PAGES_FILENAME, WAL_FILENAME, FilePageStore
from repro.workloads.base import InsertOp, QueryOp

from .spans import Recorder, spanned
from .stream import (
    SPACE,
    SPEEDS,
    Model,
    QueryMaker,
    Step,
    StreamSpec,
    digest,
    generate_stream,
    model_after,
    step_writes,
    stream_steps,
    take,
)

#: The repo's ``medium`` scale: 2 KB pages, a 12-page buffer pool,
#: near-optimal TPBRs (the R^exp-tree defaults).
TREE_CONFIG = TreeConfig(page_size=2048, buffer_pages=12)

QUERY_SPAN = {
    TimesliceQuery: "core.tree.query.timeslice",
    WindowQuery: "core.tree.query.window",
    MovingQuery: "core.tree.query.moving",
}


@dataclass(frozen=True)
class Sizing:
    """What ``--population`` and ``--reps`` may override (nonstandard).

    The issue sized the protocol at 8,000 entries and a 6-10 s rep; the
    driver's run-time cap leaves a quarter of that, so the population
    shrank (before the rep count) until five reps of at least 1,000
    timed ops fit.  2,000 entries still span three times the buffer
    pool.  The warm-up outlasts the split/reinsert storm a freshly
    packed tree goes through (its first ~250 updates here).
    """

    population: int = 2000
    warmup: int = 400
    reps: int = 4
    min_reps: int = 3


@dataclass
class Plan:
    """Everything a run needs, derived from the seed alone."""

    entries: list
    t_cut: float
    warmup: List[Step]
    steps: List[Step]
    standing: list = field(default_factory=list)

    def digest(self) -> str:
        """Hash of the inputs, for the determinism checks."""
        return digest((self.entries, self.warmup, self.steps, self.standing))


@dataclass
class Trace:
    """What the traced pass attaches to a deployment."""

    recorder: Recorder
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)


class TimingStore(FilePageStore):
    """A page store that spans and counts its group commits.

    Injected through the tree's public ``store=`` argument in the traced
    pass; behaviour and I/O accounting are the parent's.
    """

    recorder: Optional[Recorder] = None
    commits = 0
    records = 0

    def commit(self) -> None:
        """Commit inside a ``storage.pagefile.commit`` span."""
        before = self.wal.records_appended
        spanned(self.recorder, "storage.pagefile.commit", super().commit)
        appended = self.wal.records_appended - before
        if appended:
            self.commits += 1
            self.records += appended


def _primary(directory: str) -> str:
    return os.path.join(directory, "primary")


def _file_bytes(directories, filename: str) -> int:
    return sum(
        os.path.getsize(os.path.join(d, filename)) for d in directories
    )


def tree_step(tree, step: Step, rec: Optional[Recorder] = None):
    """One step against a ``MovingObjectTree``, spanned when traced."""
    tree.clock.advance_to(step.time)
    op = step.payload
    if step.kind == "write":
        if isinstance(op, InsertOp):
            return spanned(
                rec, "core.tree.update", tree.insert, op.oid, op.point
            )
        return spanned(
            rec, "core.tree.update",
            tree.update, op.oid, op.old_point, op.new_point,
        )
    if step.kind == "query":
        return spanned(rec, QUERY_SPAN[type(op.query)], tree.query, op.query)
    if step.kind == "batch":
        return spanned(rec, "core.tree.query_batch", tree.query_batch, op)
    if step.kind == "knn":
        return spanned(rec, "core.tree.knn", tree.query_knn, op.x, op.t, op.k)
    raise ValueError(f"a tree has no {step.kind!r} step")


class IngestDurable:
    """One durable tree fed the update stream, 1 query per 100 insertions."""

    name = "ingest_durable"
    spec = StreamSpec(expt=120.0, window=30.0, queries_per_100=1)
    timed_insertions = 1000

    # -- inputs ---------------------------------------------------------------

    def plan(self, seed: int, sizing: Sizing) -> Plan:
        """Cut the population, then warm-up and one rep of the stream."""
        stream = generate_stream(
            seed, sizing.population, self.spec,
            sizing.warmup + self.timed_insertions,
        )
        warm, at = take(stream.tail, 0, sizing.warmup)
        timed, _ = take(stream.tail, at, self.timed_insertions)
        return Plan(
            stream.entries, stream.t_cut,
            stream_steps(warm, timed=False), stream_steps(timed, timed=True),
        )

    # -- lifecycle ------------------------------------------------------------

    def store_dirs(self, directory: str) -> List[str]:
        """Primary-side store directories (space and WAL are read here)."""
        return [_primary(directory)]

    def build(self, plan: Plan, directory: str) -> Dict[str, float]:
        """Bulk load, warm up, checkpoint and close into ``directory``."""
        clock = SimulationClock()
        clock.advance_to(plan.t_cut)
        started = perf_counter()
        tree = MovingObjectTree.create_durable(
            _primary(directory), TREE_CONFIG, clock
        )
        tree.bulk_load(plan.entries)
        loaded = perf_counter()
        for step in plan.warmup:
            tree_step(tree, step)
        tree.close()
        return {
            "core.bulkload.load_s": loaded - started,
            "core.tree.warmup_s": perf_counter() - loaded,
        }

    def _open_tree(self, directory: str, trace: Optional[Trace]):
        if trace is None:
            return MovingObjectTree.open_from(
                directory, TREE_CONFIG, SimulationClock()
            )
        clock = SimulationClock()
        store = TimingStore.open_dir(
            directory, TREE_CONFIG.layout(), now=clock.now,
            registry=trace.registry,
        )
        clock.advance_to(store.opened_clock_time)
        store.recorder = trace.recorder
        tree = MovingObjectTree(TREE_CONFIG, clock, store=store)
        tree.enable_observability(trace.registry)
        return tree

    def open(self, directory: str, plan: Plan, trace: Optional[Trace] = None):
        """Reopen a copy of the snapshot through the public open path."""
        tree = self._open_tree(_primary(directory), trace)
        return SimpleNamespace(
            tree=tree, registry=trace.registry if trace else None,
            io0=tree.stats.reads + tree.stats.writes,
            wal0=tree.disk.wal.bytes_appended,
        )

    def execute(self, dep, step: Step, rec: Optional[Recorder] = None):
        """Make one call into the tree's public API."""
        return tree_step(dep.tree, step, rec)

    def mark(self, dep) -> int:
        """The store's commit sequence number (journals replica lag)."""
        return dep.tree.disk.op_seq

    def counters(self, dep, directory: str) -> Dict[str, float]:
        """Primary-side page I/O, log bytes and page-file bytes so far."""
        tree = dep.tree
        return {
            "io": tree.stats.reads + tree.stats.writes - dep.io0,
            "wal_bytes": tree.disk.wal.bytes_appended - dep.wal0,
            "store_bytes": _file_bytes(
                self.store_dirs(directory), PAGES_FILENAME
            ),
        }

    def registry(self, dep) -> MetricsRegistry:
        """The traced deployment's counters, one registry for all shapes."""
        return dep.registry

    def audit(self, dep):
        """Structural census of the primary-side index."""
        return dep.tree.audit()

    def crash(self, dep) -> None:
        """Process death: no checkpoint, no close, no flush."""
        dep.tree.disk.abandon()

    def recover(self, directory: str, probe):
        """Crash-recover and answer one query; both are timed."""
        tree = MovingObjectTree.open_from(
            _primary(directory), TREE_CONFIG, SimulationClock()
        )
        return SimpleNamespace(tree=tree), tree.query(probe)

    def live_entries(self, dep) -> list:
        """Every physical leaf entry of the deployment."""
        return list(dep.tree.snapshot().leaf_entries())

    def close(self, dep) -> None:
        """Release the deployment's files and processes."""
        dep.tree.disk.abandon()


class QueryClasses(IngestDurable):
    """Timed reads of every class between untimed churn on the same tree."""

    name = "query_classes"
    rounds = 10
    churn = 20
    singles = 300
    batches = 4
    batch_size = 64
    knns = 60

    def plan(self, seed: int, sizing: Sizing) -> Plan:
        """Ten rounds of [churn, singles, batches, kNN probes]."""
        stream = generate_stream(
            seed, sizing.population, self.spec,
            sizing.warmup + self.rounds * self.churn,
        )
        warm, at = take(stream.tail, 0, sizing.warmup)
        warmup = stream_steps(warm, timed=False)
        known = model_after(stream.entries, warmup)
        maker = QueryMaker(seed + 1, self.spec.window)
        steps: List[Step] = []
        for _ in range(self.rounds):
            # Churn advances the clock and invalidates the packed node
            # caches, so a cache that speeds writes but costs re-packing
            # on reads shows up in the timed reads that follow.
            churn, at = take(stream.tail, at, self.churn)
            for step in stream_steps(churn, timed=False):
                steps.append(step)
                for op in step_writes(step):
                    known.write(op)
            now = churn[-1].time
            points = list(known.points.values())
            steps += [
                Step("query", now, QueryOp(now, query))
                for query in maker.ranges(now, points, self.singles)
            ]
            steps += [
                Step("batch", now,
                     maker.ranges(now, points, self.batch_size),
                     True, self.batch_size)
                for _ in range(self.batches)
            ]
            steps += [
                Step("knn", now, maker.knn(now)) for _ in range(self.knns)
            ]
        return Plan(stream.entries, stream.t_cut, warmup, steps)


class ShardedStream:
    """The stream through ``apply_ops`` batches into two worker processes."""

    name = "sharded_stream"
    spec = StreamSpec(expt=120.0, window=30.0, queries_per_100=10)
    batches = 1024
    batch_ops = 1
    scatter_every = 512
    scatter_queries = 32
    scatter_knns = 4
    #: How far a live entry can drift from its report: vmax * ExpT.
    reach = max(SPEEDS) * spec.expt

    def __init__(self) -> None:
        self.workers = min(2, os.cpu_count() or 1)

    def plan(self, seed: int, sizing: Sizing) -> Plan:
        """128-op batches; every 4th is followed by scatter reads."""
        stream = generate_stream(
            seed, sizing.population, self.spec,
            sizing.warmup + self.batches * self.batch_ops,
        )
        warm, at = take(stream.tail, 0, sizing.warmup)
        known = Model(stream.entries)
        maker = QueryMaker(seed + 1, self.spec.window)

        def chunks(ops, timed):
            for start in range(0, len(ops), self.batch_ops):
                chunk = ops[start:start + self.batch_ops]
                step = Step("apply", chunk[-1].time, chunk, timed, len(chunk))
                for op in step_writes(step):
                    known.write(op)
                yield step

        warmup = list(chunks(warm, False))
        steps: List[Step] = []
        timed = stream.tail[at:at + self.batches * self.batch_ops]
        for number, step in enumerate(chunks(timed, True), start=1):
            steps.append(step)
            if number % self.scatter_every == 0:
                now = step.time
                points = list(known.points.values())
                steps.append(Step(
                    "batch", now,
                    maker.ranges(now, points, self.scatter_queries),
                    True, self.scatter_queries,
                ))
                steps += [
                    Step("knn", now, maker.knn(now))
                    for _ in range(self.scatter_knns)
                ]
        return Plan(stream.entries, stream.t_cut, warmup, steps)

    def _config(self, observability: bool) -> ShardConfig:
        return ShardConfig(
            workers=self.workers, tree=TREE_CONFIG, space=SPACE,
            reach=self.reach, observability=observability,
            batch_ops=self.batch_ops,
        )

    def store_dirs(self, directory: str) -> List[str]:
        """One store directory per shard."""
        return [
            ShardedForest.shard_directory(directory, index)
            for index in range(self.workers)
        ]

    def build(self, plan: Plan, directory: str) -> Dict[str, float]:
        """Fit the grid, bulk load every shard, warm up, close."""
        started = perf_counter()
        partitioner = GridPartitioner.fitted(
            [point.pos for point, _ in plan.entries], self.workers, 1,
            space=SPACE, reach=self.reach,
        )
        forest = ShardedForest.create(
            directory, self._config(False), partitioner
        )
        try:
            forest.clock.advance_to(plan.t_cut)
            forest.bulk_load(plan.entries)
            loaded = perf_counter()
            dep = SimpleNamespace(forest=forest, runs=[])
            for step in plan.warmup:
                self.execute(dep, step)
        finally:
            forest.close()
        return {
            "core.bulkload.load_s": loaded - started,
            "core.tree.warmup_s": perf_counter() - loaded,
        }

    def open(self, directory: str, plan: Plan, trace: Optional[Trace] = None):
        """Respawn the workers; each recovers its own shard."""
        forest = ShardedForest.open(
            directory, self._config(trace is not None)
        )
        # The gather also waits until every worker is up, so spawn time
        # never lands in the first timed batch.
        io0 = forest.io_snapshot()
        return SimpleNamespace(
            forest=forest, runs=[], io0=io0.reads + io0.writes,
            wal0=_file_bytes(self.store_dirs(directory), WAL_FILENAME),
        )

    def execute(self, dep, step: Step, rec: Optional[Recorder] = None):
        """One router call: a batch of the stream or a scatter read."""
        forest = dep.forest
        forest.clock.advance_to(step.time)
        op = step.payload
        if step.kind == "apply":
            result = spanned(
                rec, "shard.router.apply_ops", forest.apply_ops, op
            )
            dep.runs.append(result)
            return sorted(result.answers.items())
        if step.kind == "batch":
            return spanned(
                rec, "shard.router.query_batch", forest.query_batch, op
            )
        if step.kind == "knn":
            return spanned(
                rec, "shard.router.query_knn",
                forest.query_knn, op.x, op.t, op.k,
            )
        raise ValueError(f"{self.name} has no {step.kind!r} step")

    def mark(self, dep) -> int:
        """Shard stores commit inside the workers; nothing to journal."""
        return 0

    def counters(self, dep, directory: str) -> Dict[str, float]:
        """Summed worker I/O; log and page-file growth from the files."""
        dirs = self.store_dirs(directory)
        io = dep.forest.io_snapshot()
        return {
            "io": io.reads + io.writes - dep.io0,
            "wal_bytes": _file_bytes(dirs, WAL_FILENAME) - dep.wal0,
            "store_bytes": _file_bytes(dirs, PAGES_FILENAME),
        }

    def registry(self, dep) -> MetricsRegistry:
        """Every worker's registry merged in the parent."""
        return dep.forest.registry_snapshot()

    def audit(self, dep):
        """Shard-wide structural census."""
        return dep.forest.audit()

    def crash(self, dep) -> None:
        """Kill every worker, then reap what is left of them."""
        for index in range(self.workers):
            dep.forest.crash_worker(index)
        dep.forest.close()

    def recover(self, directory: str, probe):
        """Respawn with WAL recovery; the scatter waits for every shard."""
        forest = ShardedForest.open(directory, self._config(False))
        forest.clock.advance_to(probe.t)
        return SimpleNamespace(forest=forest, runs=[]), forest.query(probe)

    def live_entries(self, dep) -> list:
        """Leaf entries gathered from every shard."""
        return list(dep.forest.snapshot().leaf_entries())

    def close(self, dep) -> None:
        """Stop the workers (bounded; waits for each to end)."""
        self.crash(dep)


class ExpiringReplicated(IngestDurable):
    """Expiry outpaces updates; a replica, a maintainer, standing queries."""

    name = "expiring_replicated"
    spec = StreamSpec(
        expt=30.0, window=15.0, new_objects=2.0, queries_per_100=10,
        population_scale=0.5,
    )
    timed_insertions = 910
    standing_queries = 200
    replica_every = 4
    poll_every = 8
    wal_soft_limit = 256 * 1024

    def plan(self, seed: int, sizing: Sizing) -> Plan:
        """As ingest, with every 4th query sent to the replica."""
        plan = super().plan(seed, sizing)
        queries = 0
        for index, step in enumerate(plan.steps):
            if step.kind == "query":
                queries += 1
                if queries % self.replica_every == 0:
                    plan.steps[index] = step._replace(kind="replica_query")
        known = model_after(plan.entries, plan.warmup)
        now = plan.warmup[-1].time
        plan.standing = QueryMaker(seed + 1, self.spec.window).ranges(
            now, list(known.points.values()), self.standing_queries
        )
        return plan

    def _replica_dir(self, directory: str) -> str:
        return os.path.join(directory, "replica")

    def open(self, directory: str, plan: Plan, trace: Optional[Trace] = None):
        """Primary, shipper, bootstrapped replica, maintainer, link, subs."""
        dep = super().open(directory, plan, trace)
        tree, registry = dep.tree, dep.registry
        shipper = WalShipper(_primary(directory), registry=registry)
        dep.replica = Replica.bootstrap(
            tree.disk, shipper, self._replica_dir(directory),
            registry=registry,
        )
        dep.maintainer = OnlineMaintainer(
            tree.disk, wal_soft_limit=self.wal_soft_limit, registry=registry
        )
        dep.link = ReplicaLink(
            ShippingChannel(shipper, registry=registry), dep.replica,
            dep.maintainer, promote_config=TREE_CONFIG, registry=registry,
            poll_every=self.poll_every,
        )
        dep.subs = SubscriptionIndex(space=SPACE, registry=registry)
        for query in plan.standing:
            dep.subs.register(query)
        dep.subs.advance_to(tree.now)
        for point, oid in tree.snapshot().leaf_entries():
            dep.subs.notify_insert(oid, point)
        # Bootstrapping checkpointed the primary; what it cost is set-up.
        dep.io0 = tree.stats.reads + tree.stats.writes
        dep.wal0 = tree.disk.wal.bytes_appended
        return dep

    @staticmethod
    def _notify(subs: SubscriptionIndex, time: float, op) -> None:
        subs.advance_to(time)
        if op is not None:
            point = op.point if isinstance(op, InsertOp) else op.new_point
            subs.notify_insert(op.oid, point)

    def execute(self, dep, step: Step, rec: Optional[Recorder] = None):
        """The op, then what a serving loop does after it: notify, tick."""
        if step.kind == "replica_query":
            dep.tree.clock.advance_to(step.time)
            answer = spanned(
                rec, "replication.replica.query",
                dep.replica.query, step.payload.query,
            )
        else:
            answer = super().execute(dep, step, rec)
        spanned(
            rec, "serve.subscriptions.notify", self._notify, dep.subs,
            step.time, step.payload if step.kind == "write" else None,
        )
        spanned(rec, "replication.link.tick", dep.link.tick)
        return answer

    def crash(self, dep) -> None:
        """The primary dies; the follower's handle goes with the link."""
        super().crash(dep)
        dep.replica.close()

    def recover(self, directory: str, probe):
        """Rebuild the link over the directories and promote the replica."""
        shipper = WalShipper(_primary(directory))
        replica = Replica(
            self._replica_dir(directory), TREE_CONFIG.layout()
        )
        link = ReplicaLink(
            ShippingChannel(shipper), replica, promote_config=TREE_CONFIG
        )
        tree, _ = link.failover()
        return SimpleNamespace(tree=tree), tree.query(probe)


SCENARIOS = {
    cls.name: cls
    for cls in (IngestDurable, QueryClasses, ShardedStream, ExpiringReplicated)
}
