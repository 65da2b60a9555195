"""The shard router: scatter-gather serving over worker processes.

:class:`ShardedForest` is the parent-side face of the sharded index.
It spawns one :mod:`~repro.shard.worker` process per shard, routes
every report through a pure :class:`~repro.core.partition.Partitioner`
(so deletions reach the shard their insertion chose without a routing
table), scatters queries to the shards whose partition can intersect
them, and gathers the merged answer.  It implements the index contract
(:mod:`repro.core.index`) plus the forest's ``bulk_load`` /
``checkpoint`` / ``close``, so it drops behind
:class:`~repro.serve.frontend.ServiceFrontend` unchanged, and adds
:meth:`ShardedForest.apply_ops`, the pipelined batch driver that
amortizes IPC across operations (the benchmark hot path).

Failure semantics are deliberately simple.  A worker that dies (or
stops answering within the request timeout) marks its shard *down* and
raises :class:`ShardCrashError` — a
:class:`~repro.storage.faults.TransientIOError`, so the serving
frontend's retry machinery applies as-is.  The next operation touching
a down shard first revives it: the worker respawns over its durable
directory and WAL recovery restores every committed batch.  Requests
the dead incarnation never acknowledged are *not* replayed by the
router (per-operation commits make partial application ambiguous);
redelivery belongs to the caller, exactly as it does for the
frontend's single-store crash path.  All waits are bounded — a crashed
worker can fail an operation, never hang the router.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import time as _time
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.clock import SimulationClock
from ..core.config import TreeConfig
from ..core.forest import (
    ForestConfig,
    _partitioner_from_manifest,
    _partitioner_manifest,
    write_manifest,
)
from ..core.index import MovingObjectIndex
from ..core.partition import Partitioner, gather, make_partitioner
from ..core.tree import EntrySnapshot, TreeAudit
from ..geometry.bounding import BoundingKind
from ..geometry.kinematics import MovingPoint
from ..geometry.knn import merge_knn, validate_knn_args
from ..geometry.queries import SpatioTemporalQuery
from ..storage.faults import TransientIOError
from ..storage.stats import IOSnapshot
from ..obs.metrics import MetricsRegistry
from ..obs.trace import TraceContext
from ..workloads.base import (
    DeleteOp,
    InsertOp,
    KnnOp,
    Operation,
    QueryOp,
    UpdateOp,
    route_op,
)
from .wire import OpCodec
from .worker import WorkerSpec, worker_main

#: File name of the shard manifest inside a sharded-index directory.
MANIFEST_FILENAME = "shards.json"


class ShardError(Exception):
    """Base class for shard-layer failures."""


class ShardCrashError(TransientIOError, ShardError):
    """A worker process died or stopped answering.

    Subclasses :class:`~repro.storage.faults.TransientIOError` so the
    serving frontend treats it as a retryable storage fault; the shard
    revives (with WAL recovery) on the next operation that touches it.
    """


class ShardWorkerError(ShardError):
    """A worker reported an exception while serving a request."""


@dataclass(frozen=True)
class ShardConfig:
    """Tunable parameters of :class:`ShardedForest`.

    Parameters
    ----------
    workers : int
        Number of shard worker processes.
    tree : TreeConfig
        Base member-tree configuration; the buffer budget divides
        across workers exactly as the in-process forest divides it
        (``split_buffer``), so a k-shard index and a single tree are
        compared on equal total buffer.
    partitioner : str
        Routing function kind: ``"grid"``, ``"speed"`` or
        ``"direction"``.
    max_speed, slow_speed, space, reach : float
        Partitioner knobs, matching
        :func:`repro.core.partition.make_partitioner`; ``reach`` (drift
        bound) enables grid query pruning when finite.
    split_buffer : bool
        Divide ``tree.buffer_pages`` across workers (on, the fair
        comparison) or give every worker the full budget.
    fsync : bool
        Whether worker write-ahead logs fsync on commit.
    observability : bool
        Run a metrics registry in every worker; exports merge in the
        parent via :meth:`ShardedForest.registry_snapshot`.
    flush_every : int
        Workers piggyback their full registry export on every Nth
        apply acknowledgement, keeping :meth:`ShardedForest.live_registry`
        current without explicit stats gathers (0 disables).
    batch_ops : int
        Maximum operations per wire batch in :meth:`ShardedForest.apply_ops`.
    window : int
        In-flight batches per shard before the router blocks on an ack.
    request_timeout : float
        Wall seconds to wait for any single reply before declaring the
        worker dead.
    join_timeout : float
        Wall seconds :meth:`ShardedForest.close` waits per worker
        before escalating to kill.
    """

    workers: int = 2
    tree: TreeConfig = field(default_factory=TreeConfig)
    partitioner: str = "grid"
    max_speed: float = 3.0
    slow_speed: float = 0.25
    space: float = 1000.0
    reach: Optional[float] = None
    split_buffer: bool = True
    fsync: bool = False
    observability: bool = True
    flush_every: int = 8
    batch_ops: int = 256
    window: int = 2
    request_timeout: float = 120.0
    join_timeout: float = 5.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if self.batch_ops < 1:
            raise ValueError(f"batch_ops must be >= 1, got {self.batch_ops}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")

    def member_tree_config(self, index: int) -> TreeConfig:
        """Worker ``index``'s tree configuration (buffer share applied)."""
        forest = ForestConfig(
            tree=self.tree,
            partitions=self.workers,
            split_buffer=self.split_buffer,
        )
        return forest.member_tree_config(index)

    def with_(self, **changes) -> "ShardConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass
class ShardRunResult:
    """What one :meth:`ShardedForest.apply_ops` replay measured.

    Attributes
    ----------
    answers : dict
        Per query: the operation's index in the input sequence mapped
        to its merged oid list (shard-order concatenation).
    ops : int
        Operations applied.
    failed_deletes : int
        Deletions (including update-deletes) that found no live entry.
    batches : int
        Wire batches sent.
    scattered_queries : int
        Per-shard query executions (equals queries times the mean
        scatter width; with pruning it can be below queries x shards).
    wall_seconds : float
        End-to-end wall time of the replay in the router.
    blocked_seconds : float
        Wall time the router spent waiting on worker replies.
    router_cpu_seconds : float
        CPU seconds the router process spent during the replay
        (routing, encoding, decoding answers) — its critical-path work
        regardless of how the host schedules the worker processes.
    shard_busy_seconds : list of float
        Per-shard worker busy time in CPU seconds (decode plus apply),
        as reported in every batch acknowledgement.
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
    def router_seconds(self) -> float:
        """Router-side critical-path work (alias of the CPU measure)."""
        return self.router_cpu_seconds

    @property
    def model_makespan_seconds(self) -> float:
        """Modeled makespan with one core per worker.

        The sequential router's CPU work plus the busiest shard's CPU
        work: on a host with at least one core per worker the shards
        run concurrently, so the replay cannot finish before the router
        is done routing nor before the slowest worker is done applying.
        All terms are per-process CPU seconds, so the model is
        scheduler-independent — on a single core the processes
        time-slice and ``wall_seconds`` stays near the *sum* of all
        terms, while on a multi-core host wall converges to this span.
        """
        busiest = max(self.shard_busy_seconds, default=0.0)
        return self.router_cpu_seconds + busiest


class _Shard:
    """Parent-side state of one worker: process, pipe, sequencing."""

    __slots__ = (
        "index", "directory", "process", "conn", "sent_seq", "acked_seq",
        "down",
    )

    def __init__(self, index: int, directory: str):
        self.index = index
        self.directory = directory
        self.process = None
        self.conn = None
        self.sent_seq = 0
        self.acked_seq = 0
        self.down = True


def _tree_config_manifest(config: TreeConfig) -> dict:
    """Serialize a tree configuration for the shard manifest."""
    payload = asdict(config)
    payload["bounding"] = config.bounding.name
    return payload


def _tree_config_from_manifest(payload: dict) -> TreeConfig:
    """Rebuild a tree configuration from its manifest form."""
    fields_ = dict(payload)
    fields_["bounding"] = BoundingKind[fields_["bounding"]]
    return TreeConfig(**fields_)


class ShardedForest(MovingObjectIndex):
    """N worker processes, one durable member tree each, one router.

    Build with :meth:`create` (fresh directory) or :meth:`open`
    (existing directory, WAL recovery per shard).  The constructor
    itself only wires state; it does not spawn workers.
    """

    def __init__(
        self,
        directory: str,
        config: ShardConfig,
        partitioner: Partitioner,
        clock: Optional[SimulationClock] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ):
        if partitioner.partitions != config.workers:
            raise ValueError(
                f"partitioner has {partitioner.partitions} buckets but the "
                f"configuration asks for {config.workers} workers"
            )
        self.directory = directory
        self.config = config
        self.partitioner = partitioner
        self.clock = clock if clock is not None else SimulationClock()
        self.codec = OpCodec(config.tree.dims)
        self._mp = multiprocessing.get_context("spawn")
        self._shards = [
            _Shard(i, self.shard_directory(directory, i))
            for i in range(config.workers)
        ]
        self._closed = False
        #: Router-side observability (both optional; None = no-op path).
        self._registry = registry
        self._tracer = tracer
        self._trace_seq = 0
        #: Latest full stats payload per shard index, replaced wholesale
        #: on every piggybacked flush or explicit gather — replacement
        #: (not accumulation) of cumulative exports is what makes
        #: repeated flushes idempotent.
        self._worker_exports: Dict[int, dict] = {}
        if registry is not None:
            registry.gauge("shards.workers").set(config.workers)

    # -- construction --------------------------------------------------------

    @staticmethod
    def shard_directory(directory: str, index: int) -> str:
        """Path of shard ``index``'s page-store directory."""
        return os.path.join(directory, f"shard{index}")

    @classmethod
    def create(
        cls,
        directory: str,
        config: Optional[ShardConfig] = None,
        partitioner: Optional[Partitioner] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> "ShardedForest":
        """Create a fresh sharded index and spawn its workers.

        ``registry`` / ``tracer`` attach router-side observability;
        with a tracer, workers spawn with tracing on and every
        scatter-gather reassembles into one cross-process span tree.
        """
        config = config if config is not None else ShardConfig()
        if partitioner is None:
            partitioner = make_partitioner(
                config.partitioner,
                config.workers,
                max_speed=config.max_speed,
                slow_speed=config.slow_speed,
                space=config.space,
                reach=config.reach,
            )
        os.makedirs(directory, exist_ok=True)
        forest = cls(
            directory, config, partitioner, registry=registry, tracer=tracer
        )
        forest._write_manifest()
        for shard in forest._shards:
            forest._spawn(shard, recover=False)
        return forest

    @classmethod
    def open(
        cls,
        directory: str,
        config: Optional[ShardConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer=None,
    ) -> "ShardedForest":
        """Reopen a sharded index; every worker runs WAL recovery.

        Like the in-process forest's ``open_from``, the clock resumes
        at the latest committed time any shard recovered.
        """
        path = os.path.join(directory, MANIFEST_FILENAME)
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        if manifest.get("version") != 1:
            raise ValueError(
                f"unsupported shard manifest version "
                f"{manifest.get('version')!r}"
            )
        stored = ShardConfig(
            workers=manifest["workers"],
            tree=_tree_config_from_manifest(manifest["tree"]),
            partitioner=manifest["partitioner"]["kind"],
            fsync=manifest["fsync"],
        )
        if config is None:
            config = stored
        elif config.workers != stored.workers:
            raise ValueError(
                f"configuration asks for {config.workers} workers but the "
                f"manifest records {stored.workers}"
            )
        else:
            config = config.with_(tree=stored.tree)
        partitioner = _partitioner_from_manifest(manifest["partitioner"])
        forest = cls(
            directory, config, partitioner, registry=registry, tracer=tracer
        )
        for shard in forest._shards:
            forest._spawn(shard, recover=True)
        forest.clock.advance_to(
            max(payload["clock"] for payload in forest.stats_payloads())
        )
        return forest

    def _write_manifest(self) -> None:
        write_manifest(
            os.path.join(self.directory, MANIFEST_FILENAME),
            {
                "version": 1,
                "workers": self.config.workers,
                "partitioner": _partitioner_manifest(self.partitioner),
                "tree": _tree_config_manifest(self.config.tree),
                "fsync": self.config.fsync,
            },
        )

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, shard: _Shard, recover: bool) -> None:
        spec = WorkerSpec(
            index=shard.index,
            directory=shard.directory,
            config=self.config.member_tree_config(shard.index),
            recover=recover,
            fsync=self.config.fsync,
            observability=self.config.observability,
            tracing=self._tracer is not None,
            flush_every=self.config.flush_every,
        )
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=worker_main,
            args=(child_conn, spec),
            daemon=True,
            name=f"repro-shard{shard.index}",
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.sent_seq = 0
        shard.acked_seq = 0
        shard.down = False

    def _reap(self, shard: _Shard) -> None:
        """Tear down a shard's process and pipe without waiting long."""
        if shard.conn is not None:
            shard.conn.close()
            shard.conn = None
        process = shard.process
        if process is not None:
            process.join(timeout=0.2)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
                if process.is_alive():  # pragma: no cover - terminate suffices
                    process.kill()
                    process.join(timeout=1.0)
            shard.process = None
        shard.down = True

    def _fail(self, shard: _Shard, reason: str) -> None:
        self._reap(shard)
        raise ShardCrashError(
            f"shard {shard.index} worker died ({reason}); the shard "
            f"revives with WAL recovery on its next operation"
        )

    def _ensure_alive(self, shard: _Shard) -> None:
        if self._closed:
            raise ShardError("sharded forest is closed")
        if shard.down:
            self._spawn(shard, recover=True)
        elif shard.process is not None and not shard.process.is_alive():
            self._fail(shard, "process exited")

    # -- request plumbing ----------------------------------------------------

    def _send(self, shard: _Shard, verb: str, *parts) -> int:
        self._ensure_alive(shard)
        shard.sent_seq += 1
        seq = shard.sent_seq
        try:
            shard.conn.send((verb, seq, *parts))
        except (BrokenPipeError, OSError):
            self._fail(shard, "pipe broken on send")
        return seq

    def _recv(
        self, shard: _Shard, timeout: float, blocked: Optional[List[float]]
    ) -> tuple:
        waited = _time.perf_counter()
        try:
            ready = shard.conn.poll(timeout)
        except (BrokenPipeError, OSError):
            self._fail(shard, "pipe broken while waiting")
        if blocked is not None:
            blocked[0] += _time.perf_counter() - waited
        if not ready:
            self._fail(shard, f"no reply within {timeout:g}s")
        try:
            reply = shard.conn.recv()
        except (EOFError, OSError):
            self._fail(shard, "pipe closed mid-reply")
        return reply

    def _await(
        self,
        shard: _Shard,
        seq: int,
        timeout: Optional[float] = None,
        blocked: Optional[List[float]] = None,
    ) -> tuple:
        """Wait for the reply to ``seq``, discarding stale replies.

        Stale replies (sequence numbers below ``seq``) exist only after
        an aborted scatter left acknowledgements unconsumed; their
        effects are already applied, so they are dropped here — after
        absorbing their observability extras, which remain valid.
        """
        timeout = timeout if timeout is not None else self.config.request_timeout
        while True:
            reply = self._recv(shard, timeout, blocked)
            status, got = reply[0], reply[1]
            if got > seq:  # pragma: no cover - per-shard FIFO protocol
                self._fail(shard, f"reply {got} overtook request {seq}")
            shard.acked_seq = got
            if status == "err":
                raise ShardWorkerError(
                    f"shard {shard.index} request failed:\n{reply[2]}"
                )
            if len(reply) == 6:  # an apply acknowledgement
                self._absorb(shard, reply)
            if got == seq:
                return reply
            # got < seq: stale acknowledgement from an aborted scatter.

    def _absorb(self, shard: _Shard, reply: tuple) -> None:
        """Fold an apply acknowledgement's observability into the router.

        Busy seconds feed the per-shard load counters; shipped span
        records are adopted into the router's tracer (re-parented under
        the wire trace context's parent span — the fan-out span that
        stamped the batch — and labelled with the shard index); a
        piggybacked stats flush *replaces* the shard's stored export,
        so re-absorbing the same cumulative flush never double-counts.
        """
        registry = self._registry
        if registry is not None:
            registry.counter(f"shards.shard{shard.index}.busy_s").inc(reply[3])
            registry.counter("shards.batches").inc()
        extras = reply[5]
        if not extras:
            return
        spans = extras.get("spans")
        if spans and self._tracer is not None:
            ctx = extras.get("ctx")
            parent = ctx[1] if ctx is not None and ctx[1] else None
            self._tracer.adopt(
                spans, parent_id=parent, extra_attrs={"shard": shard.index}
            )
        stats = extras.get("stats")
        if stats is not None:
            self._worker_exports[shard.index] = stats

    # -- the forest-like interface -------------------------------------------

    @property
    def partitions(self) -> int:
        """Number of shards (mirrors the in-process forest's property)."""
        return self.config.workers

    def local_stores(self) -> list:
        """No parent-process page stores: shard stores live in workers.

        The serving frontend uses this hook to learn that commit and
        op-sequence bookkeeping happen inside the workers.
        """
        return []

    def insert(self, oid: int, point: MovingPoint) -> None:
        """Index a report in its shard (synchronous round trip)."""
        self._apply_routed(InsertOp(self.clock.time, oid, point))

    def delete(self, oid: int, point: MovingPoint) -> bool:
        """Remove a report from the shard its insertion chose."""
        return self._apply_routed(DeleteOp(self.clock.time, oid, point))

    def update(
        self, oid: int, old_point: MovingPoint, new_point: MovingPoint
    ) -> bool:
        """Delete the old report and insert the new one.

        Routes as one shard-local update (one wire record) when both
        halves share a shard, and as a cross-shard migration (delete
        there, insert here) otherwise.
        """
        return self._apply_routed(
            UpdateOp(self.clock.time, oid, old_point, new_point)
        )

    def _apply_routed(self, op: Operation) -> bool:
        """Apply one write synchronously wherever :func:`route_op` sends it.

        Returns False when a deletion (an update's included) found no
        live entry.
        """
        failed = 0
        for index, part in route_op(self.partitioner, op):
            shard = self._shards[index]
            seq = self._send(shard, "apply", self.codec.encode_ops([part]))
            failed += self._await(shard, seq)[4]
        return failed == 0

    def _fan_out(self, name: str, impl, describe):
        """Run one scatter, ``impl(trace, enc, blocked)``, and return its result.

        ``blocked`` accumulates the seconds spent waiting on replies.
        With a router tracer the scatter runs under a root span called
        ``name`` whose fresh trace id rides every wire batch
        (``trace``), ``enc`` accumulates the encode seconds, and the
        span closes with both stopwatches plus ``describe(result)``;
        adopted worker spans hang under it, so one fan-out is one
        cross-process span tree.  Untraced, ``trace``/``enc`` are None.
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

    def _encode(
        self,
        ops: Sequence[Operation],
        trace: Optional[TraceContext],
        enc: Optional[List[float]],
    ) -> bytes:
        """Encode one wire batch; traced, stamp it and time the encode."""
        if enc is None:
            return self.codec.encode_ops(ops)
        t0 = _time.perf_counter()
        payload = self.codec.encode_ops(ops, trace=trace)
        enc[0] += _time.perf_counter() - t0
        return payload

    def query(self, query: SpatioTemporalQuery) -> List[int]:
        """Scatter a query to the reachable shards and gather answers.

        A batch of one through the :meth:`query_batch` scatter: the
        query is issued to every target before the first answer is
        collected, so shards execute concurrently; answers merge in
        ``query_partitions`` order (each object lives in exactly one
        shard, so concatenation preserves the single-tree answer
        multiset).  Under tracing the fan-out's root span is named
        ``shards.query``.
        """
        return self._fan_out(
            "shards.query",
            lambda *timing: self._scatter_queries((query,), *timing)[0],
            lambda results: {"results": len(results)},
        )

    def query_batch(
        self, queries: Sequence[SpatioTemporalQuery]
    ) -> List[List[int]]:
        """Answer K queries with one wire batch per reachable shard.

        Instead of K independent scatters, every shard receives the
        queries that reach it as packed ``apply`` batches (chunked at
        ``config.batch_ops``, riding the same pipelined in-flight
        window as :meth:`apply_ops`); each worker answers its chunk in
        one shared traversal via
        :meth:`~repro.core.tree.MovingObjectTree.query_batch`.  Every
        query's answer is assembled in *that query's own*
        ``query_partitions`` order, which is exactly the merge order of
        :meth:`query` — so the answers are bit-identical (including
        order) to ``[self.query(q) for q in queries]``.

        Under tracing, the whole batch shares one ``shards.query_batch``
        span (and one trace id across all its wire batches).
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
        targets, per_member = self.partitioner.scatter(queries)
        time = self.clock.time
        ops = [QueryOp(time, query) for query in queries]
        routed = (
            (index, ops[position], position)
            for index in sorted(per_member)
            for position in per_member[index]
        )
        parts = self._scatter(
            routed, self.config.batch_ops, lambda index, reply: None, *timing
        )
        return gather(targets, parts)

    def _scatter(
        self,
        routed: Iterable[Tuple[int, Operation, Optional[int]]],
        limit: int,
        on_reply,
        trace: Optional[TraceContext],
        enc: Optional[List[float]],
        blocked: List[float],
    ) -> Dict[int, Dict[int, List[int]]]:
        """The pipelined scatter over ``(shard index, operation, key)`` triples.

        Each operation joins its shard's pending wire batch (per-shard
        order is the stream's order); a batch is sent once it holds
        ``limit`` operations, the rest when the stream ends, and up to
        ``config.window`` batches ride in flight per shard before the
        router blocks on an acknowledgement.  Every acknowledgement
        goes to ``on_reply(shard index, reply)`` for the caller's
        tallies.  Returns ``{key: {shard index: oids}}`` for every
        non-``None`` key, in stream order; how one answer's per-shard
        parts merge is the caller's choice.
        """
        buffers: List[List[Operation]] = [[] for _ in self._shards]
        metas: List[List[Optional[int]]] = [[] for _ in self._shards]
        parts: Dict[int, Dict[int, List[int]]] = {}
        # Per shard, the FIFO of (seq, metas) sent and not yet consumed.
        # It lives and dies with this scatter: if a crash aborts it, the
        # other shards' replies are discarded as stale by _await.
        inflight: List[List[tuple]] = [[] for _ in self._shards]

        def consume(shard: _Shard) -> None:
            seq, batch_metas = inflight[shard.index].pop(0)
            reply = self._await(shard, seq, blocked=blocked)
            on_reply(shard.index, reply)
            for offset, oids in self.codec.decode_answers(reply[2]):
                parts[batch_metas[offset]][shard.index] = oids

        def flush(index: int) -> None:
            if not buffers[index]:
                return
            shard = self._shards[index]
            seq = self._send(
                shard, "apply", self._encode(buffers[index], trace, enc)
            )
            inflight[index].append((seq, metas[index]))
            buffers[index] = []
            metas[index] = []
            while len(inflight[index]) > self.config.window:
                consume(shard)

        for index, op, key in routed:
            if key is not None:
                parts.setdefault(key, {})
            buffers[index].append(op)
            metas[index].append(key)
            if len(buffers[index]) >= limit:
                flush(index)
        for index in range(self.partitions):
            flush(index)
        for shard in self._shards:
            while inflight[shard.index]:
                consume(shard)
        return parts

    def knn_entries(
        self,
        x: Sequence[float],
        t: float,
        k: int,
        bound_sq: float = math.inf,
    ) -> List[Tuple[float, int]]:
        """kNN with distances: ``(squared distance, oid)`` pairs, ascending.

        Scatters a kNN record to every shard *sequentially*, tightening
        the shared squared-distance bound between shards: once ``k``
        candidates are held, the running k-th distance rides the next
        shard's wire record as its ``bound_sq`` cutoff, so later shards
        prune their descents against everything earlier shards found.
        The merged answer is bit-identical (distances, membership and
        tie order) to a single-tree descent over the union population.
        ``bound_sq`` is an optional externally-known cutoff (candidates
        strictly farther are never returned).  Under tracing the whole
        scatter runs beneath one ``shards.query_knn`` span.

        Parameters
        ----------
        x : sequence of float
            The query location.
        t : float
            The evaluation time.
        k : int
            The number of neighbors to return.
        bound_sq : float, optional
            Squared-distance cutoff; defaults to unbounded.

        Returns
        -------
        list of (float, int)
            At most ``k`` ``(squared distance, oid)`` pairs, ascending.
        """
        validate_knn_args(tuple(x), t, k, self.config.tree.dims)
        x = tuple(float(c) for c in x)
        if k == 0:
            return []

        def scatter(trace, enc, blocked, bound_sq=bound_sq):
            best: List[Tuple[float, int]] = []
            for shard in self._shards:
                op = KnnOp(self.clock.time, x, t, k, bound_sq)
                seq = self._send(
                    shard, "apply", self._encode([op], trace, enc)
                )
                reply = self._await(shard, seq, blocked=blocked)
                _, scored = self.codec.decode_answer_frame(reply[2])
                found = [pair for _, pairs in scored for pair in pairs]
                bound_sq = merge_knn(best, found, k, bound_sq)
            return best

        return self._fan_out(
            "shards.query_knn",
            scatter,
            lambda best: {"k": k, "results": len(best)},
        )

    def bulk_load(self, entries: Sequence[Tuple[MovingPoint, int]]) -> None:
        """Partition a population and STR-pack every shard's tree."""
        groups = self.partitioner.split(entries)
        pending: List[Tuple[_Shard, int]] = []
        for shard, group in zip(self._shards, groups):
            payload = self.codec.encode_entries(group)
            pending.append((
                shard,
                self._send(shard, "bulk", self.clock.time, payload),
            ))
        for shard, seq in pending:
            self._await(shard, seq, timeout=10 * self.config.request_timeout)

    # -- batched replay ------------------------------------------------------

    def apply_ops(
        self,
        ops: Sequence[Operation],
        batch_ops: Optional[int] = None,
    ) -> ShardRunResult:
        """Replay an operation stream through per-shard wire batches.

        Operations are routed into per-shard buffers and flushed as
        packed batches of up to ``batch_ops`` records; up to
        ``config.window`` batches ride in flight per shard before the
        router blocks on an acknowledgement, so shards decode and apply
        while the router keeps routing — the IPC-amortized hot path.
        A query joins the pending batch of every shard it scatters to
        (order within each shard is preserved, so every query sees
        exactly the writes that precede it in the stream), and its
        merged answer is assembled from the per-shard acknowledgements
        at the end of the replay.

        Under tracing, the whole replay shares one ``shards.apply_ops``
        span and one trace id across every wire batch it sends.
        """
        return self._fan_out(
            "shards.apply_ops",
            lambda *timing: self._replay(ops, batch_ops, *timing),
            lambda result: {"ops": result.ops, "batches": result.batches},
        )

    def _replay(self, ops, batch_ops, trace, enc, blocked) -> ShardRunResult:
        limit = batch_ops if batch_ops is not None else self.config.batch_ops
        result = ShardRunResult(shard_busy_seconds=[0.0] * self.partitions)
        started = _time.perf_counter()
        cpu_started = _time.process_time()

        def routed():
            for op_index, op in enumerate(ops):
                self.clock.advance_to(op.time)
                targets = route_op(self.partitioner, op)
                key = None
                if isinstance(op, QueryOp):
                    key = op_index
                    result.scattered_queries += len(targets)
                result.ops += 1
                for index, part in targets:
                    yield index, part, key

        def tally(index: int, reply: tuple) -> None:
            result.batches += 1
            result.shard_busy_seconds[index] += reply[3]
            result.failed_deletes += reply[4]

        parts = self._scatter(routed(), limit, tally, trace, enc, blocked)
        # Shard-order concatenation, as ShardRunResult documents — not
        # query_batch's per-query target order.
        result.answers = {
            op_index: [
                oid
                for shard_index in sorted(shard_parts)
                for oid in shard_parts[shard_index]
            ]
            for op_index, shard_parts in parts.items()
        }
        result.wall_seconds = _time.perf_counter() - started
        result.blocked_seconds = blocked[0]
        result.router_cpu_seconds = _time.process_time() - cpu_started
        return result

    # -- durability and lifecycle --------------------------------------------

    def checkpoint(self) -> None:
        """Checkpoint every shard's store (truncates worker WALs)."""
        self._gather("checkpoint")

    def close(self) -> None:
        """Checkpoint and stop every worker; bounded, idempotent.

        Live workers get a ``close`` request (checkpoint plus store
        close) and ``join_timeout`` seconds to comply before being
        reaped; down shards stay recoverable through their WALs.  A
        worker that died since its last acknowledgement is reaped
        rather than raising — closing must always terminate.
        """
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            if shard.down or shard.conn is None:
                continue
            try:
                shard.conn.send(("close", shard.sent_seq + 1))
                shard.sent_seq += 1
            except (BrokenPipeError, OSError):
                self._reap(shard)
                continue
        for shard in self._shards:
            process = shard.process
            if process is None:
                continue
            process.join(timeout=self.config.join_timeout)
            self._reap(shard)

    def __enter__(self) -> "ShardedForest":
        """Context-manager entry: the forest itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close every worker (bounded)."""
        self.close()

    # -- gathers -------------------------------------------------------------

    def _gather(self, verb: str) -> List[tuple]:
        pending = [
            (shard, self._send(shard, verb)) for shard in self._shards
        ]
        return [self._await(shard, seq) for shard, seq in pending]

    def snapshot(self) -> EntrySnapshot:
        """Gather every shard's committed leaf entries for degraded reads."""
        entries: List[Tuple[MovingPoint, int]] = []
        for reply in self._gather("snapshot"):
            entries.extend(self.codec.decode_entries(reply[3]))
        return EntrySnapshot(entries, self.clock.time)

    def stats_payloads(self) -> List[dict]:
        """Per-shard stats exports (metrics, I/O counters, sizes).

        An explicit gather; it also refreshes the piggyback cache
        behind :meth:`live_registry` / :meth:`worker_summaries`.
        """
        payloads = [reply[2] for reply in self._gather("stats")]
        for index, payload in enumerate(payloads):
            self._worker_exports[index] = payload
        return payloads

    def io_snapshot(self) -> IOSnapshot:
        """Summed I/O counters across all shards."""
        return sum(
            (IOSnapshot(**p["io"]) for p in self.stats_payloads()),
            IOSnapshot(),
        )

    def registry_snapshot(self) -> MetricsRegistry:
        """Merge every worker's metrics export into one parent registry.

        Counters sum, gauges sum and histograms merge bucket-wise (see
        :meth:`repro.obs.metrics.MetricsRegistry.merge`), so
        ``tree.*`` totals read exactly like a single tree's.
        """
        merged = MetricsRegistry()
        for payload in self.stats_payloads():
            merged.merge(MetricsRegistry.from_dict(payload["metrics"]))
        merged.gauge("shards.workers").set(self.partitions)
        return merged

    def live_registry(self) -> MetricsRegistry:
        """Merge the latest piggybacked worker flushes, without a gather.

        Like :meth:`registry_snapshot` but built entirely from the
        stats flushes workers piggyback on apply acknowledgements
        (``config.flush_every``) plus the router's own registry — no
        round trips, so it is safe to call from a serving loop.  Each
        call merges fresh from the stored cumulative exports, so
        repeated calls (and repeated identical flushes) are idempotent.
        Shards that have not flushed yet simply contribute nothing.
        """
        merged = MetricsRegistry()
        for payload in self._worker_exports.values():
            merged.merge(MetricsRegistry.from_dict(payload["metrics"]))
        if self._registry is not None:
            merged.merge(self._registry)
        merged.gauge("shards.workers").set(self.partitions)
        return merged

    def worker_summaries(self) -> Dict[int, dict]:
        """Latest per-shard size/I-O summaries from the piggyback cache.

        Maps shard index to its most recent stats payload (``io``,
        ``pages``, ``entries``, ``height``) — live to within
        ``config.flush_every`` applies, no round trip.
        """
        return {
            index: {k: v for k, v in payload.items() if k != "metrics"}
            for index, payload in sorted(self._worker_exports.items())
        }

    @property
    def page_count(self) -> int:
        """Total index size in disk pages, across all shards."""
        return sum(p["pages"] for p in self.stats_payloads())

    @property
    def leaf_entry_count(self) -> int:
        """Total live-tree leaf entries across all shards."""
        return sum(p["entries"] for p in self.stats_payloads())

    def audit(self) -> TreeAudit:
        """Shard-wide structural census (counts summed over shards)."""
        return TreeAudit.merged(
            [reply[2] for reply in self._gather("audit")]
        )

    # -- test hooks ----------------------------------------------------------

    def crash_worker(self, index: int) -> None:
        """Ask one worker to die unannounced (tests and chaos drills).

        The router's state is deliberately left untouched: like a real
        power loss, the death is discovered by the next operation that
        touches the shard, which raises :class:`ShardCrashError`; the
        operation after that revives the shard through WAL recovery.
        """
        shard = self._shards[index]
        self._ensure_alive(shard)
        try:
            shard.conn.send(("crash", shard.sent_seq + 1))
            shard.sent_seq += 1
        except (BrokenPipeError, OSError):
            pass
        if shard.process is not None:
            shard.process.join(timeout=self.config.join_timeout)
