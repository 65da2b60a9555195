"""Worker members: the partitioned index with each member in a process.

:class:`WorkerMembers` runs each member of a
:class:`~repro.core.forest.PartitionedMovingObjectForest` in its own
:mod:`~repro.shard.worker` process, which owns the member's page file
and WAL.  Batches travel as packed wire records (:mod:`repro.shard.wire`)
with sequence numbers the replies echo.  :class:`ShardedForest` and
:func:`ShardConfig` are the forest and its configuration with these
members.

A worker that dies (or stays silent for :data:`REQUEST_TIMEOUT`) marks
its member *down* and raises :class:`ShardCrashError`, a retryable
:class:`~repro.storage.faults.TransientIOError`; the next operation on
the member respawns it with WAL recovery.  Unacknowledged requests are
not replayed — redelivery belongs to the caller — and every wait is
bounded, so a crash can fail an operation but never hang the router.
"""

from __future__ import annotations

import multiprocessing
import time as _time
from typing import Dict, List, Optional

from ..core.forest import (
    ForestConfig,
    PartitionedMovingObjectForest,
    member_directory,
)
from ..core.tree import LeafEntry, TreeAudit
from ..obs.metrics import MetricsRegistry
from ..storage.faults import TransientIOError
from ..storage.stats import IOSnapshot
from ..workloads.base import KnnOp
from .wire import OpCodec
from .worker import WorkerSpec, worker_main

#: Wall seconds to wait for any single reply before declaring the
#: worker dead (bulk loads get ten times as long).
REQUEST_TIMEOUT = 120.0


class ShardError(Exception):
    """Base class for shard-layer failures."""


class ShardCrashError(TransientIOError, ShardError):
    """A worker process died or stopped answering.

    Subclasses :class:`~repro.storage.faults.TransientIOError` so the
    serving frontend treats it as a retryable storage fault; the member
    revives (with WAL recovery) on the next operation that touches it.
    """


class ShardWorkerError(ShardError):
    """A worker reported an exception while serving a request."""


def ShardConfig(workers: int = 2, partitioner: str = "grid", **fields):
    """A :class:`~repro.core.forest.ForestConfig` for worker members.

    ``workers`` is the partition count; the partitioner defaults to the
    spatial grid.  Every other keyword is a ``ForestConfig`` field.
    """
    return ForestConfig(partitions=workers, partitioner=partitioner, **fields)


class _Shard:
    """Parent-side state of one worker: process, pipe, sequencing."""

    __slots__ = ("index", "directory", "process", "conn", "sent_seq", "down")

    def __init__(self, index: int, directory: str):
        self.index = index
        self.directory = directory
        self.process = None
        self.conn = None
        self.sent_seq = 0
        self.down = True


class WorkerMembers:
    """One worker process per member, driven over seq-numbered pipes.

    Spawning recovers every member's store when ``recover`` is set;
    each worker keeps its own clock, so ``clock`` is not shared.
    """

    shares_clock = False

    def __init__(self, directory, config: ForestConfig, clock, recover: bool,
                 registry: Optional[MetricsRegistry] = None, tracer=None):
        self.config = config
        self.codec = OpCodec(config.dims)
        #: Router-side observability (both optional; None = no-op path).
        self.tracer = tracer
        self.registry = registry
        self._mp = multiprocessing.get_context("spawn")
        self._shards = [
            _Shard(i, member_directory(directory, i))
            for i in range(config.partitions)
        ]
        self._closed = False
        #: Latest full stats payload per member, replaced wholesale on
        #: every piggybacked flush or explicit gather — replacement (not
        #: accumulation) of cumulative exports makes flushes idempotent.
        self.exports: Dict[int, dict] = {}
        if registry is not None:
            registry.gauge("shards.workers").set(config.partitions)
        for shard in self._shards:
            self._spawn(shard, recover)

    # -- worker lifecycle ----------------------------------------------------

    def _spawn(self, shard: _Shard, recover: bool) -> None:
        spec = WorkerSpec(
            index=shard.index,
            directory=shard.directory,
            config=self.config.member_tree_config(shard.index),
            recover=recover,
            fsync=self.config.fsync,
            observability=self.config.observability,
            tracing=self.tracer is not None,
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
        shard.down = False

    def _reap(self, shard: _Shard) -> None:
        """Tear down a worker's process and pipe without waiting long."""
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
        timeout: float = REQUEST_TIMEOUT,
        blocked: Optional[List[float]] = None,
    ) -> tuple:
        """Wait for the reply to ``seq``, dropping stale replies.

        Stale replies are the unconsumed acknowledgements of an aborted
        scatter: already applied, so only their extras are absorbed.
        """
        while True:
            reply = self._recv(shard, timeout, blocked)
            status, got = reply[0], reply[1]
            if got > seq:  # pragma: no cover - per-worker FIFO protocol
                self._fail(shard, f"reply {got} overtook request {seq}")
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

        Busy seconds feed the per-member load counters; shipped spans
        are adopted under the fan-out span that stamped the batch; a
        piggybacked stats flush *replaces* the member's stored export,
        so re-absorbing a cumulative flush never double-counts.
        """
        registry = self.registry
        if registry is not None:
            registry.counter(f"shards.shard{shard.index}.busy_s").inc(reply[3])
            registry.counter("shards.batches").inc()
        extras = reply[5]
        if not extras:
            return
        spans = extras.get("spans")
        if spans and self.tracer is not None:
            ctx = extras.get("ctx")
            parent = ctx[1] if ctx is not None and ctx[1] else None
            self.tracer.adopt(
                spans, parent_id=parent, extra_attrs={"shard": shard.index}
            )
        stats = extras.get("stats")
        if stats is not None:
            self.exports[shard.index] = stats

    def _gather(self, verb: str) -> List[tuple]:
        pending = [
            (shard, self._send(shard, verb)) for shard in self._shards
        ]
        return [self._await(shard, seq) for shard, seq in pending]

    # -- the members protocol ------------------------------------------------

    def send(self, index, ops, trace=None, enc=None):
        """Encode and send a batch; the handle is ``(seq, framed)``.

        Traced, the batch carries ``trace`` and its encode time accrues
        to ``enc``; a batch with kNN records gets a framed answer back.
        """
        if enc is None:
            payload = self.codec.encode_ops(ops)
        else:
            started = _time.perf_counter()
            payload = self.codec.encode_ops(ops, trace=trace)
            enc[0] += _time.perf_counter() - started
        framed = any(isinstance(op, KnnOp) for op in ops)
        return self._send(self._shards[index], "apply", payload), framed

    def collect(self, index, handle, blocked=None):
        """``(answers, scored, busy seconds, failed deletes)`` of a batch."""
        seq, framed = handle
        reply = self._await(self._shards[index], seq, blocked=blocked)
        if framed:
            answers, scored = self.codec.decode_answer_frame(reply[2])
        else:
            answers, scored = self.codec.decode_answers(reply[2]), []
        return answers, scored, reply[3], reply[4]

    def bulk_load(self, groups, time: float) -> None:
        """STR-pack every member with its group, all workers at once."""
        pending = [
            (shard, self._send(
                shard, "bulk", time, self.codec.encode_entries(group)
            ))
            for shard, group in zip(self._shards, groups)
        ]
        for shard, seq in pending:
            self._await(shard, seq, timeout=10 * REQUEST_TIMEOUT)

    def entries(self) -> List[LeafEntry]:
        """Every member's committed leaf entries, in member order."""
        entries: List[LeafEntry] = []
        for reply in self._gather("snapshot"):
            entries.extend(self.codec.decode_entries(reply[3]))
        return entries

    def audits(self) -> List[TreeAudit]:
        """Per-member structural audits."""
        return [reply[2] for reply in self._gather("audit")]

    def io(self) -> List[IOSnapshot]:
        """Per-member I/O counters."""
        return [IOSnapshot(**p["io"]) for p in self.summaries()]

    def summaries(self) -> List[dict]:
        """Per-member stats exports; refreshes the piggyback cache."""
        payloads = [reply[2] for reply in self._gather("stats")]
        self.exports.update(enumerate(payloads))
        return payloads

    def local_stores(self) -> list:
        """No stores here: member stores and their commits live in workers."""
        return []

    def checkpoint(self) -> None:
        """Checkpoint every member's store (truncates worker WALs)."""
        self._gather("checkpoint")

    def close(self) -> None:
        """Checkpoint and stop every worker; bounded, idempotent.

        Each live worker gets ``join_timeout`` seconds to close its
        store before it is reaped; down members stay recoverable.
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
        for shard in self._shards:
            if shard.process is not None:
                shard.process.join(timeout=self.config.join_timeout)
                self._reap(shard)

    def crash(self, index: int) -> None:
        """Ask one worker to die unannounced (tests and chaos drills)."""
        shard = self._shards[index]
        self._ensure_alive(shard)
        try:
            shard.conn.send(("crash", shard.sent_seq + 1))
            shard.sent_seq += 1
        except (BrokenPipeError, OSError):
            pass
        if shard.process is not None:
            shard.process.join(timeout=self.config.join_timeout)


class ShardedForest(PartitionedMovingObjectForest):
    """The partitioned index with every member in a worker process."""

    member_kind = WorkerMembers
    default_config = ShardConfig
    shard_directory = staticmethod(member_directory)

    def stats_payloads(self) -> List[dict]:
        """Per-member stats exports (metrics, I/O counters, sizes)."""
        return self._members.summaries()

    def registry_snapshot(self) -> MetricsRegistry:
        """Every worker's metrics, gathered now and merged into one."""
        return self._merged(self.stats_payloads(), None)

    def live_registry(self) -> MetricsRegistry:
        """The latest piggybacked worker flushes plus the router registry.

        No round trip, so safe in a serving loop; the stored exports are
        cumulative, so repeated calls are idempotent.
        """
        members = self._members
        return self._merged(members.exports.values(), members.registry)

    def _merged(self, payloads, router) -> MetricsRegistry:
        merged = MetricsRegistry()
        for payload in payloads:
            merged.merge(MetricsRegistry.from_dict(payload["metrics"]))
        if router is not None:
            merged.merge(router)
        merged.gauge("shards.workers").set(self.partitions)
        return merged

    def worker_summaries(self) -> Dict[int, dict]:
        """Latest piggybacked ``io`` / ``pages`` / ``entries`` per member."""
        exports = self._members.exports
        return {
            index: {k: v for k, v in payload.items() if k != "metrics"}
            for index, payload in sorted(exports.items())
        }

    def crash_worker(self, index: int) -> None:
        """Kill one worker unannounced, as a power loss would.

        The next operation on its member raises :class:`ShardCrashError`;
        the one after revives it through WAL recovery.
        """
        self._members.crash(index)
