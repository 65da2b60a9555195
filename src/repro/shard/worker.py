"""The shard worker process: one durable member tree behind a pipe.

``worker_main`` is the ``spawn`` entry point of every shard.  A worker
owns exactly one :class:`~repro.core.tree.MovingObjectTree` backed by a
durable :class:`~repro.storage.pagefile.FilePageStore` (its own page
file, write-ahead log and buffer budget) and serves a simple
request/reply protocol over its end of a ``multiprocessing`` pipe:
operation batches to apply, stats/snapshot/audit gathers, checkpoints
and a clean close.  Requests carry a sequence number that the reply
echoes; the router matches them FIFO since the worker is strictly
sequential.

Every ``apply`` reply reports the worker's busy time: *CPU seconds*
(``time.process_time``) spent decoding and applying the batch, so the
number measures the shard's actual work even when many workers
time-slice one core — wall clocks would count the neighbours'
slices too.  The shard benchmark sums these per shard to model the
scatter-gather critical path on a machine with one core per worker —
see ``benchmarks/bench_shards.py``.

A worker never shares state with the parent: the tree, clock, metrics
registry and page store all live in this process, and everything that
crosses the pipe is a packed batch (:mod:`repro.shard.wire`) or a small
picklable summary.
"""

from __future__ import annotations

import os
import time as _time
import traceback
from dataclasses import asdict, dataclass
from typing import Optional

from ..core.clock import SimulationClock
from ..core.config import TreeConfig
from ..core.tree import MovingObjectTree
from ..obs.metrics import MetricsRegistry
from ..obs.trace import Tracer
from ..workloads.base import KnnOp, QueryOp, apply_op
from .wire import OpCodec

#: Span name a worker records around one applied batch; the router
#: adopts these (re-parented under its fan-out span) and ``repro top``
#: keys its worker-stage arithmetic on the name.
BATCH_SPAN = "worker.batch"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs to build (or reopen) its tree.

    Parameters
    ----------
    index : int
        Shard index, for error messages and metric labels.
    directory : str
        The shard's page-store directory.
    config : TreeConfig
        Member-tree configuration (buffer budget already applied).
    recover : bool
        Reopen an existing store (running WAL recovery) instead of
        creating a fresh one.
    fsync : bool
        Whether the worker's write-ahead log fsyncs on commit.
    observability : bool
        Attach a per-worker metrics registry to the tree; its export
        ships back on ``stats`` requests for parent-side merging.
    tracing : bool
        Run a per-worker :class:`~repro.obs.trace.Tracer`; each apply
        reply then carries the batch's span records (plus any wire
        trace context) for router-side adoption.
    flush_every : int
        Piggyback the worker's full registry export on every Nth apply
        reply, so router-side stats stay live without explicit gathers
        (0 disables the piggyback).
    """

    index: int
    directory: str
    config: TreeConfig
    recover: bool = False
    fsync: bool = False
    observability: bool = True
    tracing: bool = False
    flush_every: int = 8


def _build_tree(
    spec: WorkerSpec,
    clock: SimulationClock,
    registry: Optional[MetricsRegistry],
    tracer: Optional[Tracer] = None,
) -> MovingObjectTree:
    """Create or recover the worker's durable member tree."""
    if spec.recover:
        # open_from hands registry/tracer to the page store only (so
        # recovery itself is observed); the tree attaches below.
        tree = MovingObjectTree.open_from(
            spec.directory, spec.config, clock,
            fsync=spec.fsync, registry=registry, tracer=tracer,
        )
    else:
        tree = MovingObjectTree.create_durable(
            spec.directory, spec.config, clock, fsync=spec.fsync
        )
    if registry is not None or tracer is not None:
        tree.enable_observability(registry, tracer)
    return tree


def _apply_batch(tree, clock, codec, payload):
    """Apply one decoded batch.

    Returns ``(answers bytes, failed deletes, trace context, op
    count)`` — the trace context is the wire batch's, ``None`` when the
    router sent it untraced.

    Runs of consecutive queries at the same timestamp are answered
    through :meth:`~repro.core.tree.MovingObjectTree.query_batch` — one
    shared traversal for the whole run — whose answers are bit-identical
    to querying them one by one, so a router-side query batch costs the
    shard a single descent per shared node.

    A batch containing kNN records yields a *framed* answer block
    (range answers then scored answers); the router knows to expect the
    frame because it built the batch with kNN ops in it.
    """
    answers = []
    scored = []
    failed_deletes = 0
    ops, trace = codec.decode_ops_traced(payload)
    total = len(ops)
    position = 0
    while position < total:
        op = ops[position]
        clock.advance_to(op.time)
        if isinstance(op, QueryOp):
            stop = position + 1
            while (
                stop < total
                and isinstance(ops[stop], QueryOp)
                and ops[stop].time == op.time
            ):
                stop += 1
            run = [ops[i].query for i in range(position, stop)]
            for offset, oids in enumerate(tree.query_batch(run)):
                answers.append((position + offset, oids))
            position = stop
            continue
        outcome = apply_op(tree, op)
        if isinstance(op, KnnOp):
            scored.append((position, outcome))
        elif outcome is False:
            failed_deletes += 1
        position += 1
    if scored:
        payload = codec.encode_answer_frame(answers, scored)
    else:
        payload = codec.encode_answers(answers)
    return payload, failed_deletes, trace, total


def _stats_payload(tree, registry: Optional[MetricsRegistry]) -> dict:
    """The worker's aggregable state summary for a ``stats`` request."""
    return {
        "metrics": registry.to_dict() if registry is not None else {},
        "io": asdict(tree.stats.snapshot()),
        "pages": tree.page_count,
        "entries": tree.leaf_entry_count,
        "height": tree.height,
        "clock": tree.now,
    }


def worker_main(conn, spec: WorkerSpec) -> None:
    """Serve shard requests until ``close`` (or parent disappearance).

    The protocol is strict request/reply: every request tuple starts
    with a verb and a sequence number, and every reply is either
    ``("ok", seq, ...)`` or ``("err", seq, traceback_text)``.  An
    exception inside a request is reported, not fatal — the tree's own
    durability guarantees cover whatever the failed request left
    behind.  A lost parent (EOF on the pipe) closes the tree and exits.

    Every ``apply`` reply ends with an *extras* slot: ``None`` on the
    plain path, else a dict carrying the batch's span records (under
    ``spans``/``dropped``/``ctx`` when tracing) and, every
    ``flush_every`` applies, the worker's full stats payload (under
    ``stats``) — the piggybacked flush that keeps router-side metrics
    live.  The flush is the *cumulative* registry export, so the
    router replacing its stored copy is idempotent by construction.
    """
    registry = MetricsRegistry() if spec.observability else None
    tracer = Tracer() if spec.tracing else None
    clock = SimulationClock()
    tree = _build_tree(spec, clock, registry, tracer)
    codec = OpCodec(spec.config.dims)
    applies = 0
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            verb, seq = message[0], message[1]
            try:
                if verb == "apply":
                    extras = None
                    started = _time.process_time()
                    if tracer is None:
                        answers, failed, _, _ = _apply_batch(
                            tree, clock, codec, message[2]
                        )
                        busy = _time.process_time() - started
                    else:
                        with tracer.span(BATCH_SPAN) as span:
                            answers, failed, trace, nops = _apply_batch(
                                tree, clock, codec, message[2]
                            )
                            busy = _time.process_time() - started
                            span.set(ops=nops, cpu_s=busy)
                            if trace is not None:
                                span.set(trace_id=trace.trace_id)
                        extras = {
                            "spans": tracer.records(),
                            "dropped": tracer.dropped,
                        }
                        if trace is not None:
                            extras["ctx"] = tuple(trace)
                        tracer.clear()
                    applies += 1
                    if (
                        registry is not None
                        and spec.flush_every
                        and applies % spec.flush_every == 0
                    ):
                        extras = extras if extras is not None else {}
                        extras["stats"] = _stats_payload(tree, registry)
                    conn.send(("ok", seq, answers, busy, failed, extras))
                elif verb == "bulk":
                    clock.advance_to(message[2])
                    entries = codec.decode_entries(message[3])
                    tree.bulk_load(entries)
                    conn.send(("ok", seq, len(entries)))
                elif verb == "stats":
                    conn.send(("ok", seq, _stats_payload(tree, registry)))
                elif verb == "snapshot":
                    snapshot = tree.snapshot()
                    entries = codec.encode_entries(snapshot.entries)
                    conn.send(("ok", seq, snapshot.taken_at, entries))
                elif verb == "audit":
                    conn.send(("ok", seq, tree.audit()))
                elif verb == "checkpoint":
                    tree.checkpoint()
                    conn.send(("ok", seq))
                elif verb == "close":
                    tree.close()
                    conn.send(("ok", seq))
                    return
                elif verb == "crash":
                    # Test hook: die without flushing or replying, as a
                    # power loss would.  WAL recovery picks up the shard.
                    os._exit(13)
                else:
                    raise ValueError(f"unknown request verb {verb!r}")
            except Exception:
                conn.send(("err", seq, traceback.format_exc()))
    finally:
        tree.close()
