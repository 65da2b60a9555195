"""The shard worker process: one durable member tree behind a pipe.

``worker_main`` is the ``spawn`` entry point of every worker member.
A worker owns one :class:`~repro.core.tree.MovingObjectTree` on its own
page file, write-ahead log and buffer budget, and serves a strictly
sequential request/reply protocol over its end of a pipe: operation
batches, stats/snapshot/audit gathers, checkpoints and a clean close.
Every ``apply`` reply reports the batch's busy time in *CPU seconds*
(``time.process_time``), so it measures the member's own work even
when workers time-slice one core.  Nothing is shared with the parent:
what crosses the pipe is a packed batch (:mod:`repro.shard.wire`) or a
small picklable summary.
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
from ..workloads.base import apply_batch
from .wire import OpCodec

#: Span name a worker records around one applied batch; the router
#: adopts these (re-parented under its fan-out span) and ``repro top``
#: keys its worker-stage arithmetic on the name.
BATCH_SPAN = "worker.batch"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs to build (or reopen) its tree.

    ``config`` is the member-tree configuration (buffer share applied);
    ``recover`` reopens the store in ``directory`` with WAL recovery
    instead of creating it.  ``observability`` runs a per-worker
    metrics registry (exported on ``stats`` requests, and piggybacked on
    every ``flush_every``-th apply reply; 0 disables the piggyback);
    ``tracing`` a per-worker tracer whose span records ride every apply
    reply for router-side adoption.
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
    """Decode one wire batch, apply it, encode its answers.

    Returns ``(answers bytes, failed deletes, trace context, op
    count)``; the trace context is ``None`` for an untraced batch.  The
    operations run through :func:`~repro.workloads.base.apply_batch`,
    exactly as an in-process member's do; a batch with kNN records
    gets a *framed* answer block (range answers, then scored ones).
    """
    ops, trace = codec.decode_ops_traced(payload)
    answers, scored, failed = apply_batch(tree, clock, ops)
    if scored:
        payload = codec.encode_answer_frame(answers, scored)
    else:
        payload = codec.encode_answers(answers)
    return payload, failed, trace, len(ops)


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
    """Serve requests until ``close`` (or parent disappearance).

    Every request starts with a verb and a sequence number; every reply
    is ``("ok", seq, ...)`` or ``("err", seq, traceback_text)`` — a
    failed request is reported, not fatal.  EOF on the pipe closes the
    tree and exits.  An ``apply`` reply ends with an *extras* slot:
    ``None``, or a dict with the batch's span records (``spans`` /
    ``dropped`` / ``ctx``, when tracing) and, every ``flush_every``
    applies, the full cumulative stats payload (``stats``) that keeps
    router-side metrics live.
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
