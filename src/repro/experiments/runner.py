"""Workload replay: feed an operation stream to an index adapter.

Produces the per-run measurements the paper's figures report: average
search I/O per query, average update I/O per insertion/deletion, index
size in pages, plus auxiliary (B-tree) costs and structural audits.
"""

from __future__ import annotations

import time as _wall
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..geometry.intersection import region_matches_point
from ..geometry.kinematics import MovingPoint
from ..obs.metrics import LATENCY_BUCKETS, Histogram
from ..workloads.base import DeleteOp, InsertOp, QueryOp, Workload, apply_op
from .adapters import IndexAdapter


@dataclass
class RunResult:
    """Everything measured while replaying one workload on one index."""

    adapter: str
    workload: str
    avg_search_io: float = 0.0
    avg_update_io: float = 0.0
    avg_update_io_with_aux: float = 0.0
    search_ops: int = 0
    update_ops: int = 0
    page_count: int = 0
    aux_page_count: int = 0
    leaf_entries: int = 0
    expired_fraction: float = 0.0
    avg_result_size: float = 0.0
    failed_deletes: int = 0
    oracle_mismatches: Optional[int] = None
    wall_seconds: float = 0.0
    prepopulated: int = 0
    setup_io: int = 0
    auxiliary_io: int = 0
    search_io_p50: float = 0.0
    search_io_p95: float = 0.0
    search_io_p99: float = 0.0
    update_io_p50: float = 0.0
    update_io_p95: float = 0.0
    update_io_p99: float = 0.0
    search_latency_p50: float = 0.0
    search_latency_p95: float = 0.0
    search_latency_p99: float = 0.0
    update_latency_p50: float = 0.0
    update_latency_p95: float = 0.0
    update_latency_p99: float = 0.0
    buffer_hits: int = 0
    buffer_misses: int = 0
    buffer_evictions: int = 0
    buffer_hit_rate: float = 0.0
    partition_pages: List[int] = field(default_factory=list)
    params: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        """One line per run: averages, tails, and every I/O class.

        Setup (bulk-load) and auxiliary (deletion-queue B-tree) I/O are
        always shown when present — a ``ScheduledDeletionIndex`` or a
        prepopulated run is *not* just its search/update averages.
        """
        line = (
            f"{self.adapter:<28} search={self.avg_search_io:7.2f}  "
            f"update={self.avg_update_io:6.2f}  pages={self.page_count:5d}  "
            f"expired={self.expired_fraction:5.1%}"
        )
        if self.search_ops:
            line += (
                f"  search p50/p95/p99={self.search_io_p50:.0f}/"
                f"{self.search_io_p95:.0f}/{self.search_io_p99:.0f}"
            )
        if self.auxiliary_io:
            line += (
                f"  aux={self.auxiliary_io}"
                f" (update+aux={self.avg_update_io_with_aux:.2f}/op)"
            )
        if self.setup_io:
            line += f"  setup={self.setup_io}"
        return line


def split_initial_population(
    workload: Workload,
) -> Tuple[List[Tuple[int, MovingPoint]], List[object]]:
    """Split off the initial population for bulk loading.

    Every first report that precedes the workload's first query can be
    bulk-loaded instead of inserted one by one: all such objects are
    present before any query runs, and later updates or deletions of
    them find exactly the entries insertion would have left.  Returns
    the ``(oid, point)`` population and the remaining operation stream.
    """
    first_query = next(
        (i for i, op in enumerate(workload.ops) if isinstance(op, QueryOp)),
        len(workload.ops),
    )
    initial: List[Tuple[int, MovingPoint]] = []
    seen = set()
    remaining: List[object] = []
    for i, op in enumerate(workload.ops):
        if i < first_query and isinstance(op, InsertOp) and op.oid not in seen:
            seen.add(op.oid)
            initial.append((op.oid, op.point))
        else:
            remaining.append(op)
    return initial, remaining


def run_workload(
    adapter: IndexAdapter,
    workload: Workload,
    verify: bool = False,
    prepopulate: bool = False,
    registry=None,
    tracer=None,
    profile: bool = False,
    durability: Optional[str] = None,
) -> RunResult:
    """Replay a workload and collect the paper's metrics.

    Args:
        adapter: the index under test.
        verify: additionally maintain a brute-force table of live
            reports and compare every query answer against it (slow;
            used by integration tests).
        prepopulate: bulk-load the initial population (every first
            report before the first query) instead of replaying it as
            insertions.  Build I/O is reported as ``setup_io`` and does
            not enter the update averages.
        registry: a :class:`repro.obs.MetricsRegistry` to attach to the
            index (enables its counters/gauges/histograms).
        tracer: a :class:`repro.obs.Tracer` to attach to the index
            (records per-operation spans and structural events).
        profile: additionally time every operation and fill the
            ``*_latency_*`` percentile fields.  Implied by passing a
            registry or tracer.
        durability: a directory; when given, the adapter re-homes onto a
            durable page store there before replay (every operation
            group-commits through a write-ahead log, whose I/O enters
            ``auxiliary_io``), and the store is checkpointed and closed
            after the run, leaving a recoverable index on disk.

    Returns:
        The populated :class:`RunResult`.
    """
    start = _wall.perf_counter()
    oracle: Dict[int, MovingPoint] = {}
    mismatches = 0
    failed_deletes = 0
    result_sizes = 0
    profile = profile or registry is not None or tracer is not None
    if durability is not None:
        # Before observability: durability swaps the backing index out.
        adapter.enable_durability(durability)
    if registry is not None or tracer is not None:
        adapter.enable_observability(registry, tracer)
    # Filled only when profiling; empty histograms report 0.0 tails.
    search_latency = Histogram("search_latency_s", LATENCY_BUCKETS)
    update_latency = Histogram("update_latency_s", LATENCY_BUCKETS)
    timed = _wall.perf_counter

    ops: Sequence[object] = workload.ops
    prepopulated = 0
    if prepopulate:
        initial, ops = split_initial_population(workload)
        if initial:
            adapter.advance_time(initial[0][1].t_ref)
            adapter.bulk_load(initial)
            prepopulated = len(initial)
            if verify:
                for oid, point in initial:
                    oracle[oid] = point

    for op in ops:
        adapter.advance_time(op.time)
        is_query = isinstance(op, QueryOp)
        t0 = timed()
        outcome = apply_op(adapter, op)
        if profile:
            latency = search_latency if is_query else update_latency
            latency.record(timed() - t0)
        if is_query:
            result_sizes += len(outcome)
        elif outcome is False:
            failed_deletes += 1
        if not verify:
            continue
        if isinstance(op, DeleteOp):
            oracle.pop(op.oid, None)
        elif not is_query:
            oracle[op.oid] = (
                op.point if isinstance(op, InsertOp) else op.new_point
            )
        else:
            region = op.query.region()
            expected = {
                oid
                for oid, point in oracle.items()
                if region_matches_point(region, point)
            }
            got = set(outcome)
            if getattr(adapter, "exact_semantics", True):
                if got != expected:
                    mismatches += 1
            elif not got >= expected:
                # Indexes of non-expiring trajectories (the TPR-tree)
                # legitimately return false drops that a filter step
                # would remove (Section 3); they must still return
                # every live match.
                mismatches += 1

    stats = adapter.op_stats
    audit = adapter.audit()
    hits, misses, evictions = adapter.buffer_counters
    result = RunResult(
        adapter=adapter.name,
        workload=workload.name,
        avg_search_io=stats.avg_search_io,
        avg_update_io=stats.avg_update_io,
        avg_update_io_with_aux=stats.avg_update_io_with_auxiliary,
        search_ops=stats.search_ops,
        update_ops=stats.update_ops,
        page_count=adapter.page_count,
        aux_page_count=adapter.aux_page_count,
        leaf_entries=audit.leaf_entries if audit else 0,
        expired_fraction=audit.expired_fraction if audit else 0.0,
        avg_result_size=(
            result_sizes / stats.search_ops if stats.search_ops else 0.0
        ),
        failed_deletes=failed_deletes,
        oracle_mismatches=mismatches if verify else None,
        wall_seconds=_wall.perf_counter() - start,
        prepopulated=prepopulated,
        setup_io=stats.setup_io,
        auxiliary_io=stats.auxiliary_io,
        search_io_p50=stats.search_io_p50,
        search_io_p95=stats.search_io_p95,
        search_io_p99=stats.search_io_p99,
        update_io_p50=stats.update_io_hist.p50,
        update_io_p95=stats.update_io_hist.p95,
        update_io_p99=stats.update_io_hist.p99,
        search_latency_p50=search_latency.p50,
        search_latency_p95=search_latency.p95,
        search_latency_p99=search_latency.p99,
        update_latency_p50=update_latency.p50,
        update_latency_p95=update_latency.p95,
        update_latency_p99=update_latency.p99,
        buffer_hits=hits,
        buffer_misses=misses,
        buffer_evictions=evictions,
        buffer_hit_rate=(
            hits / (hits + misses) if (hits + misses) else 0.0
        ),
        partition_pages=list(
            getattr(adapter, "partition_page_counts", [])
        ),
        params=dict(workload.params),
    )
    if durability is not None:
        adapter.close()
    if registry is not None:
        registry.gauge("runner.buffer_hit_rate").set(result.buffer_hit_rate)
        for latency in (search_latency, update_latency):
            if latency.count:
                hist = registry.histogram(
                    f"runner.{latency.name}", LATENCY_BUCKETS
                )
                hist.buckets = list(latency.buckets)
                hist.count = latency.count
                hist.total = latency.total
                hist.min = latency.min
                hist.max = latency.max
    return result
