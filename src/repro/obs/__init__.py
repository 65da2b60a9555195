"""Observability: metrics registry and structured tracing.

A zero-overhead-when-disabled telemetry layer for the R^exp-tree stack.
Nothing in this package imports from the rest of :mod:`repro`, so every
layer (storage, core, experiments) can depend on it freely.

Two primitives:

* :class:`MetricsRegistry` — counters, gauges and fixed-bucket
  histograms (with p50/p90/p95/p99 and a ``to_dict`` export).  The
  module-level :data:`NULL_REGISTRY` hands out no-op singletons, so an
  instrumented object that was never given a real registry pays only an
  attribute check per operation.
* :class:`Tracer` — monotonic-clock-timed span/event records in a
  bounded ring buffer, exportable as JSON Lines.

See DESIGN.md §7 for the event taxonomy and which tree algorithm each
event maps to.
"""

from .export import (
    MetricsSnapshotter,
    accumulate,
    latency_breakdown,
    prometheus_text,
    read_snapshots,
    shard_shares,
)
from .metrics import (
    HISTOGRAM_KINDS,
    IO_BUCKETS,
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullRegistry,
    ScopedRegistry,
)
from .slo import (
    SLO,
    SLOStatus,
    SLOTracker,
    check_slos,
    default_serve_slos,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    TraceContext,
    TraceFileMeta,
    Tracer,
    read_jsonl,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "HISTOGRAM_KINDS",
    "Histogram",
    "IO_BUCKETS",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "MetricsSnapshotter",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullRegistry",
    "NullTracer",
    "SLO",
    "SLOStatus",
    "SLOTracker",
    "ScopedRegistry",
    "TraceContext",
    "TraceFileMeta",
    "Tracer",
    "accumulate",
    "check_slos",
    "default_serve_slos",
    "latency_breakdown",
    "prometheus_text",
    "read_jsonl",
    "read_snapshots",
    "shard_shares",
    "traced",
]
