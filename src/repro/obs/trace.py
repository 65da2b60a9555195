"""Structured tracing: timed spans and point events in a ring buffer.

A :class:`Tracer` records two kinds of monotonic-clock-stamped records:

* **spans** — ``with tracer.span("tree.query", kind="timeslice"):`` or
  the :func:`traced` method decorator; nested spans carry their parent's
  id and depth, and the record is appended at *exit* with the measured
  duration;
* **events** — ``tracer.event("lazy_purge", purged=3)``; instantaneous,
  attributed to the innermost open span.

Records are plain dicts held in a bounded ring buffer (oldest dropped
first, with a drop counter), so a tracer can stay attached to a
long-running index without unbounded growth.  :meth:`Tracer.export_jsonl`
writes one JSON object per line; :func:`read_jsonl` reads them back.
"""

from __future__ import annotations

import json
import time
from collections import Counter as _TallyCounter
from collections import deque
from dataclasses import dataclass, field
from functools import wraps
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple


class TraceContext(NamedTuple):
    """A propagatable trace identity: ``(trace_id, parent_span_id)``.

    The cross-process handshake of distributed tracing: a router stamps
    every wire batch with the trace id of the originating request and
    the span id the remote work should hang under; the worker's tracer
    records its spans locally and ships them back, and
    :meth:`Tracer.adopt` re-parents them into the router's span tree.
    A ``parent_span_id`` of 0 means "no parent" (the wire format has no
    ``None``).
    """

    trace_id: int
    parent_span_id: int = 0


class _Span:
    """Context manager recording one timed span on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent_id", "t0")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        """Open the span: assign its id and start the clock."""
        tracer = self.tracer
        self.parent_id = tracer._stack[-1] if tracer._stack else None
        self.span_id = tracer._next_id
        tracer._next_id += 1
        tracer._stack.append(self.span_id)
        self.t0 = tracer._clock()
        return self

    def set(self, **attrs: object) -> None:
        """Attach attributes to the span after entry (e.g. result sizes)."""
        self.attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the span and append its record (with any error name)."""
        tracer = self.tracer
        t1 = tracer._clock()
        tracer._stack.pop()
        record: Dict[str, object] = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": len(tracer._stack),
            "t_start": self.t0,
            "dur": t1 - self.t0,
        }
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.attrs:
            record["attrs"] = self.attrs
        tracer._append(record)


class Tracer:
    """Bounded ring buffer of span and event records.

    Parameters
    ----------
    capacity : int
        Maximum records retained; older records are dropped (and
        counted in :attr:`dropped`) once full.
    clock : callable
        Timestamp source; injectable for deterministic tests.
    """

    def __init__(
        self,
        capacity: int = 262_144,
        clock: Callable[[], float] = time.monotonic,
    ):
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._records: "deque[Dict[str, object]]" = deque(maxlen=capacity)
        self._stack: List[int] = []
        self._next_id = 1
        self.dropped = 0

    # -- recording ----------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _Span:
        """Open a timed span: ``with tracer.span("tree.query"): ...``."""
        return _Span(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record an instantaneous event inside the innermost span."""
        record: Dict[str, object] = {
            "kind": "event",
            "name": name,
            "span_id": self._stack[-1] if self._stack else None,
            "t": self._clock(),
        }
        if attrs:
            record["attrs"] = attrs
        self._append(record)

    def _append(self, record: Dict[str, object]) -> None:
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    # -- cross-process adoption ---------------------------------------------

    def adopt(
        self,
        records: Iterable[Dict[str, object]],
        parent_id: Optional[int] = None,
        extra_attrs: Optional[Dict[str, object]] = None,
    ) -> int:
        """Graft foreign span/event records into this tracer's tree.

        The re-parenting rule of distributed tracing: every record
        minted by another process (a shard worker) carries span ids
        from *that* tracer's id space.  Adoption rewrites them into
        this tracer's space — each foreign span gets a fresh local id,
        parent links between foreign spans are preserved through the
        remapping, and foreign *roots* (``parent_id`` of ``None`` or
        one pointing outside the shipped set) are hung under
        ``parent_id`` — defaulting to this tracer's innermost open
        span, so adopting inside a scatter-gather span re-parents the
        worker's tree exactly where the request fanned out.  Depths
        shift by the adoption point's depth; ``extra_attrs`` (e.g. the
        shard index) merge into every adopted record's ``attrs``.

        Returns the number of records adopted.
        """
        records = list(records)
        if parent_id is None and self._stack:
            parent_id = self._stack[-1]
        base_depth = len(self._stack)
        mapping: Dict[object, int] = {}
        for record in records:
            if record.get("kind") == "span":
                mapping[record["span_id"]] = self._next_id
                self._next_id += 1
        for record in records:
            record = dict(record)
            if extra_attrs:
                attrs = dict(record.get("attrs", ()))
                attrs.update(extra_attrs)
                record["attrs"] = attrs
            if record.get("kind") == "span":
                record["span_id"] = mapping[record["span_id"]]
                foreign_parent = record.get("parent_id")
                record["parent_id"] = mapping.get(foreign_parent, parent_id)
                record["depth"] = record.get("depth", 0) + base_depth
            else:
                foreign_span = record.get("span_id")
                record["span_id"] = mapping.get(foreign_span, parent_id)
            self._append(record)
        return len(records)

    # -- introspection ------------------------------------------------------

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span (``None`` outside any span)."""
        return self._stack[-1] if self._stack else None

    @property
    def open_spans(self) -> int:
        """Number of spans currently open (entered, not yet exited)."""
        return len(self._stack)

    def __len__(self) -> int:
        """Number of records currently retained."""
        return len(self._records)

    def records(self) -> List[Dict[str, object]]:
        """The retained records, oldest first (a copy)."""
        return list(self._records)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """All span records, optionally filtered by name."""
        return [
            r for r in self._records
            if r["kind"] == "span" and (name is None or r["name"] == name)
        ]

    def events(self, name: Optional[str] = None) -> List[Dict[str, object]]:
        """All event records, optionally filtered by name."""
        return [
            r for r in self._records
            if r["kind"] == "event" and (name is None or r["name"] == name)
        ]

    def event_totals(self) -> Dict[str, int]:
        """Event occurrence counts by name."""
        return dict(_TallyCounter(r["name"] for r in self.events()))

    def slowest_spans(
        self, k: int = 10, name: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The k longest spans, longest first."""
        return sorted(self.spans(name), key=lambda r: r["dur"], reverse=True)[:k]

    def clear(self) -> None:
        """Drop all records, open spans and the drop counter."""
        self._records.clear()
        self._stack.clear()
        self.dropped = 0

    # -- persistence --------------------------------------------------------

    def export_jsonl(
        self,
        path: str,
        append: bool = False,
        extra: Optional[Dict[str, object]] = None,
    ) -> int:
        """Write the retained records as JSON Lines; returns the count.

        ``extra`` key/values are merged into every record (e.g. an
        adapter label when several tracers share one file).  The data
        records are bracketed by a ``trace_header`` / ``trace_footer``
        pair carrying the ring buffer's ``dropped`` count, its
        capacity and the number of spans still open at export time —
        without them, exported artifacts silently read as complete
        even when the ring buffer overflowed mid-run.  The returned
        count and :func:`read_jsonl` cover data records only; use
        ``read_jsonl(path, meta=True)`` to surface the bracket.
        """
        mode = "a" if append else "w"
        n = 0
        header: Dict[str, object] = {
            "kind": "trace_header",
            "capacity": self.capacity,
            "records": len(self._records),
            "dropped": self.dropped,
            "open_spans": len(self._stack),
        }
        if extra:
            header.update(extra)
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True))
            fh.write("\n")
            for record in self._records:
                if extra:
                    record = {**record, **extra}
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
                n += 1
            footer = dict(header, kind="trace_footer")
            fh.write(json.dumps(footer, sort_keys=True))
            fh.write("\n")
        return n


@dataclass
class TraceFileMeta:
    """What a trace file's header/footer brackets said about it.

    Attributes
    ----------
    segments : int
        Complete header+footer pairs found (one per appended export).
    dropped : int
        Total ring-buffer drops across all segments — records that
        existed but are *not* in the file.
    open_spans : int
        Total spans still open at export time across all segments;
        open spans have no record yet, so their time is missing.
    records : int
        Data records the headers promised.
    truncated : bool
        A header without its matching footer was seen — the file was
        cut short mid-export.
    headers : list of dict
        The raw header records, in file order.
    """

    segments: int = 0
    dropped: int = 0
    open_spans: int = 0
    records: int = 0
    truncated: bool = False
    headers: List[Dict[str, object]] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """Whether the file holds every record the tracers ever saw."""
        return not self.truncated and self.dropped == 0


def read_jsonl(
    path: str, meta: bool = False
) -> "List[Dict[str, object]] | Tuple[List[Dict[str, object]], TraceFileMeta]":
    """Read records written by :meth:`Tracer.export_jsonl`.

    Returns the data records (header/footer brackets stripped); with
    ``meta=True`` returns ``(records, TraceFileMeta)`` so callers can
    see ring-buffer drops and still-open spans that the export
    otherwise hides.  Files written before the bracket existed read as
    zero segments with ``truncated=False``.
    """
    records: List[Dict[str, object]] = []
    info = TraceFileMeta()
    open_headers = 0
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.get("kind")
            if kind == "trace_header":
                open_headers += 1
                info.headers.append(record)
                info.dropped += record.get("dropped", 0)
                info.open_spans += record.get("open_spans", 0)
                info.records += record.get("records", 0)
            elif kind == "trace_footer":
                open_headers -= 1
                info.segments += 1
            else:
                records.append(record)
    info.truncated = open_headers > 0
    if meta:
        return records, info
    return records


def traced(
    name: str, tracer_attr: str = "_tracer"
) -> Callable[[Callable], Callable]:
    """Method decorator: wrap calls in a tracer span when tracing is on.

    The decorated method's ``self`` must expose the tracer under
    ``tracer_attr`` (``None`` disables: the call proceeds with only an
    attribute check of overhead).
    """

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(self, *args, **kwargs):
            tracer = getattr(self, tracer_attr, None)
            if tracer is None:
                return fn(self, *args, **kwargs)
            with tracer.span(name):
                return fn(self, *args, **kwargs)

        return wrapper

    return decorate


class NullTracer:
    """No-op tracer for code that wants an always-present tracer object."""

    dropped = 0
    capacity = 0

    class _NullSpan:
        __slots__ = ()

        def __enter__(self):
            """Return itself; nothing is timed."""
            return self

        def set(self, **attrs):
            """Discard attributes."""

        def __exit__(self, *exc):
            """Record nothing."""

    _span = _NullSpan()
    current_span_id = None
    open_spans = 0

    def __bool__(self) -> bool:
        """False, so ``tracer or NULL_TRACER`` composes."""
        return False

    def span(self, name: str, **attrs: object) -> "_NullSpan":
        """Return the shared no-op span."""
        return self._span

    def event(self, name: str, **attrs: object) -> None:
        """Record nothing."""

    def adopt(self, records, parent_id=None, extra_attrs=None) -> int:
        """Adopt nothing."""
        return 0

    def __len__(self) -> int:
        """Zero: nothing is ever retained."""
        return 0

    def records(self) -> List[Dict[str, object]]:
        """Return no records."""
        return []

    def spans(self, name=None) -> List[Dict[str, object]]:
        """Return no spans."""
        return []

    def events(self, name=None) -> List[Dict[str, object]]:
        """Return no events."""
        return []

    def event_totals(self) -> Dict[str, int]:
        """Return empty totals."""
        return {}

    def slowest_spans(self, k: int = 10, name=None) -> List[Dict[str, object]]:
        """Return no spans."""
        return []

    def clear(self) -> None:
        """Clear nothing."""

    def export_jsonl(self, path: str, append: bool = False, extra=None) -> int:
        """Touch ``path`` (so downstream readers find a file); write 0 rows."""
        open(path, "a" if append else "w", encoding="utf-8").close()
        return 0


#: Shared no-op tracer: the disabled path.
NULL_TRACER = NullTracer()
