"""Unit tests for the tracer: spans, events, ring buffer, JSONL."""

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    read_jsonl,
    traced,
)


def sum_event_attr(records, name, attr):
    """Sum one attribute over all events of the given name."""
    total = 0
    for record in records:
        if record.get("kind") == "event" and record.get("name") == name:
            total += record.get("attrs", {}).get(attr, 0)
    return total


class FakeClock:
    """Deterministic monotonic clock: each call advances by one step."""

    def __init__(self, step=1.0):
        self.t = 0.0
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


def test_span_records_duration_and_attrs():
    tracer = Tracer(clock=FakeClock())
    with tracer.span("op", kind="test") as span:
        span.set(result=3)
    (record,) = tracer.spans()
    assert record["name"] == "op"
    assert record["dur"] == pytest.approx(1.0)
    assert record["attrs"] == {"kind": "test", "result": 3}
    assert record["parent_id"] is None
    assert record["depth"] == 0


def test_span_nesting_parent_ids_and_depth():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.event("tick")
        with tracer.span("inner"):
            pass
    records = tracer.records()
    # The event lands while inner1 is open; spans append at exit, so
    # children precede their parent.
    event, inner1, inner2, outer = records
    assert outer["name"] == "outer" and outer["parent_id"] is None
    for inner in (inner1, inner2):
        assert inner["parent_id"] == outer["span_id"]
        assert inner["depth"] == 1
    assert event["kind"] == "event"
    assert event["span_id"] == inner1["span_id"]


def test_span_records_exception_and_unwinds_stack():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("boom"):
            raise RuntimeError("x")
    (record,) = tracer.spans()
    assert record["error"] == "RuntimeError"
    with tracer.span("after"):
        pass
    assert tracer.spans("after")[0]["parent_id"] is None


def test_event_without_open_span():
    tracer = Tracer()
    tracer.event("purge", entries=4)
    (record,) = tracer.events()
    assert record["span_id"] is None
    assert record["attrs"] == {"entries": 4}


def test_ring_buffer_drops_oldest_and_counts():
    tracer = Tracer(capacity=3)
    for i in range(5):
        tracer.event("e", i=i)
    assert len(tracer) == 3
    assert tracer.dropped == 2
    assert [r["attrs"]["i"] for r in tracer.events()] == [2, 3, 4]
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_event_totals_and_slowest_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    tracer.event("a")
    tracer.event("a")
    tracer.event("b")
    with tracer.span("fast"):
        pass  # dur 1 step
    clock.step = 5.0
    with tracer.span("slow"):
        pass  # dur 5 steps
    assert tracer.event_totals() == {"a": 2, "b": 1}
    slowest = tracer.slowest_spans(1)
    assert [r["name"] for r in slowest] == ["slow"]
    assert tracer.slowest_spans(5, name="fast")[0]["name"] == "fast"


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("op"):
        tracer.event("purge", entries=2)
        tracer.event("purge", entries=3)
    path = tmp_path / "trace.jsonl"
    assert tracer.export_jsonl(str(path)) == 3
    records = read_jsonl(str(path))
    assert records == tracer.records()
    assert sum_event_attr(records, "purge", "entries") == 5
    # Append mode with an extra key merged into each record.
    tracer2 = Tracer()
    tracer2.event("purge", entries=7)
    tracer2.export_jsonl(str(path), append=True, extra={"adapter": "x"})
    records = read_jsonl(str(path))
    assert len(records) == 4
    assert records[-1]["adapter"] == "x"
    assert sum_event_attr(records, "purge", "entries") == 12


def test_clear_resets_everything():
    tracer = Tracer(capacity=1)
    tracer.event("a")
    tracer.event("b")
    assert tracer.dropped == 1
    tracer.clear()
    assert len(tracer) == 0 and tracer.dropped == 0


def test_traced_decorator_honours_attribute():
    class Indexed:
        def __init__(self, tracer):
            self._tracer = tracer

        @traced("indexed.work")
        def work(self, n):
            return n * 2

    tracer = Tracer()
    assert Indexed(tracer).work(4) == 8
    assert tracer.spans("indexed.work")
    assert Indexed(None).work(4) == 8  # disabled path still runs


def test_null_tracer_is_inert(tmp_path):
    assert not NULL_TRACER
    with NULL_TRACER.span("x") as span:
        span.set(a=1)
        NULL_TRACER.event("y")
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.records() == []
    assert NULL_TRACER.event_totals() == {}
    assert NULL_TRACER.slowest_spans() == []
    path = tmp_path / "empty.jsonl"
    assert NULL_TRACER.export_jsonl(str(path)) == 0
    assert read_jsonl(str(path)) == []


# -- export brackets and file meta ---------------------------------------------


def test_export_brackets_surface_drops_and_open_spans(tmp_path):
    from repro.obs.trace import TraceFileMeta

    tracer = Tracer(capacity=2, clock=FakeClock())
    for i in range(5):
        with tracer.span(f"s{i}"):
            pass
    outer = tracer.span("still-open")
    outer.__enter__()
    path = tmp_path / "t.jsonl"
    n = tracer.export_jsonl(str(path))
    assert n == 2  # data records only; brackets don't count

    records, meta = read_jsonl(str(path), meta=True)
    assert len(records) == 2
    assert isinstance(meta, TraceFileMeta)
    assert meta.segments == 1
    assert meta.dropped == 3
    assert meta.open_spans == 1
    assert meta.records == 2
    assert not meta.truncated
    assert not meta.complete  # drops happened: the file is partial
    outer.__exit__(None, None, None)


def test_appended_exports_accumulate_segments(tmp_path):
    tracer = Tracer(clock=FakeClock())
    path = tmp_path / "t.jsonl"
    with tracer.span("a"):
        pass
    tracer.export_jsonl(str(path))
    tracer.clear()
    with tracer.span("b"):
        pass
    tracer.export_jsonl(str(path), append=True)

    records, meta = read_jsonl(str(path), meta=True)
    assert [r["name"] for r in records] == ["a", "b"]
    assert meta.segments == 2
    assert meta.complete


def test_truncated_export_is_flagged(tmp_path):
    tracer = Tracer(clock=FakeClock())
    with tracer.span("a"):
        pass
    path = tmp_path / "t.jsonl"
    tracer.export_jsonl(str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # chop the footer
    _, meta = read_jsonl(str(path), meta=True)
    assert meta.truncated
    assert not meta.complete


# -- cross-tracer span adoption ------------------------------------------------


def test_adopt_reparents_foreign_spans_under_parent():
    worker = Tracer(clock=FakeClock())
    with worker.span("worker.batch") as outer:
        with worker.span("inner"):
            pass
        worker.event("flush", pages=2)
    foreign = worker.records()

    router = Tracer(clock=FakeClock())
    with router.span("shards.query") as root:
        root_id = root.span_id
        router.adopt(foreign, parent_id=root_id, extra_attrs={"shard": 3})

    spans = {r["name"]: r for r in router.spans()}
    batch, inner = spans["worker.batch"], spans["inner"]
    # The foreign root hangs off the router's span; internal structure
    # and relative depth survive the id remap.
    assert batch["parent_id"] == root_id
    assert inner["parent_id"] == batch["span_id"]
    assert inner["depth"] == batch["depth"] + 1
    assert batch["attrs"]["shard"] == 3
    # Ids were re-minted into the adopting tracer's id space.
    assert batch["span_id"] != foreign[0]["span_id"] or root_id != 1
    # The event follows its span across the remap.
    (event,) = router.events("flush")
    assert event["span_id"] == batch["span_id"]
    assert event["attrs"]["shard"] == 3


def test_adopt_orphan_event_falls_back_to_parent():
    worker = Tracer(clock=FakeClock())
    worker.event("lonely")
    router = Tracer(clock=FakeClock())
    with router.span("root") as root:
        router.adopt(worker.records(), parent_id=root.span_id)
    (event,) = router.events("lonely")
    assert event["span_id"] == root.span_id


def test_adopt_without_parent_leaves_roots_detached():
    worker = Tracer(clock=FakeClock())
    with worker.span("w"):
        pass
    router = Tracer(clock=FakeClock())
    router.adopt(worker.records())
    (span,) = router.spans("w")
    assert span["parent_id"] is None


def test_null_tracer_adopt_is_inert():
    assert NULL_TRACER.adopt([{"kind": "span", "span_id": 1}]) == 0
    assert NULL_TRACER.current_span_id is None
    assert NULL_TRACER.open_spans == 0
