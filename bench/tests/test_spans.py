import json

from bench.spans import Recorder, Span, self_time_of, self_times, spanned


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, None, "op", 0.0, 10.0, 7),
        Span(1, 0, "commit", 1.0, 3.0, 7),
        Span(2, 0, "commit", 2.0, 5.0, 7),   # overlaps its sibling
        Span(3, 0, "tick", 8.0, 12.0, 7),    # runs past its parent
        Span(4, 1, "flush", 1.5, 2.0, 7),
    ]
    own = self_times(spans)
    # children cover [1, 5] and [8, 10] of the parent's [0, 10]
    assert own[0] == 10.0 - (4.0 + 2.0)
    assert own[1] == 2.0 - 0.5
    assert own[2] == 3.0
    assert own[4] == 0.5
    assert self_time_of(spans, "commit") == [1.5, 3.0]


def test_recorder_nests_and_shares_the_request(tmp_path):
    rec = Recorder()
    rec.begin("step.write", 41)
    assert spanned(rec, "core.tree.update", lambda x: x + 1, 1) == 2
    rec.begin("replication.link.tick")
    rec.end()
    rec.end()
    by_name = {span.name: span for span in rec.spans}
    outer = by_name["step.write"]
    assert outer.parent is None and outer.request == 41
    for name in ("core.tree.update", "replication.link.tick"):
        assert by_name[name].parent == outer.sid
        assert by_name[name].request == 41
        assert outer.start <= by_name[name].start <= by_name[name].end <= outer.end
    assert len({span.sid for span in rec.spans}) == 3
    path = tmp_path / "trace.jsonl"
    rec.write_jsonl(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["name"] for row in rows] == [s.name for s in rec.spans]


def test_spanned_without_a_recorder_just_calls():
    assert spanned(None, "anything", max, 2, 3) == 3
