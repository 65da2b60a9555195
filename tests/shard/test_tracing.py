"""Cross-process tracing: one scatter-gather, one reassembled span tree.

Spawning workers is expensive, so the whole distributed-tracing
acceptance surface — trace propagation over the wire, router-side span
adoption, piggybacked stats flushes, live registry merging and the
latency breakdown arithmetic — is exercised against a single two-worker
forest.
"""

import random

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.obs.export import latency_breakdown, shard_shares
from repro.shard import ShardedForest

from .test_sharded_forest import random_report, sample_queries, shard_config


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """One traced 2-worker session: inserts, a query_batch, a query."""
    registry, tracer = MetricsRegistry(), Tracer()
    rng = random.Random(5)
    base = tmp_path_factory.mktemp("traced") / "forest"
    with ShardedForest.create(
        str(base), shard_config(flush_every=1),
        registry=registry, tracer=tracer,
    ) as forest:
        for oid in range(48):
            forest.insert(oid, random_report(rng, forest.clock.time))
        batch_answers = forest.query_batch(list(sample_queries(0.0)))
        single_answer = forest.query(sample_queries(0.0)[0])
        live = forest.live_registry()
        summaries = forest.worker_summaries()
    return {
        "records": tracer.records(),
        "tracer": tracer,
        "registry": registry,
        "live": live,
        "summaries": summaries,
        "batch_answers": batch_answers,
        "single_answer": single_answer,
    }


def test_query_batch_yields_one_reassembled_span_tree(traced_run):
    records = traced_run["records"]
    roots = [r for r in records
             if r.get("kind") == "span" and r["name"] == "shards.query_batch"]
    assert len(roots) == 1, "one fan-out, one root span"
    (root,) = roots
    trace_id = root["attrs"]["trace_id"]

    workers = [
        r for r in records
        if r.get("kind") == "span" and r["name"] == "worker.batch"
        and r["attrs"].get("trace_id") == trace_id
    ]
    assert workers, "worker spans must ship back and adopt"
    for span in workers:
        # Re-parented directly under the originating fan-out span, one
        # level deeper, stamped with its shard at adoption.
        assert span["parent_id"] == root["span_id"]
        assert span["depth"] == root["depth"] + 1
        assert span["attrs"]["shard"] in (0, 1)
        # process_time and the monotonic span clock have different
        # granularities, so CPU can nominally exceed wall by a tick
        # (latency_breakdown clamps the same way).
        assert 0.0 <= span["attrs"]["cpu_s"] <= span["dur"] + 1e-4
        assert span["dur"] <= root["dur"] + 1e-9
    # Both shards were reached by the sample queries.
    assert {s["attrs"]["shard"] for s in workers} == {0, 1}


def test_single_query_trace_is_distinct(traced_run):
    records = traced_run["records"]
    (root,) = [r for r in records
               if r.get("kind") == "span" and r["name"] == "shards.query"]
    batch_root = next(r for r in records
                      if r.get("name") == "shards.query_batch")
    assert root["attrs"]["trace_id"] != batch_root["attrs"]["trace_id"]
    # A single query is a batch of one under its own root span name.
    assert traced_run["single_answer"] == traced_run["batch_answers"][0]
    assert root["attrs"]["results"] == len(traced_run["single_answer"])
    mine = [r for r in records
            if r.get("name") == "worker.batch"
            and r["attrs"].get("trace_id") == root["attrs"]["trace_id"]]
    assert all(s["parent_id"] == root["span_id"] for s in mine)


def test_stage_durations_sum_to_request_latency(traced_run):
    records = traced_run["records"]
    breakdown = latency_breakdown(records, queue_s=0.0)
    stages = (breakdown["router_s"] + breakdown["wire_s"]
              + breakdown["worker_cpu_s"] + breakdown["worker_io_s"])
    # Additivity is exact up to clamping slack (worker wall projected
    # onto the blocked-wait window); allow 5% of total as tolerance.
    assert stages == pytest.approx(breakdown["total_s"],
                                   rel=0.05, abs=1e-4)
    roots_total = sum(
        r["dur"] for r in records
        if r.get("kind") == "span"
        and r["name"] in ("shards.query", "shards.query_batch")
    )
    assert breakdown["total_s"] == pytest.approx(roots_total)


def test_shard_shares_cover_both_workers(traced_run):
    shares = shard_shares(traced_run["records"])
    assert set(shares) == {0, 1}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_live_registry_merges_piggybacked_worker_metrics(traced_run):
    live = traced_run["live"]
    # Worker-side tree metrics arrive via flush piggybacks, router-side
    # counters directly; both appear merged in one registry.
    assert live.value("tree.inserts") > 0
    assert live.value("buffer.hits") > 0
    assert live.value("shards.batches") > 0
    assert live.value("shards.workers") == 2
    # Merging is per-call and idempotent: the cached exports are
    # cumulative, so a second read reports identical totals.
    assert traced_run["registry"].value("shards.batches") == \
        live.value("shards.batches")


def test_worker_summaries_expose_per_shard_sizes(traced_run):
    summaries = traced_run["summaries"]
    assert set(summaries) == {0, 1}
    for summary in summaries.values():
        assert summary["entries"] >= 0
        assert summary["pages"] >= 1
        assert "metrics" not in summary
        assert summary["io"]["reads"] >= 0


def test_answers_unaffected_by_tracing(traced_run, tmp_path):
    rng = random.Random(5)
    with ShardedForest.create(
        str(tmp_path / "plain"), shard_config()
    ) as forest:
        for oid in range(48):
            forest.insert(oid, random_report(rng, forest.clock.time))
        assert forest.query_batch(list(sample_queries(0.0))) == \
            traced_run["batch_answers"]
        assert forest.query(sample_queries(0.0)[0]) == \
            traced_run["single_answer"]
        assert forest.query_batch([sample_queries(0.0)[0]]) == \
            [traced_run["single_answer"]]
