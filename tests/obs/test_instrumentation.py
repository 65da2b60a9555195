"""Integration tests: the instrumented tree, forest, buffer and runner.

The two properties that matter:

* the **disabled path is a regression-free no-op** — an uninstrumented
  tree answers identically and performs identical page I/O to an
  instrumented one;
* the **instrumented numbers are true** — event attribute sums line up
  with the registry counters, and both line up with the tree's own
  structural census (``audit()``) through the leaf-entry conservation
  identity.
"""

import random

import pytest

from repro.core.clock import SimulationClock
from repro.core.presets import forest_config, rexp_config
from repro.core.tree import MovingObjectTree
from repro.experiments.adapters import ForestAdapter, TreeAdapter
from repro.experiments.runner import run_workload
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import TimesliceQuery
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry, Tracer
from repro.workloads.expiration import FixedPeriod
from repro.workloads.uniform import UniformParams, generate_uniform_workload

from .test_trace import sum_event_attr


def make_tree(**overrides):
    clock = SimulationClock()
    defaults = dict(page_size=512, buffer_pages=8, default_ui=10.0)
    defaults.update(overrides)
    return MovingObjectTree(rexp_config().with_(**defaults), clock), clock


def random_point(rng, t, life=20.0):
    return MovingPoint(
        (rng.uniform(0, 100), rng.uniform(0, 100)),
        (rng.uniform(-2, 2), rng.uniform(-2, 2)),
        t,
        t + rng.uniform(0.5, life),
    )


def churn(tree, clock, rng, inserts=300, life=15.0):
    """Insert/delete/query churn in two phases.

    A growth phase (long-lived entries, time barely advancing) forces
    splits, forced reinserts and root growth; a decay phase (short
    lifetimes, time racing ahead) forces lazy purges, condense drops
    and root shrinkage.
    """
    live = {}
    grow = inserts // 2
    t = 0.0
    for i in range(inserts):
        t += 0.02 if i < grow else 1.0
        clock.advance_to(t)
        point = random_point(rng, t, 500.0 if i < grow else life)
        tree.insert(i, point)
        live[i] = point
        if i % 7 == 3 and live:
            victim = rng.choice(sorted(live))
            tree.delete(victim, live.pop(victim))
        if i % 11 == 5:
            x, y = rng.uniform(0, 80), rng.uniform(0, 80)
            tree.query(TimesliceQuery(
                Rect((x, y), (x + 30, y + 30)), t + rng.uniform(0, 5)
            ))


def small_workload(insertions=600, population=80):
    return generate_uniform_workload(
        UniformParams(
            target_population=population,
            insertions=insertions,
            update_interval=30.0,
            seed=1,
        ),
        FixedPeriod(60.0),
    )


# -- the disabled path is a no-op ----------------------------------------------


def test_null_path_regression_identical_io_and_answers():
    """Enabling observability must not change answers or page I/O."""
    runs = []
    for instrumented in (False, True):
        tree, clock = make_tree()
        if instrumented:
            tree.enable_observability(MetricsRegistry(), Tracer())
        rng = random.Random(5)
        answers = []
        live = {}
        for i in range(200):
            t = i * 0.5
            clock.advance_to(t)
            point = random_point(rng, t)
            tree.insert(i, point)
            live[i] = point
            if i % 5 == 2:
                victim = rng.choice(sorted(live))
                tree.delete(victim, live.pop(victim))
            if i % 6 == 1:
                x, y = rng.uniform(0, 80), rng.uniform(0, 80)
                answers.append(sorted(tree.query(TimesliceQuery(
                    Rect((x, y), (x + 30, y + 30)), t + 2.0
                ))))
        runs.append((
            answers,
            tree.stats.reads,
            tree.stats.writes,
            tree.page_count,
            tree.audit().leaf_entries,
        ))
    assert runs[0] == runs[1]


def test_disable_observability_restores_fast_path():
    tree, clock = make_tree()
    registry = MetricsRegistry()
    tree.enable_observability(registry, Tracer())
    tree.insert(1, MovingPoint((1.0, 1.0), (0.0, 0.0), 0.0, 50.0))
    assert registry.value("tree.inserts") == 1
    tree.disable_observability()
    tree.insert(2, MovingPoint((2.0, 2.0), (0.0, 0.0), 0.0, 50.0))
    assert registry.value("tree.inserts") == 1  # frozen after disable
    assert tree._obs is None and tree._tracer is None


def test_metrics_only_and_tracer_only_configurations():
    for registry, tracer in (
        (MetricsRegistry(), None),
        (None, Tracer()),
    ):
        tree, clock = make_tree()
        tree.enable_observability(registry, tracer)
        churn(tree, clock, random.Random(2), inserts=80)
        tree.check_invariants()
        if registry is not None:
            assert registry.value("tree.inserts") == 80
        if tracer is not None:
            assert len(tracer.spans("tree.insert")) == 80


# -- the instrumented numbers are true -----------------------------------------


def test_counters_events_and_audit_agree():
    """Trace events, registry counters and audit() tell one story."""
    tree, clock = make_tree()
    registry, tracer = MetricsRegistry(), Tracer(capacity=1 << 20)
    tree.enable_observability(registry, tracer)
    churn(tree, clock, random.Random(7), inserts=400, life=12.0)

    value = registry.value
    records = tracer.records()
    totals = tracer.event_totals()
    assert tracer.dropped == 0

    # Every event family is exercised by the churn.
    for name in ("split", "forced_reinsert", "lazy_purge", "condense_drop"):
        assert totals.get(name, 0) > 0, f"churn produced no {name}"

    # Event tallies match their counters.
    assert totals["split"] == value("tree.splits")
    assert totals["forced_reinsert"] == value("tree.forced_reinserts")
    assert totals["lazy_purge"] == value("tree.purge_events")
    assert totals["condense_drop"] == value("tree.condense_drops")
    assert totals.get("root_grow", 0) == value("tree.root_grows")
    assert totals.get("root_shrink", 0) == value("tree.root_shrinks")

    # Event attribute sums match their counters.
    assert sum_event_attr(records, "lazy_purge", "purged") == value(
        "tree.purged_leaf_entries"
    )
    assert sum_event_attr(records, "lazy_purge", "subtrees") == value(
        "tree.purged_subtrees"
    )
    assert sum_event_attr(records, "subtree_dealloc", "leaf_entries") == value(
        "tree.purged_subtree_leaf_entries"
    )
    assert sum_event_attr(records, "forced_reinsert", "entries") == value(
        "tree.reinserted_entries"
    )

    # Leaf-entry conservation: additions minus every removal class is
    # exactly what the structural census finds in the tree.
    leaf_entries = (
        value("tree.leaf_entries_added")
        - value("tree.leaf_entries_deleted")
        - value("tree.leaf_entries_condensed")
        - value("tree.leaf_entries_reinserted")
        - value("tree.purged_leaf_entries")
        - value("tree.purged_subtree_leaf_entries")
    )
    audit = tree.audit()
    assert leaf_entries == audit.leaf_entries
    assert value("tree.leaf_entries") == audit.leaf_entries  # gauge

    # Per-query histograms saw every query.
    queries = value("tree.queries")
    hist = registry.get("tree.query_nodes_visited")
    assert queries > 0 and hist.count == queries
    assert registry.get("tree.query_descent_depth").count == queries
    assert len(tracer.spans("tree.query")) == queries


def test_query_span_attributes_match_histograms():
    tree, clock = make_tree()
    registry, tracer = MetricsRegistry(), Tracer()
    tree.enable_observability(registry, tracer)
    for i in range(40):
        clock.advance_to(float(i))
        tree.insert(i, random_point(random.Random(i), float(i), life=100.0))
    tree.query(TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 41.0))
    (span,) = tracer.spans("tree.query")
    attrs = span["attrs"]
    assert attrs["kind"] == "TimesliceQuery"
    assert attrs["nodes"] == registry.get("tree.query_nodes_visited").max
    assert attrs["depth"] == tree.height - 1
    assert attrs["results"] > 0


def test_buffer_counters_match_disk_reads():
    tree, clock = make_tree(buffer_pages=4)
    churn(tree, clock, random.Random(3), inserts=150)
    pool = tree.buffer
    # A buffer miss is the only way a disk read happens.
    assert pool.misses == tree.stats.reads
    assert pool.hits > 0 and pool.evictions > 0
    assert pool.hit_rate == pytest.approx(
        pool.hits / (pool.hits + pool.misses)
    )
    empty = type(pool)(tree.disk, 4)
    assert empty.hit_rate == 0.0


def test_buffer_gauges_registered():
    tree, clock = make_tree()
    registry = MetricsRegistry()
    tree.enable_observability(registry)
    churn(tree, clock, random.Random(4), inserts=60)
    assert registry.value("buffer.hits") == tree.buffer.hits
    assert registry.value("buffer.misses") == tree.buffer.misses
    assert registry.value("buffer.hit_rate") == pytest.approx(
        tree.buffer.hit_rate
    )
    assert registry.value("tree.pages") == tree.page_count


def test_level_occupancy_matches_audit():
    tree, clock = make_tree()
    churn(tree, clock, random.Random(9), inserts=250, life=100.0)
    occupancy = tree.level_occupancy()
    audit = tree.audit()
    assert sum(nodes for nodes, _ in occupancy.values()) == audit.nodes
    assert occupancy[0][1] == audit.leaf_entries
    assert max(occupancy) == tree.height - 1
    internal = sum(
        entries for level, (_, entries) in occupancy.items() if level > 0
    )
    assert internal == audit.internal_entries


# -- forest scoping ------------------------------------------------------------


def test_forest_scoped_registries_and_routing_counters():
    adapter = ForestAdapter(
        "forest", forest_config(partitions=3, page_size=512, buffer_pages=9)
    )
    registry, tracer = MetricsRegistry(), Tracer()
    adapter.enable_observability(registry, tracer)
    rng = random.Random(11)
    for i in range(120):
        adapter.advance_time(i * 0.5)
        adapter.insert(i, random_point(rng, i * 0.5, life=60.0))
    routed = sum(
        registry.value(f"partition{i}.forest.routed_ops") for i in range(3)
    )
    assert routed == 120
    inserts = sum(
        registry.value(f"partition{i}.tree.inserts") for i in range(3)
    )
    assert inserts == 120
    assert registry.value("forest.partitions") == 3
    assert registry.value("forest.pages") == adapter.forest.page_count
    assert len(tracer.spans("tree.insert")) == 120
    hits, misses, evictions = adapter.buffer_counters
    assert misses == sum(t.stats.reads for t in adapter.forest.trees)
    assert hits >= 0 and evictions >= 0


# -- runner integration --------------------------------------------------------


def test_run_workload_profile_populates_percentiles():
    workload = small_workload()
    adapter = TreeAdapter(
        "Rexp-tree", rexp_config(page_size=512, buffer_pages=8)
    )
    registry, tracer = MetricsRegistry(), Tracer()
    result = run_workload(adapter, workload, registry=registry, tracer=tracer)
    assert result.search_ops > 0 and result.update_ops > 0
    assert result.search_io_p99 >= result.search_io_p95 >= result.search_io_p50
    assert result.update_io_p99 >= result.update_io_p50 >= 0.0
    assert result.search_latency_p99 >= result.search_latency_p50 > 0.0
    assert result.update_latency_p99 >= result.update_latency_p50 > 0.0
    assert result.buffer_hits + result.buffer_misses > 0
    assert result.buffer_hit_rate == pytest.approx(
        result.buffer_hits / (result.buffer_hits + result.buffer_misses)
    )
    assert registry.value("runner.buffer_hit_rate") == pytest.approx(
        result.buffer_hit_rate
    )
    assert registry.get("runner.search_latency_s").count == result.search_ops
    assert "search p50/p95/p99" in result.summary()


def test_run_workload_unprofiled_leaves_latency_zero():
    workload = small_workload(insertions=200, population=40)
    adapter = TreeAdapter(
        "Rexp-tree", rexp_config(page_size=512, buffer_pages=8)
    )
    result = run_workload(adapter, workload)
    assert result.search_latency_p99 == 0.0
    assert result.update_latency_p99 == 0.0
    # IO percentiles come from always-on OperationStats histograms.
    assert result.search_io_p99 >= result.search_io_p50 >= 0.0
    # Buffer counters are always on (the index may fit the pool, so
    # misses can be zero — but every page touch is a hit or a miss).
    assert result.buffer_hits + result.buffer_misses > 0


def test_trace_jsonl_purge_sum_matches_audit_accounting(tmp_path):
    """Acceptance: the exported trace's purge sums are consistent with
    the final audit through the leaf conservation identity."""
    workload = small_workload()
    adapter = TreeAdapter(
        "Rexp-tree", rexp_config(page_size=512, buffer_pages=8)
    )
    registry, tracer = MetricsRegistry(), Tracer(capacity=1 << 20)
    result = run_workload(adapter, workload, registry=registry, tracer=tracer)
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    from repro.obs.trace import read_jsonl

    records = read_jsonl(str(path))
    purged = (
        sum_event_attr(records, "lazy_purge", "purged")
        + sum_event_attr(records, "subtree_dealloc", "leaf_entries")
    )
    value = registry.value
    expected_leaves = (
        value("tree.leaf_entries_added")
        - value("tree.leaf_entries_deleted")
        - value("tree.leaf_entries_condensed")
        - value("tree.leaf_entries_reinserted")
        - purged
    )
    assert expected_leaves == adapter.tree.audit().leaf_entries
    assert expected_leaves == result.leaf_entries


def test_operation_stats_histograms_track_every_op():
    workload = small_workload(insertions=200, population=40)
    adapter = TreeAdapter(
        "Rexp-tree", rexp_config(page_size=512, buffer_pages=8)
    )
    result = run_workload(adapter, workload)
    stats = adapter.op_stats
    assert stats.search_io_hist.count == stats.search_ops
    assert stats.update_io_hist.count == stats.update_ops
    assert stats.search_io_hist.mean == pytest.approx(stats.avg_search_io)
    assert stats.update_io_hist.mean == pytest.approx(stats.avg_update_io)
    assert result.search_io_p50 == stats.search_io_p50


def test_summary_reports_auxiliary_and_setup_io():
    from repro.experiments.runner import RunResult

    result = RunResult(
        adapter="x", workload="w",
        search_ops=10, search_io_p50=2, search_io_p95=5, search_io_p99=8,
        auxiliary_io=123, avg_update_io_with_aux=4.5, setup_io=77,
    )
    line = result.summary()
    assert "aux=123" in line
    assert "update+aux=4.50/op" in line
    assert "setup=77" in line
    assert "search p50/p95/p99=2/5/8" in line
    bare = RunResult(adapter="x", workload="w")
    assert "aux=" not in bare.summary()
    assert "setup=" not in bare.summary()
