"""Property tests: ``query_batch`` ≡ K sequential ``query`` calls.

The batched traversal shares one stack walk across K queries but must
stay *bit-identical* to running each query alone — same oids in the
same order — on every index shape (single tree, partitioned forest),
and to the scalar intersection test looped over the leaf entries.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clock import SimulationClock
from repro.core.forest import PartitionedMovingObjectForest
from repro.core.presets import forest_config, rexp_config
from repro.core.tree import MovingObjectTree
from repro.geometry.intersection import region_matches_point
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.workloads.base import InsertOp

SIZING = dict(page_size=512, buffer_pages=8, default_ui=10.0)
SPACE = 100.0


def _random_point(rng, t):
    return MovingPoint(
        (rng.uniform(0, SPACE), rng.uniform(0, SPACE)),
        (rng.uniform(-3, 3), rng.uniform(-3, 3)),
        t, t + rng.uniform(1, 40),
    )


def _random_query(rng, t):
    lo = (rng.uniform(0, SPACE - 10), rng.uniform(0, SPACE - 10))
    hi = (lo[0] + rng.uniform(1, 25), lo[1] + rng.uniform(1, 25))
    rect = Rect(lo, hi)
    kind = rng.randrange(3)
    if kind == 0:
        return TimesliceQuery(rect, t + rng.uniform(0, 10))
    t1 = t + rng.uniform(0, 5)
    if kind == 1:
        return WindowQuery(rect, t1, t1 + rng.uniform(0, 5))
    lo2 = (rng.uniform(0, SPACE - 10), rng.uniform(0, SPACE - 10))
    rect2 = Rect(lo2, (lo2[0] + rng.uniform(1, 25), lo2[1] + rng.uniform(1, 25)))
    return MovingQuery(rect, rect2, t1, t1 + rng.uniform(0, 5))


def _populated_tree(rng, population):
    clock = SimulationClock()
    tree = MovingObjectTree(rexp_config(**SIZING), clock)
    t = 0.0
    for oid in range(population):
        t += 0.01
        clock.advance_to(t)
        tree.insert(oid, _random_point(rng, t))
    return tree, t


@settings(deadline=None)
@given(seed=st.integers(0, 2 ** 16), batch=st.integers(0, 40))
def test_tree_batch_matches_sequential(seed, batch):
    rng = random.Random(seed)
    tree, t = _populated_tree(rng, 150)
    queries = [_random_query(rng, t) for _ in range(batch)]
    assert tree.query_batch(queries) == [tree.query(q) for q in queries]


@settings(deadline=None, max_examples=10)
@given(seed=st.integers(0, 2 ** 16))
def test_tree_batch_matches_sequential_scalar_path(seed):
    rng = random.Random(seed)
    tree, t = _populated_tree(rng, 150)
    queries = [_random_query(rng, t) for _ in range(25)]
    # The scalar path is the predicate itself, looped in the test.
    entries = list(tree.snapshot().leaf_entries())
    want = [
        sorted(
            oid for point, oid in entries
            if region_matches_point(q.region(), point)
        )
        for q in queries
    ]
    got = tree.query_batch(queries)
    singly = [tree.query(q) for q in queries]
    assert got == singly
    assert [sorted(answer) for answer in singly] == want


@settings(deadline=None, max_examples=10)
@given(
    seed=st.integers(0, 2 ** 16),
    partitioner=st.sampled_from(["speed", "grid"]),
)
def test_forest_batch_matches_sequential(seed, partitioner):
    rng = random.Random(seed)
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest(
        forest_config(partitions=4, partitioner=partitioner, **SIZING), clock
    )
    t = 0.0
    for oid in range(200):
        t += 0.01
        clock.advance_to(t)
        forest.insert(oid, _random_point(rng, t))
    queries = [_random_query(rng, t) for _ in range(30)]
    assert forest.query_batch(queries) == [forest.query(q) for q in queries]


def test_forest_apply_ops_matches_sequential_inserts():
    """A write batch through ``apply_ops`` builds the same forest."""
    rng = random.Random(7)
    reports = [(oid, _random_point(rng, 0.0)) for oid in range(300)]
    config = forest_config(
        partitions=4, partitioner="grid", space=100.0, **SIZING
    )
    sequential = PartitionedMovingObjectForest(config, SimulationClock())
    for oid, point in reports:
        sequential.insert(oid, point)
    assert all(tree.leaf_entry_count for tree in sequential.trees)
    grouped = PartitionedMovingObjectForest(config, SimulationClock())
    result = grouped.apply_ops(
        [InsertOp(0.0, oid, point) for oid, point in reports]
    )
    assert (result.ops, result.failed_deletes) == (300, 0)
    # One clock tick, so one batch per member: each member applies its
    # reports in stream order, exactly as the one-by-one inserts did.
    assert result.batches == 4
    assert grouped.io_snapshot() == sequential.io_snapshot()
    assert [list(tree.snapshot().leaf_entries()) for tree in grouped.trees] \
        == [list(tree.snapshot().leaf_entries())
            for tree in sequential.trees]
    queries = [_random_query(rng, 0.0) for _ in range(40)]
    assert [grouped.query(q) for q in queries] == \
        [sequential.query(q) for q in queries]


def test_empty_and_single_query_batches():
    rng = random.Random(3)
    tree, t = _populated_tree(rng, 80)
    assert tree.query_batch([]) == []
    query = _random_query(rng, t)
    assert tree.query_batch([query]) == [tree.query(query)]


def test_batch_counts_queries_in_metrics():
    from repro.obs import MetricsRegistry

    rng = random.Random(5)
    tree, t = _populated_tree(rng, 80)
    registry = MetricsRegistry()
    tree.enable_observability(registry)
    queries = [_random_query(rng, t) for _ in range(6)]
    tree.query_batch(queries)
    assert registry.counter("tree.queries").value == 6
    # Every counted query feeds the histograms, batched or not, in any
    # interleaving of the two entry points.
    tree.query(queries[0])
    tree.query_batch(queries[1:3])
    tree.query(queries[3])
    visited = registry.get("tree.query_nodes_visited")
    depth = registry.get("tree.query_descent_depth")
    assert visited.count == depth.count == 10
    assert registry.counter("tree.queries").value == 10
    # A batched query records the visits and depth it would alone.
    alone, together = MetricsRegistry(), MetricsRegistry()
    tree.enable_observability(alone)
    for query in queries:
        tree.query(query)
    tree.enable_observability(together)
    tree.query_batch(queries)
    for name in ("tree.query_nodes_visited", "tree.query_descent_depth"):
        one, many = alone.get(name), together.get(name)
        assert (one.buckets, one.total, one.min, one.max) == \
            (many.buckets, many.total, many.min, many.max)
