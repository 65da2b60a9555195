"""Tests for the velocity-partitioned forest of R^exp-trees."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.clock import SimulationClock
from repro.core.forest import ForestConfig, PartitionedMovingObjectForest
from repro.core.partition import SpeedPartitioner
from repro.core.presets import forest_config, rexp_config
from repro.core.scheduled import ScheduledDeletionIndex
from repro.core.tree import MovingObjectTree
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect

SIZING = dict(page_size=512, buffer_pages=8, default_ui=10.0)


def make_forest(partitions=4, partitioner="speed", clock=None, **overrides):
    config = forest_config(
        partitions=partitions, partitioner=partitioner, **SIZING, **overrides
    )
    return PartitionedMovingObjectForest(config, clock or SimulationClock())


def on_both_executors(check):
    """Run ``check(make)`` with in-process members, then worker members.

    ``make(partitions, **overrides)`` creates a speed-partitioned forest
    of that executor in a fresh directory; every forest it made is
    closed when the check returns.  The test keeps the check's name.
    """
    def test(tmp_path):
        from repro.shard import ShardedForest

        for kind in (PartitionedMovingObjectForest, ShardedForest):
            made = []

            def make(partitions, **overrides):
                config = forest_config(
                    partitions=partitions, partitioner="speed",
                    **SIZING, **overrides,
                )
                directory = tmp_path / f"{kind.__name__}{len(made)}"
                made.append(kind.create(str(directory), config))
                return made[-1]

            try:
                check(make)
            finally:
                for forest in made:
                    forest.close()

    test.__name__, test.__doc__ = check.__name__, check.__doc__
    return test


def member_counts(forest):
    """Leaf entries per member, whichever executor runs the members."""
    return [audit.leaf_entries for audit in forest.partition_audits()]


def velocity_point(rng, clock, space=100.0, max_speed=3.0, max_life=30.0):
    t = clock.time
    speed = rng.uniform(0.0, max_speed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return MovingPoint(
        (rng.uniform(0.0, space), rng.uniform(0.0, space)),
        (speed * math.cos(angle), speed * math.sin(angle)),
        t,
        t + rng.uniform(1.0, max_life),
    )


# -- construction and configuration ------------------------------------------


def test_forest_config_splits_buffer_budget():
    config = ForestConfig(tree=rexp_config(buffer_pages=50), partitions=4)
    # 50 = 13 + 13 + 12 + 12: the first members absorb the remainder.
    shares = [
        config.member_tree_config(i).buffer_pages
        for i in range(config.partitions)
    ]
    assert shares == [13, 13, 12, 12]
    whole = config.with_(split_buffer=False)
    assert whole.member_tree_config().buffer_pages == 50


def test_forest_buffer_split_preserves_total_budget():
    # Regression: the old floor-division split dropped the remainder
    # (10 pages over 4 members summed to 8, contradicting the "forest
    # total matches a single tree" contract).
    config = ForestConfig(tree=rexp_config(buffer_pages=10), partitions=4)
    shares = [
        config.member_tree_config(i).buffer_pages
        for i in range(config.partitions)
    ]
    assert sum(shares) == 10
    assert shares == [3, 3, 2, 2]
    forest = PartitionedMovingObjectForest(config)
    assert sum(tree.buffer.capacity for tree in forest.trees) == 10
    # More members than pages: the one-page floor wins over exactness.
    starved = ForestConfig(tree=rexp_config(buffer_pages=2), partitions=4)
    assert [
        starved.member_tree_config(i).buffer_pages for i in range(4)
    ] == [1, 1, 1, 1]


def test_forest_config_passthroughs():
    config = forest_config(partitions=2, page_size=1024)
    assert config.page_size == 1024
    assert config.dims == 2


def test_forest_config_rejects_zero_partitions():
    with pytest.raises(ValueError):
        ForestConfig(partitions=0)


def test_forest_preset_routes_overrides():
    config = forest_config(
        partitions=2, split_buffer=False, max_speed=5.0, page_size=1024
    )
    assert not config.split_buffer
    assert config.max_speed == 5.0
    assert config.tree.page_size == 1024


def test_explicit_partitioner_must_match_partition_count():
    with pytest.raises(ValueError):
        PartitionedMovingObjectForest(
            forest_config(partitions=4, **SIZING),
            partitioner=SpeedPartitioner.uniform(2, 3.0),
        )


def test_members_share_the_clock():
    forest = make_forest(partitions=3)
    forest.clock.advance_to(7.0)
    assert all(tree.now == 7.0 for tree in forest.trees)


# -- routing ------------------------------------------------------------------


@on_both_executors
def test_insert_routes_by_speed_class(make):
    forest = make(partitions=3, max_speed=3.0)
    forest.insert(1, MovingPoint((1.0, 1.0), (0.1, 0.0), 0.0, 50.0))
    forest.insert(2, MovingPoint((2.0, 2.0), (1.5, 0.0), 0.0, 50.0))
    forest.insert(3, MovingPoint((3.0, 3.0), (2.9, 0.0), 0.0, 50.0))
    assert member_counts(forest) == [1, 1, 1]


@on_both_executors
def test_delete_routes_to_the_inserting_tree(make):
    forest = make(partitions=2, max_speed=3.0)
    fast = MovingPoint((1.0, 1.0), (2.9, 0.0), 0.0, 50.0)
    forest.insert(1, fast)
    assert forest.delete(1, fast)
    assert forest.leaf_entry_count == 0
    assert not forest.delete(1, fast)


@on_both_executors
def test_update_migrates_between_speed_classes(make):
    forest = make(partitions=2, max_speed=3.0)
    slow = MovingPoint((1.0, 1.0), (0.1, 0.0), 0.0, 50.0)
    forest.insert(1, slow)
    assert member_counts(forest) == [1, 0]
    fast = MovingPoint((1.0, 1.0), (2.9, 0.0), 0.0, 50.0)
    assert forest.update(1, slow, fast)
    assert member_counts(forest) == [0, 1]
    # A same-member update stays one member-local write.
    faster = MovingPoint((1.0, 1.0), (2.95, 0.0), 0.0, 50.0)
    assert forest.update(1, fast, faster)
    assert member_counts(forest) == [0, 1]


# -- aggregation --------------------------------------------------------------


def test_aggregated_stats_and_pages():
    rng = random.Random(3)
    forest = make_forest(partitions=4)
    for oid in range(120):
        forest.insert(oid, velocity_point(rng, forest.clock))
    assert forest.page_count == sum(forest.partition_page_counts())
    snaps = forest.partition_snapshots()
    total = forest.stats.snapshot()
    assert total.reads == sum(s.reads for s in snaps)
    assert total.writes == sum(s.writes for s in snaps)
    before = forest.stats.snapshot()
    forest.query(TimesliceQuery(Rect((0.0, 0.0), (50.0, 50.0)), 1.0))
    assert forest.stats.since(before).total >= 0
    assert forest.stats.total == total.total + forest.stats.since(before).total


def test_audit_sums_members():
    rng = random.Random(4)
    forest = make_forest(partitions=3)
    for oid in range(90):
        forest.insert(oid, velocity_point(rng, forest.clock))
    audit = forest.audit()
    members = forest.partition_audits()
    assert audit.leaf_entries == sum(a.leaf_entries for a in members) == 90
    assert audit.nodes == sum(a.nodes for a in members)
    assert audit.height == max(a.height for a in members)
    assert len(forest.partition_labels()) == 3


# -- bulk loading -------------------------------------------------------------


def test_bulk_load_requires_empty_forest():
    forest = make_forest(partitions=2)
    forest.insert(1, MovingPoint((1.0, 1.0), (0.1, 0.0), 0.0, 50.0))
    with pytest.raises(ValueError, match="empty forest"):
        forest.bulk_load([(MovingPoint((2.0, 2.0), (0.1, 0.0), 0.0, 50.0), 2)])


def test_bulk_load_refits_data_driven_boundaries():
    rng = random.Random(5)
    clock = SimulationClock()
    forest = make_forest(partitions=4, clock=clock)
    entries = [(velocity_point(rng, clock), oid) for oid in range(200)]
    forest.bulk_load(entries)
    # Quantile boundaries: each member holds ~a quarter of the entries.
    counts = [tree.leaf_entry_count for tree in forest.trees]
    assert sum(counts) == 200
    assert min(counts) >= 40
    forest.check_invariants()


def test_bulk_load_without_refit_keeps_uniform_buckets():
    rng = random.Random(6)
    clock = SimulationClock()
    forest = make_forest(partitions=4, clock=clock, refit_on_bulk_load=False)
    boundaries = forest.partitioner.boundaries
    forest.bulk_load([(velocity_point(rng, clock), oid) for oid in range(50)])
    assert forest.partitioner.boundaries == boundaries


# -- scheduled-deletion wrapping ---------------------------------------------


def test_forest_wraps_in_scheduled_deletion_index():
    rng = random.Random(7)
    clock = SimulationClock()
    forest = make_forest(partitions=2, clock=clock)
    index = ScheduledDeletionIndex(forest, queue_buffer_pages=8)
    for oid in range(40):
        index.insert(oid, velocity_point(rng, clock, max_life=10.0))
    assert index.pending_events == 40
    index.advance_time(100.0)
    assert index.scheduled_deletions == 40
    assert index.missed_deletions == 0
    assert forest.audit().leaf_entries == 0


# -- oracle equivalence -------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["speed", "direction"]),
    bulk=st.booleans(),
)
def test_forest_answers_equal_single_tree_oracle(seed, kind, bulk):
    """Queries of all three types, across partitioners, after bulk_load
    and across expirations, must return exactly a single tree's answers."""
    rng = random.Random(seed)
    clock = SimulationClock()
    forest = PartitionedMovingObjectForest(
        forest_config(partitions=4, partitioner=kind, **SIZING), clock
    )
    oracle = MovingObjectTree(rexp_config(**SIZING), clock)
    live = {}

    def check_queries():
        t1 = clock.time + rng.uniform(0.0, 10.0)
        t2 = t1 + rng.uniform(0.0, 10.0)
        xs = sorted(rng.uniform(0.0, 100.0) for _ in range(2))
        ys = sorted(rng.uniform(0.0, 100.0) for _ in range(2))
        rect1 = Rect((xs[0], ys[0]), (xs[1], ys[1]))
        dx, dy = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
        rect2 = Rect(
            (xs[0] + dx, ys[0] + dy), (xs[1] + dx, ys[1] + dy)
        )
        for query in (
            TimesliceQuery(rect1, t1),
            WindowQuery(rect1, t1, t2),
            MovingQuery(rect1, rect2, t1, t2),
        ):
            assert sorted(forest.query(query)) == sorted(oracle.query(query))

    initial = [(oid, velocity_point(rng, clock)) for oid in range(30)]
    if bulk:
        forest.bulk_load([(point, oid) for oid, point in initial])
        oracle.bulk_load([(point, oid) for oid, point in initial])
    else:
        for oid, point in initial:
            forest.insert(oid, point)
            oracle.insert(oid, point)
    live.update(initial)
    next_oid = len(initial)
    check_queries()

    for _ in range(15):
        roll = rng.random()
        if roll < 0.25:
            point = velocity_point(rng, clock)
            forest.insert(next_oid, point)
            oracle.insert(next_oid, point)
            live[next_oid] = point
            next_oid += 1
        elif roll < 0.55 and live:
            oid = rng.choice(sorted(live))
            new = velocity_point(rng, clock)
            assert forest.update(oid, live[oid], new) == oracle.update(
                oid, live[oid], new
            )
            live[oid] = new
        elif roll < 0.7 and live:
            oid = rng.choice(sorted(live))
            point = live.pop(oid)
            assert forest.delete(oid, point) == oracle.delete(oid, point)
        else:
            # Let reports expire, exercising lazy purging in both.
            clock.advance_to(clock.time + rng.uniform(0.0, 8.0))
    check_queries()
    forest.check_invariants()
