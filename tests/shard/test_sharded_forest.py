"""End-to-end tests for the partitioned index on a directory.

Where a test asserts a property of the partitioned index itself, it
runs once per executor: members in this process
(:class:`PartitionedMovingObjectForest`) and members in worker processes
(:class:`ShardedForest`).  Every test that spawns workers keeps the
member count at two and the workload small: worker startup is a full
interpreter ``spawn``, so the suite buys its coverage with as few
forests as possible.
"""

import math
import os
import random

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.forest import PartitionedMovingObjectForest
from repro.core.tree import MovingObjectTree
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.serve import FrontendConfig, ServiceFrontend
from repro.shard import (
    ShardConfig,
    ShardCrashError,
    ShardedForest,
    ShardWorkerError,
)
from repro.storage.faults import TransientIOError
from repro.workloads.base import (
    DeleteOp,
    InsertOp,
    QueryOp,
    UpdateOp,
    route_op,
)
from repro.workloads.expiration import FixedPeriod
from repro.workloads.network import NetworkParams, generate_network_workload

TREE = TreeConfig(page_size=512, buffer_pages=16, default_ui=10.0)
SPACE = 100.0
EXECUTORS = {
    "in-process": PartitionedMovingObjectForest,
    "workers": ShardedForest,
}




def on_both_executors(check):
    """Run ``check(kind, tmp_path)`` once per executor, in one test.

    ``kind`` is the executor's forest class and ``tmp_path`` a fresh
    directory of its own; the test keeps the check's name.
    """
    def test(tmp_path):
        for name, kind in sorted(EXECUTORS.items()):
            (tmp_path / name).mkdir()
            check(kind, tmp_path / name)

    test.__name__, test.__doc__ = check.__name__, check.__doc__
    return test


def shard_config(**overrides):
    base = dict(
        workers=2, tree=TREE, partitioner="grid",
        space=SPACE, reach=90.0, join_timeout=10.0,
    )
    base.update(overrides)
    return ShardConfig(**base)


def random_report(rng, t, max_life=30.0):
    speed = rng.uniform(0.0, 3.0)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return MovingPoint(
        (rng.uniform(0.0, SPACE), rng.uniform(0.0, SPACE)),
        (speed * math.cos(angle), speed * math.sin(angle)),
        t,
        t + rng.uniform(5.0, max_life),
    )


def sample_queries(t):
    rect1 = Rect((10.0, 10.0), (60.0, 60.0))
    rect2 = Rect((30.0, 30.0), (80.0, 80.0))
    return (
        TimesliceQuery(rect1, t + 1.0),
        WindowQuery(rect1, t, t + 8.0),
        MovingQuery(rect1, rect2, t, t + 8.0),
    )


def small_workload(seed=0, insertions=150):
    params = NetworkParams(
        target_population=40,
        insertions=insertions,
        update_interval=10.0,
        space=SPACE,
        queries_per_insertions=10,
        seed=seed,
    )
    return generate_network_workload(params, FixedPeriod(20.0))


def oracle_replay(ops, config=TREE):
    """Single-tree fault-free replay: (answers by op index, failures)."""
    clock = SimulationClock()
    tree = MovingObjectTree(config, clock)
    answers, failed = {}, 0
    for i, op in enumerate(ops):
        clock.advance_to(op.time)
        if isinstance(op, InsertOp):
            tree.insert(op.oid, op.point)
        elif isinstance(op, UpdateOp):
            if not tree.update(op.oid, op.old_point, op.new_point):
                failed += 1
        elif isinstance(op, DeleteOp):
            if not tree.delete(op.oid, op.point):
                failed += 1
        elif isinstance(op, QueryOp):
            answers[i] = op.query
            answers[i] = tree.query(op.query)
    return answers, failed


# -- scatter-gather equals a single tree --------------------------------------


@on_both_executors
def test_interactive_ops_match_single_tree_oracle(kind, tmp_path):
    rng = random.Random(11)
    oracle = MovingObjectTree(TREE, SimulationClock())
    with kind.create(str(tmp_path / "s"), shard_config()) as forest:
        live = {}
        for oid in range(60):
            point = random_report(rng, forest.clock.time)
            forest.insert(oid, point)
            oracle.insert(oid, point)
            live[oid] = point
        for oid in list(live)[:12]:
            new = random_report(rng, forest.clock.time)
            assert forest.update(oid, live[oid], new) == oracle.update(
                oid, live[oid], new
            )
            live[oid] = new
        for oid in list(live)[:8]:
            point = live.pop(oid)
            assert forest.delete(oid, point) == oracle.delete(oid, point)
        assert not forest.delete(10_000, random_report(rng, 0.0))
        for query in sample_queries(forest.clock.time):
            assert sorted(forest.query(query)) == sorted(oracle.query(query))
        assert forest.leaf_entry_count == oracle.leaf_entry_count
        assert forest.audit().leaf_entries == oracle.audit().leaf_entries


@on_both_executors
def test_batched_replay_matches_oracle_and_reports_spans(kind, tmp_path):
    workload = small_workload(seed=3)
    expected, expected_failed = oracle_replay(workload.ops)
    with kind.create(
        str(tmp_path / "s"), shard_config(batch_ops=32)
    ) as forest:
        result = forest.apply_ops(workload.ops)
    assert result.ops == len(workload.ops)
    assert result.failed_deletes == expected_failed
    assert set(result.answers) == set(expected)
    for index, answer in expected.items():
        assert sorted(result.answers[index]) == sorted(answer)
    assert result.batches >= 2
    assert len(result.shard_busy_seconds) == 2
    assert result.wall_seconds >= result.blocked_seconds >= 0.0
    assert result.model_makespan_seconds > 0.0
    assert max(result.shard_busy_seconds) <= sum(result.shard_busy_seconds)
    # Grid pruning: at least one query must scatter below full fan-out.
    queries = len(expected)
    assert queries <= result.scattered_queries <= 2 * queries


@on_both_executors
def test_snapshot_gathers_all_shards(kind, tmp_path):
    rng = random.Random(5)
    with kind.create(str(tmp_path / "s"), shard_config()) as forest:
        points = {
            oid: random_report(rng, 0.0) for oid in range(40)
        }
        for oid, point in points.items():
            forest.insert(oid, point)
        snapshot = forest.snapshot()
        assert snapshot.leaf_entry_count == 40
        assert {oid for _, oid in snapshot.leaf_entries()} == set(points)
        answer = snapshot.query(TimesliceQuery(Rect((0.0, 0.0), (SPACE, SPACE)), 1.0))
        assert sorted(answer) == sorted(points)


# -- durability ---------------------------------------------------------------


@on_both_executors
def test_close_checkpoints_and_reopen_preserves_answers(kind, tmp_path):
    rng = random.Random(7)
    directory = str(tmp_path / "s")
    oracle = MovingObjectTree(TREE, SimulationClock())
    with kind.create(directory, shard_config()) as forest:
        for oid in range(50):
            point = random_report(rng, forest.clock.time)
            forest.insert(oid, point)
            oracle.insert(oid, point)
        last_time = forest.clock.time
    reopened = kind.open(directory)
    try:
        reopened.clock.advance_to(last_time)
        for query in sample_queries(last_time):
            assert sorted(reopened.query(query)) == sorted(oracle.query(query))
        assert reopened.leaf_entry_count == oracle.leaf_entry_count
    finally:
        reopened.close()


def test_reopened_and_revived_workers_keep_feeding_the_registry(tmp_path):
    """A worker that recovers its tree must still observe it."""
    rng = random.Random(19)
    directory = str(tmp_path / "s")
    ShardedForest.create(directory, shard_config()).close()
    with ShardedForest.open(directory, shard_config()) as forest:
        for oid in range(20):
            forest.insert(oid, random_report(rng, forest.clock.time))
        assert forest.registry_snapshot().value("tree.inserts") == 20
        forest.crash_worker(0)
        point = MovingPoint((5.0, 5.0), (0.1, 0.0), 0.0, 50.0)
        assert forest.partitioner.partition_of(point) == 0
        with pytest.raises(ShardCrashError):
            forest.insert(100, point)
        forest.insert(100, point)  # revives shard 0 through recovery
        payloads = forest.stats_payloads()
        assert MetricsRegistry.from_dict(
            payloads[0]["metrics"]
        ).value("tree.inserts") == 1  # the revived worker's own count
        assert forest.registry_snapshot().value("buffer.hits") > 0


@on_both_executors
def test_open_rejects_missing_or_mismatched_manifest(kind, tmp_path):
    with pytest.raises(FileNotFoundError):
        kind.open(str(tmp_path / "nowhere"))
    directory = str(tmp_path / "s")
    kind.create(directory, shard_config()).close()
    with pytest.raises(ValueError, match="workers"):
        kind.open(directory, shard_config(workers=3))


# -- worker lifecycle ---------------------------------------------------------


def test_worker_crash_surfaces_as_retryable_then_revives(tmp_path):
    rng = random.Random(13)
    oracle = MovingObjectTree(TREE, SimulationClock())
    with ShardedForest.create(str(tmp_path / "s"), shard_config()) as forest:
        live = {}
        for oid in range(30):
            point = random_report(rng, forest.clock.time)
            forest.insert(oid, point)
            oracle.insert(oid, point)
            live[oid] = point
        forest.checkpoint()
        victim = forest.partitioner.partition_of(live[0])
        forest.crash_worker(victim)
        # The next operation touching the dead shard fails fast with a
        # *retryable* storage fault rather than hanging the router.
        with pytest.raises(ShardCrashError) as caught:
            forest.query(TimesliceQuery(Rect((0.0, 0.0), (SPACE, SPACE)), 1.0))
        assert isinstance(caught.value, TransientIOError)
        # The retry revives the shard through WAL recovery; committed
        # state survives and answers again equal the oracle.
        for query in sample_queries(forest.clock.time):
            assert sorted(forest.query(query)) == sorted(oracle.query(query))
        point = random_report(rng, forest.clock.time)
        forest.insert(999, point)
        oracle.insert(999, point)
        assert forest.leaf_entry_count == oracle.leaf_entry_count


def test_scatter_aborted_by_a_crash_leaves_no_stale_answers(tmp_path):
    """Replies to an aborted scatter must not be read as the next one's."""
    rng = random.Random(23)
    everywhere = Rect((0.0, 0.0), (SPACE, SPACE))
    with ShardedForest.create(str(tmp_path / "s"), shard_config()) as forest:
        for oid in range(30):
            forest.insert(oid, random_report(rng, 0.0))
        wide = [TimesliceQuery(everywhere, 1.0 + i) for i in range(5)]
        want = forest.query_batch(wide)
        forest.crash_worker(1)
        # Shard 0 is sent its five-query batch before shard 1 is found
        # dead; its reply is still in the pipe when the next scatter runs.
        with pytest.raises(ShardCrashError):
            forest.query_batch(wide)
        assert forest.query(wide[4]) == want[4]
        assert forest.query_batch(wide[:2]) == want[:2]


def test_close_is_bounded_and_idempotent_after_crash(tmp_path):
    forest = ShardedForest.create(
        str(tmp_path / "s"), shard_config(join_timeout=2.0)
    )
    forest.insert(1, MovingPoint((5.0, 5.0), (0.1, 0.0), 0.0, 50.0))
    forest.crash_worker(forest.partitioner.partition_of(
        MovingPoint((5.0, 5.0), (0.1, 0.0), 0.0, 50.0)
    ))
    forest.close()  # must not hang on the dead worker
    forest.close()  # idempotent
    with pytest.raises(Exception, match="closed"):
        forest.insert(2, MovingPoint((5.0, 5.0), (0.1, 0.0), 0.0, 50.0))


def test_worker_errors_report_the_traceback(tmp_path):
    with ShardedForest.create(str(tmp_path / "s"), shard_config()) as forest:
        point = MovingPoint((5.0, 5.0), (0.1, 0.0), 0.0, 50.0)
        forest.insert(1, point)
        # An oid beyond the page codec's u32 range is a worker-side
        # ValueError; it must come back as a reported fault with the
        # traceback.
        with pytest.raises(ShardWorkerError, match="Traceback"):
            forest.insert(2**40, point)
        # The worker survives a reported error and keeps serving.
        assert forest.leaf_entry_count == 1


# -- configuration ------------------------------------------------------------


def test_buffer_budget_splits_across_workers():
    config = shard_config(workers=2, tree=TREE.with_(buffer_pages=9))
    shares = [config.member_tree_config(i).buffer_pages for i in range(2)]
    assert shares == [5, 4]
    whole = config.with_(split_buffer=False)
    assert whole.member_tree_config(0).buffer_pages == 9


def test_config_rejects_degenerate_values():
    with pytest.raises(ValueError):
        ShardConfig(workers=0)
    with pytest.raises(ValueError):
        ShardConfig(batch_ops=0)


# -- serving frontend over shards ---------------------------------------------


@on_both_executors
def test_frontend_serves_sharded_index(kind, tmp_path):
    workload = small_workload(seed=9, insertions=120)
    expected, _ = oracle_replay(workload.ops)
    forest = kind.create(str(tmp_path / "s"), shard_config())
    try:
        frontend = ServiceFrontend(
            forest,
            FrontendConfig(queue_capacity=10_000, checkpoint_interval=60),
        )
        report = frontend.run(workload.ops)
        assert report.served_queries == len(expected)
        assert report.failed_queries == 0
        by_index = {o.index: o for o in report.outcomes}
        for index, answer in expected.items():
            assert by_index[index].answer == tuple(sorted(answer))
        assert report.checkpoints >= 1
    finally:
        forest.close()


# -- cross-query batching ------------------------------------------------------


@on_both_executors
def test_query_batch_matches_sequential_queries(kind, tmp_path):
    """One wire batch per shard answers exactly like one-at-a-time."""
    rng = random.Random(17)
    # A small batch size forces mid-send pipelining.
    config = shard_config(batch_ops=5)
    with kind.create(str(tmp_path / "s"), config) as forest:
        for oid in range(80):
            forest.insert(oid, random_report(rng, forest.clock.time))
        t = forest.clock.time
        queries = list(sample_queries(t))
        for _ in range(27):
            x = rng.uniform(0.0, SPACE - 20.0)
            y = rng.uniform(0.0, SPACE - 20.0)
            rect = Rect((x, y), (x + 20.0, y + 20.0))
            queries.append(WindowQuery(rect, t, t + rng.uniform(0.0, 8.0)))
        sequential = [forest.query(query) for query in queries]
        assert forest.query_batch(queries) == sequential
        assert forest.query_batch([]) == []
        assert forest.query_batch(queries[:1]) == sequential[:1]


@on_both_executors
def test_frontend_batched_serving_matches_oracle(kind, tmp_path):
    """batch_queries > 1 drains query runs without changing answers."""
    workload = small_workload(seed=9, insertions=120)
    expected, _ = oracle_replay(workload.ops)
    forest = kind.create(str(tmp_path / "s"), shard_config())
    try:
        frontend = ServiceFrontend(
            forest,
            FrontendConfig(queue_capacity=10_000, checkpoint_interval=60,
                           batch_queries=8),
        )
        report = frontend.run(workload.ops)
        assert report.served_queries == len(expected)
        assert report.failed_queries == 0
        by_index = {o.index: o for o in report.outcomes}
        for index, answer in expected.items():
            assert by_index[index].answer == tuple(sorted(answer))
    finally:
        forest.close()


@on_both_executors
def test_scatter_merge_orders_on_a_pruning_grid(kind, tmp_path):
    """One scatter, two merge orders — each exactly what its caller promises.

    A 2x2 grid with a finite reach enumerates a query's cells
    column-major (0, 2, 1, 3), not ascending.  ``query`` and
    ``query_batch`` concatenate the per-shard parts in that own-targets
    order; ``apply_ops`` concatenates them in ascending shard order.
    """
    config = shard_config(workers=4, reach=10.0)
    with kind.create(str(tmp_path / "sharded"), config) as forest:
        assert forest.partitioner.query_partitions(
            TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0).region()
        ) == (0, 2, 1, 3)
        # One stationary object per cell: oid == its shard.
        for shard, (x, y) in enumerate(
            [(25.0, 25.0), (75.0, 25.0), (25.0, 75.0), (75.0, 75.0)]
        ):
            point = MovingPoint((x, y), (0.0, 0.0), 0.0, 50.0)
            assert forest.partitioner.partition_of(point) == shard
            forest.insert(shard, point)
        forest.clock.advance_to(1.0)
        everywhere = TimesliceQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0)
        east = TimesliceQuery(Rect((60.0, 0.0), (100.0, 100.0)), 1.0)
        assert forest.query(everywhere) == [0, 2, 1, 3]
        assert forest.query(east) == [1, 3]
        assert forest.query_batch([everywhere, east, everywhere]) == [
            [0, 2, 1, 3], [1, 3], [0, 2, 1, 3],
        ]
        moved = MovingPoint((80.0, 80.0), (0.0, 0.0), 1.0, 50.0)
        result = forest.apply_ops([
            QueryOp(1.0, everywhere),
            UpdateOp(1.0, 0, MovingPoint((25.0, 25.0), (0.0, 0.0), 0.0, 50.0),
                     moved),  # migrates shard 0 -> 3: two wire records
            QueryOp(1.0, east),
            QueryOp(1.0, everywhere),
        ], batch_ops=2)
        assert result.answers == {
            0: [0, 1, 2, 3], 2: [1, 3, 0], 3: [1, 2, 3, 0],
        }
        assert list(result.answers) == [0, 2, 3]
        assert result.ops == 4
        assert result.failed_deletes == 0
        assert result.scattered_queries == 4 + 2 + 4
        # Every batch sent was acknowledged and tallied.
        assert result.batches >= 4


# -- one directory format, two executors ----------------------------------------


@pytest.mark.parametrize("writer, reader", [
    (PartitionedMovingObjectForest, ShardedForest),
    (ShardedForest, PartitionedMovingObjectForest),
], ids=["in-process-then-workers", "workers-then-in-process"])
def test_directory_reopens_under_the_other_executor(tmp_path, writer, reader):
    """One manifest: either executor opens what the other wrote."""
    rng = random.Random(31)
    directory = str(tmp_path / "forest")
    # A speed partitioner refits its boundaries on bulk load, so the
    # manifest must carry data-driven state, not just the config.
    config = shard_config(partitioner="speed")
    live = {oid: random_report(rng, 0.0) for oid in range(60)}
    with writer.create(directory, config) as forest:
        forest.bulk_load([(point, oid) for oid, point in live.items()])
        for oid in range(60, 90):
            forest.clock.advance_to(forest.clock.time + 0.1)
            live[oid] = random_report(rng, forest.clock.time)
            forest.insert(oid, live[oid])
        for oid in range(0, 90, 9):  # some of these change speed class
            new = random_report(rng, forest.clock.time)
            assert forest.update(oid, live[oid], new)
            live[oid] = new
        boundaries = forest.partitioner.boundaries
        clock = forest.clock.time
        queries = sample_queries(clock)
        want = forest.query_batch(queries)
        want_knn = forest.query_knn((50.0, 50.0), clock + 1.0, 7)
        want_audit = forest.audit()
    assert os.path.exists(os.path.join(directory, "forest.json"))
    with reader.open(directory) as reopened:
        assert type(reopened) is reader
        assert reopened.partitioner.boundaries == boundaries
        assert reopened.clock.time == clock
        assert reopened.config.tree == TREE
        assert reopened.query_batch(queries) == want
        assert [reopened.query(q) for q in queries] == want
        assert reopened.query_knn((50.0, 50.0), clock + 1.0, 7) == want_knn
        assert reopened.audit() == want_audit


def test_apply_ops_is_the_same_replay_on_both_executors(tmp_path):
    """In-process and worker members replay a stream to the same answers.

    The stream migrates objects between grid cells (an update whose two
    halves route to different members), queries between the writes,
    and kNN requests between replay chunks.
    """
    workload = small_workload(seed=7, insertions=200)
    config = shard_config(batch_ops=16)
    partitioner = None
    outcomes = {}
    for name, kind in sorted(EXECUTORS.items()):
        with kind.create(
            str(tmp_path / name), config, partitioner
        ) as forest:
            partitioner = forest.partitioner
            results, nearest = [], []
            for start in range(0, len(workload.ops), 90):
                chunk = workload.ops[start:start + 90]
                results.append(forest.apply_ops(chunk))
                t = forest.clock.time
                nearest.append(forest.knn_entries((40.0, 60.0), t, 6))
            outcomes[name] = (
                [(r.ops, r.answers, r.failed_deletes) for r in results],
                nearest,
                forest.audit(),
            )
    migrations = sum(
        1 for op in workload.ops
        if isinstance(op, UpdateOp) and len(route_op(partitioner, op)) == 2
    )
    assert migrations > 0
    assert outcomes["in-process"] == outcomes["workers"]
    expected, expected_failed = oracle_replay(workload.ops)
    replayed = outcomes["workers"][0]
    assert sum(failed for _, _, failed in replayed) == expected_failed
    answers = {}
    for start, (_, chunk_answers, _) in zip(
        range(0, len(workload.ops), 90), replayed
    ):
        for index, oids in chunk_answers.items():
            answers[start + index] = sorted(oids)
    assert answers == {i: sorted(a) for i, a in expected.items()}
