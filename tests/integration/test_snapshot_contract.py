"""One snapshot contract for every index shape.

A tree, a forest, a sharded forest and a replica all hand degraded
serving the same thing: an :class:`~repro.core.tree.EntrySnapshot` of
their leaf entries, isolated from later mutations and answering by the
same expiration-clipping scan.
"""

import random

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.forest import ForestConfig, PartitionedMovingObjectForest
from repro.core.tree import EntrySnapshot, MovingObjectTree
from repro.geometry.intersection import region_matches_point
from repro.geometry.kinematics import MovingPoint
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.shard import ShardConfig, ShardedForest

from ..replication.helpers import catch_up, make_pair

CONFIG = TreeConfig(page_size=512, buffer_pages=16)
QUERIES = (
    TimesliceQuery(Rect((10.0, 10.0), (70.0, 70.0)), 2.0),
    WindowQuery(Rect((0.0, 0.0), (100.0, 100.0)), 1.0, 30.0),
    MovingQuery(
        Rect((10.0, 10.0), (50.0, 50.0)), Rect((40.0, 40.0), (90.0, 90.0)),
        1.0, 9.0,
    ),
)


def _tree(tmp_path):
    tree = MovingObjectTree(CONFIG, SimulationClock())
    return tree, tree, lambda: None, lambda: None


def _forest(tmp_path):
    forest = PartitionedMovingObjectForest(
        ForestConfig(tree=CONFIG, partitions=3), SimulationClock()
    )
    return forest, forest, lambda: None, lambda: None


def _sharded(tmp_path):
    forest = ShardedForest.create(
        str(tmp_path / "s"),
        ShardConfig(workers=2, tree=CONFIG, space=100.0, join_timeout=10.0),
    )
    return forest, forest, lambda: None, forest.close


def _replica(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)

    def close():
        tree.close()
        replica.close()

    return tree, replica, lambda: catch_up(channel, replica), close


def _trajectories(entries, now=1.0):
    # Durable shapes hand back binary32-rounded fields (and a replica
    # re-references them to the commit clock), so compare the motion,
    # not the raw representation.
    return sorted(
        (
            oid,
            tuple(round(c, 2) for c in point.position_at(now)),
            tuple(round(v, 4) for v in point.vel),
            round(point.t_exp, 3),
        )
        for point, oid in entries
    )


@pytest.mark.parametrize("build", [_tree, _forest, _sharded, _replica])
def test_snapshot_contract(build, tmp_path):
    rng = random.Random(29)

    def report():
        return MovingPoint(
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            0.0, rng.uniform(5.0, 60.0),
        )

    writer, reader, sync, close = build(tmp_path)
    try:
        live = {oid: report() for oid in range(60)}
        for oid, point in live.items():
            writer.insert(oid, point)
        for oid in range(0, 60, 7):
            assert writer.delete(oid, live.pop(oid))
        sync()
        snapshot = reader.snapshot()
        assert type(snapshot) is EntrySnapshot
        assert snapshot.leaf_entry_count == len(live)
        assert _trajectories(snapshot.leaf_entries()) == _trajectories(
            (point, oid) for oid, point in live.items()
        )
        frozen = list(snapshot.leaf_entries())
        answers = [snapshot.query(query) for query in QUERIES]
        for query, answer in zip(QUERIES, answers):
            region = query.region()
            assert answer == [
                oid for point, oid in frozen
                if region_matches_point(region, point)
            ]
            assert sorted(answer) == sorted(reader.query(query))
        assert any(answers)
        # Later mutations of the live index do not leak in.
        for oid in range(100, 130):
            writer.insert(oid, report())
        for oid in list(live)[:10]:
            assert writer.delete(oid, live.pop(oid))
        sync()
        assert reader.snapshot().leaf_entry_count == len(live) + 30
        assert list(snapshot.leaf_entries()) == frozen
        assert [snapshot.query(query) for query in QUERIES] == answers
    finally:
        close()
