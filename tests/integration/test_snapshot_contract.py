"""One index contract, checked once over every index shape.

:mod:`repro.core.index` says what an index is.  A tree, a forest, a
sharded forest, a replica (for reads), the scheduled-deletion index and
an accounted experiment adapter must all keep it: the same answers to
the same operation stream, ``update`` as delete-then-insert, kNN in the
brute-force order, one query a batch of one, an
:class:`~repro.core.tree.EntrySnapshot` isolated from later mutations,
and ``local_stores()`` naming exactly what a serving frontend tracks.
"""

import random
from types import SimpleNamespace

import pytest

from repro.core.clock import SimulationClock
from repro.core.config import TreeConfig
from repro.core.forest import ForestConfig, PartitionedMovingObjectForest
from repro.core.scheduled import ScheduledDeletionIndex
from repro.core.tree import EntrySnapshot, MovingObjectTree
from repro.experiments.adapters import TreeAdapter
from repro.geometry.intersection import region_matches_point
from repro.geometry.kinematics import MovingPoint
from repro.geometry.knn import brute_force_knn
from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.serve.frontend import ServiceFrontend
from repro.shard import ShardConfig, ShardedForest
from repro.storage.pagefile import FilePageStore
from repro.workloads.base import (
    DeleteOp,
    InsertOp,
    KnnOp,
    QueryOp,
    UpdateOp,
    apply_op,
)

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


def _shape(writer, reader=None, sync=lambda: None, close=lambda: None,
           stores=None, io=None):
    """One deployment of a shape: where writes go, where reads come from."""
    return SimpleNamespace(
        writer=writer,
        reader=reader if reader is not None else writer,
        sync=sync,
        close=close,
        stores=stores if stores is not None else [writer.disk],
        io=io if io is not None else (lambda: writer.stats.snapshot()),
        advance=getattr(writer, "advance_time", writer.clock.advance_to),
    )


def _tree(tmp_path):
    return _shape(MovingObjectTree(CONFIG, SimulationClock()))


def _forest(tmp_path):
    forest = PartitionedMovingObjectForest(
        ForestConfig(tree=CONFIG, partitions=3), SimulationClock()
    )
    return _shape(forest, stores=[tree.disk for tree in forest.trees])


def _sharded(tmp_path):
    forest = ShardedForest.create(
        str(tmp_path / "s"),
        ShardConfig(workers=2, tree=CONFIG, space=100.0, join_timeout=10.0),
    )
    return _shape(
        forest, close=forest.close, stores=[], io=forest.io_snapshot
    )


def _replica(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)

    def close():
        tree.close()
        replica.close()

    return _shape(
        tree, replica, lambda: catch_up(channel, replica), close
    )


def _scheduled(tmp_path):
    tree = MovingObjectTree(CONFIG, SimulationClock())
    return _shape(ScheduledDeletionIndex(tree), stores=[tree.disk])


def _adapter(tmp_path):
    adapter = TreeAdapter("accounted", CONFIG)
    return _shape(adapter, stores=[adapter.tree.disk])


SHAPES = [_tree, _forest, _sharded, _replica, _scheduled, _adapter]


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


@pytest.mark.parametrize("build", SHAPES)
def test_snapshot_contract(build, tmp_path):
    rng = random.Random(29)

    def report():
        return MovingPoint(
            (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)),
            (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
            0.0, rng.uniform(5.0, 60.0),
        )

    shape = build(tmp_path)
    writer, reader, sync = shape.writer, shape.reader, shape.sync
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
        shape.close()


def _stream(seed=29, length=300):
    """A seeded mixed stream over a dyadic grid, and its brute-force table.

    Every coordinate, velocity and time is a small multiple of a power
    of two, so the page codec's binary32 rounding (and a replica's
    re-referencing to the commit clock) is exact: durable shapes must
    then agree with the float64 table to the last bit, not just up to
    rounding.  Updates and deletions only ever name unexpired reports —
    deleting an expired one legitimately fails (Section 4.1.5) — and
    expiration times sit a quarter step off every operation and query
    time, so "expires exactly now" (where a scheduled deletion and lazy
    expiry legitimately differ) never arises.

    Yields ``(operation, table)`` with the table as it stands *before*
    the operation.
    """
    rng = random.Random(seed)

    def grid(lo, hi, step):
        return lo + step * rng.randrange(int((hi - lo) / step) + 1)

    def report(now):
        return MovingPoint(
            (grid(0.0, 100.0, 0.25), grid(0.0, 100.0, 0.25)),
            (grid(-2.0, 2.0, 0.125), grid(-2.0, 2.0, 0.125)),
            now, now + grid(5.0, 40.0, 0.5) + 0.25,
        )

    def rect():
        x, y = grid(0.0, 60.0, 0.25), grid(0.0, 60.0, 0.25)
        return Rect((x, y), (x + grid(10.0, 40.0, 0.25),
                             y + grid(10.0, 40.0, 0.25)))

    table, now, next_oid = {}, 0.0, 0
    for _ in range(length):
        now += grid(0.0, 1.0, 0.5)
        alive = [oid for oid, point in table.items() if point.t_exp > now]
        roll = rng.random()
        if roll < 0.35 or len(alive) < 10:
            op = InsertOp(now, next_oid, report(now))
            next_oid += 1
        elif roll < 0.65:
            oid = rng.choice(alive)
            op = UpdateOp(now, oid, table[oid], report(now))
        elif roll < 0.72:
            oid = rng.choice(alive)
            op = DeleteOp(now, oid, table[oid])
        elif roll < 0.9:
            kind, later = rng.randrange(3), now + grid(0.0, 10.0, 0.5)
            if kind == 0:
                query = TimesliceQuery(rect(), later)
            elif kind == 1:
                query = WindowQuery(rect(), now, later)
            else:
                query = MovingQuery(rect(), rect(), now, later)
            op = QueryOp(now, query)
        else:
            op = KnnOp(
                now, (grid(0.0, 100.0, 0.25), grid(0.0, 100.0, 0.25)),
                now + grid(0.0, 5.0, 0.5), rng.randrange(0, 12),
            )
        yield op, table
        if isinstance(op, InsertOp):
            table[op.oid] = op.point
        elif isinstance(op, UpdateOp):
            table[op.oid] = op.new_point
        elif isinstance(op, DeleteOp):
            del table[op.oid]


@pytest.mark.parametrize("build", SHAPES)
def test_index_contract(build, tmp_path):
    # Two identical deployments: the second only differs at the end,
    # where it spells an update as its two halves.
    first, second = build(tmp_path / "a"), build(tmp_path / "b")
    reads = 0
    try:
        for op, table in _stream():
            entries = [(point, oid) for oid, point in table.items()]
            for shape in (first, second):
                shape.advance(op.time)
            if isinstance(op, (QueryOp, KnnOp)):
                reads += 1
                for shape in (first, second):  # same I/O on both sides
                    shape.sync()
                    got = apply_op(shape.reader, op)
            if isinstance(op, QueryOp):
                region = op.query.region()
                assert sorted(got) == sorted(
                    oid for point, oid in entries
                    if region_matches_point(region, point)
                )
                # One query is a batch of one, order included.
                assert second.reader.query_batch([op.query]) == [got]
                assert first.reader.query_batch([op.query]) == [got]
            elif isinstance(op, KnnOp):
                assert got == brute_force_knn(entries, op.x, op.t, op.k)
                assert first.reader.query_knn(op.x, op.t, op.k) == [
                    oid for _, oid in got
                ]
            else:
                for shape in (first, second):
                    assert apply_op(shape.writer, op) is not False
        assert reads > 50

        # local_stores() is exactly what the frontend's commit tracking sums.
        stores = first.writer.local_stores()
        assert len(stores) == len(first.stores)
        assert all(a is b for a, b in zip(stores, first.stores))
        durable = all(isinstance(store, FilePageStore) for store in stores)
        assert ServiceFrontend(first.writer)._op_seq_mark() == (
            sum(store.op_seq for store in stores) if durable else 0
        )

        # update(o, a, b) == delete(o, a); insert(o, b): state and I/O.
        now = first.writer.clock.time
        oid, old = next(
            (oid, point) for oid, point in table.items() if point.t_exp > now
        )
        new = MovingPoint((99.75, 0.25), (-1.5, 1.75), now, now + 30.0)
        assert first.io() == second.io()
        assert first.writer.update(oid, old, new) is True
        assert second.writer.delete(oid, old) is True
        second.writer.insert(oid, new)
        assert first.io() == second.io()
        table[oid] = new
        for shape in (first, second):
            shape.sync()
        entries = list(first.reader.snapshot().leaf_entries())
        assert entries == list(second.reader.snapshot().leaf_entries())
        assert _trajectories(e for e in entries if e[0].t_exp > now) == (
            _trajectories(
                (point, oid) for oid, point in table.items()
                if point.t_exp > now
            )
        )
    finally:
        first.close()
        second.close()
