"""Tests for the replica: apply, parity, idempotency, resume."""

import shutil

import pytest

from repro.geometry.queries import MovingQuery, TimesliceQuery, WindowQuery
from repro.geometry.rect import Rect
from repro.obs import MetricsRegistry
from repro.replication import Replica, ReplicationError
from repro.storage.pagefile import FilePageStore

from .helpers import catch_up, drive, make_pair


def _panel(now):
    rect = Rect((10.0, 10.0), (70.0, 70.0))
    shifted = Rect((20.0, 20.0), (80.0, 80.0))
    return [
        TimesliceQuery(rect, now),
        WindowQuery(rect, now, now + 10.0),
        MovingQuery(rect, shifted, now, now + 5.0),
    ]


def test_replica_answers_match_primary_on_all_query_classes(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 40)
    catch_up(channel, replica)
    now = tree.clock.time
    queries = _panel(now)
    want = [sorted(tree.query(q)) for q in queries]
    assert [replica.query(q) for q in queries] == want
    assert replica.query_batch(queries) == want
    assert replica.query_knn((50.0, 50.0), now, 5) == tree.query_knn(
        (50.0, 50.0), now, 5
    )
    # Entry sets are trajectory-identical, not just answer-identical.
    # (Shipped page images re-reference entries to the commit-time
    # clock, so compare positions evaluated at a common time instead
    # of raw ``t_ref``/``pos`` fields.)
    def trajectories(entries):
        return sorted(
            (
                oid,
                tuple(round(c, 3) for c in p.position_at(now)),
                tuple(round(v, 6) for v in p.vel),
                round(p.t_exp, 6),
            )
            for p, oid in entries
        )

    assert trajectories(replica.snapshot().leaf_entries()) == trajectories(
        tree.snapshot().leaf_entries()
    )
    tree.close()
    replica.close()


def test_redelivered_batches_are_idempotent(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 5)
    batches = shipper.fetch()
    assert replica.apply(batches) == len(batches)
    before = sorted(replica.snapshot().leaf_entries(), key=lambda e: e[1])
    # A lost acknowledgment redelivers the same batches: a no-op.
    assert replica.apply(batches) == 0
    assert sorted(replica.snapshot().leaf_entries(), key=lambda e: e[1]) == before
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()


def test_out_of_order_batch_raises(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 4)
    batches = shipper.fetch()
    with pytest.raises(ReplicationError):
        replica.apply(batches[1:])  # skips the first fresh batch
    tree.close()
    replica.close()


def test_replica_wal_stays_truncated(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    for round_ in range(5):
        drive(tree, 10, start_oid=round_ * 100)
        catch_up(channel, replica)
        # Each apply replays and truncates the replica's own log back
        # to a single checkpoint record.
        assert replica.wal_bytes() < 256, (
            f"replica WAL grew to {replica.wal_bytes()} bytes"
        )
    tree.close()
    replica.close()


def test_reopen_resumes_from_own_log(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 12)
    catch_up(channel, replica)
    applied = replica.applied_op_seq
    layout = replica.layout
    directory = replica.directory
    replica.close()

    reopened = Replica(directory, layout)
    assert reopened.applied_op_seq == applied
    drive(tree, 6, start_oid=500)
    catch_up(channel, reopened)
    assert reopened.applied_op_seq == tree.disk.op_seq
    now = tree.clock.time
    want = [sorted(tree.query(q)) for q in _panel(now)]
    assert [reopened.query(q) for q in _panel(now)] == want
    tree.close()
    reopened.close()


def test_snapshot_is_isolated_from_later_applies(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 10)
    catch_up(channel, replica)
    now = tree.clock.time
    snap = replica.snapshot()
    assert snap.applied_op_seq == replica.applied_op_seq
    frozen = [sorted(snap.query(q)) for q in _panel(now)]
    drive(tree, 10, start_oid=200)
    catch_up(channel, replica)
    assert [sorted(snap.query(q)) for q in _panel(now)] == frozen
    assert replica.applied_op_seq > snap.applied_op_seq
    tree.close()
    replica.close()


def _page_table(store):
    return {
        pid: (node.level, node.ids.tolist(), node.regions().data.tolist())
        for pid, node in ((pid, store.peek(pid)) for pid in store.page_ids())
    }


def test_replica_page_table_is_what_a_reopen_loads(tmp_path):
    registry = MetricsRegistry()
    tree, _shipper, replica, channel = make_pair(tmp_path, registry=registry)
    for round_ in range(12):
        # Short-lived entries: by the end of each poll most leaves
        # written early in it are all-expired, so replay skips them.
        drive(tree, 15, seed=round_, start_oid=round_ * 100, lifetime=4.0)
        catch_up(channel, replica)
        copy = tmp_path / f"copy{round_}"
        shutil.copytree(replica.directory, copy)
        reopened = FilePageStore.open_dir(
            str(copy), replica.layout, now=lambda: 0.0
        )
        assert _page_table(replica._tree.disk) == _page_table(reopened)
        reopened.abandon()
        now = tree.clock.time
        queries = _panel(now)
        want = [sorted(tree.query(q)) for q in queries]
        assert [replica.query(q) for q in queries] == want
        assert replica.query_batch(queries) == want
        for k in (1, 5, 40):
            assert replica.query_knn((50.0, 50.0), now, k) == (
                tree.query_knn((50.0, 50.0), now, k)
            )
    assert registry.value("replication.skipped_expired") > 0
    tree.close()
    replica.close()
