"""Tests for promotion: controlled and crash failover, verification."""

import pytest

from repro.obs import MetricsRegistry
from repro.replication import (
    PromotionError,
    ReplicaLink,
    ReplicationError,
    start_follower,
)
from repro.storage.wal import WriteAheadLog

from .helpers import CONFIG, catch_up, drive, make_pair
from .test_replica import _panel


def test_controlled_promotion_is_lossless(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 30)
    catch_up(channel, replica)
    committed = tree.disk.op_seq
    now = tree.clock.time
    want = [sorted(tree.query(q)) for q in _panel(now)]
    tree.close()

    promoted = replica.promote(CONFIG, channel=channel)
    assert replica.promoted
    assert promoted.disk.op_seq == committed
    assert [sorted(promoted.query(q)) for q in _panel(now)] == want
    # The promoted tree is a full primary: it accepts writes.
    drive(promoted, 3, start_oid=900)
    assert promoted.disk.op_seq > committed
    promoted.close()


def test_crash_failover_drains_the_unshipped_tail(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 20)
    catch_up(channel, replica)
    drive(tree, 10, start_oid=300)  # committed but never shipped
    committed = tree.disk.op_seq
    now = tree.clock.time
    want = [sorted(tree.query(q)) for q in _panel(now)]
    assert replica.applied_op_seq < committed
    tree.disk.abandon()  # the primary dies without a clean close

    # The drain reads the dead primary's durable log, so promotion
    # still reaches the full committed prefix: zero writes lost.
    promoted = replica.promote(CONFIG, channel=channel)
    assert promoted.disk.op_seq == committed
    assert [sorted(promoted.query(q)) for q in _panel(now)] == want
    promoted.close()


def test_verification_detects_a_gap_in_the_prefix(tmp_path):
    tree, _shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 5)
    applied = replica.applied_op_seq
    wal = WriteAheadLog(replica.wal_path)
    wal.append_commit(applied + 2, 0.0)  # applied + 1 is missing
    wal.flush()
    wal.close()
    with pytest.raises(PromotionError):
        replica.verify_committed_prefix()
    tree.close()
    replica.close()


def test_verification_detects_prefix_beyond_applied(tmp_path):
    tree, _shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 5)
    applied = replica.applied_op_seq
    wal = WriteAheadLog(replica.wal_path)
    wal.append_commit(applied + 1, 0.0)  # dense, but never applied
    wal.flush()
    wal.close()
    with pytest.raises(PromotionError):
        replica.verify_committed_prefix()
    tree.close()
    replica.close()


def test_promoted_replica_refuses_further_use(tmp_path):
    tree, _shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 5)
    catch_up(channel, replica)
    tree.close()
    promoted = replica.promote(CONFIG, channel=channel)
    with pytest.raises(ReplicationError):
        replica.apply([])
    with pytest.raises(ReplicationError):
        replica.promote(CONFIG)
    promoted.close()


# -- the link -----------------------------------------------------------------


def test_link_polls_tracks_marks_and_fails_over(tmp_path):
    registry = MetricsRegistry()
    tree, _shipper, replica, channel = make_pair(tmp_path)

    def reseed(promoted):
        return start_follower(promoted.disk, str(tmp_path / "replica2"))

    link = ReplicaLink(
        channel, replica,
        promote_config=CONFIG, registry=registry,
        staleness_budget=1e9, poll_every=2,
        reseed=reseed, on_promote=lambda _tree: "fresh-injector",
    )
    marks = []
    for i in range(12):
        drive(tree, 1, start_oid=i, seed=i)
        link.note_write(tree.disk.op_seq, i)
        marks.append((tree.disk.op_seq, i))
        link.tick()
    link.tick(force=True)

    assert link.ready
    assert link.polls > 0
    assert registry.value("replication.polls_within_budget") > 0
    assert registry.value("replication.polls_over_budget") == 0
    # The replica is current, so its state is declared current through
    # the stream index of the newest recorded mark.
    assert link.replica.applied_op_seq == tree.disk.op_seq
    assert link.stream_mark() == marks[-1][1]
    assert [s.name for s in link.slos()] == ["replica_staleness"]

    # Freshest-wins rebase: a base older than the applied clock yields
    # a replica snapshot; an equally fresh one yields nothing.
    snap = link.fresher_base(0.0)
    assert snap is not None
    assert snap.applied_op_seq == tree.disk.op_seq
    assert link.fresher_base(link.replica.applied_clock_time) is None

    committed = tree.disk.op_seq
    tree.disk.abandon()
    assert link.ready
    promoted, injector = link.failover()
    assert injector == "fresh-injector"
    assert promoted.disk.op_seq == committed
    assert link.promotions == 1
    assert registry.value("replication.promotions") == 1
    assert link.ready, "reseed should attach a fresh follower"

    # The re-seeded follower tails the promoted primary.
    drive(promoted, 4, start_oid=700)
    link.tick(force=True)
    assert link.replica.applied_op_seq == promoted.disk.op_seq
    promoted.close()
    link.replica.close()


@pytest.mark.parametrize("registry", [None, MetricsRegistry()])
def test_a_polling_tick_scans_the_live_log_once(
    tmp_path, monkeypatch, registry
):
    import repro.replication.shipper as shipper_module

    tree, shipper, replica, channel = make_pair(tmp_path)
    link = ReplicaLink(channel, replica, registry=registry, poll_every=1)
    real_scan = shipper_module.scan_wal
    live_scans = []

    def counting_scan(path):
        if path == shipper.wal_path:
            live_scans.append(path)
        return real_scan(path)

    monkeypatch.setattr(shipper_module, "scan_wal", counting_scan)
    for i in range(3):
        drive(tree, 4, start_oid=i * 10, seed=i)
        live_scans.clear()
        link.tick()
        assert len(live_scans) == 1
        assert replica.applied_op_seq == tree.disk.op_seq
    assert link.max_staleness > 0
    tree.close()
    replica.close()
