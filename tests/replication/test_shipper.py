"""Tests for the WAL shipper: batching, cursor, spill gate."""

import os

import pytest

from repro.obs import MetricsRegistry
from repro.replication import ReplicationError, ShippingGapError, WalShipper
from repro.storage.wal import (
    _COMMIT,
    CHECKPOINT_RECORD,
    WalError,
    WriteAheadLog,
    batches_of,
    scan_wal,
)

from .helpers import catch_up, drive, make_pair, spy_reads

# -- batches_of ---------------------------------------------------------------


def test_batches_of_groups_and_drops_uncommitted_tail(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_raw(CHECKPOINT_RECORD, _COMMIT.pack(7, 3.5))
    wal.append_page(1, b"a" * 32)
    wal.append_free(2)
    wal.append_commit(8, 4.0)
    wal.append_page(3, b"b" * 32)
    wal.append_commit(9, 5.0)
    wal.append_page(4, b"c" * 32)  # never committed
    wal.flush()
    wal.close()

    records, _valid, _torn = scan_wal(path)
    checkpoint, batches = batches_of(records)
    assert (checkpoint.op_seq, checkpoint.clock_time) == (7, 3.5)
    assert [b.op_seq for b in batches] == [8, 9]
    assert [b.clock_time for b in batches] == [4.0, 5.0]
    assert len(batches[0].records) == 2
    assert len(batches[1].records) == 1  # the uncommitted page is gone


def test_batches_of_rejects_checkpoint_inside_open_batch(tmp_path):
    path = str(tmp_path / "wal")
    wal = WriteAheadLog(path)
    wal.append_page(1, b"x" * 16)
    wal.append_raw(CHECKPOINT_RECORD, _COMMIT.pack(1, 0.0))
    wal.flush()
    wal.close()
    records, _valid, _torn = scan_wal(path)
    with pytest.raises(WalError):
        batches_of(records)


# -- fetch and the durable cursor ---------------------------------------------


def test_fetch_returns_dense_batches_past_cursor(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    base = shipper.acked
    drive(tree, 5)
    batches = shipper.fetch()
    assert batches[0].op_seq == base + 1
    assert batches[-1].op_seq == tree.disk.op_seq
    seqs = [b.op_seq for b in batches]
    assert seqs == list(range(base + 1, tree.disk.op_seq + 1))
    assert shipper.fetch(limit=2) == batches[:2]
    assert shipper.lag_batches() == len(batches)
    tree.close()
    replica.close()


def test_ack_is_durable_and_rejects_regression(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 3)
    committed = tree.disk.op_seq
    shipper.ack(committed)
    assert shipper.acked == committed
    # A fresh shipper over the same directory reads the same cursor.
    reopened = WalShipper(shipper.directory)
    assert reopened.acked == committed
    with pytest.raises(ReplicationError):
        shipper.ack(committed - 1)
    assert shipper.fetch() == []
    tree.close()
    replica.close()


def test_gap_past_the_cursor_is_detected(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 3)
    # Truncate the live log *outside* the shipping gate, destroying the
    # three unshipped batches, then commit two more.
    tree.disk.wal.reset(tree.disk.op_seq, tree.clock.time)
    drive(tree, 2, start_oid=100)
    with pytest.raises(ShippingGapError):
        shipper.fetch()
    tree.close()
    replica.close()


# -- the truncation gate ------------------------------------------------------


def test_spill_preserves_unshipped_batches_across_checkpoint(tmp_path):
    registry = MetricsRegistry()
    tree, shipper, replica, channel = make_pair(tmp_path, registry=registry)
    drive(tree, 6)
    committed = tree.disk.op_seq
    tree.disk.checkpoint()  # would truncate the unshipped suffix
    assert registry.value("replication.spills") == 1
    assert shipper.archive_bytes() > 0
    batches = shipper.fetch()
    assert [b.op_seq for b in batches][-1] == committed
    catch_up(channel, replica)
    assert replica.applied_op_seq == committed
    # Fully acknowledged segments are pruned on ack.
    assert os.listdir(shipper.archive_dir) == []
    tree.close()
    replica.close()


def test_fetch_dedupes_batches_both_archived_and_live(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 4)
    committed = tree.disk.op_seq
    # A spill whose following log reset never happened (the reset
    # faulted): the same batches sit in the archive *and* the live log.
    shipper.before_truncate(tree.disk.wal, committed)
    assert shipper.archive_bytes() > 0
    batches = shipper.fetch()
    seqs = [b.op_seq for b in batches]
    assert seqs == sorted(set(seqs)), "duplicated batches were shipped"
    assert seqs[-1] == committed
    tree.close()
    replica.close()


def test_last_committed_falls_back_to_checkpoint_base(tmp_path):
    tree, shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 3)
    catch_up(channel, replica)
    committed = tree.disk.op_seq
    tree.disk.checkpoint()  # nothing unshipped: plain truncation
    assert shipper.fetch() == []  # its scan finds only the checkpoint
    last_seq, last_clock = shipper.last_committed()
    assert last_seq == committed
    assert last_clock == tree.clock.time
    assert shipper.lag_batches() == 0
    tree.close()
    replica.close()


def test_archive_bytes_counts_segments_and_cursor(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    assert shipper.archive_bytes() == os.path.getsize(shipper.cursor_path)
    drive(tree, 3)
    shipper.before_truncate(tree.disk.wal, tree.disk.op_seq)
    segment_bytes = sum(
        os.path.getsize(os.path.join(shipper.archive_dir, name))
        for name in os.listdir(shipper.archive_dir)
    )
    assert segment_bytes > 0
    assert shipper.archive_bytes() == segment_bytes + os.path.getsize(
        shipper.cursor_path
    )
    tree.close()
    replica.close()


# -- the read position --------------------------------------------------------


def test_a_fetch_reads_only_what_was_committed_since_the_last(
    tmp_path, monkeypatch
):
    tree, shipper, replica, channel = make_pair(tmp_path)
    reads = spy_reads(monkeypatch, shipper.wal_path)
    shipper.fetch()
    assert reads == [tree.disk.wal.size]  # a fresh position: the whole log
    for n in (1, 3, 0, 5):
        size = tree.disk.wal.size
        drive(tree, n, start_oid=10 * n, seed=n)
        reads.clear()
        batches = shipper.fetch()
        assert reads == [tree.disk.wal.size - size]
        assert batches[-1].op_seq == tree.disk.op_seq
    catch_up(channel, replica)
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()


def test_a_half_written_batch_is_read_again(tmp_path, monkeypatch):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 2)
    committed = tree.disk.op_seq
    assert shipper.fetch()[-1].op_seq == committed
    wal = tree.disk.wal
    size = wal.size
    wal.append_page(0, b"a" * 64)  # a batch still being written
    wal.flush()
    half = wal.size
    reads = spy_reads(monkeypatch, shipper.wal_path)
    assert shipper.fetch()[-1].op_seq == committed
    wal.append_free(5)
    wal.append_commit(committed + 1, tree.clock.time)
    wal.flush()
    batches = shipper.fetch()
    assert [r.page_id for r in batches[-1].records] == [0, 5]
    assert batches[-1].op_seq == committed + 1
    # The half batch was read twice; the committed prefix once.
    assert reads == [half - size, wal.size - size]
    tree.disk.abandon()
    replica.close()


def test_a_gated_reset_starts_the_log_over(tmp_path, monkeypatch):
    tree, shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 4)
    catch_up(channel, replica)
    drive(tree, 3, start_oid=50)
    shipper.fetch()
    tree.disk.checkpoint()  # spills the three unacked batches, resets
    drive(tree, 2, start_oid=80)
    reads = spy_reads(monkeypatch, shipper.wal_path)
    batches = shipper.fetch()
    assert reads == [tree.disk.wal.size]
    assert [b.op_seq for b in batches] == list(
        range(replica.applied_op_seq + 1, tree.disk.op_seq + 1)
    )
    catch_up(channel, replica)
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()


def test_a_spill_whose_reset_faulted_rereads_the_old_log(
    tmp_path, monkeypatch
):
    tree, shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 4)
    shipper.fetch()
    # The gate spills, then the reset faults: the old log stays live.
    shipper.before_truncate(tree.disk.wal, tree.disk.op_seq)
    drive(tree, 2, start_oid=50)
    reads = spy_reads(monkeypatch, shipper.wal_path)
    batches = shipper.fetch()
    assert reads == [tree.disk.wal.size]
    seqs = [b.op_seq for b in batches]
    assert seqs == list(range(shipper.acked + 1, tree.disk.op_seq + 1))
    catch_up(channel, replica)
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()


def test_a_restarted_shipper_reads_segments_and_the_whole_log(
    tmp_path, monkeypatch
):
    tree, shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 4)
    tree.disk.checkpoint()  # spill
    drive(tree, 3, start_oid=50)
    want = shipper.fetch()
    reads = spy_reads(monkeypatch, shipper.wal_path)
    restarted = WalShipper(shipper.directory)
    # Segments carry fresh LSNs: compare what the batches hold.
    def held(batches):
        return [(b.op_seq, [r.payload for r in b.records]) for b in batches]

    assert held(restarted.fetch()) == held(want)
    assert reads == [tree.disk.wal.size]
    assert restarted.archive_bytes() == shipper.archive_bytes()
    tree.close()
    replica.close()


def test_a_reset_outside_the_gate_is_caught_by_file_identity(tmp_path):
    tree, shipper, replica, channel = make_pair(tmp_path)
    drive(tree, 3)
    shipper.fetch()  # holds the three batches; the position is past them
    tree.disk.wal.reset(tree.disk.op_seq, tree.clock.time)  # no gate
    drive(tree, 8, start_oid=50)  # the new log outgrows the position
    seqs = [b.op_seq for b in shipper.fetch()]
    assert seqs == list(range(shipper.acked + 1, tree.disk.op_seq + 1))
    catch_up(channel, replica)
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()
