"""Tests for the shipping channel: wire format and fault mapping."""

import pytest

from repro.obs import MetricsRegistry
from repro.replication.channel import decode_batch
from repro.storage.faults import FaultInjector, TransientIOError
from repro.storage.wal import encode_batches

from .helpers import drive, make_pair


def test_encode_decode_round_trip(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 3)
    for batch in shipper.fetch():
        wire = encode_batches([batch])
        decoded = decode_batch(wire)
        assert decoded.op_seq == batch.op_seq
        assert decoded.clock_time == batch.clock_time
        assert [r.kind for r in decoded.records] == [
            r.kind for r in batch.records
        ]
        assert [r.payload for r in decoded.records] == [
            r.payload for r in batch.records
        ]
    tree.close()
    replica.close()


def test_decode_rejects_torn_and_commitless_shipments(tmp_path):
    tree, shipper, replica, _channel = make_pair(tmp_path)
    drive(tree, 1)
    batch = shipper.fetch()[0]
    wire = encode_batches([batch])
    with pytest.raises(TransientIOError):
        decode_batch(wire[:-7])  # torn tail
    with pytest.raises(TransientIOError):
        decode_batch(wire[: len(wire) // 2])  # no closing COMMIT survives
    tree.close()
    replica.close()


def test_transient_fault_means_transfer_never_happened(tmp_path):
    registry = MetricsRegistry()
    injector = FaultInjector(transient_writes=(1,))
    tree, shipper, replica, channel = make_pair(
        tmp_path, injector=injector, registry=registry
    )
    drive(tree, 3)
    with pytest.raises(TransientIOError):
        channel.poll()
    assert registry.value("replication.channel_faults") == 1
    # Nothing was acknowledged, so the retry redelivers everything.
    batches = channel.poll()
    replica.apply(batches)
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()


def test_torn_transfer_delivers_truncated_bytes_then_reconnects(tmp_path):
    registry = MetricsRegistry()
    injector = FaultInjector(crash_at_write=1, mode="torn", seed=3)
    tree, shipper, replica, channel = make_pair(
        tmp_path, injector=injector, registry=registry
    )
    drive(tree, 3)
    # The connection dies mid-transfer: the truncated bytes that made it
    # onto the wire fail the CRC scan, surfacing as a retryable fault.
    with pytest.raises(TransientIOError):
        channel.poll()
    assert registry.value("replication.channel_faults") == 1
    # The spent injector was dropped ("reconnect"): the retry is clean.
    batches = channel.poll()
    replica.apply(batches)
    channel.ack(replica.applied_op_seq)
    assert replica.applied_op_seq == tree.disk.op_seq
    assert registry.value("replication.channel_faults") == 1
    tree.close()
    replica.close()


def test_kill_before_transfer_is_retryable(tmp_path):
    injector = FaultInjector(crash_at_write=1, mode="kill")
    tree, shipper, replica, channel = make_pair(tmp_path, injector=injector)
    drive(tree, 2)
    with pytest.raises(TransientIOError):
        channel.poll()
    batches = channel.poll()
    replica.apply(batches)
    assert replica.applied_op_seq == tree.disk.op_seq
    tree.close()
    replica.close()


def test_shipped_batches_counts_deliveries_not_fetch_attempts(tmp_path):
    registry = MetricsRegistry()
    # The third transfer faults: the poll raises after two transfers
    # decoded, and its retry ships all the batches again.
    injector = FaultInjector(transient_writes=(3,))
    tree, _shipper, replica, channel = make_pair(
        tmp_path, injector=injector, registry=registry
    )
    drive(tree, 10)
    with pytest.raises(TransientIOError):
        channel.poll()
    assert registry.value("replication.shipped_batches") == 0
    batches = channel.poll()
    replica.apply(batches)
    assert len(batches) == 10
    assert registry.value("replication.shipped_batches") == 10
    assert registry.value("replication.applied_batches") == 10
    tree.close()
    replica.close()
