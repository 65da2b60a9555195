"""The shipping transport: encoded batches over an unreliable channel.

Batches cross the channel in the WAL wire format itself (dense LSNs
from 0, one COMMIT per batch), so the receiving side validates them
with the same CRC-checked scan the log uses.  The channel routes every
transfer through an optional
:class:`~repro.storage.faults.FaultInjector`, mapping its failure modes
onto transport semantics:

* a scheduled transient write fault → the transfer never happened
  (:class:`~repro.storage.faults.TransientIOError`, retryable);
* ``torn`` mode at the crash point → the connection died mid-transfer
  and the *truncated* bytes were delivered; the CRC scan detects the
  torn tail and the receiver retries;
* ``kill`` mode → the connection died before any byte made it out.

After a simulated connection death the channel drops the spent injector
("reconnects"), because a dead :class:`FaultInjector` fails every
subsequent call — the transport recovered even though that one process
did not.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.metrics import NULL_REGISTRY
from ..storage.faults import SimulatedCrash, TransientIOError
from ..storage.wal import (
    CommittedBatch,
    batches_of,
    encode_batches,
    scan_wal_bytes,
)
from .shipper import WalShipper


def decode_batch(data: bytes) -> CommittedBatch:
    """Validate and decode one shipped batch.

    Raises
    ------
    TransientIOError
        On a torn tail, CRC mismatch, or a missing closing COMMIT —
        all the signatures of a transfer cut short, and all retryable.
    """
    records, _valid, torn = scan_wal_bytes(data)
    if torn:
        raise TransientIOError(f"torn shipment: {torn} trailing bytes")
    _checkpoint, batches = batches_of(records)
    if len(batches) != 1:
        raise TransientIOError(
            f"shipment decoded to {len(batches)} batches, expected 1"
        )
    return batches[0]


class ShippingChannel:
    """Deliver batches from a :class:`WalShipper` through injected faults.

    Parameters
    ----------
    shipper : WalShipper
        The primary-side source of committed batches.
    injector : FaultInjector, optional
        Deterministic fault schedule applied to each batch transfer.
    registry : MetricsRegistry, optional
        Receives the ``replication.shipped_batches``,
        ``replication.shipped_bytes`` and ``replication.channel_faults``
        counters.
    """

    def __init__(self, shipper: WalShipper, injector=None, registry=None):
        self.shipper = shipper
        self._injector = injector
        registry = registry or NULL_REGISTRY
        self._batches = registry.counter("replication.shipped_batches")
        self._bytes = registry.counter("replication.shipped_bytes")
        self._faults = registry.counter("replication.channel_faults")

    def _transfer(self, data: bytes) -> CommittedBatch:
        delivered: Optional[bytes] = None
        injector = self._injector
        if injector is not None:
            try:
                delivered = injector.before_write(data)
                injector.after_write()
                data = delivered
            except TransientIOError:
                self._faults.inc()
                raise
            except SimulatedCrash:
                # The connection died.  Whatever before_write handed
                # back (torn mode truncates it) made it onto the wire;
                # a death before that delivered nothing at all.  Either
                # way this injector is spent — reconnect without it.
                self._injector = None
                self._faults.inc()
                if delivered is None:
                    raise TransientIOError(
                        "shipping connection lost before transfer"
                    ) from None
                data = delivered
        batch = decode_batch(data)
        self._bytes.inc(len(data))
        return batch

    def poll(self, limit: Optional[int] = None) -> List[CommittedBatch]:
        """Fetch and deliver pending batches, oldest first.

        A poll counts as shipped only once every transfer has decoded,
        so a faulted poll's retry does not count its batches twice.

        Raises
        ------
        TransientIOError
            A transfer faulted; nothing was acknowledged, so a retry
            re-fetches the same batches.
        ShippingGapError
            Batches past the cursor are gone — re-bootstrap territory,
            never retryable.
        """
        batches = [
            self._transfer(encode_batches((batch,)))
            for batch in self.shipper.fetch(limit)
        ]
        self._batches.inc(len(batches))
        return batches

    def ack(self, op_seq: int) -> None:
        """Acknowledge application through ``op_seq`` on the shipper."""
        self.shipper.ack(op_seq)
