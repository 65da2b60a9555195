"""WAL-shipped read replicas, primary failover, online WAL maintenance.

This package turns the durable single-process store of
:mod:`repro.storage` into a small replicated serving cell:

* :class:`~repro.replication.shipper.WalShipper` sits on the primary and
  exposes committed WAL batches past a durable shipping cursor, spilling
  batches to archive segments whenever a checkpoint would otherwise
  truncate them out from under a tailing replica — spill is the only
  truncation policy.
* :class:`~repro.replication.channel.ShippingChannel` moves encoded
  batches across a (deliberately unreliable) transport; torn and
  transient transfers surface as retryable
  :class:`~repro.storage.faults.TransientIOError`.
* :class:`~repro.replication.replica.Replica` is a read-only
  :class:`~repro.core.tree.MovingObjectTree` over its own page store:
  shipped batches are redone by the :func:`repro.storage.wal.redo` step
  crash recovery runs — honoring the TR-82 expired-page skip — and the
  page table takes the redone images, so all five query classes take
  the tree's one descent; it can
  :meth:`~repro.replication.replica.Replica.promote` itself to a full
  primary with zero committed writes lost.
* :class:`~repro.replication.maintenance.OnlineMaintainer` keeps the
  primary's WAL footprint bounded with incremental checkpoints that
  never block serving.
* :class:`~repro.replication.link.ReplicaLink` bundles the above for the
  :class:`~repro.serve.frontend.ServiceFrontend`: paced polling, lag
  gauges and SLO counters, freshest-wins degraded reads and crash
  failover; :func:`~repro.replication.link.start_follower` assembles
  the parts it takes.

Log grouping (:func:`repro.storage.wal.batches_of`) and encoding
(:func:`repro.storage.wal.encode_batches`) are the storage layer's,
written once.  See DESIGN.md §14 for the ship/apply/promote protocol
and the truncation-vs-shipping rule.
"""

from .channel import ShippingChannel
from .link import ReplicaLink, replication_slos, start_follower
from .maintenance import OnlineMaintainer
from .replica import PromotionError, Replica
from .shipper import ReplicationError, ShippingGapError, WalShipper

__all__ = [
    "OnlineMaintainer",
    "PromotionError",
    "Replica",
    "ReplicaLink",
    "ReplicationError",
    "ShippingChannel",
    "ShippingGapError",
    "WalShipper",
    "replication_slos",
    "start_follower",
]
