"""The replica: apply shipped batches, serve reads, promote on failover.

A :class:`Replica` is a read-only
:class:`~repro.core.tree.MovingObjectTree` over a
:class:`~repro.storage.pagefile.FilePageStore` in its own directory — a
page file plus a write-ahead log, byte-compatible with the primary's.
Application is deliberately *not* a private re-implementation of redo:
each poll's batches are appended to the replica's own log, redone from
memory by the :func:`repro.storage.wal.redo` step the primary's crash
recovery runs (TR-82 expired-page skip included; no log rescan, no
reopen) and the log reset to one checkpoint.  Whatever recovery would
reconstruct on the primary, the replica's page table holds — which is
exactly the invariant :meth:`Replica.promote` cashes in.

Serving: the replica answers all five query classes — timeslice, window
and moving-window queries (:meth:`Replica.query`), batched queries
(:meth:`Replica.query_batch`) and k-nearest-neighbor requests
(:meth:`Replica.query_knn`) — by the tree's own descents over that page
table, charging its own I/O counters, never the primary's.  Staleness
is whatever the shipping lag makes it, and is measured, not assumed.
"""

from __future__ import annotations

import math
import os
import shutil
from typing import List, Sequence, Tuple

from ..core.config import TreeConfig
from ..core.index import MovingObjectIndex
from ..core.tree import EntrySnapshot, MovingObjectTree
from ..obs.metrics import NULL_REGISTRY
from ..storage.faults import TransientIOError
from ..storage.pagefile import PAGES_FILENAME, WAL_FILENAME, FilePageStore
from ..storage.wal import (
    CommittedBatch,
    WalError,
    WriteAheadLog,
    batches_of,
    scan_wal,
)
from .shipper import ReplicationError, WalShipper

#: Polls a promotion's final drain tries before a transient channel
#: fault propagates.
DRAIN_ATTEMPTS = 8


class PromotionError(ReplicationError):
    """The replica's committed prefix failed verification at promotion."""


class Replica(MovingObjectIndex):
    """A WAL-tailing follower of one durable primary store.

    The read half of the index contract (:mod:`repro.core.index`): a
    replica takes no writes of its own and has no clock — its time is
    :attr:`applied_clock_time`.

    Use :meth:`bootstrap` to seed a replica from a live primary, or the
    constructor to (re)open an existing replica directory — the latter
    replays the replica's own log first, so a replica that died
    mid-apply resumes consistently.

    Parameters
    ----------
    directory : str
        The replica's store directory.
    layout : EntryLayout
        Entry layout of the replicated pages (must match the primary).
    registry : MetricsRegistry, optional
        Receives ``replication.applied_*`` and skip counters (never
        handed to the replica's tree or store).
    """

    def __init__(self, directory: str, layout, registry=None):
        self.directory = directory
        self.layout = layout
        self.wal_path = os.path.join(directory, WAL_FILENAME)
        self._promoted = False
        self._tree = MovingObjectTree.open_from(
            directory, TreeConfig.for_layout(layout)
        )
        self._applied_op_seq = self._tree.disk.recovery.op_seq
        registry = registry or NULL_REGISTRY
        self._applied_batches = registry.counter(
            "replication.applied_batches"
        )
        self._applied_pages = registry.counter("replication.applied_pages")
        self._skipped = registry.counter("replication.skipped_expired")

    # -- construction --------------------------------------------------------

    @classmethod
    def bootstrap(
        cls,
        store: FilePageStore,
        shipper: WalShipper,
        directory: str,
        registry=None,
    ) -> "Replica":
        """Seed a fresh replica from a live primary and start it tailing.

        Checkpoints the primary (making its page file self-contained),
        copies the page file, initializes the replica's log to a single
        checkpoint record at the primary's committed sequence number,
        advances the shipping cursor to that point, and only then
        attaches ``shipper`` to the store — so the pre-bootstrap history
        is never archived, and everything committed afterwards ships.

        Parameters
        ----------
        store : FilePageStore
            The primary's open page store.
        shipper : WalShipper
            A fresh shipper rooted at the primary's directory.
        directory : str
            Where to create the replica's store (created if missing).
        registry : MetricsRegistry, optional
            Passed through to the replica.
        """
        store.checkpoint()
        os.makedirs(directory, exist_ok=True)
        shutil.copyfile(
            store._file.path, os.path.join(directory, PAGES_FILENAME)
        )
        wal = WriteAheadLog(os.path.join(directory, WAL_FILENAME))
        wal.reset(store.op_seq, store._file.read_header().clock_time)
        wal.close()
        shipper.ack(store.op_seq)
        store.attach_shipper(shipper)
        return cls(directory, store.layout, registry=registry)

    # -- application ---------------------------------------------------------

    @property
    def applied_op_seq(self) -> int:
        """Operation sequence number the replica has applied through."""
        return self._applied_op_seq

    @property
    def applied_clock_time(self) -> float:
        """Simulation clock time of the last applied commit."""
        return self._tree.now

    @property
    def promoted(self) -> bool:
        """Whether :meth:`promote` has consumed this replica."""
        return self._promoted

    def apply(self, batches: Sequence[CommittedBatch]) -> int:
        """Apply shipped batches through the recovery's redo step.

        Already-applied batches (at or below :attr:`applied_op_seq`)
        are skipped — redelivery after a lost acknowledgment is
        harmless.  The fresh suffix goes to
        :meth:`repro.storage.pagefile.FilePageStore.apply_batches`
        (log, redo, reset: the WAL never grows past one poll), and the
        tree's buffer drops the touched pages, root pinned again.

        Returns
        -------
        int
            Number of batches newly applied.

        Raises
        ------
        ReplicationError
            On a sequence gap (a batch arrived out of order) or after
            promotion.
        """
        if self._promoted:
            raise ReplicationError("replica was promoted; cannot apply")
        fresh = [b for b in batches if b.op_seq > self._applied_op_seq]
        if not fresh:
            return 0
        expected = self._applied_op_seq
        for batch in fresh:
            if batch.op_seq != expected + 1:
                raise ReplicationError(
                    f"batch {batch.op_seq} arrived after {expected}; "
                    "shipment out of order"
                )
            expected = batch.op_seq
        tree = self._tree
        report = tree.disk.apply_batches(fresh)
        for batch in fresh:
            for record in batch.records:
                tree.buffer.discard(record.page_id)
        tree.buffer.pin(tree.root_pid)
        tree.clock.advance_to(report.clock_time)
        self._applied_op_seq = report.op_seq
        self._applied_batches.inc(len(fresh))
        self._applied_pages.inc(report.pages_replayed)
        self._skipped.inc(report.wal_skipped_expired)
        return len(fresh)

    def wal_bytes(self) -> int:
        """Current size of the replica's own write-ahead log."""
        return self._tree.disk.wal.size

    # -- serving -------------------------------------------------------------

    def snapshot(self) -> EntrySnapshot:
        """Cut an isolated snapshot of the applied leaf entries.

        The tree's own snapshot — entries copied, so later applies
        cannot leak into a reader holding it, and the same class, so the
        frontend's :class:`~repro.serve.degraded.DegradedReader` rebases
        onto it without special cases — stamped with how far the
        replica had applied when it was cut.
        """
        snapshot = self._tree.snapshot()
        snapshot.applied_op_seq = self._applied_op_seq
        return snapshot

    def query(self, query) -> List[int]:
        """Answer one timeslice/window/moving query, sorted by oid.

        The tree's range descent over the applied pages, so for any
        fully applied prefix the answer equals the primary's at the
        same clock time.
        """
        return sorted(self._tree.query(query))

    def query_batch(self, queries: Sequence) -> List[List[int]]:
        """Answer a batch of queries in one shared descent (each sorted)."""
        return [sorted(answer) for answer in self._tree.query_batch(queries)]

    def knn_entries(
        self, x, t: float, k: int, bound_sq: float = math.inf
    ) -> List[Tuple[float, int]]:
        """Scored kNN over the applied pages: the tree's best-first descent."""
        return self._tree.knn_entries(x, t, k, bound_sq)

    # -- promotion -----------------------------------------------------------

    def verify_committed_prefix(self) -> None:
        """Verify the replica log holds a dense committed prefix.

        Past the checkpoint record's sequence number, each committed
        batch must be exactly one past its predecessor, and the last
        must be what the replica applied.

        Raises
        ------
        PromotionError
            On a sequence gap or a log without a checkpoint base.
        """
        records, _valid, _torn = scan_wal(self.wal_path)
        try:
            checkpoint, batches = batches_of(records)
        except WalError as exc:
            raise PromotionError(str(exc)) from exc
        if not records:
            raise PromotionError("replica log is empty")
        expected = checkpoint.op_seq if checkpoint is not None else 0
        for batch in batches:
            if batch.op_seq != expected + 1:
                raise PromotionError(
                    f"committed prefix has a gap: batch {expected + 1} "
                    f"missing before {batch.op_seq}"
                )
            expected = batch.op_seq
        if expected != self._applied_op_seq:
            raise PromotionError(
                f"log prefix ends at {expected} but replica applied "
                f"{self._applied_op_seq}"
            )

    def promote(
        self, config, *, channel=None, registry=None, tracer=None
    ) -> MovingObjectTree:
        """Seal, verify and reopen this replica as the new primary.

        Controlled or crash failover both land here.  With a ``channel``
        the replica first drains every still-fetchable committed batch —
        the shipper reads the (possibly dead) primary's on-disk log, so
        nothing committed is ever left behind; a transient channel fault
        is retried up to :data:`DRAIN_ATTEMPTS` polls.  The replica's
        log tail is then sealed (the torn-tail scan inside recovery),
        the committed prefix verified dense, the read-only store
        released, and the directory reopened through
        :meth:`repro.core.tree.MovingObjectTree.open_from` — the same
        recovery path a restarted primary takes.

        Parameters
        ----------
        config : TreeConfig
            The primary's tree configuration (layout must match); the
            promoted tree gets a fresh clock at the recovered time.
        channel : ShippingChannel, optional
            Drain source for the final catch-up fetch.
        registry, tracer : optional
            Observability sinks for the recovery pass.

        Returns
        -------
        MovingObjectTree
            The promoted tree, serving reads and writes at the exact
            committed prefix of the old primary.
        """
        if self._promoted:
            raise ReplicationError("replica already promoted")
        if channel is not None:
            for attempt in range(DRAIN_ATTEMPTS):
                try:
                    batches = channel.poll()
                except TransientIOError:
                    if attempt == DRAIN_ATTEMPTS - 1:
                        raise
                    continue
                if not batches:
                    break
                self.apply(batches)
                channel.ack(self._applied_op_seq)
        self.verify_committed_prefix()
        self.close()
        self._promoted = True
        return MovingObjectTree.open_from(
            self.directory, config, registry=registry, tracer=tracer
        )

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the store's handles (idempotent; promote also does).

        The replica never commits or checkpoints through its store, so
        it is abandoned, not closed.
        """
        self._tree.disk.abandon()
