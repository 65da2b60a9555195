"""The replica: apply shipped batches, serve reads, promote on failover.

A :class:`Replica` owns its own store directory — a page file plus a
write-ahead log, byte-compatible with the primary's.  Application is
deliberately *not* a private re-implementation of redo: each poll's
batches are appended to the replica's own log and then replayed through
the very same :func:`repro.storage.wal.recover` machinery the primary's
crash path uses, TR-82 expired-page skip included.  Whatever recovery
would reconstruct on the primary, the replica holds — which is exactly
the invariant :meth:`Replica.promote` cashes in.

Serving: the replica answers all five query classes — timeslice, window
and moving-window queries (:meth:`Replica.query`), batched queries
(:meth:`Replica.query_batch`) and k-nearest-neighbor requests
(:meth:`Replica.query_knn`) — from its applied page set, with the same
expiration-clipping predicates the live tree uses.  Staleness is
whatever the shipping lag makes it, and is measured, not assumed.
"""

from __future__ import annotations

import math
import os
import shutil
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.index import MovingObjectIndex
from ..core.tree import EntrySnapshot, MovingObjectTree
from ..geometry.knn import brute_force_knn
from ..obs.metrics import NULL_REGISTRY
from ..storage.faults import TransientIOError
from ..storage.pagefile import (
    PAGES_FILENAME,
    SLOT_ALLOCATED,
    WAL_FILENAME,
    FilePageStore,
    PageFile,
    _all_expired_predicate,
)
from ..storage.serial import NodeCodec
from ..storage.wal import FREE_RECORD, WriteAheadLog, recover, scan_wal
from .shipper import (
    ReplicationError,
    ShippedBatch,
    WalShipper,
    batches_of,
)


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
        Receives ``replication.applied_*`` and skip counters.
    """

    def __init__(self, directory: str, layout, registry=None):
        self.directory = directory
        self.layout = layout
        self.codec = NodeCodec(layout)
        self.pages_path = os.path.join(directory, PAGES_FILENAME)
        self.wal_path = os.path.join(directory, WAL_FILENAME)
        self._all_expired = _all_expired_predicate(self.codec)
        self._file: Optional[PageFile] = PageFile.open(self.pages_path)
        self._promoted = False
        report = recover(self._file, self.wal_path, self._all_expired)
        self._applied_op_seq = report.op_seq
        self._applied_clock = report.clock_time
        header = self._file.read_header()
        self._root_pid = header.root_pid
        self._mirror: Dict[int, object] = {}
        for pid in range(self._file.slot_count):
            slot = self._file.read_slot(pid)
            if slot.state == SLOT_ALLOCATED:
                node, _t_ref = self.codec.decode(slot.payload)
                self._mirror[pid] = node
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
        return self._applied_clock

    @property
    def promoted(self) -> bool:
        """Whether :meth:`promote` has consumed this replica."""
        return self._promoted

    def apply(self, batches: Sequence[ShippedBatch]) -> int:
        """Apply shipped batches through the recovery machinery.

        Already-applied batches (at or below :attr:`applied_op_seq`)
        are skipped — redelivery after a lost acknowledgment is
        harmless.  The fresh suffix is appended to the replica's own
        log (records first, one COMMIT per batch) and then replayed by
        :func:`repro.storage.wal.recover`, which applies the TR-82
        expired-page skip, rewrites the header and free chain, and
        truncates the replayed log — so the replica's WAL never grows
        beyond one poll's worth of batches.

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
        wal = WriteAheadLog(self.wal_path)
        for batch in fresh:
            for record in batch.records:
                wal.append_raw(record.kind, record.payload)
            wal.append_commit(batch.op_seq, batch.clock_time)
        wal.flush()
        wal.close()
        report = recover(self._file, self.wal_path, self._all_expired)
        for batch in fresh:
            for record in batch.records:
                if record.kind == FREE_RECORD:
                    self._mirror.pop(record.page_id, None)
                else:
                    node, _t_ref = self.codec.decode(record.page_bytes)
                    self._mirror[record.page_id] = node
        self._applied_op_seq = report.op_seq
        self._applied_clock = report.clock_time
        self._applied_batches.inc(len(fresh))
        self._applied_pages.inc(report.pages_replayed)
        self._skipped.inc(report.wal_skipped_expired)
        return len(fresh)

    def wal_bytes(self) -> int:
        """Current size of the replica's own write-ahead log."""
        if not os.path.exists(self.wal_path):
            return 0
        return os.path.getsize(self.wal_path)

    # -- serving -------------------------------------------------------------

    def leaf_entries(self):
        """Iterate ``(point, oid)`` over all root-reachable leaf entries."""
        seen = set()
        stack = [self._root_pid] if self._root_pid in self._mirror else []
        while stack:
            pid = stack.pop()
            if pid in seen:
                continue
            seen.add(pid)
            node = self._mirror[pid]
            if node.is_leaf:
                yield from node.entries
            else:
                stack.extend(node.child_ids())

    def snapshot(self) -> EntrySnapshot:
        """Cut an isolated snapshot of the applied leaf entries.

        The entries are copied, so later applies cannot leak into a
        reader holding the snapshot — the same isolation contract (and
        the same class, so the frontend's
        :class:`~repro.serve.degraded.DegradedReader` rebases onto it
        without special cases) as
        :meth:`repro.core.tree.MovingObjectTree.snapshot`, stamped with
        how far the replica had applied when it was cut.
        """
        return EntrySnapshot(
            self.leaf_entries(), self._applied_clock, self._applied_op_seq
        )

    def query(self, query) -> List[int]:
        """Answer one timeslice/window/moving query from applied state.

        The snapshot's brute-force scan — the same expiration-clipping
        predicate the live tree's descent uses — so for any fully
        applied prefix the answer equals the primary's at the same
        clock time.
        """
        return sorted(self.snapshot().query(query))

    def query_batch(self, queries: Sequence) -> List[List[int]]:
        """Answer a batch of queries (one scan per query, same answers)."""
        return [self.query(query) for query in queries]

    def knn_entries(
        self, x, t: float, k: int, bound_sq: float = math.inf
    ) -> List[Tuple[float, int]]:
        """Scored kNN over the applied state, nearest first.

        The brute-force oracle
        :func:`repro.geometry.knn.brute_force_knn` over the replica's
        leaf entries — bit-identical, by definition, to the answer the
        primary's best-first descent gives over the same entry set.
        """
        return [
            pair
            for pair in brute_force_knn(list(self.leaf_entries()), x, t, k)
            if not pair[0] > bound_sq
        ]

    # -- promotion -----------------------------------------------------------

    def verify_committed_prefix(self) -> Tuple[int, int]:
        """Verify the replica log holds a dense committed prefix.

        Returns
        -------
        base_op_seq : int
            Sequence number asserted by the log's checkpoint record.
        batches : int
            Committed batches after it (each exactly one past its
            predecessor).

        Raises
        ------
        PromotionError
            On a sequence gap or a log without a checkpoint base.
        """
        records, _valid, _torn = scan_wal(self.wal_path)
        try:
            base, _clock, batches = batches_of(records)
        except ReplicationError as exc:
            raise PromotionError(str(exc)) from exc
        if not records:
            raise PromotionError("replica log is empty")
        expected = base
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
        return base, len(batches)

    def promote(
        self,
        config,
        clock=None,
        *,
        channel=None,
        registry=None,
        tracer=None,
        drain_attempts: int = 8,
    ) -> MovingObjectTree:
        """Seal, verify and reopen this replica as the new primary.

        Controlled or crash failover both land here.  With a ``channel``
        the replica first drains every still-fetchable committed batch —
        the shipper reads the (possibly dead) primary's on-disk log, so
        nothing committed is ever left behind; transient channel faults
        are retried up to ``drain_attempts`` times.  The replica's log
        tail is then sealed (the torn-tail scan inside recovery), the
        committed prefix verified dense, and the directory reopened
        through :meth:`repro.core.tree.MovingObjectTree.open_from` —
        the same recovery path a restarted primary takes.

        Parameters
        ----------
        config : TreeConfig
            The primary's tree configuration (layout must match).
        clock : SimulationClock, optional
            Fresh clock for the promoted tree; advanced to the
            recovered time.
        channel : ShippingChannel, optional
            Drain source for the final catch-up fetch.
        registry, tracer : optional
            Observability sinks for the recovery pass.
        drain_attempts : int, optional
            Transient-fault retries for the final drain.

        Returns
        -------
        MovingObjectTree
            The promoted tree, serving reads and writes at the exact
            committed prefix of the old primary.
        """
        if self._promoted:
            raise ReplicationError("replica already promoted")
        if channel is not None:
            for attempt in range(drain_attempts):
                try:
                    batches = channel.poll()
                except TransientIOError:
                    if attempt == drain_attempts - 1:
                        raise
                    continue
                if not batches:
                    break
                self.apply(batches)
                channel.ack(self._applied_op_seq)
        self.verify_committed_prefix()
        self._file.close()
        self._file = None
        self._promoted = True
        tree = MovingObjectTree.open_from(
            self.directory, config, clock,
            registry=registry, tracer=tracer,
        )
        return tree

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release the page-file handle (idempotent; promote also does)."""
        if self._file is not None:
            self._file.close()
            self._file = None
