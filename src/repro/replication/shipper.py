"""WAL shipping on the primary: cursor, archive segments, batch fetch.

The shipper never talks to the primary's in-memory state.  It reads the
on-disk write-ahead log (and its own archive segments), which by the
group-commit discipline of :meth:`repro.storage.pagefile.FilePageStore.commit`
hold exactly the committed prefix — every commit record is flushed
before the images touch the page file.  A replica tailing a *dead*
primary therefore sees precisely what recovery would replay.

Three pieces of durable state live in the primary's store directory:

``wal.rexp``
    The live log (owned by the store; the shipper only reads it).
``wal_archive/seg-<first>-<last>.rexp``
    Archive segments in plain WAL wire format, re-encoded with fresh
    dense LSNs.  A checkpoint that would truncate not-yet-shipped
    committed batches first *spills* them here, so truncation can race
    shipment safely.
``ship.cursor``
    The durable shipping cursor: the highest operation sequence number
    the replica has acknowledged.  Written atomically (tmp + fsync +
    rename); archive segments at or below it are pruned on ack.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..storage.pagefile import WAL_FILENAME
from ..storage.wal import (
    CommittedBatch,
    WriteAheadLog,
    batches_of,
    encode_batches,
    scan_wal,
)

#: File names of the shipper's durable state inside the store directory.
CURSOR_FILENAME = "ship.cursor"
ARCHIVE_DIRNAME = "wal_archive"


class ReplicationError(Exception):
    """Base class for replication protocol violations."""


class ShippingGapError(ReplicationError):
    """Committed batches between cursor and log are no longer available."""


class WalShipper:
    """Expose a primary's committed WAL batches past a durable cursor.

    Parameters
    ----------
    directory : str
        The primary store's directory (holds ``wal.rexp``; the cursor
        file and archive directory are created inside it).
    registry : MetricsRegistry, optional
        Receives the ``replication.spills`` counter.
    """

    def __init__(self, directory: str, registry=None):
        self.directory = directory
        self.wal_path = os.path.join(directory, WAL_FILENAME)
        self.cursor_path = os.path.join(directory, CURSOR_FILENAME)
        self.archive_dir = os.path.join(directory, ARCHIVE_DIRNAME)
        self._acked = self._read_cursor()
        self._newest: Tuple[int, float] = (0, 0.0)
        self._spills = (registry or NULL_REGISTRY).counter(
            "replication.spills"
        )

    # -- durable cursor ------------------------------------------------------

    def _read_cursor(self) -> int:
        if not os.path.exists(self.cursor_path):
            return 0
        with open(self.cursor_path, "r", encoding="ascii") as handle:
            return int(handle.read().strip() or "0")

    @property
    def acked(self) -> int:
        """Highest operation sequence number the replica acknowledged."""
        return self._acked

    def ack(self, op_seq: int) -> None:
        """Durably advance the cursor and prune fully shipped segments.

        The cursor write is atomic (tmp + fsync + rename), so a crash
        leaves either the old or the new cursor — never a torn one.
        Acknowledging below the current cursor is a protocol violation.
        """
        if op_seq < self._acked:
            raise ReplicationError(
                f"ack({op_seq}) below shipping cursor {self._acked}"
            )
        if op_seq == self._acked:
            return
        tmp = self.cursor_path + ".tmp"
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(f"{op_seq}\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.cursor_path)
        self._acked = op_seq
        for path, _first, last in self._segments():
            if last <= op_seq:
                os.remove(path)

    # -- archive segments ----------------------------------------------------

    def _segments(self) -> List[Tuple[str, int, int]]:
        """List archive segments as ``(path, first, last)``, ascending."""
        if not os.path.isdir(self.archive_dir):
            return []
        out = []
        for name in sorted(os.listdir(self.archive_dir)):
            if not (name.startswith("seg-") and name.endswith(".rexp")):
                continue
            first, last = name[4:-5].split("-")
            out.append(
                (os.path.join(self.archive_dir, name), int(first), int(last))
            )
        return out

    def archive_bytes(self) -> int:
        """Total size of all archive segments plus the cursor file."""
        total = sum(os.path.getsize(path) for path, _f, _l in self._segments())
        if os.path.exists(self.cursor_path):
            total += os.path.getsize(self.cursor_path)
        return total

    def _write_segment(self, batches: List[CommittedBatch]) -> None:
        """Write ``batches`` as one archive segment (atomic, fsynced).

        The segment is itself a valid WAL file (fresh dense LSNs from 0)
        for :func:`repro.storage.wal.scan_wal`.
        """
        os.makedirs(self.archive_dir, exist_ok=True)
        name = f"seg-{batches[0].op_seq:017d}-{batches[-1].op_seq:017d}.rexp"
        path = os.path.join(self.archive_dir, name)
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(encode_batches(batches))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)

    # -- fetch ---------------------------------------------------------------

    def fetch(self, limit: Optional[int] = None) -> List[CommittedBatch]:
        """Return committed batches past the cursor, oldest first.

        Reads the archive segments, then the live log — whose one scan
        also records the newest committed ``(op_seq, clock)`` for
        :meth:`last_committed`.

        Parameters
        ----------
        limit : int, optional
            Maximum batches to return (all pending when omitted).

        Raises
        ------
        ShippingGapError
            If batches between the cursor and the oldest available one
            were destroyed (e.g. the log was truncated outside the
            shipping gate) — the replica must re-bootstrap.
        """
        available: List[CommittedBatch] = []
        for path, _first, _last in self._segments():
            available.extend(batches_of(scan_wal(path)[0])[1])
        checkpoint, live = batches_of(scan_wal(self.wal_path)[0])
        available.extend(live)
        # With no batch live, the log's checkpoint asserts how far
        # history reached (every reset asserts the newest commit).
        last = live[-1] if live else checkpoint
        self._newest = (
            (last.op_seq, last.clock_time) if last is not None else (0, 0.0)
        )
        pending: List[CommittedBatch] = []
        expected = self._acked
        for batch in sorted(available, key=lambda b: b.op_seq):
            # Skip what is acknowledged, and the second copy of a batch
            # both archived and live (a spill whose log reset faulted).
            if batch.op_seq <= expected:
                continue
            if batch.op_seq != expected + 1:
                raise ShippingGapError(
                    f"batch {expected + 1} missing: cursor {self._acked}, "
                    f"next available {batch.op_seq}"
                )
            pending.append(batch)
            expected = batch.op_seq
        if limit is not None:
            pending = pending[:limit]
        return pending

    def last_committed(self) -> Tuple[int, float]:
        """Sequence number and clock time of the newest committed batch.

        As of the last :meth:`fetch`, whose scan of the live log found
        it — ``(0, 0.0)`` before the first.  With no batch on disk it is
        the live log's checkpoint base.
        """
        return self._newest

    def lag_batches(self) -> int:
        """Committed batches not yet acknowledged, as of the last fetch."""
        return max(0, self._newest[0] - self._acked)

    # -- the truncation gate -------------------------------------------------

    def before_truncate(self, wal: WriteAheadLog, op_seq: int) -> None:
        """Gate a WAL truncation: spill unshipped batches first.

        Invoked by :meth:`repro.storage.pagefile.FilePageStore.checkpoint`
        just before it resets the log (``op_seq`` is the sequence number
        the reset will assert).  The not-yet-acked committed suffix of
        the live log is re-encoded into an archive segment — durably,
        before the log is reset — so a tailing replica can still fetch
        it.
        """
        wal.flush()
        _checkpoint, live = batches_of(scan_wal(wal.path)[0])
        # Batches already sitting in an archive segment are safe even
        # though still live (a previous spill whose log reset faulted);
        # re-spilling them would only duplicate bytes.
        archived = max(
            (last for _path, _first, last in self._segments()), default=0
        )
        floor = max(self._acked, archived)
        unshipped = [b for b in live if b.op_seq > floor]
        if unshipped:
            self._write_segment(unshipped)
            self._spills.inc()
