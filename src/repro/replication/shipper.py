"""WAL shipping on the primary: cursor, archive segments, batch fetch.

The shipper never talks to the primary's in-memory state.  It reads the
on-disk write-ahead log (and its own archive segments), which by the
group-commit discipline of :meth:`repro.storage.pagefile.FilePageStore.commit`
hold exactly the committed prefix — every commit record is flushed
before the images touch the page file.  A replica tailing a *dead*
primary therefore sees precisely what recovery would replay.  Reading
resumes past the last COMMIT read, so a fetch reads only what was
appended since the last; read but unacknowledged batches are held in
memory.  A log reset starts reading over: the truncation gate drops
the position before every gated reset, and another file identity, a
shorter file or an unexpected LSN at the position catches any other.

Three pieces of durable state live in the primary's store directory:

``wal.rexp``
    The live log (owned by the store; the shipper only reads it).
``wal_archive/seg-<first>-<last>.rexp``
    Archive segments in plain WAL wire format, re-encoded with fresh
    dense LSNs.  A checkpoint that would truncate not-yet-shipped
    committed batches first *spills* them here, so truncation can race
    shipment safely.  Listed once, when the shipper starts; it knows
    the ones it writes and prunes.
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
    committed_end,
    encode_batches,
    scan_wal,
    scan_wal_bytes,
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
        text = ""
        if os.path.exists(self.cursor_path):
            with open(self.cursor_path, "r", encoding="ascii") as handle:
                text = handle.read()
        self._acked, self._cursor_bytes = int(text.strip() or 0), len(text)
        self._newest: Tuple[int, float] = (0, 0.0)
        #: Committed batches read but not acknowledged, ascending.
        self._pending: List[CommittedBatch] = []
        #: ``(path, last op_seq, size)`` of each archive segment.
        self._segments: List[Tuple[str, int, int]] = []
        #: ``(file identity, byte offset, next LSN)`` in the live log.
        self._position: Optional[tuple] = None
        os.makedirs(self.archive_dir, exist_ok=True)
        for name in sorted(os.listdir(self.archive_dir)):
            if name.startswith("seg-") and name.endswith(".rexp"):
                path = os.path.join(self.archive_dir, name)
                last = int(name[4:-5].split("-")[1])
                self._segments.append((path, last, os.path.getsize(path)))
                self._take(batches_of(scan_wal(path)[0])[1])
        self._spills = (registry or NULL_REGISTRY).counter(
            "replication.spills"
        )

    # -- durable cursor ------------------------------------------------------

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
        text = f"{op_seq}\n"
        with open(tmp, "w", encoding="ascii") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.cursor_path)
        self._acked, self._cursor_bytes = op_seq, len(text)
        self._pending = [b for b in self._pending if b.op_seq > op_seq]
        for path, last, _size in self._segments:
            if last <= op_seq:
                os.remove(path)
        self._segments = [s for s in self._segments if s[1] > op_seq]

    # -- archive segments ----------------------------------------------------

    def archive_bytes(self) -> int:
        """Total size of all archive segments plus the cursor file."""
        return self._cursor_bytes + sum(s[2] for s in self._segments)

    def _write_segment(self, batches: List[CommittedBatch]) -> None:
        """Write ``batches`` as one archive segment (atomic, fsynced).

        The segment is itself a valid WAL file (fresh dense LSNs from 0)
        for :func:`repro.storage.wal.scan_wal`.
        """
        name = f"seg-{batches[0].op_seq:017d}-{batches[-1].op_seq:017d}.rexp"
        path = os.path.join(self.archive_dir, name)
        tmp = path + ".tmp"
        data = encode_batches(batches)
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        self._segments.append((path, batches[-1].op_seq, len(data)))

    # -- fetch ---------------------------------------------------------------

    def _take(self, batches: List[CommittedBatch]) -> None:
        """Hold ``batches`` not yet held or acknowledged, in order."""
        for batch in batches:
            held = self._pending[-1].op_seq if self._pending else 0
            if batch.op_seq > max(held, self._acked):
                self._pending.append(batch)

    def _read_live(self) -> None:
        """Read what the live log committed since the last read.

        From the position while it holds, else from the start.
        """
        if not os.path.exists(self.wal_path):
            return
        with open(self.wal_path, "rb") as handle:
            stat = os.fstat(handle.fileno())
            ident = (stat.st_dev, stat.st_ino)
            ident0, offset, lsn = self._position or (ident, 0, 0)
            if ident0 != ident or offset > stat.st_size:
                offset, lsn = 0, 0
            handle.seek(offset)
            records = scan_wal_bytes(handle.read())[0]
            if records and records[0].lsn != lsn:  # started over
                offset = lsn = 0
                handle.seek(0)
                records = scan_wal_bytes(handle.read())[0]
        checkpoint, batches = batches_of(records)
        self._take(batches)
        last = batches[-1] if batches else checkpoint
        if last is not None:
            self._newest = (last.op_seq, last.clock_time)
        self._position = (ident, *committed_end(records, offset, lsn))

    def fetch(self, limit: Optional[int] = None) -> List[CommittedBatch]:
        """Return committed batches past the cursor, oldest first.

        Reads what the live log committed since the last read (which
        :meth:`last_committed` reports) and returns every held batch.

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
        self._read_live()
        expected = self._acked
        for batch in self._pending:
            if batch.op_seq != expected + 1:
                raise ShippingGapError(
                    f"batch {expected + 1} missing: cursor {self._acked}, "
                    f"next available {batch.op_seq}"
                )
            expected = batch.op_seq
        return self._pending[:limit]

    def last_committed(self) -> Tuple[int, float]:
        """Sequence number and clock time of the newest committed batch.

        As of the last read of the live log, which found it — ``(0,
        0.0)`` before the first.  With no batch on disk it is the live
        log's checkpoint base.
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
        it.  The next read starts the log over, reset or faulted.
        """
        wal.flush()
        self._read_live()
        self._position = None
        # Batches already sitting in an archive segment are safe even
        # though still live (a previous spill whose log reset faulted);
        # re-spilling them would only duplicate bytes.
        floor = max([self._acked] + [last for _p, last, _s in self._segments])
        unshipped = [b for b in self._pending if b.op_seq > floor]
        if unshipped:
            self._write_segment(unshipped)
            self._spills.inc()
