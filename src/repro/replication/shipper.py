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
    committed batches first *spills* them here (or refuses, in
    ``"refuse"`` mode), so truncation can race shipment safely.
``ship.cursor``
    The durable shipping cursor: the highest operation sequence number
    the replica has acknowledged.  Written atomically (tmp + fsync +
    rename); archive segments at or below it are pruned on ack.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs.metrics import NULL_REGISTRY
from ..storage.pagefile import WAL_FILENAME
from ..storage.wal import (
    _COMMIT,
    CHECKPOINT_RECORD,
    COMMIT_RECORD,
    FREE_RECORD,
    PAGE_RECORD,
    WalRecord,
    WriteAheadLog,
    encode_record,
    scan_wal,
)

#: File names of the shipper's durable state inside the store directory.
CURSOR_FILENAME = "ship.cursor"
ARCHIVE_DIRNAME = "wal_archive"

#: Truncation policies (see :meth:`WalShipper.before_truncate`).
SPILL = "spill"
REFUSE = "refuse"


class ReplicationError(Exception):
    """Base class for replication protocol violations."""


class ShippingLagError(ReplicationError):
    """A refuse-mode checkpoint would destroy unshipped committed batches."""


class ShippingGapError(ReplicationError):
    """Committed batches between cursor and log are no longer available."""


@dataclass(frozen=True)
class ShippedBatch:
    """One committed operation batch in shipping order.

    Attributes
    ----------
    op_seq : int
        The batch's operation sequence number (dense: each commit is
        exactly one past its predecessor).
    clock_time : float
        Simulation clock time stamped on the commit record.
    records : tuple of WalRecord
        The batch's PAGE/FREE records, in log order (the closing COMMIT
        is implied by ``op_seq``/``clock_time``).
    """

    op_seq: int
    clock_time: float
    records: Tuple[WalRecord, ...]


def batches_of(records) -> Tuple[int, float, List[ShippedBatch]]:
    """Group scanned WAL records into committed batches.

    Mirrors the grouping rule of :func:`repro.storage.wal.recover`: a
    leading checkpoint record sets the base sequence number, PAGE/FREE
    records accumulate until a COMMIT closes the batch, and a trailing
    batch without a COMMIT never happened.

    Parameters
    ----------
    records : iterable of WalRecord
        Intact records of one WAL-format file, in log order.

    Returns
    -------
    base_op_seq : int
        Sequence number asserted by the leading checkpoint (0 if none).
    base_clock : float
        Clock time of the leading checkpoint (0.0 if none).
    batches : list of ShippedBatch
        The committed batches, in order.

    Raises
    ------
    ReplicationError
        If a checkpoint record appears inside an open batch.
    """
    base_seq, base_clock = 0, 0.0
    batches: List[ShippedBatch] = []
    pending: List[WalRecord] = []
    for record in records:
        if record.kind == CHECKPOINT_RECORD:
            if pending:
                raise ReplicationError(
                    "checkpoint record inside an open batch"
                )
            base_seq = record.op_seq
            base_clock = record.clock_time
        elif record.kind == COMMIT_RECORD:
            batches.append(
                ShippedBatch(record.op_seq, record.clock_time, tuple(pending))
            )
            pending = []
        else:
            pending.append(record)
    return base_seq, base_clock, batches


class WalShipper:
    """Expose a primary's committed WAL batches past a durable cursor.

    Parameters
    ----------
    directory : str
        The primary store's directory (holds ``wal.rexp``; the cursor
        file and archive directory are created inside it).
    mode : str, optional
        Truncation policy: :data:`SPILL` (default) archives unshipped
        batches before a checkpoint truncates the log, :data:`REFUSE`
        raises :class:`ShippingLagError` instead.
    registry : MetricsRegistry, optional
        Receives ``replication.shipped_*`` counters and archive gauges.
    """

    def __init__(self, directory: str, mode: str = SPILL, registry=None):
        if mode not in (SPILL, REFUSE):
            raise ValueError(f"unknown shipping mode {mode!r}")
        self.directory = directory
        self.mode = mode
        self.wal_path = os.path.join(directory, WAL_FILENAME)
        self.cursor_path = os.path.join(directory, CURSOR_FILENAME)
        self.archive_dir = os.path.join(directory, ARCHIVE_DIRNAME)
        self._acked = self._read_cursor()
        registry = registry or NULL_REGISTRY
        self._shipped_batches = registry.counter(
            "replication.shipped_batches"
        )
        self._spills = registry.counter("replication.spills")

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

    def _write_segment(self, batches: List[ShippedBatch]) -> str:
        """Write ``batches`` as one archive segment (atomic, fsynced).

        Records are re-encoded with fresh dense LSNs starting at 0 so
        the segment is itself a valid WAL file for
        :func:`repro.storage.wal.scan_wal`.
        """
        os.makedirs(self.archive_dir, exist_ok=True)
        name = f"seg-{batches[0].op_seq:017d}-{batches[-1].op_seq:017d}.rexp"
        path = os.path.join(self.archive_dir, name)
        lsn = 0
        blob = bytearray()
        for batch in batches:
            for record in batch.records:
                kind = record.kind
                if kind not in (PAGE_RECORD, FREE_RECORD):
                    raise ReplicationError(
                        f"unexpected record kind {kind} inside a batch"
                    )
                blob += encode_record(kind, lsn, record.payload)
                lsn += 1
            blob += encode_record(
                COMMIT_RECORD, lsn, _COMMIT.pack(batch.op_seq, batch.clock_time)
            )
            lsn += 1
        tmp = path + ".tmp"
        with open(tmp, "wb") as handle:
            handle.write(bytes(blob))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    # -- fetch ---------------------------------------------------------------

    def _available(self) -> List[ShippedBatch]:
        """All committed batches on disk, archive segments first."""
        batches: List[ShippedBatch] = []
        for path, _first, _last in self._segments():
            records, _valid, _torn = scan_wal(path)
            _base, _clock, segment = batches_of(records)
            batches.extend(segment)
        records, _valid, _torn = scan_wal(self.wal_path)
        _base, _clock, live = batches_of(records)
        batches.extend(live)
        return batches

    def fetch(self, limit: Optional[int] = None) -> List[ShippedBatch]:
        """Return committed batches past the cursor, oldest first.

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
        raw = [b for b in self._available() if b.op_seq > self._acked]
        raw.sort(key=lambda b: b.op_seq)
        # A spill whose following log reset faulted leaves its batches
        # both archived and live; identical content, so keep the first.
        pending: List[ShippedBatch] = []
        for batch in raw:
            if pending and batch.op_seq == pending[-1].op_seq:
                continue
            pending.append(batch)
        expected = self._acked
        for batch in pending:
            if batch.op_seq != expected + 1:
                raise ShippingGapError(
                    f"batch {expected + 1} missing: cursor {self._acked}, "
                    f"next available {batch.op_seq}"
                )
            expected = batch.op_seq
        if limit is not None:
            pending = pending[:limit]
        self._shipped_batches.inc(len(pending))
        return pending

    def last_committed(self) -> Tuple[int, float]:
        """Sequence number and clock time of the newest committed batch.

        Falls back to the live log's checkpoint base when no batch is
        currently on disk (a freshly truncated log still asserts how far
        history reached).
        """
        records, _valid, _torn = scan_wal(self.wal_path)
        base, base_clock, live = batches_of(records)
        if live:
            return live[-1].op_seq, live[-1].clock_time
        newest = (base, base_clock)
        for _path, _first, last in self._segments():
            if last > newest[0]:
                newest = (last, newest[1])
        return newest

    def lag_batches(self) -> int:
        """Committed batches not yet acknowledged by the replica."""
        return max(0, self.last_committed()[0] - self._acked)

    # -- the truncation gate -------------------------------------------------

    def before_truncate(self, wal: WriteAheadLog, op_seq: int) -> None:
        """Gate a WAL truncation: spill unshipped batches, or refuse.

        Invoked by :meth:`repro.storage.pagefile.FilePageStore.checkpoint`
        just before it resets the log.  In spill mode the not-yet-acked
        committed suffix of the live log is re-encoded into an archive
        segment (durably, before the log is reset), so a tailing replica
        can still fetch it; in refuse mode the truncation is rejected.

        Raises
        ------
        ShippingLagError
            In refuse mode, when committed batches past the cursor
            would be destroyed.  The page file is already consistent at
            this point, so refusing loses nothing — the caller may ship
            first and checkpoint again.
        """
        wal.flush()
        records, _valid, _torn = scan_wal(wal.path)
        _base, _clock, live = batches_of(records)
        # Batches already sitting in an archive segment are safe even
        # though still live (a previous spill whose log reset faulted);
        # re-spilling them would only duplicate bytes.
        archived = max(
            (last for _path, _first, last in self._segments()), default=0
        )
        floor = max(self._acked, archived)
        unshipped = [b for b in live if b.op_seq > floor]
        if not unshipped:
            return
        if self.mode == REFUSE:
            raise ShippingLagError(
                f"truncation would destroy {len(unshipped)} unshipped "
                f"batches (cursor {self._acked}, committed {op_seq})"
            )
        self._write_segment(unshipped)
        self._spills.inc()
