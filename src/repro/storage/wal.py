"""Physical write-ahead log and ARIES-lite crash recovery.

Durability in this stack is redo-only: every index operation stages its
dirty pages in the :class:`~repro.storage.pagefile.FilePageStore`, and at
the operation boundary the store appends one WAL record per final page
image (plus one per freed page) followed by a single commit record — a
group commit.  Only after the commit record is on the log are the page
images applied to the page file, so the log always runs ahead of the
data (the WAL-before-page invariant).  Recovery therefore never needs
undo: it replays the page images of committed operations and discards
everything after the last intact commit record.

Per TR-82 (Schmidt & Jensen, *Efficient Management of Short-Lived
Data*), replay exploits expiration semantics: a committed leaf image
whose every entry has ``t_exp`` below the recovery time carries no live
information, and when the on-disk slot it would overwrite is itself an
intact all-expired leaf the record is skipped and counted in the
``wal_skipped_expired`` metric.

WAL record wire format (all integers little-endian)::

    offset  size  field
    0       1     kind      u8   (1=PAGE, 2=FREE, 3=COMMIT, 4=CHECKPOINT)
    1       8     lsn       u64  (dense, starts at 0, monotonic)
    9       4     length    u32  (payload byte count)
    13      N     payload
    13+N    4     crc       u32  (CRC32 over bytes [0, 13+N))

Payloads::

    PAGE        <q> page id, then the raw page image (page_size bytes)
    FREE        <q> page id
    COMMIT      <Qd> operation sequence number, simulation clock time
    CHECKPOINT  <Qd> operation sequence number, simulation clock time

A torn tail — a record cut short by a crash, or one whose CRC does not
match — ends the scan; everything from the first bad byte onward is
discarded.  A checkpoint record is only ever the first record of a log
(written through an atomic rename by :meth:`WriteAheadLog.reset`), and
asserts that the page file was consistent when it was written.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Tuple

from .stats import IOStats

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from .pagefile import PageFile

#: Record kinds (the ``kind`` byte of the wire format).
PAGE_RECORD = 1
FREE_RECORD = 2
COMMIT_RECORD = 3
CHECKPOINT_RECORD = 4

_RECORD_HEADER = struct.Struct("<BQI")
_CRC = struct.Struct("<I")
_PID = struct.Struct("<q")
_COMMIT = struct.Struct("<Qd")


class WalError(Exception):
    """Raised on malformed write-ahead logs beyond an ignorable torn tail."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL record.

    Attributes
    ----------
    kind : int
        One of :data:`PAGE_RECORD`, :data:`FREE_RECORD`,
        :data:`COMMIT_RECORD`, :data:`CHECKPOINT_RECORD`.
    lsn : int
        Log sequence number (dense, monotonically increasing).
    payload : bytes
        The raw record payload (see the module docstring for layouts).
    """

    kind: int
    lsn: int
    payload: bytes

    @property
    def page_id(self) -> int:
        """Page id of a PAGE or FREE record."""
        return _PID.unpack_from(self.payload, 0)[0]

    @property
    def page_bytes(self) -> bytes:
        """Page image of a PAGE record."""
        return self.payload[_PID.size:]

    @property
    def op_seq(self) -> int:
        """Operation sequence number of a COMMIT or CHECKPOINT record."""
        return _COMMIT.unpack_from(self.payload, 0)[0]

    @property
    def clock_time(self) -> float:
        """Simulation clock time of a COMMIT or CHECKPOINT record."""
        return _COMMIT.unpack_from(self.payload, 0)[1]


@dataclass(frozen=True)
class CommittedBatch:
    """One committed operation batch of a log, in log order.

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


def _encode_record(kind: int, lsn: int, payload: bytes) -> bytes:
    head = _RECORD_HEADER.pack(kind, lsn, len(payload)) + payload
    return head + _CRC.pack(zlib.crc32(head))


def encode_batches(batches: Iterable[CommittedBatch]) -> bytes:
    """Serialize committed batches in WAL wire format (fresh LSNs from 0).

    The one encoder of WAL-formatted byte streams outside the log
    itself: archive segments and the replication channel's shipments
    both reuse the record framing (and so its CRC protection), which
    lets :func:`scan_wal_bytes` and :func:`batches_of` read them back.
    """
    blob = bytearray()
    lsn = 0
    for batch in batches:
        for record in batch.records:
            blob += _encode_record(record.kind, lsn, record.payload)
            lsn += 1
        blob += _encode_record(
            COMMIT_RECORD, lsn, _COMMIT.pack(batch.op_seq, batch.clock_time)
        )
        lsn += 1
    return bytes(blob)


def batches_of(
    records: Iterable[WalRecord],
) -> Tuple[Optional[WalRecord], List[CommittedBatch]]:
    """Group scanned records into committed batches — the one grouping rule.

    PAGE/FREE records accumulate until a COMMIT closes the batch; a
    trailing batch without a COMMIT never happened.  Recovery, the
    shipper, the channel and promotion all read a log through this.

    Returns
    -------
    checkpoint : WalRecord or None
        The last checkpoint record (it asserts the sequence number and
        clock the log starts from), or ``None`` if there is none.
    batches : list of CommittedBatch
        The committed batches, in order.

    Raises
    ------
    WalError
        If a checkpoint record appears inside an open batch.
    """
    checkpoint = None
    batches: List[CommittedBatch] = []
    pending: List[WalRecord] = []
    for record in records:
        if record.kind == CHECKPOINT_RECORD:
            if pending:
                raise WalError("checkpoint record inside an open batch")
            checkpoint = record
        elif record.kind == COMMIT_RECORD:
            batches.append(CommittedBatch(
                record.op_seq, record.clock_time, tuple(pending)
            ))
            pending = []
        else:
            pending.append(record)
    return checkpoint, batches


def scan_wal(path: str) -> Tuple[List[WalRecord], int, int]:
    """Scan a WAL file, stopping at the first torn or corrupt record.

    Parameters
    ----------
    path : str
        Path of the log file.  A missing file scans as empty.

    Returns
    -------
    records : list of WalRecord
        Every intact record, in log order.
    valid_length : int
        Byte offset of the end of the last intact record.
    torn_bytes : int
        Bytes discarded after ``valid_length`` (0 for a clean log).
    """
    if not os.path.exists(path):
        return [], 0, 0
    with open(path, "rb") as handle:
        return scan_wal_bytes(handle.read())


def scan_wal_bytes(data: bytes) -> Tuple[List[WalRecord], int, int]:
    """Scan an in-memory byte string in WAL wire format.

    Same contract as :func:`scan_wal` but over bytes already in hand —
    the shipping channel uses it to validate batches that crossed a
    faulty transport, where a short read must surface as a torn tail
    rather than an exception.
    """
    records: List[WalRecord] = []
    offset = 0
    while offset < len(data):
        if offset + _RECORD_HEADER.size + _CRC.size > len(data):
            break
        kind, lsn, length = _RECORD_HEADER.unpack_from(data, offset)
        end = offset + _RECORD_HEADER.size + length + _CRC.size
        if kind not in (
            PAGE_RECORD, FREE_RECORD, COMMIT_RECORD, CHECKPOINT_RECORD
        ) or end > len(data):
            break
        body = data[offset:end - _CRC.size]
        (crc,) = _CRC.unpack_from(data, end - _CRC.size)
        if crc != zlib.crc32(body):
            break
        if records and lsn != records[-1].lsn + 1:
            break
        records.append(
            WalRecord(kind, lsn, body[_RECORD_HEADER.size:])
        )
        offset = end
    return records, offset, len(data) - offset


def _write_checkpoint(path, op_seq, clock_time, injector=None, live=None):
    """Atomically make ``path`` a log of one checkpoint record.

    A fsynced sibling temporary file is renamed over ``path``, so a crash
    leaves the old log or the new one; the old log's ``live`` handle is
    closed after the injector's raise site.  Returns the bytes written.
    """
    tmp = path + ".tmp"
    data = _encode_record(CHECKPOINT_RECORD, 0, _COMMIT.pack(op_seq, clock_time))
    if injector is not None:
        data = injector.before_write(data)
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    if injector is not None:
        injector.after_write()
    if live is not None:
        live.close()
    os.replace(tmp, path)
    return len(data)


class WriteAheadLog:
    """Append-only physical log with group commit.

    Page stores append page/free records for every staged change of an
    operation, then a single commit record, then :meth:`flush` — after
    which the images may be applied to the page file.  Each appended
    record is one physical file write, charged as one write I/O on
    ``stats`` (this is the log traffic reported as ``auxiliary_io`` by
    the experiment runner; it is *not* part of the tree's page I/O).

    Parameters
    ----------
    path : str
        Log file path; created if missing, otherwise scanned so that
        appends continue after the last intact record.
    stats : IOStats, optional
        Counter sink for log writes.  A private one is created when
        omitted.
    injector : FaultInjector, optional
        Fault hook applied to every physical write.
    fsync : bool, optional
        Issue ``os.fsync`` on every :meth:`flush` (default off: the
        simulation cares about write counts, not media durability).
    """

    def __init__(
        self,
        path: str,
        stats: Optional[IOStats] = None,
        injector: Optional["object"] = None,
        fsync: bool = False,
    ):
        self.path = path
        self.stats = stats if stats is not None else IOStats()
        self.fsync = fsync
        self._injector = injector
        records, valid, torn = scan_wal(path)
        self._next_lsn = records[-1].lsn + 1 if records else 0
        self._file = open(path, "r+b" if os.path.exists(path) else "w+b")
        self._file.seek(valid)
        self._file.truncate(valid)
        if torn:
            # The truncate above cut off a torn tail, but only in the
            # kernel's page cache.  A crash before the next flush could
            # resurrect the torn bytes on media, and the records appended
            # after them would then sit past a corrupt region — so the
            # cut itself must be durable before any append.
            self._file.flush()
            os.fsync(self._file.fileno())
        self.records_appended = 0
        self.bytes_appended = 0

    # -- appends ------------------------------------------------------------

    def _append(self, kind: int, payload: bytes) -> int:
        lsn = self._next_lsn
        data = _encode_record(kind, lsn, payload)
        if self._injector is not None:
            data = self._injector.before_write(data)
        self._file.write(data)
        if self._injector is not None:
            self._injector.after_write()
        self._next_lsn += 1
        self.stats.writes += 1
        self.records_appended += 1
        self.bytes_appended += len(data)
        return lsn

    def append_page(self, pid: int, page_bytes: bytes) -> int:
        """Append a PAGE record and return its LSN."""
        return self._append(PAGE_RECORD, _PID.pack(pid) + page_bytes)

    def append_free(self, pid: int) -> int:
        """Append a FREE record and return its LSN."""
        return self._append(FREE_RECORD, _PID.pack(pid))

    def append_commit(self, op_seq: int, clock_time: float) -> int:
        """Append a COMMIT record and return its LSN."""
        return self._append(COMMIT_RECORD, _COMMIT.pack(op_seq, clock_time))

    def append_raw(self, kind: int, payload: bytes) -> int:
        """Append an already-encoded payload under ``kind``; return the LSN.

        The replication applier uses this to replay shipped records —
        whose payloads arrive exactly as the primary logged them — into
        the replica's own log without a decode/re-encode round trip.
        """
        return self._append(kind, payload)

    def flush(self) -> None:
        """Flush buffered appends to the operating system (and media)."""
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    # -- lifecycle ----------------------------------------------------------

    def reset(self, op_seq: int, clock_time: float) -> None:
        """Atomically replace the log with a single checkpoint record.

        See :func:`_write_checkpoint`; a transiently faulted reset
        leaves the old log open and appendable for a retry.  The page
        file must be consistent (all committed images applied and
        synced) first.
        """
        self.bytes_appended += _write_checkpoint(
            self.path, op_seq, clock_time, self._injector, self._file
        )
        self.stats.writes += 1
        self.records_appended += 1
        self._next_lsn = 1
        self._file = open(self.path, "r+b")
        self._file.seek(0, os.SEEK_END)

    def close(self) -> None:
        """Flush and close the log file handle."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def abandon(self) -> None:
        """Close the handle without flushing (simulated process death)."""
        if not self._file.closed:
            self._file.close()


@dataclass
class RecoveryReport:
    """Summary of one :func:`recover` pass.

    Attributes
    ----------
    records_scanned : int
        Intact records found in the log.
    commits_applied : int
        Committed operation batches whose images were (re)applied.
    pages_replayed : int
        PAGE records applied by the redo (each slot is written once).
    frees_replayed : int
        FREE records applied to the page file.
    wal_skipped_expired : int
        PAGE records skipped by the TR-82 expiration rule.
    skipped_pids : tuple of int
        Page ids whose replay was skipped (stale all-expired images
        remain in those slots).
    torn_bytes : int
        Bytes of torn/corrupt log tail that were discarded.
    op_seq : int
        Operation sequence number of the last committed operation (0 if
        nothing was ever committed).
    clock_time : float
        Simulation clock restored from the last commit (or checkpoint,
        or page-file header when the log holds neither).
    checkpoint_seen : bool
        Whether the log began with a checkpoint record.
    """

    records_scanned: int = 0
    commits_applied: int = 0
    pages_replayed: int = 0
    frees_replayed: int = 0
    wal_skipped_expired: int = 0
    skipped_pids: Tuple[int, ...] = ()
    torn_bytes: int = 0
    op_seq: int = 0
    clock_time: float = 0.0
    checkpoint_seen: bool = False


def recover(
    page_file: "PageFile",
    wal_path: str,
    all_expired: Optional[Callable[[bytes, float], bool]] = None,
    registry=None,
    tracer=None,
) -> RecoveryReport:
    """Replay committed WAL records onto a page file (redo-only).

    The scan phase reads the log once, CRC-verifying each record,
    grouping page/free records into batches closed by commit records and
    discarding the torn tail plus any trailing uncommitted batch.  The
    redo is simulated, skipping page images that the expiration rule
    proves carry no live information; then each touched slot's final
    image is written once, the header (clock, next page id, rebuilt free
    chain) is rewritten and synced, and the log reset to one checkpoint.

    Parameters
    ----------
    page_file : PageFile
        Open raw page file to replay onto.
    wal_path : str
        Path of the write-ahead log.
    all_expired : callable, optional
        Predicate ``(page_bytes, recovery_time) -> bool`` that decides
        whether a page image is an all-expired leaf.  When omitted the
        TR-82 skip is disabled and every committed image is replayed.
    registry : MetricsRegistry, optional
        Sink for ``wal_skipped_expired`` and the other recovery
        counters.
    tracer : Tracer, optional
        Emits a ``wal.recover`` span around the pass.

    Returns
    -------
    RecoveryReport
        Counts of what the pass scanned, replayed and skipped.
    """
    if tracer is not None:
        with tracer.span("wal.recover", wal=wal_path):
            report = _recover(page_file, wal_path, all_expired)
    else:
        report = _recover(page_file, wal_path, all_expired)
    if registry is not None:
        registry.counter("wal_skipped_expired").inc(report.wal_skipped_expired)
        registry.counter("wal.records_scanned").inc(report.records_scanned)
        registry.counter("wal.commits_applied").inc(report.commits_applied)
        registry.counter("wal.pages_replayed").inc(report.pages_replayed)
        registry.counter("wal.frees_replayed").inc(report.frees_replayed)
        registry.counter("wal.torn_bytes").inc(report.torn_bytes)
    return report


def _recover(page_file, wal_path, all_expired):
    records, _valid, torn = scan_wal(wal_path)
    report = RecoveryReport(records_scanned=len(records), torn_bytes=torn)
    checkpoint, batches = batches_of(records)
    report.checkpoint_seen = checkpoint is not None
    last = batches[-1] if batches else checkpoint
    if last is not None:
        report.op_seq, report.clock_time = last.op_seq, last.clock_time
    else:
        report.clock_time = page_file.read_header().clock_time
    now = report.clock_time

    # Each slot's payload as sequential redo leaves it (None: FREE), how
    # far that redo extends the file, and what it reads at a pid if intact.
    redone, skipped = {}, set()
    extent, size = page_file.slot_count, page_file.page_size

    def intact_payload(pid):
        if pid in redone or pid >= extent:
            return redone.get(pid)
        slot = page_file.read_slot(pid)
        ok = slot.state == 1 and slot.crc_ok  # 1 == SLOT_ALLOCATED
        return slot.payload if ok else None

    for batch in batches:
        report.commits_applied += 1
        for record in batch.records:
            pid = record.page_id
            if record.kind == FREE_RECORD:
                redone[pid] = None
                report.frees_replayed += 1
            elif all_expired is not None and _skippable(
                intact_payload, pid, record.page_bytes, now, all_expired
            ):
                report.wal_skipped_expired += 1
                skipped.add(pid)
                continue
            else:
                redone[pid] = record.page_bytes.ljust(size, b"\0")
                report.pages_replayed += 1
            skipped.discard(pid)
            extent = max(extent, pid + 1)
    report.skipped_pids = tuple(sorted(skipped))

    for pid, image in sorted(redone.items()):
        if image is None:
            page_file.mark_free(pid, -1)
        else:
            page_file.write_page(pid, image)
    header = page_file.read_header()
    header.clock_time = now
    header.next_id = max(header.next_id, page_file.slot_count)
    page_file.rebuild_free_chain(header)
    page_file.write_header(header)
    page_file.sync()
    _write_checkpoint(wal_path, report.op_seq, now)
    return report


def _skippable(intact_payload, pid, data, now, all_expired) -> bool:
    """Apply the TR-82 skip rule to one committed page image.

    The rule is deliberately conservative: the *logged* image must be an
    all-expired leaf (so replaying it would install no live entries) and
    the slot it would overwrite must already hold an intact, CRC-valid
    all-expired leaf (so skipping leaves no torn or live-looking bytes
    behind).  Anything else — internal nodes, fresh slots, corrupt
    slots, leaves with a single live entry — is replayed.
    """
    # The predicate decodes raw page bytes; garbage surfaces as a codec
    # ValueError/struct.error (or OSError from the underlying file).  An
    # undecodable image is not *provably* all-expired, so recovery
    # conservatively replays it verbatim rather than guess.  Any other
    # exception type is a bug in the predicate and must propagate — a
    # bare except here once masked real defects as "not skippable".
    try:
        if not all_expired(data, now):
            return False
    except (OSError, ValueError, struct.error):
        return False
    payload = intact_payload(pid)
    if payload is None:
        return False
    try:
        return bool(all_expired(payload, now))
    except (OSError, ValueError, struct.error):
        # Same contract as above: only decode/IO failures mean "replay".
        return False
