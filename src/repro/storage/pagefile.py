"""Durable page store: a real page file behind the ``DiskManager`` protocol.

Two layers live here.  :class:`PageFile` is the raw on-disk format —
fixed-size slots with per-slot CRCs and a checksummed header.
:class:`FilePageStore` inherits the ``allocate`` / ``free`` /
``read`` / ``write`` / ``peek`` protocol (and so the exact same
:class:`~repro.storage.stats.IOStats` accounting) of the simulated
:class:`~repro.storage.disk.DiskManager`, so a tree runs unchanged on
either and every figure's I/O counts still hold.  Durability is added
underneath: node payloads are encoded with the byte-exact
:class:`~repro.storage.serial.NodeCodec`, dirty pages are staged per
operation, and :meth:`FilePageStore.commit` group-commits them through a
:class:`~repro.storage.wal.WriteAheadLog` before applying the images to
the file (the WAL-before-page invariant).

File layout (all integers little-endian)::

    offset                  content
    0                       header (one slot-sized region)
    (1+pid) * slot_size     slot for page ``pid``

    slot_size = page_size + 8

Header (64 bytes used, rest of the slot zero)::

    <8s I  I  H  H  Q  q  Q  q  d  I>
    magic   b"REXPPG01"
    version 1
    page_size
    dims            entry layout dimensions
    flags           bit0 velocities, bit1 BR expiration, bit2 leaf exp.
    next_id         page id watermark (allocation high-water mark)
    free_head       first free page id of the free chain (-1 = none)
    free_count      length of the free chain
    root_pid        the tree's root page id (-1 until set)
    clock_time      simulation clock at the last header write
    crc             CRC32 over the preceding 60 bytes

Page slot (``slot_size`` bytes)::

    page_size   payload (a NodeCodec page image; zero-padded)
    u32         state: 0 = never used, 1 = allocated, 2 = free
    u32         crc: CRC32 over payload followed by the packed state

A free slot's first 8 bytes hold the next free page id of the free
chain (``<q``, -1 terminates); the chain is rewritten on checkpoint and
recovery, and readers fall back to scanning slot states, so a stale
chain can never corrupt allocation.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from .disk import INVALID_PAGE, DiskManager, PageId
from .faults import TransientIOError
from .layout import EntryLayout
from .serial import NodeCodec
from .stats import IOStats
from .wal import RecoveryReport, WriteAheadLog, recover

MAGIC = b"REXPPG01"
VERSION = 1

#: Default file names inside a durable-store directory.
PAGES_FILENAME = "pages.rexp"
WAL_FILENAME = "wal.rexp"

#: Slot states.
SLOT_UNUSED = 0
SLOT_ALLOCATED = 1
SLOT_FREE = 2

_HEADER = struct.Struct("<8sIIHHQqQqd")
_CRC = struct.Struct("<I")
_FOOTER = struct.Struct("<II")
_STATE = struct.Struct("<I")
_NEXT_FREE = struct.Struct("<q")

_VELOCITIES_FLAG = 0x1
_BR_EXPIRATION_FLAG = 0x2
_LEAF_EXPIRATION_FLAG = 0x4


class PageFileError(Exception):
    """Raised on malformed page files (bad magic, header CRC, slots)."""


def layout_flags(layout: EntryLayout) -> int:
    """Pack an entry layout's boolean knobs into the header flag word."""
    flags = 0
    if layout.store_velocities:
        flags |= _VELOCITIES_FLAG
    if layout.store_br_expiration:
        flags |= _BR_EXPIRATION_FLAG
    if layout.store_leaf_expiration:
        flags |= _LEAF_EXPIRATION_FLAG
    return flags


@dataclass
class PageFileHeader:
    """Decoded header of a page file (see module docstring for layout)."""

    page_size: int
    dims: int
    flags: int
    next_id: int = 0
    free_head: int = -1
    free_count: int = 0
    root_pid: int = INVALID_PAGE
    clock_time: float = 0.0

    @property
    def store_velocities(self) -> bool:
        """Whether the stored entries carry velocity vectors."""
        return bool(self.flags & _VELOCITIES_FLAG)

    @property
    def store_br_expiration(self) -> bool:
        """Whether internal entries carry expiration times."""
        return bool(self.flags & _BR_EXPIRATION_FLAG)

    @property
    def store_leaf_expiration(self) -> bool:
        """Whether leaf entries carry expiration times."""
        return bool(self.flags & _LEAF_EXPIRATION_FLAG)


def read_header(directory: str) -> PageFileHeader:
    """Read and validate the page-file header of a durable store.

    A cheap probe — it opens the page file read-only, so callers can
    reconstruct a matching tree configuration (page size, dimensions,
    layout flags) before committing to a full recovery-running open.
    """
    pf = PageFile.open(os.path.join(directory, PAGES_FILENAME))
    try:
        return pf.read_header()
    finally:
        pf.abandon()


@dataclass(frozen=True)
class PersistReport:
    """What a ``persist_to`` call wrote.

    Attributes
    ----------
    directory : str
        The durable-store directory.
    pages : int
        Live pages written to the page file.
    file_bytes : int
        Size of the page file after the checkpoint.
    """

    directory: str
    pages: int
    file_bytes: int


@dataclass(frozen=True)
class Slot:
    """One decoded page slot.

    Attributes
    ----------
    state : int
        :data:`SLOT_UNUSED`, :data:`SLOT_ALLOCATED` or
        :data:`SLOT_FREE`.
    payload : bytes
        The ``page_size`` payload bytes (zeros for unused slots).
    crc_ok : bool
        Whether the stored CRC matches payload and state (always true
        for unused slots).
    """

    state: int
    payload: bytes
    crc_ok: bool

    @property
    def next_free(self) -> int:
        """Next free page id encoded in a free slot's payload."""
        return _NEXT_FREE.unpack_from(self.payload, 0)[0]


class PageFile:
    """Raw slotted file: header plus CRC-protected fixed-size slots.

    This layer knows nothing about trees or staging — it reads and
    writes whole slots, maintains the header, and routes every physical
    write through an optional fault injector.  All slot writes are
    single ``write`` calls so a torn write maps to one torn slot.

    Parameters
    ----------
    path : str
        File path (use :meth:`create` / :meth:`open`, not the
        constructor, to get a valid instance).
    header : PageFileHeader
        The decoded (or freshly built) header.
    injector : FaultInjector, optional
        Fault hook applied to every physical write.
    """

    def __init__(self, path: str, header: PageFileHeader, injector=None):
        self.path = path
        self._header = header
        self._injector = injector
        self._file = open(path, "r+b")
        self.page_size = header.page_size
        self.slot_size = header.page_size + _FOOTER.size

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, page_size: int, dims: int, flags: int, injector=None
    ) -> "PageFile":
        """Create a fresh page file with an empty header and no slots."""
        if page_size < _HEADER.size + _CRC.size:
            raise PageFileError(
                f"page_size {page_size} cannot hold the header"
            )
        with open(path, "wb"):
            pass
        pf = cls(path, PageFileHeader(page_size, dims, flags), injector)
        pf.write_header(pf._header)
        return pf

    @classmethod
    def open(cls, path: str, injector=None) -> "PageFile":
        """Open an existing page file, validating magic and header CRC."""
        if not os.path.exists(path):
            raise PageFileError(f"no page file at {path}")
        with open(path, "rb") as handle:
            raw = handle.read(_HEADER.size + _CRC.size)
        if len(raw) < _HEADER.size + _CRC.size:
            raise PageFileError("page file too short for a header")
        (magic, version, page_size, dims, flags, next_id, free_head,
         free_count, root_pid, clock_time) = _HEADER.unpack_from(raw, 0)
        (crc,) = _CRC.unpack_from(raw, _HEADER.size)
        if magic != MAGIC:
            raise PageFileError(f"bad magic {magic!r}")
        if version != VERSION:
            raise PageFileError(f"unsupported version {version}")
        if crc != zlib.crc32(raw[:_HEADER.size]):
            raise PageFileError("header CRC mismatch")
        header = PageFileHeader(
            page_size, dims, flags, next_id, free_head, free_count,
            root_pid, clock_time,
        )
        return cls(path, header, injector)

    def sync(self) -> None:
        """Flush file buffers and fsync to media."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Flush and close the file handle."""
        if not self._file.closed:
            self._file.flush()
            self._file.close()

    def abandon(self) -> None:
        """Close without flushing (simulated process death)."""
        if not self._file.closed:
            self._file.close()

    # -- physical writes ----------------------------------------------------

    def _write_at(self, offset: int, data: bytes) -> None:
        if self._injector is not None:
            data = self._injector.before_write(data)
        self._file.seek(offset)
        self._file.write(data)
        if self._injector is not None:
            self._injector.after_write()

    # -- header -------------------------------------------------------------

    def read_header(self) -> PageFileHeader:
        """Return a copy of the current in-memory header."""
        h = self._header
        return PageFileHeader(
            h.page_size, h.dims, h.flags, h.next_id, h.free_head,
            h.free_count, h.root_pid, h.clock_time,
        )

    def write_header(self, header: PageFileHeader) -> None:
        """Write ``header`` to offset 0 as one physical write."""
        body = _HEADER.pack(
            MAGIC, VERSION, header.page_size, header.dims, header.flags,
            header.next_id, header.free_head, header.free_count,
            header.root_pid, header.clock_time,
        )
        self._write_at(0, body + _CRC.pack(zlib.crc32(body)))
        self._header = PageFileHeader(
            header.page_size, header.dims, header.flags, header.next_id,
            header.free_head, header.free_count, header.root_pid,
            header.clock_time,
        )

    # -- slots --------------------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of page slots the file extends over, buffered writes too."""
        self._file.flush()
        size = os.fstat(self._file.fileno()).st_size
        return max(0, size - self.slot_size) // self.slot_size

    def _slot_offset(self, pid: PageId) -> int:
        return (1 + pid) * self.slot_size

    def read_slot(self, pid: PageId) -> Slot:
        """Read and CRC-check one slot (unused/hole slots decode as such)."""
        self._file.seek(self._slot_offset(pid))
        raw = self._file.read(self.slot_size)
        if len(raw) < self.slot_size:
            raw = raw.ljust(self.slot_size, b"\0")
        payload = raw[:self.page_size]
        state, crc = _FOOTER.unpack_from(raw, self.page_size)
        if state == SLOT_UNUSED:
            return Slot(SLOT_UNUSED, payload, True)
        ok = crc == zlib.crc32(payload + _STATE.pack(state))
        return Slot(state, payload, ok)

    def _write_slot(self, pid: PageId, payload: bytes, state: int) -> None:
        if len(payload) > self.page_size:
            raise PageFileError(
                f"payload of {len(payload)} bytes exceeds page size"
            )
        payload = payload.ljust(self.page_size, b"\0")
        crc = zlib.crc32(payload + _STATE.pack(state))
        self._write_at(
            self._slot_offset(pid), payload + _FOOTER.pack(state, crc)
        )

    def write_page(self, pid: PageId, payload: bytes) -> None:
        """Write one page image into its slot (state = allocated)."""
        self._write_slot(pid, payload, SLOT_ALLOCATED)

    def mark_free(self, pid: PageId, next_free: PageId) -> None:
        """Mark a slot free, chaining it to ``next_free`` (-1 ends)."""
        self._write_slot(pid, _NEXT_FREE.pack(next_free), SLOT_FREE)

    def rebuild_free_chain(self, header: PageFileHeader) -> None:
        """Re-thread the free chain over all free slots, ascending.

        Updates ``header.free_head`` / ``header.free_count`` in place
        (the caller writes the header).  Used by recovery, where the
        set of free slots is known only from slot states.
        """
        prev = -1
        count = 0
        for pid in range(self.slot_count):
            if self.read_slot(pid).state == SLOT_FREE:
                self.mark_free(pid, prev)
                prev = pid
                count += 1
        header.free_head = prev
        header.free_count = count


def _all_expired_predicate(
    codec: NodeCodec,
) -> Callable[[bytes, float], bool]:
    """Build the TR-82 skip predicate (:meth:`NodeCodec.expired_leaf`)."""
    return codec.expired_leaf


class FilePageStore(DiskManager):
    """A durable :class:`~repro.storage.disk.DiskManager`.

    The store inherits the simulated disk's page table: it keeps the
    *decoded* payload of every allocated page in memory, so reads return the
    same full-precision objects and charge the same ``IOStats`` as the
    simulation (one read per :meth:`read`, one write per :meth:`write`,
    none for :meth:`peek` or allocation).  What the simulation lacks is
    added underneath: writes and frees are *staged*, and
    :meth:`commit` (invoked by the buffer pool at every operation
    boundary) encodes the final image of each staged page, appends the
    batch plus a commit record to the write-ahead log, flushes it, and
    only then applies the images to the page file.  Log traffic is
    charged to the WAL's own ``IOStats``, never to the store's.

    Use :meth:`create` / :meth:`open_dir` to construct stores; the
    constructor wires pre-built parts together.

    Parameters
    ----------
    file : PageFile
        The raw slotted file.
    layout : EntryLayout
        Byte layout used to encode node payloads.
    now : callable
        Zero-argument callable returning the simulation clock time
        (stamps commit records and encode reference times).
    wal : WriteAheadLog, optional
        The log; ``None`` makes commits apply directly (snapshot mode,
        not crash-safe mid-operation).
    stats : IOStats, optional
        Page I/O counter sink (a private one is created when omitted).
    """

    def __init__(
        self,
        file: PageFile,
        layout: EntryLayout,
        now: Callable[[], float],
        wal: Optional[WriteAheadLog] = None,
        stats: Optional[IOStats] = None,
    ):
        super().__init__(layout.page_size, stats)
        self._file = file
        self.layout = layout
        self.codec = NodeCodec(layout)
        self.wal = wal
        self._now = now
        self._staged: Dict[PageId, str] = {}
        self._pending_commit: Optional[
            Tuple[int, Dict[PageId, Optional[bytes]]]
        ] = None
        self._op_seq = 0
        self._root_pid: PageId = INVALID_PAGE
        self._closed = False
        self.opened_clock_time = 0.0
        self.recovery: Optional[RecoveryReport] = None
        self._shipper = None

    # -- construction -------------------------------------------------------

    @classmethod
    def create(
        cls,
        directory: str,
        layout: EntryLayout,
        now: Callable[[], float],
        stats: Optional[IOStats] = None,
        wal_stats: Optional[IOStats] = None,
        injector=None,
        fsync: bool = False,
    ) -> "FilePageStore":
        """Create a fresh durable store in ``directory``.

        Writes an empty page file and an empty write-ahead log; the
        directory is created if missing and must not already hold a
        page file.
        """
        os.makedirs(directory, exist_ok=True)
        pages_path = os.path.join(directory, PAGES_FILENAME)
        if os.path.exists(pages_path):
            raise PageFileError(f"refusing to overwrite {pages_path}")
        file = PageFile.create(
            pages_path, layout.page_size, layout.dims, layout_flags(layout),
            injector,
        )
        wal = WriteAheadLog(
            os.path.join(directory, WAL_FILENAME),
            stats=wal_stats, injector=injector, fsync=fsync,
        )
        return cls(file, layout, now, wal=wal, stats=stats)

    @classmethod
    def open_dir(
        cls,
        directory: str,
        layout: EntryLayout,
        now: Callable[[], float],
        stats: Optional[IOStats] = None,
        wal_stats: Optional[IOStats] = None,
        fsync: bool = False,
        registry=None,
        tracer=None,
    ) -> "FilePageStore":
        """Open (and crash-recover) an existing durable store.

        Runs :func:`repro.storage.wal.recover` first — replaying
        committed log records, applying the TR-82 expiration skip and
        resetting the log — then loads every allocated slot back into
        the page table and rebuilds the free list (ascending page
        id order).  The resulting store resumes exactly at the last
        committed operation; its :attr:`recovery` holds the report.

        Raises
        ------
        PageFileError
            If the file's layout disagrees with ``layout``, if an
            allocated slot is corrupt after recovery, or if no committed
            root page exists (nothing durable ever happened).
        """
        pages_path = os.path.join(directory, PAGES_FILENAME)
        wal_path = os.path.join(directory, WAL_FILENAME)
        file = PageFile.open(pages_path)
        header = file.read_header()
        if (
            header.page_size != layout.page_size
            or header.dims != layout.dims
            or header.flags != layout_flags(layout)
        ):
            raise PageFileError(
                "page file layout does not match the supplied layout "
                f"(page_size {header.page_size} vs {layout.page_size}, "
                f"dims {header.dims} vs {layout.dims}, "
                f"flags {header.flags:#x} vs {layout_flags(layout):#x})"
            )
        codec = NodeCodec(layout)
        if registry is not None:
            codec.bind_repair_counter(registry.counter("codec.bound_repairs"))
        report = recover(
            file, wal_path,
            all_expired=_all_expired_predicate(codec),
            registry=registry, tracer=tracer,
        )
        store = cls(
            file, layout, now,
            wal=WriteAheadLog(wal_path, stats=wal_stats, fsync=fsync),
            stats=stats,
        )
        # Share the recovery codec so tolerated bound-inversion repairs
        # during the slot sweep below (and later reads) keep counting
        # into the bound registry counter.
        store.codec = codec
        header = file.read_header()
        store._free = store._load_slots(range(file.slot_count))
        store._next_id = max(header.next_id, file.slot_count)
        store._op_seq = report.op_seq
        store._root_pid = header.root_pid
        store.opened_clock_time = report.clock_time
        store.recovery = report
        if store._root_pid == INVALID_PAGE or \
                store._root_pid not in store._pages:
            raise PageFileError(
                "no committed root page — nothing durable to open"
            )
        return store

    def _load_slots(self, pids) -> List[PageId]:
        """Load the page file's slots ``pids`` into the page table.

        The one slot sweep, behind :meth:`open_dir` and :meth:`replay`:
        an allocated slot is decoded in (a CRC failure raises
        :class:`PageFileError`), any other slot leaves the table.
        Returns the free and never-used pids, in the order given.
        """
        free = []
        for pid in pids:
            slot = self._file.read_slot(pid)
            if slot.state == SLOT_ALLOCATED:
                if not slot.crc_ok:
                    raise PageFileError(
                        f"allocated page {pid} is corrupt after recovery"
                    )
                self._pages[pid] = self.codec.decode(slot.payload)[0]
                continue
            self._pages.pop(pid, None)
            if slot.state in (SLOT_FREE, SLOT_UNUSED):
                free.append(pid)
        return free

    def replay(self, pids) -> RecoveryReport:
        """Replay the log onto the page file, then reload ``pids``.

        A follower's apply step: :func:`repro.storage.wal.recover` redoes
        what was appended to :attr:`wal` (TR-82 skip included) and
        resets the log, whose handle is reopened; reloading the touched
        ``pids`` leaves the page table exactly what :meth:`open_dir`
        would load.  The free list is not kept: followers never allocate.
        """
        self.wal.flush()
        report = recover(
            self._file, self.wal.path, _all_expired_predicate(self.codec)
        )
        self.wal.abandon()
        self.wal = WriteAheadLog(
            self.wal.path, stats=self.wal.stats, fsync=self.wal.fsync
        )
        self._load_slots(pids)
        self._op_seq = report.op_seq
        return report

    def arm_injector(self, injector) -> None:
        """Route all subsequent physical writes through ``injector``.

        Installs the fault injector on both the page file and the
        write-ahead log, so a crash point counted in physical writes
        covers every byte the store persists.

        Parameters
        ----------
        injector : FaultInjector
            The deterministic fault injector to arm (or ``None`` to
            disarm).
        """
        self._file._injector = injector
        if self.wal is not None:
            self.wal._injector = injector

    # -- staging on top of the inherited page table -------------------------

    def free(self, pid: PageId) -> None:
        """Return a page to the free list and stage the slot release."""
        super().free(pid)
        self._staged[pid] = "free"

    def read(self, pid: PageId) -> Any:
        """Read a page, charging one read I/O.

        When a fault injector is armed its ``before_read`` hook runs
        first — the raise site for injected transient read faults — so
        a faulted read charges no I/O (the page never arrived).
        """
        injector = self._file._injector
        if injector is not None and pid in self._pages:
            injector.before_read()
        return super().read(pid)

    def write(self, pid: PageId, payload: Any) -> None:
        """Write a page, charging one write I/O and staging the image."""
        super().write(pid, payload)
        self._staged[pid] = "page"

    # -- introspection ------------------------------------------------------

    @property
    def directory(self) -> str:
        """Directory holding the store's page file and write-ahead log."""
        return os.path.dirname(self._file.path)


    @property
    def op_seq(self) -> int:
        """Sequence number of the last committed operation."""
        return self._op_seq

    @property
    def root_pid(self) -> Optional[PageId]:
        """The registered root page id, or ``None`` if never set."""
        return None if self._root_pid == INVALID_PAGE else self._root_pid

    # -- durability ---------------------------------------------------------

    def set_root(self, pid: PageId) -> None:
        """Register the tree's root page id and persist it in the header.

        The root id is assigned once at tree creation and never changes
        afterwards (the tree grows and shrinks *through* its root page),
        so it is written straight into the header — before the first
        commit, which makes a crash between the two recoverable as
        "nothing durable yet".
        """
        self._root_pid = pid
        header = self._file.read_header()
        header.root_pid = pid
        self._file.write_header(header)

    def commit(self) -> None:
        """Group-commit all staged changes at an operation boundary.

        Encodes the final image of every staged page at the current
        clock time, appends one PAGE/FREE record per page plus a COMMIT
        record to the log, flushes the log, and only then applies the
        images to the page file.  A commit with nothing staged is a
        no-op (queries that dirty no pages advance no state).

        A commit interrupted by a :class:`TransientIOError` stays
        *pending*: its encoded images and operation sequence number are
        retained, and the next call re-drives the whole batch (merged
        with anything staged since).  Re-appending a partially logged
        batch is idempotent under recovery — records without a COMMIT
        never happened, and a duplicated committed batch replays to the
        same images and sequence number.
        """
        pending = self._pending_commit
        if not self._staged and pending is None:
            return
        t = self._now()
        if pending is not None:
            op_seq, image_map = pending
        else:
            op_seq = self._op_seq + 1
            image_map = {}
        for pid, action in sorted(self._staged.items()):
            if action == "page":
                image_map[pid] = self.codec.encode(self._pages[pid], t)
            else:
                image_map[pid] = None
        self._staged.clear()
        self._pending_commit = (op_seq, image_map)
        images = sorted(image_map.items())
        if self.wal is not None:
            for pid, data in images:
                if data is None:
                    self.wal.append_free(pid)
                else:
                    self.wal.append_page(pid, data)
            self.wal.append_commit(op_seq, t)
            self.wal.flush()
        for pid, data in images:
            if data is None:
                self._file.mark_free(pid, -1)
            else:
                self._file.write_page(pid, data)
        self._pending_commit = None
        self._op_seq = op_seq

    def attach_shipper(self, shipper) -> None:
        """Register a WAL shipper to be consulted before log truncation.

        Once attached, every checkpoint's log reset first passes through
        ``shipper.before_truncate(wal, op_seq)``, which spills not yet
        shipped committed batches to an archive segment — truncating the
        live log would otherwise silently destroy batches a tailing
        replica still needs.  Pass ``None`` to detach.
        """
        self._shipper = shipper

    @property
    def quiescent(self) -> bool:
        """Whether no changes are staged and no commit is pending.

        Only at a quiescent point does the page file hold every
        committed image (commits apply images immediately after
        logging), so only then may the log be truncated out from under
        it — the gate for each incremental-checkpoint finalization.
        """
        return not self._staged and self._pending_commit is None

    def _truncate_wal(self, clock_time: float) -> None:
        """Reset the log, giving an attached shipper its say first."""
        if self.wal is None:
            return
        if self._shipper is not None:
            self._shipper.before_truncate(self.wal, self._op_seq)
        self.wal.reset(self._op_seq, clock_time)

    def link_free_slots(self, pids: List[PageId], prev: PageId) -> PageId:
        """Persist free-chain links for ``pids``, continuing from ``prev``.

        One physical write per slot.  Returns the new chain head (the
        last pid written, or ``prev`` unchanged when ``pids`` is empty).
        Used by the online maintainer to spread the free-chain rewrite
        of a checkpoint across many small steps; a stale or partially
        written chain is benign — readers scan slot states and recovery
        rebuilds the chain from scratch.
        """
        for pid in pids:
            self._file.mark_free(pid, prev)
            prev = pid
        return prev

    def finish_checkpoint(self, free_head: PageId, free_count: int) -> None:
        """Finalize a checkpoint whose free chain was written elsewhere.

        Writes the header (allocation watermark, root, clock, the given
        free-chain head/length), fsyncs the page file, and truncates the
        log through the shipping gate.  The caller must hold the store
        at a quiescent point (:attr:`quiescent`); anything staged or
        pending would be destroyed with the log.

        Raises
        ------
        PageFileError
            If the store is not quiescent.
        """
        if not self.quiescent:
            raise PageFileError(
                "finish_checkpoint outside a quiescent point"
            )
        header = self._file.read_header()
        header.next_id = self._next_id
        header.root_pid = self._root_pid
        header.clock_time = self._now()
        header.free_head = free_head
        header.free_count = free_count
        self._file.write_header(header)
        self._file.sync()
        self._truncate_wal(header.clock_time)

    def checkpoint(self) -> None:
        """Make the page file self-contained and truncate the log.

        Commits any staged changes, rewrites the free chain and header
        (root, clock, allocation watermark), fsyncs the page file, and
        atomically resets the log to a single checkpoint record (an
        attached shipper first spills unshipped batches — see
        :meth:`attach_shipper`).  A no-op on a closed store, so
        shutdown paths may call it unconditionally.
        """
        if self._closed:
            return
        self.commit()
        free_head = self.link_free_slots(self._free, -1)
        self.finish_checkpoint(free_head, len(self._free))

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` or :meth:`abandon` has run."""
        return self._closed

    def close(self) -> None:
        """Checkpoint and release all file handles (idempotent).

        A second call is a no-op.  A transient fault during the final
        checkpoint is swallowed: the write-ahead log already holds every
        committed operation, so releasing the handles loses nothing —
        :meth:`open_dir` replays the committed prefix.  Fatal faults
        (:class:`~repro.storage.faults.SimulatedCrash`) still propagate;
        a dead process must go through :meth:`abandon`.
        """
        if self._closed:
            return
        try:
            self.checkpoint()
        except TransientIOError:
            # Committed state is safe in the WAL; only the uncommitted
            # tail of the interrupted flush is lost, exactly as if the
            # process had stopped one operation earlier.
            pass
        self._closed = True
        self._file.close()
        if self.wal is not None:
            self.wal.close()

    def abandon(self) -> None:
        """Release file handles without flushing (process death)."""
        self._closed = True
        self._file.abandon()
        if self.wal is not None:
            self.wal.abandon()

    # -- snapshotting -------------------------------------------------------

    @classmethod
    def snapshot(
        cls,
        directory: str,
        layout: EntryLayout,
        now: Callable[[], float],
        pages: Dict[PageId, Any],
        free: List[PageId],
        next_id: PageId,
        root_pid: PageId,
        stats: Optional[IOStats] = None,
    ) -> "FilePageStore":
        """Write a full image of an in-memory store to ``directory``.

        Used by ``persist_to`` on simulated trees: every live page is
        encoded and written straight to the page file (no logging — the
        snapshot is atomic from the caller's point of view because the
        header, written last, is what makes the file openable), then
        the store checkpoints, leaving a clean log.
        """
        store = cls.create(directory, layout, now, stats=stats)
        t = now()
        for pid, payload in pages.items():
            store._file.write_page(pid, store.codec.encode(payload, t))
        store._pages = dict(pages)
        store._free = list(free)
        store._next_id = next_id
        store.set_root(root_pid)
        store.checkpoint()
        return store
