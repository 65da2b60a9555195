"""LRU buffer pool over the simulated disk.

Reproduces the buffering discipline of the paper's experiments
(Section 5.1): a fixed number of pages (50 at 4 KB = 200 KB), the tree
root pinned, least-recently-used replacement, and dirty pages written to
disk at the end of each index operation or when evicted.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Optional, Set

from .disk import DiskManager, PageError, PageId


class BufferPool:
    """Fixed-capacity page cache with LRU replacement and pinning.

    All page traffic of an index goes through one pool; buffer hits are
    free, misses charge a disk read, and evictions or end-of-operation
    flushes of dirty pages charge disk writes.

    The pool keeps its own ``hits`` / ``misses`` / ``evictions`` /
    ``pins`` counters (plain ints, always on): misses equal the disk
    reads it causes, but hits were previously invisible, and the hit
    rate is what makes or breaks the page-I/O model.
    """

    def __init__(self, disk: DiskManager, capacity: int = 50):
        if capacity <= 0:
            raise ValueError(f"buffer capacity must be positive, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._frames: "OrderedDict[PageId, Any]" = OrderedDict()
        self._dirty: Set[PageId] = set()
        self._pinned: Set[PageId] = set()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.pins = 0

    # -- pinning ------------------------------------------------------------

    def pin(self, pid: PageId) -> None:
        """Pin a page so it is never evicted (used for the tree root)."""
        self._pinned.add(pid)
        self.pins += 1

    def is_pinned(self, pid: PageId) -> bool:
        """True if the page is currently protected from eviction."""
        return pid in self._pinned

    # -- access -------------------------------------------------------------

    def get(self, pid: PageId) -> Any:
        """Fetch a page, reading from disk on a buffer miss."""
        if pid in self._frames:
            self.hits += 1
            self._frames.move_to_end(pid)
            return self._frames[pid]
        self.misses += 1
        payload = self.disk.read(pid)
        self._admit(pid, payload)
        return payload

    def put_new(self, pid: PageId, payload: Any) -> None:
        """Install a freshly allocated page; it is dirty but costs no read."""
        self._admit(pid, payload)
        self._dirty.add(pid)

    def mark_dirty(self, pid: PageId, payload: Any = None) -> None:
        """Mark a page dirty, optionally replacing its payload.

        Writing re-admits a page that was evicted mid-operation (tiny
        pools can rotate an operation's working set out between its read
        and its write); the payload is then required.
        """
        if pid not in self._frames:
            if payload is None:
                raise PageError(f"mark_dirty of unbuffered page {pid}")
            self._admit(pid, payload)
        elif payload is not None:
            self._frames[pid] = payload
        self._frames.move_to_end(pid)
        self._dirty.add(pid)

    def discard(self, pid: PageId) -> None:
        """Drop a page from the buffer without flushing (page was freed)."""
        self._frames.pop(pid, None)
        self._dirty.discard(pid)
        self._pinned.discard(pid)

    # -- write-back ---------------------------------------------------------

    def flush(self, pid: PageId) -> None:
        """Write one dirty page back to disk."""
        if pid in self._dirty:
            self.disk.write(pid, self._frames[pid])
            self._dirty.discard(pid)

    def flush_all(self) -> None:
        """Write all dirty pages back to disk (end of an index operation).

        Pages stay resident; only the dirty bits are cleared.  This matches
        the paper: "Nodes modified during an index operation are marked as
        'dirty' in the buffer and are written to disk at the end of the
        operation or when they otherwise have to be removed from the
        buffer."
        """
        for pid in sorted(self._dirty):
            self.disk.write(pid, self._frames[pid])
        self._dirty.clear()
        self.disk.commit()

    def clear(self) -> None:
        """Flush everything and empty the pool (used between experiments).

        Pins survive: they express ownership (the tree root must never
        be evicted), not residency, and no tree re-pins its root after a
        clear.  Dropping them here would let the root rotate out of a
        small pool mid-operation and charge phantom re-reads.  Pages are
        unpinned when their owner frees them (:meth:`discard`).
        """
        self.flush_all()
        self._frames.clear()

    # -- internals ----------------------------------------------------------

    def _admit(self, pid: PageId, payload: Any) -> None:
        if pid in self._frames:
            self._frames[pid] = payload
            self._frames.move_to_end(pid)
            return
        while len(self._frames) >= self.capacity:
            victim = self._choose_victim()
            if victim is None:
                # Everything is pinned; over-admit rather than deadlock.
                break
            self._evict(victim)
        self._frames[pid] = payload

    def _choose_victim(self) -> Optional[PageId]:
        for pid in self._frames:
            if pid not in self._pinned:
                return pid
        return None

    def _evict(self, pid: PageId) -> None:
        self.evictions += 1
        if pid in self._dirty:
            self.disk.write(pid, self._frames[pid])
            self._dirty.discard(pid)
        del self._frames[pid]

    # -- introspection ------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        """Fraction of page fetches served from the buffer (0.0 if none)."""
        accesses = self.hits + self.misses
        if accesses == 0:
            return 0.0
        return self.hits / accesses

    @property
    def resident_pages(self) -> int:
        """Number of pages currently held in the pool."""
        return len(self._frames)

    @property
    def dirty_pages(self) -> int:
        """Number of resident pages with unflushed modifications."""
        return len(self._dirty)

    def is_resident(self, pid: PageId) -> bool:
        """True if the page is currently held in the pool."""
        return pid in self._frames
