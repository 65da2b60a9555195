"""Scheduled deletion of expiring objects (Section 3).

The alternative to lazy expiry: every insertion also schedules a
deletion at the object's expiration time in a disk-based B+-tree keyed
on ``(t_exp, object id)``.  When simulation time passes an event, the
object is deleted from the primary index at exactly its expiration
instant.  Objects that are updated or deleted before expiring must have
their pending events removed — the reason the queue must be a
dictionary-like structure rather than a simple heap.
"""

from __future__ import annotations

import math
from typing import List, Optional

from ..btree.bptree import BPlusTree
from ..geometry.kinematics import MovingPoint
from .index import MovingObjectIndex
from .tree import LeafEntry


class ScheduledDeletionIndex(MovingObjectIndex):
    """A moving-object tree paired with a B+-tree deletion queue.

    Wraps either a TPR-tree ("TPR-tree with scheduled deletions") or an
    R^exp-tree ("R^exp-tree with scheduled deletions") — the two
    comparison architectures of Section 5.4 — or a velocity-partitioned
    forest of either, which exposes the same interface.

    Only the write half is the wrapper's own: every insertion and
    deletion also maintains the queue.  Everything else — queries,
    ``stats``, ``page_count``, ``audit``, ``snapshot``, ``close`` — is
    the wrapped index's and is forwarded to it.

    The B+-tree's I/O is accounted separately (``queue.stats``); the
    paper's figures exclude it, and note that including it roughly
    doubles the update cost.
    """

    def __init__(
        self,
        tree: MovingObjectIndex,
        queue_page_size: Optional[int] = None,
        queue_buffer_pages: int = 50,
    ):
        self.tree = tree
        self.clock = tree.clock
        self.queue = BPlusTree(
            queue_page_size or tree.config.page_size, queue_buffer_pages
        )
        #: Number of scheduled deletions that removed a live entry.
        self.scheduled_deletions = 0
        #: Number of due events whose entry was already gone (lazily
        #: purged or deleted behind the queue's back); their search I/O
        #: is real but no deletion work was done, so Section 5.4's
        #: per-deletion accounting must not count them.
        self.missed_deletions = 0
        #: Tree I/O consumed by scheduled deletions (reads, writes).
        self._sched_hook = None

    def __getattr__(self, name: str):
        """Forward what the wrapper does not own to the wrapped index."""
        return getattr(self.tree, name)

    # -- primary operations -----------------------------------------------------

    def insert(self, oid: int, point: MovingPoint) -> None:
        self.tree.insert(oid, point)
        if math.isfinite(point.t_exp):
            self.queue.insert((point.t_exp, oid), point)

    def bulk_load(self, entries: List[LeafEntry]) -> None:
        """Bulk-load the tree and schedule a deletion per finite report."""
        self.tree.bulk_load(entries)
        for point, oid in entries:
            if math.isfinite(point.t_exp):
                self.queue.insert((point.t_exp, oid), point)

    def delete(self, oid: int, point: MovingPoint) -> bool:
        removed = self.tree.delete(oid, point)
        if math.isfinite(point.t_exp):
            self.queue.delete((point.t_exp, oid))
        return removed

    # -- time -----------------------------------------------------------------------

    def advance_time(self, t: float) -> None:
        """Advance the clock, firing scheduled deletions on the way.

        Each due event advances the clock to exactly the expiration
        instant first, so the entry is still live (and still inside its
        bounding rectangles) when the deletion searches for it.
        """
        while True:
            item = self.queue.min_item()
            if item is None or item[0][0] > t:
                break
            (t_exp, oid), point = item
            self.clock.advance_to(t_exp)
            self.queue.delete((t_exp, oid))
            before = self.tree.stats.snapshot()
            removed = self.tree.delete(oid, point)
            if removed:
                self.scheduled_deletions += 1
                if self._sched_hook is not None:
                    self._sched_hook(self.tree.stats.since(before))
            else:
                self.missed_deletions += 1
        self.clock.advance_to(t)

    def on_scheduled_deletion(self, hook) -> None:
        """Register a callback receiving the tree-I/O delta per event."""
        self._sched_hook = hook

    # -- introspection ---------------------------------------------------------------

    @property
    def aux_io(self) -> int:
        """Cumulative I/O outside ``stats``: the queue's, plus the tree's WAL."""
        return self.queue.stats.total + self.tree.aux_io

    @property
    def queue_page_count(self) -> int:
        return self.queue.page_count

    @property
    def pending_events(self) -> int:
        return len(self.queue)
