"""Online WAL maintenance: incremental checkpoints that never block.

A full :meth:`repro.storage.pagefile.FilePageStore.checkpoint` rewrites
the whole free chain, the header, fsyncs and truncates the log in one
blocking call.  The :class:`OnlineMaintainer` spreads the same work over
many tiny steps interleaved with serving — each step is a handful of
slot writes at most — so a long-running primary keeps its WAL footprint
bounded without ever stalling a request behind a checkpoint.

The decomposition is safe because of two standing invariants:

* **Commits apply images immediately.**  At any quiescent point (no
  staged changes, no pending commit) the page file already holds every
  committed image, so the only work left before a log truncation is the
  free chain, the header and an fsync.
* **The free chain is advisory.**  Readers scan slot states and
  recovery rebuilds the chain from scratch, so a chain written
  incrementally — possibly stale by the time the header lands — can
  never corrupt allocation.  The maintainer still skips any snapshotted
  pid that was reallocated mid-cycle: overwriting a live slot with a
  free mark would destroy committed data.

The final step goes through the store's shipping gate
(:meth:`~repro.storage.pagefile.FilePageStore.finish_checkpoint`), so
truncation racing shipment resolves the same way a blocking checkpoint
does: unshipped batches spill to an archive segment.
"""

from __future__ import annotations

from typing import List

from ..obs.metrics import NULL_REGISTRY
from ..storage.faults import TransientIOError
from ..storage.pagefile import FilePageStore


class OnlineMaintainer:
    """Incrementally checkpoint a store to bound its WAL footprint.

    Parameters
    ----------
    store : FilePageStore
        The primary's page store (the maintainer only writes free-chain
        slots and the final header through the store's own methods).
    wal_soft_limit : int, optional
        Log size in bytes that arms the next checkpoint cycle.
    chain_budget : int, optional
        Maximum free-chain slot writes per :meth:`step`.
    registry : MetricsRegistry, optional
        Receives the ``replication.truncation_cycles`` counter and the
        ``replication.primary_wal_bytes`` gauge.
    """

    def __init__(
        self,
        store: FilePageStore,
        wal_soft_limit: int = 64 * 1024,
        chain_budget: int = 8,
        registry=None,
    ):
        self.store = store
        self.wal_soft_limit = wal_soft_limit
        self.chain_budget = chain_budget
        self.cycles = 0
        self.high_water = 0
        self._phase = "idle"
        self._pids: List[int] = []
        self._pos = 0
        self._prev = -1
        self._count = 0
        registry = registry or NULL_REGISTRY
        self._c_cycles = registry.counter("replication.truncation_cycles")
        registry.gauge("replication.primary_wal_bytes", fn=self.wal_bytes)
        registry.gauge(
            "replication.primary_wal_high_water", fn=lambda: self.high_water
        )

    def wal_bytes(self) -> int:
        """Current size of the primary's live write-ahead log."""
        return 0 if self.store.wal is None else self.store.wal.size

    def _observe(self) -> int:
        size = self.wal_bytes()
        self.high_water = max(self.high_water, size)
        return size

    def step(self) -> bool:
        """Run one bounded maintenance step; return whether work was done.

        Phases: ``idle`` (watch the log size) → ``chain`` (persist up to
        ``chain_budget`` free-chain links) → ``final`` (header + fsync +
        gated truncation).  Every phase transition re-checks that the
        store is quiescent and open; a transient fault abandons the
        cycle — the next step starts over, nothing is half-truncated.
        """
        if self.store.closed:
            return False
        size = self._observe()
        if self._phase == "idle":
            if size < self.wal_soft_limit or not self.store.quiescent:
                return False
            self._pids = self.store.free_page_ids()
            self._pos = 0
            self._prev = -1
            self._count = 0
            self._phase = "chain"
            return True
        if self._phase == "chain":
            live_free = set(self.store.free_page_ids())
            batch = [
                pid for pid in self._pids[self._pos:self._pos +
                                          self.chain_budget]
                if pid in live_free
            ]
            self._pos += self.chain_budget
            try:
                self._prev = self.store.link_free_slots(batch, self._prev)
            except TransientIOError:
                self._phase = "idle"
                return True
            self._count += len(batch)
            if self._pos >= len(self._pids):
                self._phase = "final"
            return True
        # final
        if not self.store.quiescent:
            return False
        try:
            self.store.finish_checkpoint(self._prev, self._count)
        except TransientIOError:
            self._phase = "idle"
            return True
        self.cycles += 1
        self._c_cycles.inc()
        self._phase = "idle"
        self._observe()
        return True
